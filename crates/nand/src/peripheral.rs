//! On-die peripheral logic reused by REIS for computation.
//!
//! Modern NAND dies already contain (Sec. 2.3): a *fail-bit counter* that
//! counts set bits during program verification, a *pass/fail checker* that
//! compares the count against a threshold to steer ISPP, and XOR logic
//! between the latches used for on-chip data randomization. REIS repurposes
//! the XOR logic to compute bitwise differences, the fail-bit counter to turn
//! those differences into Hamming distances, and the pass/fail checker to
//! implement distance filtering.
//!
//! # Hot-path invariants
//!
//! These helpers sit at the bottom of the query scan loop. The actual bit
//! kernels — word-parallel `u64` processing, byte-wise tails, runtime POPCNT
//! dispatch, allocation-free `_into` variants — live in the workspace's
//! single kernel crate, [`reis_kernels`], and are re-exported here; this
//! module only adds the peripheral framing (per-chunk semantics, the
//! pass/fail comparator, the fused multi-query counter).

use serde::{Deserialize, Serialize};

pub use reis_kernels::{popcount_bytes, xor_bytes_into, xor_count_filter_into, FusedHit};

/// The on-die fail-bit counter, repurposed as a per-mini-page popcount
/// engine.
///
/// # Examples
///
/// ```
/// use reis_nand::peripheral::FailBitCounter;
///
/// // Two 2-byte "embeddings" whose XOR results are held in a latch.
/// let latch = [0b1111_0000u8, 0b0000_0001, 0b0000_0000, 0b1010_1010];
/// let counts = FailBitCounter::count_per_chunk(&latch, 2);
/// assert_eq!(counts, vec![5, 4]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailBitCounter;

impl FailBitCounter {
    /// Count the number of set bits in every `chunk_bytes`-sized chunk of the
    /// latch contents.
    ///
    /// When the latch holds the XOR of a broadcast query with a page of
    /// binary embeddings, each chunk corresponds to one embedding and the
    /// count is exactly the Hamming distance between the query and that
    /// embedding.
    ///
    /// A trailing partial chunk (when `latch.len()` is not a multiple of
    /// `chunk_bytes`) is counted as its own entry.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn count_per_chunk(latch: &[u8], chunk_bytes: usize) -> Vec<u32> {
        let mut out = Vec::new();
        Self::count_per_chunk_into(latch, chunk_bytes, &mut out);
        out
    }

    /// Allocation-free variant of [`FailBitCounter::count_per_chunk`]: the
    /// counts are written into `out` (cleared first), so a page-scan loop can
    /// reuse one buffer for every page. The POPCNT dispatch is hoisted out of
    /// the per-chunk loop.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn count_per_chunk_into(latch: &[u8], chunk_bytes: usize, out: &mut Vec<u32>) {
        reis_kernels::count_per_chunk_into(latch, chunk_bytes, out);
    }

    /// Fused multi-query fail-bit count: score one sensed page against every
    /// broadcast query in a single pass over the page chunks, filling `out`
    /// query-major (query `q`'s per-chunk counts occupy
    /// `out[q * n_chunks .. (q + 1) * n_chunks]`).
    ///
    /// This models the multi-query form of REIS's in-plane computation: the
    /// page is sensed into the latches *once*, and the XOR + fail-bit-count
    /// peripheral runs once per resident query against the same sensed
    /// stripe. Callers account the sense once and the in-plane operations
    /// per `(page, query)` pair — see `FlashStats::fused_scan`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero or a query's length differs from
    /// `chunk_bytes`.
    pub fn count_fused_into(
        latch: &[u8],
        chunk_bytes: usize,
        queries: &[&[u8]],
        out: &mut Vec<u32>,
    ) {
        reis_kernels::fused_hamming_per_chunk_into(latch, chunk_bytes, queries, out);
    }

    /// Count the set bits of the entire latch (the original use of the
    /// fail-bit counter during program verification).
    pub fn count_total(latch: &[u8]) -> u64 {
        popcount_bytes(latch)
    }
}

/// The on-die pass/fail checker, repurposed as the distance-filtering
/// comparator (Sec. 4.3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassFailChecker;

impl PassFailChecker {
    /// For every counted value, report whether it *passes* the filter, i.e.
    /// whether the value is less than or equal to `threshold`.
    ///
    /// In REIS a passing entry is an embedding whose Hamming distance from
    /// the query is small enough to be forwarded to the SSD controller.
    pub fn passes(counts: &[u32], threshold: u32) -> Vec<bool> {
        counts.iter().map(|&c| c <= threshold).collect()
    }

    /// Number of entries that pass the filter.
    pub fn pass_count(counts: &[u32], threshold: u32) -> usize {
        counts.iter().filter(|&&c| c <= threshold).count()
    }

    /// Fused count-and-filter: invoke `emit(slot, count)` for every count at
    /// or below `threshold` and return how many passed, without materializing
    /// a `Vec<bool>`. This is the form the scan hot path uses.
    pub fn filter_passing(
        counts: &[u32],
        threshold: u32,
        mut emit: impl FnMut(usize, u32),
    ) -> usize {
        let mut passed = 0usize;
        for (slot, &count) in counts.iter().enumerate() {
            if count <= threshold {
                passed += 1;
                emit(slot, count);
            }
        }
        passed
    }

    /// Threshold-aware fused scoring: score the first `slot_limit` chunks of
    /// one sensed page against every query (each page chunk loaded once, as
    /// in [`FailBitCounter::count_fused_into`]) and emit only the
    /// [`FusedHit`]s at or below that query's own threshold.
    ///
    /// This is the comparator form the windowed adaptive scan uses: every
    /// query's threshold is constant for the duration of one page window, so
    /// the pass/fail check folds into the scoring pass and failing distances
    /// are never materialized. Callers still account one fail-bit count and
    /// one pass/fail check per `(page, query)` pair — fusing the comparison
    /// changes where the work happens, not how much of it the peripheral
    /// performs.
    ///
    /// `out` is a reusable hit buffer (see
    /// [`reis_kernels::fused_hamming_filter_into`] for the exact contract
    /// and panics).
    pub fn filter_fused(
        latch: &[u8],
        chunk_bytes: usize,
        slot_limit: usize,
        queries: &[&[u8]],
        thresholds: &[u32],
        out: &mut Vec<FusedHit>,
    ) {
        reis_kernels::fused_hamming_filter_into(
            latch,
            chunk_bytes,
            slot_limit,
            queries,
            thresholds,
            out,
        );
    }
}

/// The inter-latch XOR logic (normally used for on-chip data randomization),
/// exposed as a standalone helper for callers that operate on raw buffers
/// rather than on a [`crate::latch::PageBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct XorLogic;

impl XorLogic {
    /// XOR two equally sized buffers into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths; the latches of one plane
    /// always have identical sizes.
    pub fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        xor_bytes_into(a, b, &mut out);
        out
    }

    /// Allocation-free variant of [`XorLogic::xor`]: XOR into a reused
    /// output buffer (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths.
    pub fn xor_into(a: &[u8], b: &[u8], out: &mut Vec<u8>) {
        xor_bytes_into(a, b, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_per_chunk_is_hamming_distance_of_xor() {
        let a = [0b1111_1111u8, 0b0000_0000, 0b1010_1010, 0b0101_0101];
        let b = [0b1111_0000u8, 0b0000_1111, 0b1010_1010, 0b1010_1010];
        let xored = XorLogic::xor(&a, &b);
        let counts = FailBitCounter::count_per_chunk(&xored, 2);
        assert_eq!(counts, vec![8, 8]);
        assert_eq!(FailBitCounter::count_total(&xored), 16);
    }

    #[test]
    fn trailing_partial_chunk_is_counted() {
        let latch = [0xFFu8, 0xFF, 0x0F];
        let counts = FailBitCounter::count_per_chunk(&latch, 2);
        assert_eq!(counts, vec![16, 4]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be non-zero")]
    fn zero_chunk_size_panics() {
        FailBitCounter::count_per_chunk(&[1, 2, 3], 0);
    }

    #[test]
    fn pass_fail_threshold_is_inclusive() {
        let counts = vec![10, 200, 42, 43];
        assert_eq!(
            PassFailChecker::passes(&counts, 42),
            vec![true, false, true, false]
        );
        assert_eq!(PassFailChecker::pass_count(&counts, 42), 2);
        assert_eq!(PassFailChecker::pass_count(&counts, 0), 0);
        assert_eq!(PassFailChecker::pass_count(&counts, u32::MAX), 4);
    }

    #[test]
    fn word_kernels_match_bytewise_reference_on_odd_tails() {
        // Lengths straddling word boundaries exercise the tail handling.
        for len in [1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let reference: u64 = data.iter().map(|b| b.count_ones() as u64).sum();
            assert_eq!(popcount_bytes(&data), reference, "len {len}");
            for chunk in [1usize, 3, 8, 13, 32] {
                let got = FailBitCounter::count_per_chunk(&data, chunk);
                let want: Vec<u32> = data
                    .chunks(chunk)
                    .map(|c| c.iter().map(|b| b.count_ones()).sum())
                    .collect();
                assert_eq!(got, want, "len {len} chunk {chunk}");
            }
            let other: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
            let xor_ref: Vec<u8> = data.iter().zip(&other).map(|(a, b)| a ^ b).collect();
            assert_eq!(XorLogic::xor(&data, &other), xor_ref, "len {len}");
        }
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let mut counts = vec![99u32; 4];
        FailBitCounter::count_per_chunk_into(&[0xFF, 0x01], 1, &mut counts);
        assert_eq!(counts, vec![8, 1]);
        let mut out = vec![7u8; 10];
        XorLogic::xor_into(&[0xF0, 0x0F], &[0xFF, 0xFF], &mut out);
        assert_eq!(out, vec![0x0F, 0xF0]);
    }

    #[test]
    fn filter_passing_matches_passes() {
        let counts = vec![10, 200, 42, 43, 0];
        let mut got = Vec::new();
        let passed = PassFailChecker::filter_passing(&counts, 42, |slot, c| got.push((slot, c)));
        assert_eq!(passed, 3);
        assert_eq!(got, vec![(0, 10), (2, 42), (4, 0)]);
        let flags = PassFailChecker::passes(&counts, 42);
        for (slot, &flag) in flags.iter().enumerate() {
            assert_eq!(flag, got.iter().any(|&(s, _)| s == slot));
        }
    }

    #[test]
    fn fused_count_matches_per_query_counts() {
        let page: Vec<u8> = (0..64).map(|i| (i * 13 + 5) as u8).collect();
        let queries: Vec<Vec<u8>> = (0..3)
            .map(|q| (0..16).map(|i| (i * 7 + q) as u8).collect())
            .collect();
        let query_refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let mut fused = Vec::new();
        FailBitCounter::count_fused_into(&page, 16, &query_refs, &mut fused);
        let n_chunks = page.len() / 16;
        for (q, query) in queries.iter().enumerate() {
            let tiled: Vec<u8> = (0..page.len()).map(|i| query[i % 16]).collect();
            let expected = FailBitCounter::count_per_chunk(&XorLogic::xor(&page, &tiled), 16);
            assert_eq!(
                &fused[q * n_chunks..(q + 1) * n_chunks],
                &expected[..],
                "query {q}"
            );
        }
    }

    #[test]
    fn xor_of_identical_buffers_is_zero() {
        let a = vec![0xAB; 64];
        let out = XorLogic::xor(&a, &a);
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(FailBitCounter::count_total(&out), 0);
    }

    #[test]
    #[should_panic(expected = "identical sizes")]
    fn xor_panics_on_length_mismatch() {
        XorLogic::xor(&[1, 2], &[1, 2, 3]);
    }
}
