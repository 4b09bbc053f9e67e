//! # reis-kernels — the word-level bit kernels of the REIS workspace
//!
//! The single home of the XOR/popcount and Hamming-distance kernels that the
//! rest of the workspace computes with. `reis-nand`'s peripheral model (the
//! fail-bit counter and inter-latch XOR logic), `reis-ann`'s vector types and
//! `reis-bench`'s baseline measurements all re-export from here, so exactly
//! one implementation of each kernel exists — including the runtime POPCNT
//! dispatch that used to be duplicated per crate.
//!
//! # Kernel discipline
//!
//! * All bit counting and XOR-ing operates on `u64` words (8 bytes at a
//!   time) with exact byte-wise handling of any trailing partial word —
//!   mirroring how the physical peripheral processes a whole bitline stripe
//!   per cycle.
//! * Every entry point dispatches once to a body compiled with the hardware
//!   POPCNT instruction when the CPU has it (baseline x86-64 only guarantees
//!   the multi-op SWAR fallback for `count_ones`); the dispatch is hoisted
//!   out of all inner loops.
//! * The `_into` variants write into caller-provided buffers, so steady-state
//!   page scans perform no heap allocation here.
//!
//! # The single-pass scan kernel
//!
//! [`xor_count_filter_into`] scores one stored page in place against an
//! equally long latch image (the broadcast query tiled across the page):
//! each slot is XOR-popcounted against the image bytes at the same offset
//! and only the `(slot, distance)` pairs that pass the threshold are
//! emitted. It computes exactly what [`xor_bytes_into`], then
//! [`count_per_chunk_into`], then a threshold pass compute, in one pass
//! and without writing a page-sized intermediate. The two-pass kernels stay
//! for the latch path that senses a page into its plane's buffers.
//!
//! # The fused multi-query kernels
//!
//! [`fused_hamming_per_chunk_into`] scores one sensed page against `B`
//! broadcast queries in a single pass over the page: each page chunk is
//! loaded once and XOR-popcounted against every query while it sits in L1.
//! This is the software mirror of REIS amortizing a flash sense across a
//! batch of in-flight queries — the page moves through the peripheral
//! once, the per-query XOR + fail-bit count runs `B` times.
//! [`fused_hamming_filter_into`] additionally folds the pass/fail
//! comparison into the same pass: each query carries its own threshold
//! (fixed for the duration of one page window under the windowed adaptive
//! schedule) and only passing [`FusedHit`]s are emitted.
//!
//! All three scoring kernels share one XOR-popcount body and its POPCNT
//! dispatch.
//!
//! # CRC32C
//!
//! [`crc32c`] / [`crc32c_extend`] implement the Castagnoli CRC
//! (polynomial `0x1EDC6F41`, reflected) used by `reis-persist` for both the
//! snapshot section checksums and the WAL frame checksums, so exactly one
//! checksum implementation guards every durable byte. It is table-driven
//! (the 256-entry table is built at compile time) with a bitwise
//! [`reference::crc32c`] baseline the tests verify against.
//!
//! The byte-at-a-time [`mod@reference`] kernels match the seed
//! implementation and are kept solely as the baseline the benchmarks
//! measure against.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[inline(always)]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// Word-parallel popcount body, shared by the portable and the
/// POPCNT-enabled entry points: `u64` words four at a time with independent
/// accumulators so the popcounts pipeline, then a byte-wise tail.
#[inline(always)]
fn popcount_bytes_core(bytes: &[u8]) -> u64 {
    let mut blocks = bytes.chunks_exact(32);
    let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
    for block in blocks.by_ref() {
        s0 += word(&block[0..8]).count_ones() as u64;
        s1 += word(&block[8..16]).count_ones() as u64;
        s2 += word(&block[16..24]).count_ones() as u64;
        s3 += word(&block[24..32]).count_ones() as u64;
    }
    let mut words = blocks.remainder().chunks_exact(8);
    let mut total = s0 + s1 + s2 + s3;
    for w in words.by_ref() {
        total += word(w).count_ones() as u64;
    }
    for &b in words.remainder() {
        total += b.count_ones() as u64;
    }
    total
}

/// Word-parallel XOR-popcount body (two `u64` words per step with
/// independent accumulators, byte-wise tail), shared by the portable and
/// POPCNT entry points.
#[inline(always)]
fn hamming_core(a: &[u8], b: &[u8]) -> u32 {
    let mut ab = a.chunks_exact(16);
    let mut bb = b.chunks_exact(16);
    let (mut s0, mut s1) = (0u32, 0u32);
    for (x, y) in ab.by_ref().zip(bb.by_ref()) {
        s0 += (word(&x[0..8]) ^ word(&y[0..8])).count_ones();
        s1 += (word(&x[8..16]) ^ word(&y[8..16])).count_ones();
    }
    let mut aw = ab.remainder().chunks_exact(8);
    let mut bw = bb.remainder().chunks_exact(8);
    let mut total = s0 + s1;
    for (x, y) in aw.by_ref().zip(bw.by_ref()) {
        total += (word(x) ^ word(y)).count_ones();
    }
    for (x, y) in aw.remainder().iter().zip(bw.remainder()) {
        total += (x ^ y).count_ones();
    }
    total
}

/// `popcount_bytes_core` compiled with the hardware POPCNT instruction.
///
/// # Safety
///
/// The caller must ensure the CPU supports the `popcnt` feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn popcount_bytes_popcnt(bytes: &[u8]) -> u64 {
    popcount_bytes_core(bytes)
}

/// `hamming_core` compiled with the hardware POPCNT instruction.
///
/// # Safety
///
/// The caller must ensure the CPU supports the `popcnt` feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn hamming_popcnt(a: &[u8], b: &[u8]) -> u32 {
    hamming_core(a, b)
}

/// Set-bit count of a byte slice, processed as `u64` words with a byte-wise
/// tail; uses the hardware POPCNT instruction when the CPU has it.
#[inline]
pub fn popcount_bytes(bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: feature presence checked at runtime just above.
        return unsafe { popcount_bytes_popcnt(bytes) };
    }
    popcount_bytes_core(bytes)
}

/// Hamming distance between two equally long byte slices, processed as
/// `u64` words with a byte-wise tail; uses the hardware POPCNT instruction
/// when the CPU has it.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn hamming_bytes(a: &[u8], b: &[u8]) -> u32 {
    assert_eq!(a.len(), b.len(), "hamming distance requires equal lengths");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: feature presence checked at runtime just above.
        return unsafe { hamming_popcnt(a, b) };
    }
    hamming_core(a, b)
}

/// XOR `a` and `b` into `out` (cleared and resized first), processed as
/// `u64` words with a byte-wise tail.
///
/// # Panics
///
/// Panics if the inputs have different lengths.
#[inline]
pub fn xor_bytes_into(a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    assert_eq!(a.len(), b.len(), "latch contents must have identical sizes");
    out.clear();
    out.resize(a.len(), 0);
    let mut aw = a.chunks_exact(8);
    let mut bw = b.chunks_exact(8);
    let mut ow = out.chunks_exact_mut(8);
    for ((x, y), o) in aw.by_ref().zip(bw.by_ref()).zip(ow.by_ref()) {
        let xw = word(x);
        let yw = word(y);
        o.copy_from_slice(&(xw ^ yw).to_le_bytes());
    }
    for ((x, y), o) in aw
        .remainder()
        .iter()
        .zip(bw.remainder())
        .zip(ow.into_remainder())
    {
        *o = x ^ y;
    }
}

/// Count the set bits of every `chunk_bytes`-sized chunk of `latch`,
/// appending one count per chunk into `out` (cleared first). A trailing
/// partial chunk is counted as its own entry. The POPCNT dispatch is hoisted
/// out of the per-chunk loop.
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero.
pub fn count_per_chunk_into(latch: &[u8], chunk_bytes: usize, out: &mut Vec<u32>) {
    #[inline(always)]
    fn core(latch: &[u8], chunk_bytes: usize, out: &mut Vec<u32>) {
        out.extend(
            latch
                .chunks(chunk_bytes)
                .map(|chunk| popcount_bytes_core(chunk) as u32),
        );
    }
    /// # Safety: caller checks the `popcnt` feature.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn core_popcnt(latch: &[u8], chunk_bytes: usize, out: &mut Vec<u32>) {
        core(latch, chunk_bytes, out)
    }

    assert!(chunk_bytes > 0, "chunk size must be non-zero");
    out.clear();
    out.reserve(latch.len().div_ceil(chunk_bytes));
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: feature presence checked at runtime just above.
        unsafe { core_popcnt(latch, chunk_bytes, out) };
        return;
    }
    core(latch, chunk_bytes, out);
}

/// Body of the single-pass scan kernel: XOR-popcount each of the first
/// `slot_limit` chunks of `page` against the equally placed chunk of
/// `image` and emit the `(slot, distance)` pairs at or below `threshold`.
#[inline(always)]
fn xor_count_filter_core(
    page: &[u8],
    image: &[u8],
    chunk_bytes: usize,
    slot_limit: usize,
    threshold: u32,
    out: &mut Vec<(u32, u32)>,
) {
    let chunks = page.chunks(chunk_bytes).zip(image.chunks(chunk_bytes));
    for (slot, (chunk, query)) in chunks.take(slot_limit).enumerate() {
        let distance = hamming_core(chunk, query);
        if distance <= threshold {
            out.push((slot as u32, distance));
        }
    }
}

/// `xor_count_filter_core` compiled with the hardware POPCNT instruction.
///
/// # Safety
///
/// The caller must ensure the CPU supports the `popcnt` feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn xor_count_filter_popcnt(
    page: &[u8],
    image: &[u8],
    chunk_bytes: usize,
    slot_limit: usize,
    threshold: u32,
    out: &mut Vec<(u32, u32)>,
) {
    xor_count_filter_core(page, image, chunk_bytes, slot_limit, threshold, out)
}

/// Single-pass scan kernel: score the first `slot_limit` `chunk_bytes`-sized
/// chunks (slots) of one stored `page` against an equally long latch
/// `image` and write the `(slot, distance)` pairs whose Hamming distance is
/// at or below `threshold` into `out` (cleared first), in ascending slot
/// order.
///
/// The result equals [`xor_bytes_into`] of the page and the image, then
/// [`count_per_chunk_into`], then a threshold pass over the first
/// `slot_limit` counts — but each page word is loaded once and nothing
/// page-sized is written. The whole image takes part, not just its first
/// slot, so the result is exact for any image contents. A trailing partial
/// chunk is scored as its own slot.
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero or `page` and `image` differ in length.
pub fn xor_count_filter_into(
    page: &[u8],
    image: &[u8],
    chunk_bytes: usize,
    slot_limit: usize,
    threshold: u32,
    out: &mut Vec<(u32, u32)>,
) {
    assert!(chunk_bytes > 0, "chunk size must be non-zero");
    assert_eq!(
        page.len(),
        image.len(),
        "latch contents must have identical sizes"
    );
    out.clear();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: feature presence checked at runtime just above.
        unsafe { xor_count_filter_popcnt(page, image, chunk_bytes, slot_limit, threshold, out) };
        return;
    }
    xor_count_filter_core(page, image, chunk_bytes, slot_limit, threshold, out);
}

/// Body of the fused multi-query kernel: for each `chunk_bytes` page chunk,
/// the XOR-popcount of `hamming_core` against every query in turn (the
/// chunk stays in L1 across the queries).
#[inline(always)]
fn fused_core(latch: &[u8], chunk_bytes: usize, queries: &[&[u8]], out: &mut [u32]) {
    let n_chunks = latch.len().div_ceil(chunk_bytes);
    for (c, chunk) in latch.chunks(chunk_bytes).enumerate() {
        for (q, query) in queries.iter().enumerate() {
            out[q * n_chunks + c] = hamming_core(chunk, &query[..chunk.len()]);
        }
    }
}

/// `fused_core` compiled with the hardware POPCNT instruction.
///
/// # Safety
///
/// The caller must ensure the CPU supports the `popcnt` feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn fused_popcnt(latch: &[u8], chunk_bytes: usize, queries: &[&[u8]], out: &mut [u32]) {
    fused_core(latch, chunk_bytes, queries, out)
}

/// Fused multi-query Hamming kernel: score every `chunk_bytes`-sized chunk
/// of `latch` (one sensed page) against each query in a single pass over the
/// page chunks.
///
/// `out` is cleared and filled query-major: the counts of query `q` occupy
/// `out[q * n_chunks .. (q + 1) * n_chunks]`, where
/// `n_chunks = latch.len().div_ceil(chunk_bytes)`, so each query's filter
/// pass works on a contiguous slice. A trailing partial chunk is scored
/// against the prefix of each query, exactly as XOR-ing the page against a
/// query tiled across the whole latch would.
///
/// The result equals running [`count_per_chunk_into`] over the XOR of the
/// page with each query's tiling, one query at a time — but each page
/// chunk is loaded once for all queries.
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero or any query is not exactly
/// `chunk_bytes` long.
pub fn fused_hamming_per_chunk_into(
    latch: &[u8],
    chunk_bytes: usize,
    queries: &[&[u8]],
    out: &mut Vec<u32>,
) {
    assert!(chunk_bytes > 0, "chunk size must be non-zero");
    for query in queries {
        assert_eq!(
            query.len(),
            chunk_bytes,
            "fused queries must match the chunk size"
        );
    }
    let n_chunks = latch.len().div_ceil(chunk_bytes);
    out.clear();
    out.resize(n_chunks * queries.len(), 0);
    if queries.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: feature presence checked at runtime just above.
        unsafe { fused_popcnt(latch, chunk_bytes, queries, out) };
        return;
    }
    fused_core(latch, chunk_bytes, queries, out);
}

/// One passing slot of a threshold-aware fused scan: which query it passed
/// for, which page chunk (slot) it is, and the Hamming distance.
///
/// Hits are emitted chunk-major (ascending slot, then query order), so
/// consecutive hits of different queries on the same slot are adjacent —
/// callers that unpack per-slot metadata (e.g. flash OOB linkage) can reuse
/// the unpacked value across queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedHit {
    /// Index into the `queries` slice the hit belongs to.
    pub query: u32,
    /// Chunk (mini-page slot) index within the scored page.
    pub slot: u32,
    /// Hamming distance between the chunk and the query.
    pub distance: u32,
}

/// Body of the threshold-aware fused kernel: for each chunk, score every
/// query in turn and emit the ones whose distance passes their own
/// threshold.
#[inline(always)]
fn fused_filter_core(
    latch: &[u8],
    chunk_bytes: usize,
    slot_limit: usize,
    queries: &[&[u8]],
    thresholds: &[u32],
    out: &mut Vec<FusedHit>,
) {
    for (c, chunk) in latch.chunks(chunk_bytes).take(slot_limit).enumerate() {
        for (q, (query, &threshold)) in queries.iter().zip(thresholds).enumerate() {
            let distance = hamming_core(chunk, &query[..chunk.len()]);
            if distance <= threshold {
                out.push(FusedHit {
                    query: q as u32,
                    slot: c as u32,
                    distance,
                });
            }
        }
    }
}

/// `fused_filter_core` compiled with the hardware POPCNT instruction.
///
/// # Safety
///
/// The caller must ensure the CPU supports the `popcnt` feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn fused_filter_popcnt(
    latch: &[u8],
    chunk_bytes: usize,
    slot_limit: usize,
    queries: &[&[u8]],
    thresholds: &[u32],
    out: &mut Vec<FusedHit>,
) {
    fused_filter_core(latch, chunk_bytes, slot_limit, queries, thresholds, out)
}

/// Threshold-aware fused multi-query kernel: score the first `slot_limit`
/// `chunk_bytes`-sized chunks of `latch` (one sensed page) against every
/// query in a single pass over the page chunks, and emit only the
/// [`FusedHit`]s whose distance is at or below that query's threshold.
///
/// This fuses [`fused_hamming_per_chunk_into`] with the pass/fail
/// comparison: distances that fail a query's filter are never materialized,
/// which is what the windowed adaptive scan wants — each query's threshold
/// is fixed for the duration of one page window, so the comparison can run
/// inside the scoring pass. `out` is a reusable hit buffer (cleared here),
/// so steady-state scans allocate nothing.
///
/// Hits are chunk-major: ascending slot, queries in input order within a
/// slot (see [`FusedHit`]).
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero, any query is not exactly `chunk_bytes`
/// long, or `thresholds.len() != queries.len()`.
pub fn fused_hamming_filter_into(
    latch: &[u8],
    chunk_bytes: usize,
    slot_limit: usize,
    queries: &[&[u8]],
    thresholds: &[u32],
    out: &mut Vec<FusedHit>,
) {
    assert!(chunk_bytes > 0, "chunk size must be non-zero");
    assert_eq!(
        queries.len(),
        thresholds.len(),
        "one threshold per fused query"
    );
    for query in queries {
        assert_eq!(
            query.len(),
            chunk_bytes,
            "fused queries must match the chunk size"
        );
    }
    out.clear();
    if queries.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: feature presence checked at runtime just above.
        unsafe { fused_filter_popcnt(latch, chunk_bytes, slot_limit, queries, thresholds, out) };
        return;
    }
    fused_filter_core(latch, chunk_bytes, slot_limit, queries, thresholds, out);
}

/// Reflected form of the Castagnoli polynomial `0x1EDC6F41`.
const CRC32C_POLY_REFLECTED: u32 = 0x82F6_3B78;

/// The byte-at-a-time CRC32C lookup table, built at compile time.
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY_REFLECTED
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Fold `bytes` into a running CRC32C state.
///
/// The state is the *finalized* checksum of everything folded so far:
/// `crc32c_extend(crc32c(a), b) == crc32c(a ++ b)`, and the empty-input
/// checksum `0` is the identity state. This is what the WAL reader uses to
/// checksum a frame it consumes in pieces.
#[inline]
pub fn crc32c_extend(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = !state;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// CRC32C (Castagnoli) checksum of `bytes`.
///
/// Standard parameters: initial state `0xFFFF_FFFF`, reflected input and
/// output, final XOR `0xFFFF_FFFF` — the known-answer vector
/// `crc32c(b"123456789") == 0xE306_9283` holds.
#[inline]
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_extend(0, bytes)
}

pub mod reference {
    //! Byte-at-a-time reference kernels matching the seed implementation.
    //!
    //! Kept as the single baseline the criterion `kernels` bench and the
    //! figure binaries measure the u64-word kernels against, so reported
    //! speedups always refer to the same code. Never used on a hot path.

    /// Byte-wise XOR (the seed's `XorLogic::xor`).
    pub fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
        a.iter().zip(b.iter()).map(|(x, y)| x ^ y).collect()
    }

    /// Byte-wise per-chunk popcount (the seed's
    /// `FailBitCounter::count_per_chunk`).
    pub fn count_per_chunk(latch: &[u8], chunk_bytes: usize) -> Vec<u32> {
        latch
            .chunks(chunk_bytes)
            .map(|c| c.iter().map(|b| b.count_ones()).sum())
            .collect()
    }

    /// Byte-wise Hamming distance (the seed's
    /// `BinaryVector::hamming_distance`).
    pub fn hamming(a: &[u8], b: &[u8]) -> u32 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum()
    }

    /// Bitwise CRC32C: one shift-and-conditional-XOR step per input bit,
    /// straight off the polynomial definition. The baseline the table-driven
    /// [`crate::crc32c`] is tested against.
    pub fn crc32c(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ super::CRC32C_POLY_REFLECTED
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, mul: usize, add: usize) -> Vec<u8> {
        (0..len).map(|i| (i * mul + add) as u8).collect()
    }

    #[test]
    fn word_kernels_match_bytewise_reference_on_odd_tails() {
        for len in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255] {
            let a = pattern(len, 37, 11);
            let b = pattern(len, 101, 3);
            let ref_pop: u64 = a.iter().map(|v| v.count_ones() as u64).sum();
            assert_eq!(popcount_bytes(&a), ref_pop, "len {len}");
            assert_eq!(
                hamming_bytes(&a, &b),
                reference::hamming(&a, &b),
                "len {len}"
            );
            let mut xored = Vec::new();
            xor_bytes_into(&a, &b, &mut xored);
            assert_eq!(xored, reference::xor(&a, &b), "len {len}");
            for chunk in [1usize, 3, 8, 13, 32] {
                let mut got = Vec::new();
                count_per_chunk_into(&a, chunk, &mut got);
                assert_eq!(
                    got,
                    reference::count_per_chunk(&a, chunk),
                    "len {len} chunk {chunk}"
                );
            }
        }
    }

    /// The single-query latch flow the fused kernels must reproduce: tile
    /// the query across the page (restarting at every chunk boundary, like
    /// a broadcast into the cache latch), XOR, count per chunk.
    fn per_query_reference(page: &[u8], query: &[u8]) -> Vec<u32> {
        let tiled: Vec<u8> = (0..page.len()).map(|i| query[i % query.len()]).collect();
        reference::count_per_chunk(&reference::xor(page, &tiled), query.len())
    }

    #[test]
    fn single_pass_kernel_matches_xor_count_then_filter() {
        for page_len in [1usize, 7, 8, 9, 63, 64, 65, 100, 255, 256, 1000] {
            for chunk in [1usize, 3, 7, 8, 13, 16, 32, 100, 128, 256] {
                let page = pattern(page_len, 29, 7);
                let image = pattern(page_len, 53, 19);
                let counts = reference::count_per_chunk(&reference::xor(&page, &image), chunk);
                let n_chunks = counts.len();
                let median = {
                    let mut sorted = counts.clone();
                    sorted.sort_unstable();
                    sorted[sorted.len() / 2]
                };
                for slot_limit in [0usize, 1, n_chunks / 2, n_chunks, n_chunks + 3] {
                    for threshold in [0u32, median, u32::MAX] {
                        let mut got = vec![(9, 9)];
                        xor_count_filter_into(
                            &page, &image, chunk, slot_limit, threshold, &mut got,
                        );
                        let expected: Vec<(u32, u32)> = counts
                            .iter()
                            .take(slot_limit)
                            .enumerate()
                            .filter(|&(_, &d)| d <= threshold)
                            .map(|(slot, &d)| (slot as u32, d))
                            .collect();
                        assert_eq!(
                            got, expected,
                            "page {page_len} chunk {chunk} limit {slot_limit} threshold {threshold}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_pass_kernel_scores_against_the_whole_image() {
        // Two slots whose image halves differ: slot 1 must be scored against
        // the image's second slot, not a repeat of its first.
        let page = [0x00u8, 0x00, 0xFF, 0xFF];
        let image = [0x00u8, 0x00, 0xFF, 0x0F];
        let mut got = Vec::new();
        xor_count_filter_into(&page, &image, 2, 2, u32::MAX, &mut got);
        assert_eq!(got, vec![(0, 0), (1, 4)]);
    }

    #[test]
    #[should_panic(expected = "identical sizes")]
    fn single_pass_kernel_rejects_length_mismatch() {
        xor_count_filter_into(&[1, 2], &[1, 2, 3], 1, 2, 0, &mut Vec::new());
    }

    #[test]
    fn fused_kernel_matches_per_query_xor_popcount() {
        for page_len in [24usize, 64, 65, 100, 256] {
            for chunk in [8usize, 13, 16, 32] {
                for n_queries in [0usize, 1, 2, 3, 8] {
                    let page = pattern(page_len, 29, 7);
                    let queries: Vec<Vec<u8>> =
                        (0..n_queries).map(|q| pattern(chunk, 17 + q, q)).collect();
                    let query_refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
                    let mut fused = vec![7];
                    fused_hamming_per_chunk_into(&page, chunk, &query_refs, &mut fused);
                    let n_chunks = page_len.div_ceil(chunk);
                    assert_eq!(fused.len(), n_chunks * queries.len());
                    for (q, query) in queries.iter().enumerate() {
                        assert_eq!(
                            &fused[q * n_chunks..(q + 1) * n_chunks],
                            &per_query_reference(&page, query)[..],
                            "page {page_len} chunk {chunk} queries {n_queries} query {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_kernel_with_no_queries_clears_output() {
        let mut out = vec![7u32; 5];
        fused_hamming_per_chunk_into(&[1, 2, 3, 4], 2, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn fused_kernel_handles_one_query_like_the_single_kernel() {
        let page = pattern(128, 41, 5);
        let query = pattern(16, 9, 2);
        let mut fused = Vec::new();
        fused_hamming_per_chunk_into(&page, 16, &[&query], &mut fused);
        for (c, chunk) in page.chunks(16).enumerate() {
            assert_eq!(fused[c], hamming_bytes(chunk, &query), "chunk {c}");
        }
    }

    #[test]
    fn fused_filter_matches_count_then_filter() {
        for page_len in [24usize, 64, 65, 100, 256] {
            for chunk in [8usize, 13, 16, 32] {
                for n_queries in [0usize, 1, 2, 3, 8] {
                    let page = pattern(page_len, 29, 7);
                    let queries: Vec<Vec<u8>> =
                        (0..n_queries).map(|q| pattern(chunk, 17 + q, q)).collect();
                    let query_refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
                    // Distinct per-query thresholds straddling the typical
                    // distance range, plus the two extremes.
                    let thresholds: Vec<u32> = (0..n_queries)
                        .map(|q| match q {
                            0 => 0,
                            1 => u32::MAX,
                            _ => (chunk as u32) * (q as u32),
                        })
                        .collect();
                    let counts: Vec<Vec<u32>> = queries
                        .iter()
                        .map(|query| per_query_reference(&page, query))
                        .collect();
                    let n_chunks = page_len.div_ceil(chunk);
                    for slot_limit in [0usize, 1, n_chunks / 2, n_chunks, n_chunks + 3] {
                        let mut hits = Vec::new();
                        fused_hamming_filter_into(
                            &page,
                            chunk,
                            slot_limit,
                            &query_refs,
                            &thresholds,
                            &mut hits,
                        );
                        // Reference: the per-query latch flow followed by an
                        // explicit threshold pass, reordered chunk-major.
                        let mut expected = Vec::new();
                        for slot in 0..n_chunks.min(slot_limit) {
                            for (q, (&threshold, query_counts)) in
                                thresholds.iter().zip(&counts).enumerate()
                            {
                                let distance = query_counts[slot];
                                if distance <= threshold {
                                    expected.push(FusedHit {
                                        query: q as u32,
                                        slot: slot as u32,
                                        distance,
                                    });
                                }
                            }
                        }
                        assert_eq!(
                            hits, expected,
                            "page {page_len} chunk {chunk} queries {n_queries} limit {slot_limit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_filter_emits_chunk_major_and_respects_thresholds() {
        // Page of two chunks; query 0 matches chunk 0 exactly, query 1
        // matches chunk 1 exactly. With a threshold of 0 each query passes
        // only its own chunk, in slot order.
        let page = [0xAAu8, 0x55, 0x0F, 0xF0];
        let q0 = [0xAAu8, 0x55];
        let q1 = [0x0Fu8, 0xF0];
        let mut hits = Vec::new();
        fused_hamming_filter_into(&page, 2, 2, &[&q0, &q1], &[0, 0], &mut hits);
        assert_eq!(
            hits,
            vec![
                FusedHit {
                    query: 0,
                    slot: 0,
                    distance: 0
                },
                FusedHit {
                    query: 1,
                    slot: 1,
                    distance: 0
                },
            ]
        );
        // No queries: the hit buffer is cleared.
        let mut stale = vec![FusedHit {
            query: 9,
            slot: 9,
            distance: 9,
        }];
        fused_hamming_filter_into(&page, 2, 2, &[], &[], &mut stale);
        assert!(stale.is_empty());
    }

    #[test]
    #[should_panic(expected = "one threshold per fused query")]
    fn fused_filter_rejects_threshold_mismatch() {
        let query = [0u8; 2];
        fused_hamming_filter_into(&[1, 2], 2, 1, &[&query], &[], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "chunk size must be non-zero")]
    fn fused_kernel_rejects_zero_chunks() {
        fused_hamming_per_chunk_into(&[1, 2], 0, &[], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "must match the chunk size")]
    fn fused_kernel_rejects_mis_sized_queries() {
        let query = [1u8, 2, 3];
        fused_hamming_per_chunk_into(&[1, 2, 3, 4], 2, &[&query], &mut Vec::new());
    }

    #[test]
    fn crc32c_known_answers() {
        // The canonical check vector (RFC 3720 appendix B.4 parameters).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        // Empty input is the identity state.
        assert_eq!(crc32c(b""), 0);
        // 32 zero bytes (an iSCSI test vector).
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 0xFF bytes.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // Ascending 0..=31.
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn crc32c_matches_bitwise_reference_and_extends() {
        for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 255, 1024] {
            let data = pattern(len, 37, 11);
            assert_eq!(crc32c(&data), reference::crc32c(&data), "len {len}");
            // Folding the same bytes in two pieces at every split point
            // gives the same checksum as one pass.
            for split in [0, len / 3, len / 2, len] {
                let state = crc32c(&data[..split]);
                assert_eq!(
                    crc32c_extend(state, &data[split..]),
                    crc32c(&data),
                    "len {len} split {split}"
                );
            }
        }
    }

    #[test]
    fn crc32c_detects_single_byte_corruption() {
        let data = pattern(256, 41, 5);
        let clean = crc32c(&data);
        for offset in [0usize, 1, 100, 255] {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupted = data.clone();
                corrupted[offset] ^= flip;
                assert_ne!(
                    crc32c(&corrupted),
                    clean,
                    "flip {flip:#x} at {offset} must change the checksum"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "identical sizes")]
    fn xor_rejects_length_mismatch() {
        xor_bytes_into(&[1, 2], &[1, 2, 3], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_rejects_length_mismatch() {
        hamming_bytes(&[1, 2], &[1]);
    }
}
