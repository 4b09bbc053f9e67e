//! Seeded inputs: workload sizes, the exact nearest-neighbour reference and
//! the kernel micro-measurement over a workload's own pages.

use std::hint::black_box;
use std::time::Instant;

use reis_core::{ReisConfig, VectorDatabase};
use reis_workloads::{DatasetProfile, SyntheticDataset};

use crate::Ctx;

/// Sizes of every workload. `full` is the benchmark; `tiny` is the
/// self-test scale, which exercises the same code paths in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Entries of the flat corpus of `bf-single`.
    pub bf_entries: usize,
    /// Distinct queries `bf-single` cycles through.
    pub bf_queries: usize,
    /// Entries of the IVF corpus of the other three workloads.
    pub ivf_entries: usize,
    /// IVF lists.
    pub nlist: usize,
    /// IVF lists probed per query.
    pub nprobe: usize,
    /// Requests per ladder rung: every rung replays the same sequence of
    /// this many distinct seeded queries.
    pub requests_per_rung: usize,
    /// Mutation-trace operations per second of `--seconds`, spread over
    /// the rounds of `mixed-durable`.
    pub mixed_ops_per_second: usize,
    /// Probe queries searched before and after the crash.
    pub probes: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        bf_entries: 32_768,
        bf_queries: 256,
        ivf_entries: 10_240,
        nlist: 64,
        nprobe: 8,
        requests_per_rung: 1_024,
        mixed_ops_per_second: 900,
        probes: 128,
        setups: 3,
    };

    /// Self-test sizes.
    pub const TINY: Sizes = Sizes {
        bf_entries: 1_024,
        bf_queries: 16,
        ivf_entries: 1_024,
        nlist: 16,
        nprobe: 4,
        requests_per_rung: 48,
        mixed_ops_per_second: 120,
        probes: 8,
        setups: 3,
    };
}

/// k of every search.
pub const K: usize = 10;

/// Seed of the corpora. The corpus is fixed; `--seed` draws the queries,
/// the arrival times and the mutation trace, so runs with different seeds
/// differ in their request streams over the same data.
pub const CORPUS_SEED: u64 = 0x5EED_C0DE;

/// The HotpotQA-profile corpus (1024-d embeddings, 1800-byte chunks) with
/// `entries` entries.
pub fn corpus(entries: usize) -> SyntheticDataset {
    let profile = DatasetProfile::hotpotqa().scaled(entries).with_queries(1);
    SyntheticDataset::generate(profile, CORPUS_SEED)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` seeded queries, each a corpus entry perturbed by uniform noise
/// in [-0.35, 0.35) per dimension (the synthetic generator's own query
/// recipe).
pub fn queries(data: &SyntheticDataset, count: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed ^ 0x0051_E5EE_D0F0_0D5E;
    let unit = |state: &mut u64| (splitmix64(state) >> 40) as f32 / (1u64 << 24) as f32;
    (0..count)
        .map(|_| {
            let base = &data.vectors()[splitmix64(&mut state) as usize % data.len()];
            base.iter()
                .map(|&x| x + 0.7 * unit(&mut state) - 0.35)
                .collect()
        })
        .collect()
}

/// Squared L2 distance with independent lane accumulators, so the loop
/// vectorizes.
fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 16;
    let mut acc = [0f32; LANES];
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        for i in 0..LANES {
            let d = x[i] - y[i];
            acc[i] += d * d;
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for (x, y) in ra.iter().zip(rb) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Exact top-`k` ids of every query over `(id, vector)` pairs, by squared
/// L2 with ties broken by id. Runs on two threads; it is input
/// preparation, outside every timed region.
pub fn exact_top_k(corpus: &[(usize, &[f32])], queries: &[&[f32]], k: usize) -> Vec<Vec<usize>> {
    let one = |query: &[f32]| -> Vec<usize> {
        let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
        for &(id, v) in corpus {
            let d = squared_l2(query, v);
            if best.len() == k && (d, id) >= best[k - 1] {
                continue;
            }
            let at = best.partition_point(|&e| e < (d, id));
            best.insert(at, (d, id));
            best.truncate(k);
        }
        best.into_iter().map(|(_, id)| id).collect()
    };
    let half = queries.len().div_ceil(2);
    std::thread::scope(|scope| {
        let second = scope.spawn(|| queries[half..].iter().map(|q| one(q)).collect::<Vec<_>>());
        let mut out: Vec<Vec<usize>> = queries[..half].iter().map(|q| one(q)).collect();
        out.extend(second.join().expect("reference thread panicked"));
        out
    })
}

/// Fraction of `truth` found in `got`, averaged over queries.
pub fn recall(got: &[Vec<usize>], truth: &[Vec<usize>]) -> f64 {
    let per_query: Vec<f64> = got
        .iter()
        .zip(truth)
        .map(|(g, t)| {
            let hits = t.iter().filter(|id| g.contains(id)).count();
            hits as f64 / t.len().max(1) as f64
        })
        .collect();
    crate::measure::mean(&per_query)
}

/// Kernel timings on a workload's own data.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    /// ns to XOR one page against one query and count each slot's bits.
    pub hamming_ns_per_page: f64,
    /// ns per (page, query) of the fused multi-query kernel at batch 8.
    pub fused_ns_per_page_per_query: f64,
}

/// In the traced run, time the kernels on `db`'s own binary codes and
/// the first queries of the workload, and set the `kernels.*` metrics.
pub fn record_kernels(ctx: &mut Ctx, db: &VectorDatabase, queries: &[Vec<f32>]) {
    if !ctx.trace {
        return;
    }
    let codes: Vec<&[u8]> = db.binary().iter().map(|b| b.as_bytes()).collect();
    let query_codes: Vec<_> = queries
        .iter()
        .take(8)
        .map(|q| db.binary_quantizer().quantize(q).expect("quantize query"))
        .collect();
    let query_codes: Vec<&[u8]> = query_codes.iter().map(|b| b.as_bytes()).collect();
    let page_bytes = ReisConfig::ssd1().ssd.geometry.page_size_bytes;
    let times = time_kernels(&codes, &query_codes, page_bytes);
    ctx.set("kernels.hamming_ns_per_page", times.hamming_ns_per_page);
    ctx.set(
        "kernels.fused_ns_per_page_per_query",
        times.fused_ns_per_page_per_query,
    );
}

/// Time the public `reis-kernels` entry points over pages packed from the
/// corpus's own binary codes, scored against its own queries' codes.
pub fn time_kernels(codes: &[&[u8]], queries: &[&[u8]], page_bytes: usize) -> KernelTimes {
    let slot = codes[0].len();
    let per_page = (page_bytes / slot).max(1);
    let pages: Vec<Vec<u8>> = codes.chunks(per_page).map(|chunk| chunk.concat()).collect();
    let batch: Vec<&[u8]> = queries.iter().copied().cycle().take(8).collect();
    let tiled: Vec<u8> = batch[0]
        .iter()
        .copied()
        .cycle()
        .take(per_page * slot)
        .collect();

    const BUDGET_S: f64 = 0.1;
    let mut latch = Vec::new();
    let mut counts = Vec::new();
    let mut scored = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < BUDGET_S {
        for page in &pages {
            reis_kernels::xor_bytes_into(black_box(page), &tiled[..page.len()], &mut latch);
            reis_kernels::count_per_chunk_into(&latch, slot, &mut counts);
            black_box(&counts);
            scored += 1;
        }
    }
    let hamming = t0.elapsed().as_nanos() as f64 / scored as f64;

    let mut scored = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < BUDGET_S {
        for page in &pages {
            reis_kernels::fused_hamming_per_chunk_into(black_box(page), slot, &batch, &mut counts);
            black_box(&counts);
            scored += 1;
        }
    }
    let fused = t0.elapsed().as_nanos() as f64 / (scored * batch.len() as u64) as f64;
    KernelTimes {
        hamming_ns_per_page: hamming,
        fused_ns_per_page_per_query: fused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reis_workloads::GroundTruth;

    #[test]
    fn exact_reference_matches_ground_truth() {
        let data =
            SyntheticDataset::generate(DatasetProfile::hotpotqa().scaled(600).with_queries(12), 4);
        let corpus: Vec<(usize, &[f32])> = data
            .vectors()
            .iter()
            .map(Vec::as_slice)
            .enumerate()
            .collect();
        let queries: Vec<&[f32]> = data.queries().iter().map(Vec::as_slice).collect();
        let ours = exact_top_k(&corpus, &queries, K);
        let truth = GroundTruth::compute(&data, K).expect("ground truth");
        for (q, got) in ours.iter().enumerate() {
            let mut got = got.clone();
            let mut want = truth.neighbors(q).to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {q}");
        }
        assert_eq!(recall(&ours, &ours), 1.0);
    }
}
