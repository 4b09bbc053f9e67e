//! Figure 7 companion: measured (wall-clock) throughput of the functional
//! simulator's query hot path, and its scaling with the batch shard budget.
//!
//! Unlike `fig07_retrieval_qps` (which reports the *modelled* full-scale QPS
//! of the paper's figure), this benchmark measures how fast the simulator
//! itself executes queries: the word-level XOR/popcount kernels versus the
//! byte-wise reference they replaced, and end-to-end `search_batch` /
//! `ivf_search_batch` throughput versus the `workers` argument on a ≥10k-vector
//! synthetic dataset. Results are written to `BENCH_fig07b.json` by default;
//! pass `--output PATH` (or set `REIS_BENCH_OUT`) to write elsewhere — the
//! committed `BENCH_pr1.json` artifact is only refreshed by an explicit
//! `--output BENCH_pr1.json`. See `docs/BENCHMARKS.md` for the workflow and
//! the JSON schema.
//!
//! The sweep runs the one batch path, the page-major fused executor (with
//! static thresholds), whose `workers` argument is the shard budget of its
//! page walk. The committed `BENCH_pr1.json` predates fused batches: its
//! worker column measured per-worker device replicas, so its numbers are
//! not comparable with a fresh run. Sense amortization against sequential
//! search is measured by `fig_fused_batch`.

use std::time::Instant;

use reis_bench::{report, seed_reference};
use reis_core::{ReisConfig, ReisSystem, VectorDatabase};
use reis_nand::peripheral::{FailBitCounter, XorLogic};
use reis_workloads::{DatasetProfile, SyntheticDataset};

const ENTRIES: usize = 10_240;
const NLIST: usize = 64;
const NPROBE: usize = 8;
const K: usize = 10;
const IVF_QUERIES: usize = 64;
const BF_QUERIES: usize = 16;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Run `f` repeatedly until at least ~50 ms have been measured and return
/// the average nanoseconds per invocation.
fn time_ns_per_iter<O>(mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f());
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 50 || iters >= 10_000_000 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters *= 4;
    }
}

struct KernelResult {
    word_ns: f64,
    bytewise_ns: f64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        if self.word_ns <= 0.0 {
            0.0
        } else {
            self.bytewise_ns / self.word_ns
        }
    }
}

/// Word-kernel vs byte-wise XOR + per-chunk popcount over one 16 KB page of
/// 128-byte mini-pages — the innermost operation of every page scan.
///
/// Inputs pass through `black_box` inside the timed closure so the optimizer
/// can neither hoist the pure computation out of the loop nor fold it away.
fn measure_page_kernel() -> KernelResult {
    let page: Vec<u8> = (0..16 * 1024).map(|i| (i % 251) as u8).collect();
    let broadcast: Vec<u8> = (0..16 * 1024).map(|i| ((i * 7) % 256) as u8).collect();
    let mut xor_buf = Vec::new();
    let mut counts = Vec::new();
    let word_ns = time_ns_per_iter(|| {
        let (p, q) = (
            std::hint::black_box(&page[..]),
            std::hint::black_box(&broadcast[..]),
        );
        XorLogic::xor_into(p, q, &mut xor_buf);
        FailBitCounter::count_per_chunk_into(&xor_buf, 128, &mut counts);
        counts.iter().sum::<u32>()
    });
    let bytewise_ns = time_ns_per_iter(|| {
        let (p, q) = (
            std::hint::black_box(&page[..]),
            std::hint::black_box(&broadcast[..]),
        );
        let xored = seed_reference::xor(p, q);
        seed_reference::count_per_chunk(&xored, 128)
            .iter()
            .sum::<u32>()
    });
    KernelResult {
        word_ns,
        bytewise_ns,
    }
}

/// Word-kernel vs byte-wise Hamming distance between two 1024-d binary
/// embeddings (the host-side mirror of the in-plane distance).
fn measure_hamming_kernel() -> KernelResult {
    let a: Vec<u8> = (0..128).map(|i| (i * 31 + 7) as u8).collect();
    let b: Vec<u8> = (0..128).map(|i| (i * 17 + 3) as u8).collect();
    let word_ns = time_ns_per_iter(|| {
        let (x, y) = (std::hint::black_box(&a[..]), std::hint::black_box(&b[..]));
        reis_ann::vector::hamming_bytes(x, y)
    });
    let bytewise_ns = time_ns_per_iter(|| {
        let (x, y) = (std::hint::black_box(&a[..]), std::hint::black_box(&b[..]));
        seed_reference::hamming(x, y)
    });
    KernelResult {
        word_ns,
        bytewise_ns,
    }
}

struct ScalingPoint {
    workers: usize,
    qps: f64,
}

fn measure_batch_scaling(
    system: &mut ReisSystem,
    db_id: u32,
    queries: &[Vec<f32>],
    nprobe: Option<usize>,
) -> Vec<ScalingPoint> {
    WORKER_COUNTS
        .iter()
        .map(|&workers| {
            // Two rounds; keep the faster one to damp scheduler noise.
            let mut best_qps = 0.0f64;
            for _ in 0..2 {
                let start = Instant::now();
                let outcomes = match nprobe {
                    Some(np) => system
                        .ivf_search_batch_with_nprobe(db_id, queries, K, np, workers)
                        .expect("batch search"),
                    None => system
                        .search_batch(db_id, queries, K, workers)
                        .expect("batch search"),
                };
                let secs = start.elapsed().as_secs_f64();
                assert_eq!(outcomes.len(), queries.len());
                best_qps = best_qps.max(queries.len() as f64 / secs);
            }
            ScalingPoint {
                workers,
                qps: best_qps,
            }
        })
        .collect()
}

fn scaling_json(points: &[ScalingPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "      {{ \"workers\": {}, \"qps\": {:.1} }}",
                p.workers, p.qps
            )
        })
        .collect();
    rows.join(",\n")
}

fn main() {
    report::header(
        "Figure 7b",
        "Measured simulator throughput: word kernels and batch-search scaling",
    );

    let page_kernel = measure_page_kernel();
    let hamming_kernel = measure_hamming_kernel();
    println!(
        "16 KB page XOR+popcount : word {:>10.1} ns, bytewise {:>10.1} ns, speedup {:.2}x",
        page_kernel.word_ns,
        page_kernel.bytewise_ns,
        page_kernel.speedup()
    );
    println!(
        "1024-d hamming distance : word {:>10.1} ns, bytewise {:>10.1} ns, speedup {:.2}x",
        hamming_kernel.word_ns,
        hamming_kernel.bytewise_ns,
        hamming_kernel.speedup()
    );

    println!("\nBuilding {ENTRIES}-entry synthetic dataset (IVF, nlist {NLIST})…");
    let dataset = SyntheticDataset::generate(
        DatasetProfile::hotpotqa()
            .scaled(ENTRIES)
            .with_queries(IVF_QUERIES),
        41,
    );
    let database = VectorDatabase::ivf(dataset.vectors(), dataset.documents_owned(), NLIST)
        .expect("database construction");
    let config = ReisConfig::ssd1().with_adaptive_filtering(false);
    let mut system = ReisSystem::new(config);
    let db_id = system.deploy(&database).expect("deployment");

    let ivf_queries: Vec<Vec<f32>> = dataset.queries().to_vec();
    let bf_queries: Vec<Vec<f32>> = ivf_queries.iter().take(BF_QUERIES).cloned().collect();

    println!("\nIVF batch (nprobe {NPROBE}, {IVF_QUERIES} queries):");
    let ivf_scaling = measure_batch_scaling(&mut system, db_id, &ivf_queries, Some(NPROBE));
    for point in &ivf_scaling {
        println!("    {:>2} workers  {:>12.1} QPS", point.workers, point.qps);
    }

    println!("\nBrute-force batch ({BF_QUERIES} queries):");
    let bf_scaling = measure_batch_scaling(&mut system, db_id, &bf_queries, None);
    for point in &bf_scaling {
        println!("    {:>2} workers  {:>12.1} QPS", point.workers, point.qps);
    }

    // Modelled (simulated-device) per-query figures for reference.
    let modelled = system
        .ivf_search_batch_with_nprobe(db_id, &ivf_queries[..1], K, NPROBE, 1)
        .expect("modelled query");
    let modelled_qps = modelled[0].qps();
    println!("\nModelled device-side QPS of one IVF query: {modelled_qps:.1}");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let single = ivf_scaling.first().map(|p| p.qps).unwrap_or(0.0);
    let peak = ivf_scaling.iter().map(|p| p.qps).fold(0.0f64, f64::max);
    println!(
        "Batch scaling on {cores} core(s): {:.2}x peak over single-worker ({:.1} → {:.1} QPS)",
        if single > 0.0 { peak / single } else { 0.0 },
        single,
        peak
    );
    if cores == 1 {
        println!(
            "note: only one CPU is available, so added workers can only add overhead; \
             the scaling column is meaningful on multi-core hosts"
        );
    }

    let json = format!(
        "{{\n  \"available_cores\": {cores},\n  \
         \"dataset\": {{ \"entries\": {ENTRIES}, \"dim\": 1024, \"nlist\": {NLIST} }},\n  \
         \"kernels\": {{\n    \"page_xor_popcount\": {{ \"word_ns\": {:.1}, \"bytewise_ns\": {:.1}, \"speedup\": {:.2} }},\n    \
         \"hamming_1024d\": {{ \"word_ns\": {:.1}, \"bytewise_ns\": {:.1}, \"speedup\": {:.2} }}\n  }},\n  \
         \"batch_qps\": {{\n    \"ivf_nprobe{NPROBE}\": [\n{}\n    ],\n    \"brute_force\": [\n{}\n    ]\n  }},\n  \
         \"modelled_device_qps\": {:.1}\n}}\n",
        page_kernel.word_ns,
        page_kernel.bytewise_ns,
        page_kernel.speedup(),
        hamming_kernel.word_ns,
        hamming_kernel.bytewise_ns,
        hamming_kernel.speedup(),
        scaling_json(&ivf_scaling),
        scaling_json(&bf_scaling),
        modelled_qps,
    );
    let path = report::output_path("BENCH_fig07b.json");
    std::fs::write(&path, json).expect("write benchmark json");
    println!("\nwrote {path}");
}
