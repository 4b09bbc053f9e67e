//! `bf-single`: one closed-loop client calls `ReisSystem::search` over a
//! flat corpus, cycling through a fixed pool of seeded queries.
//!
//! The fine scan (kernels, sensing, adaptive windows, pool sharding) does
//! most of the work; the fused executor, the pipeline and the cluster are
//! bypassed.

use std::time::Instant;

use reis_core::{ReisConfig, ReisSystem, VectorDatabase};
use reis_nand::FlashStats;
use reis_workloads::SyntheticDataset;

use crate::inputs::{self, K};
use crate::measure::{self, fold_answer, median, quantile, ratio, Digest, HostSample};
use crate::stages::{OutcomeTotals, WallTotals};
use crate::{record_setups, Ctx, SetupTimes};

/// What one measured phase served.
#[derive(Default)]
struct Served {
    call_us: Vec<f64>,
    pass_ends: Vec<usize>,
    pass_digests: Vec<u64>,
    walls: WallTotals,
}

impl Served {
    /// Median over passes of each pass's searches per second of call time:
    /// a pass slowed by a burst of host interference does not move it.
    fn ops_per_s(&self) -> f64 {
        let mut start = 0;
        let per_pass: Vec<f64> = self
            .pass_ends
            .iter()
            .map(|&end| {
                let pass = &self.call_us[start..end];
                start = end;
                ratio(pass.len() as f64, pass.iter().sum::<f64>() / 1e6)
            })
            .collect();
        median(&per_pass)
    }
}

/// What the first pass of the run observed (all of it is deterministic).
#[derive(Default)]
struct FirstPass {
    totals: OutcomeTotals,
    modelled_us: Vec<f64>,
    results: Vec<Vec<usize>>,
    device: FlashStats,
}

pub fn run(ctx: &mut Ctx) {
    let sizes = ctx.sizes;
    let data = inputs::corpus(sizes.bf_entries);
    let pool = inputs::queries(&data, sizes.bf_queries, ctx.seed);
    let corpus: Vec<(usize, &[f32])> = data
        .vectors()
        .iter()
        .map(Vec::as_slice)
        .enumerate()
        .collect();
    let queries: Vec<&[f32]> = pool.iter().map(Vec::as_slice).collect();
    let truth = inputs::exact_top_k(&corpus, &queries, K);
    ctx.note(
        "corpus",
        format!(
            "{{\"profile\":\"HotpotQA\",\"entries\":{},\"dim\":{},\"queries\":{},\"k\":{K}}}",
            data.len(),
            data.profile().dim,
            queries.len()
        ),
    );

    let mut setups = Vec::new();
    let mut deployed = None;
    for _ in 0..sizes.setups {
        drop(deployed.take());
        let documents = data.documents_owned();
        let t0 = Instant::now();
        let db = VectorDatabase::flat(data.vectors(), documents).expect("flat database");
        let built = measure::secs(t0);
        let t1 = Instant::now();
        let mut system = ReisSystem::new(ReisConfig::ssd1());
        let id = system.deploy(&db).expect("deploy");
        let deploy_s = measure::secs(t1);
        setups.push(SetupTimes {
            index_build_s: built,
            deploy_s,
            pages_programmed: system.controller().device().stats().page_programs,
        });
        deployed = Some((system, id, db));
    }
    record_setups(ctx, &setups);
    let (mut system, id, db) = deployed.expect("at least one set-up");

    inputs::record_kernels(ctx, &db, &pool);
    drop(db);

    let mut first = FirstPass::default();
    let host = HostSample::now();
    let plain = serve(
        ctx,
        &mut system,
        id,
        &data,
        &queries,
        false,
        Some(&mut first),
    );
    let (cpu_per_wall, switches) = host.since();
    let mut digests = plain.pass_digests.clone();

    let ops = Served::ops_per_s;
    if ctx.trace {
        system.enable_telemetry();
        ctx.tracer.enable();
        let traced = serve(ctx, &mut system, id, &data, &queries, true, None);
        digests.extend(&traced.pass_digests);
        traced.walls.emit(ctx);
        ctx.set("telemetry.overhead_frac", 1.0 - ops(&traced) / ops(&plain));
        ctx.set("host.cpu_per_wall", cpu_per_wall);
        ctx.set(
            "host.ctx_switches_per_op",
            ratio(switches as f64, plain.call_us.len() as f64),
        );
    }
    ctx.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("bf-single: repeated passes returned different answers: {digests:x?}")
    });

    ctx.set("ops_per_s", ops(&plain));
    ctx.set("latency_p50_us", quantile(&plain.call_us, 0.5));
    ctx.set("latency_p90_us", quantile(&plain.call_us, 0.9));
    ctx.set("search.p50_us", quantile(&plain.call_us, 0.5));
    ctx.set("search.p99_us", quantile(&plain.call_us, 0.99));
    ctx.set(
        "modelled_qps",
        ratio(
            first.modelled_us.len() as f64,
            first.modelled_us.iter().sum::<f64>() / 1e6,
        ),
    );
    ctx.set("modelled_mean_us", measure::mean(&first.modelled_us));
    ctx.set("modelled_p99_us", quantile(&first.modelled_us, 0.99));
    let recall = inputs::recall(&first.results, &truth);
    ctx.set("recall_at_10", recall);
    ctx.check(recall >= 0.5, || {
        format!("bf-single: recall@10 {recall} below 0.5")
    });
    first.totals.emit(ctx, &first.device);
    ctx.note("passes", digests.len().to_string());
    ctx.note("samples", plain.call_us.len().to_string());
    ctx.note("digest", format!("\"{:016x}\"", digests[0]));
}

/// Serve whole passes over the query pool until the phase budget is spent
/// (at least two passes, so every run repeats its answers once).
fn serve(
    ctx: &mut Ctx,
    system: &mut ReisSystem,
    id: u32,
    data: &SyntheticDataset,
    queries: &[&[f32]],
    traced: bool,
    mut first: Option<&mut FirstPass>,
) -> Served {
    let budget = ctx.phase_seconds();
    let mut served = Served::default();
    let t0 = Instant::now();
    while served.pass_digests.len() < 2 || measure::secs(t0) < budget {
        let before = *system.controller().device().stats();
        let mut digest = Digest::default();
        for (i, query) in queries.iter().enumerate() {
            ctx.tracer.enter("search", Some(i as u64));
            let t = Instant::now();
            let result = system.search(id, query, K);
            let ns = t.elapsed().as_nanos() as u64;
            ctx.tracer.exit();
            ctx.attempt(result.is_err());
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(e) => {
                    ctx.check(false, || format!("bf-single: search {i} failed: {e}"));
                    continue;
                }
            };
            served.call_us.push(ns as f64 / 1e3);
            if traced {
                served.walls.drain(0, system.telemetry());
                served.walls.calls(1, ns);
            }
            let ids = outcome.result_ids();
            let docs_ok = ids.len() == outcome.documents.len()
                && ids
                    .iter()
                    .zip(&outcome.documents)
                    .all(|(&id, doc)| data.documents().get(id) == Some(doc));
            ctx.check(docs_ok, || {
                format!("bf-single: query {i} returned chunks that are not its ids' chunks")
            });
            let distances: Vec<f32> = outcome.results.iter().map(|n| n.distance).collect();
            fold_answer(&mut digest, &ids, &distances, &outcome.documents);
            if let Some(first) = first.as_deref_mut() {
                first.totals.add(&outcome);
                first
                    .modelled_us
                    .push(outcome.total_latency().as_nanos() as f64 / 1e3);
                first.results.push(ids);
            }
        }
        if let Some(first) = first.take() {
            first.device = system.controller().device().stats().delta_since(&before);
        }
        served.pass_digests.push(digest.value());
        served.pass_ends.push(served.call_us.len());
    }
    served
}
