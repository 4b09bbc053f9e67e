//! `mixed-durable`: the IVF corpus opened on a `DirVfs` in a fresh
//! directory; one closed-loop client replays a seeded `MutationTrace`
//! (balanced mix, half searches) with one `save()` at its midpoint; the
//! system is then dropped without saving, which models a crash, and
//! `ReisSystem::open` recovers it.
//!
//! A run makes several rounds, each a fresh set-up, replay, crash and
//! recovery of the same trace, so every round must return the same
//! answers. The benchmark keeps its own model of the live corpus, which
//! every returned chunk is checked against.
//!
//! Flush policy: `DirVfs::append` writes WAL frames without syncing, so
//! the mutation metrics price page-cache writes, not device flushes.

use std::path::Path;
use std::time::Instant;

use reis_core::{
    CompactionPolicy, DurableStore, ReisConfig, ReisSystem, SearchOutcome, VectorDatabase,
};
use reis_nand::FlashStats;
use reis_workloads::{MutationMix, MutationOp, MutationTrace, SyntheticDataset};

use crate::inputs::{self, K};
use crate::measure::{self, fold_answer, median, quantile, ratio, Digest, HostSample};
use crate::stages::{OutcomeTotals, WallTotals};
use crate::{record_setups, Ctx, SetupTimes};

/// The system configuration: REIS-SSD1 with the automatic compaction
/// policy, its segment bound lowered from half to a tenth of the base so
/// that every round's trace compacts (at the default bound the segments
/// reach about a sixth of the base and compaction never runs).
fn config() -> ReisConfig {
    ReisConfig::ssd1().with_compaction(CompactionPolicy {
        max_segment_fraction: 0.1,
        ..CompactionPolicy::auto()
    })
}

/// The benchmark's model of the live corpus, indexed by stable id.
type Live<'a> = Vec<Option<(&'a [f32], &'a [u8])>>;

/// What one round observed.
#[derive(Default)]
struct Round {
    setup: SetupTimes,
    search_us: Vec<f64>,
    mutation_us: Vec<f64>,
    kind_us: [Vec<f64>; 3],
    search_modelled_us: Vec<f64>,
    totals: OutcomeTotals,
    search_device: FlashStats,
    trace_device: FlashStats,
    mutations: u64,
    user_bytes: u64,
    compaction_us: Vec<f64>,
    digest: u64,
    save_s: f64,
    snapshot_bytes: u64,
    written_bytes: u64,
    wal_bytes: u64,
    recovery_s: f64,
    records_replayed: u64,
    fine_growth: f64,
    recall: f64,
}

impl Round {
    fn ops(&self) -> usize {
        self.search_us.len() + self.mutation_us.len()
    }

    fn call_s(&self) -> f64 {
        (self.search_us.iter().sum::<f64>() + self.mutation_us.iter().sum::<f64>()) / 1e6
    }
}

pub fn run(ctx: &mut Ctx) {
    let sizes = ctx.sizes;
    let data = inputs::corpus(sizes.ivf_entries);
    let probes = inputs::queries(&data, sizes.probes, ctx.seed);
    let rounds = sizes.setups;
    let ops = ((sizes.mixed_ops_per_second as f64 * ctx.seconds) / rounds as f64).ceil() as usize;
    let trace = MutationTrace::generate(
        data.len(),
        data.profile().dim,
        data.profile().doc_bytes,
        ops.max(2),
        MutationMix::balanced(),
        ctx.seed,
    );
    let (inserts, deletes, upserts, searches) = trace.op_counts();
    ctx.note(
        "corpus",
        format!(
            "{{\"profile\":\"HotpotQA\",\"entries\":{},\"dim\":{},\"nlist\":{},\"nprobe\":{},\"k\":{K}}}",
            data.len(),
            data.profile().dim,
            sizes.nlist,
            sizes.nprobe
        ),
    );
    ctx.note(
        "mutation_trace",
        format!(
            "{{\"mix\":\"balanced\",\"ops_per_round\":{},\"inserts\":{inserts},\"deletes\":{deletes},\"upserts\":{upserts},\"searches\":{searches},\"rounds\":{rounds},\"save_at_op\":{},\"probes\":{}}}",
            trace.ops().len(),
            trace.ops().len() / 2,
            sizes.probes
        ),
    );
    ctx.note(
        "flush_policy",
        "\"none: DirVfs appends WAL frames without fsync, so mutation timings price page-cache writes\"".to_string(),
    );

    let work = Path::new("perfbench-out").join(format!("mixed-{}", std::process::id()));
    let mut results: Vec<Round> = Vec::new();
    let mut walls = WallTotals::default();
    let mut host = (0.0, 0u64);
    for r in 0..rounds {
        // In the traced run the first round is untraced and the rest are
        // traced.
        let traced = ctx.trace && r > 0;
        if traced {
            ctx.tracer.enable();
        }
        let sample = HostSample::now();
        let round = round(
            ctx,
            &data,
            &probes,
            &trace,
            &work.join(format!("round-{r}")),
            traced,
            &mut walls,
        );
        if r == 0 {
            host = sample.since();
        }
        results.push(round);
    }
    let _ = std::fs::remove_dir_all(&work);

    let digests: Vec<u64> = results.iter().map(|r| r.digest).collect();
    ctx.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("mixed-durable: rounds returned different answers: {digests:x?}")
    });
    let setups: Vec<SetupTimes> = results.iter().map(|r| r.setup).collect();
    record_setups(ctx, &setups);

    // The traced run's first round is its untraced half.
    let plain: &[Round] = if ctx.trace { &results[..1] } else { &results };
    let first = &results[0];
    let plain_ops: usize = plain.iter().map(|r| r.ops()).sum();
    let plain_s: f64 = plain.iter().map(|r| r.call_s()).sum();
    let searches_us: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.search_us.iter().copied())
        .collect();
    let mutations_us: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.mutation_us.iter().copied())
        .collect();
    // Median over rounds, so one round slowed by host interference does
    // not move it.
    let round_ops: Vec<f64> = plain
        .iter()
        .map(|r| ratio(r.ops() as f64, r.call_s()))
        .collect();
    ctx.set("ops_per_s", median(&round_ops));
    // Latency quantiles are per search: half the operations are mutations
    // an order of magnitude cheaper, so a quantile over both would sit in
    // the gap between the two and jump with the mix.
    ctx.set("latency_p50_us", quantile(&searches_us, 0.5));
    ctx.set("latency_p90_us", quantile(&searches_us, 0.9));
    let modelled = &first.search_modelled_us;
    ctx.set(
        "modelled_qps",
        ratio(modelled.len() as f64, modelled.iter().sum::<f64>() / 1e6),
    );
    ctx.set("modelled_mean_us", measure::mean(modelled));
    ctx.set("modelled_p99_us", quantile(modelled, 0.99));
    ctx.set("recall_at_10", first.recall);
    ctx.check(first.recall >= 0.5, || {
        format!("mixed-durable: recall@10 {} below 0.5", first.recall)
    });

    ctx.set("search.p50_us", quantile(&searches_us, 0.5));
    ctx.set("search.p99_us", quantile(&searches_us, 0.99));
    ctx.set("mutate.p50_us", quantile(&mutations_us, 0.5));
    ctx.set("mutate.p99_us", quantile(&mutations_us, 0.99));
    for (name, kind) in [
        "mutate.insert.wall_us",
        "mutate.delete.wall_us",
        "mutate.upsert.wall_us",
    ]
    .into_iter()
    .zip(0..3)
    {
        let kind_us: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.kind_us[kind].iter().copied())
            .collect();
        ctx.set(name, median(&kind_us));
    }
    ctx.set(
        "mutate.pages_programmed_per_op",
        ratio(
            first.trace_device.page_programs as f64,
            first.mutations as f64,
        ),
    );
    ctx.set("update.compactions", first.compaction_us.len() as f64);
    let stalls: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.compaction_us.iter().copied())
        .collect();
    ctx.set("update.compaction_stall_us", median(&stalls));
    ctx.set("update.fine_pages_growth", first.fine_growth);
    ctx.set(
        "persist.wal_bytes_per_op",
        ratio(first.wal_bytes as f64, first.mutations as f64),
    );
    ctx.set(
        "persist.bytes_written_per_user_byte",
        ratio(first.written_bytes as f64, first.user_bytes as f64),
    );
    ctx.set("persist.snapshot_bytes", first.snapshot_bytes as f64);
    let saves: Vec<f64> = results.iter().map(|r| r.save_s).collect();
    let recoveries: Vec<f64> = results.iter().map(|r| r.recovery_s).collect();
    ctx.set("persist.save_s", median(&saves));
    ctx.set("persist.recovery_s", median(&recoveries));
    ctx.set(
        "persist.replay_us_per_record",
        ratio(median(&recoveries) * 1e6, first.records_replayed as f64),
    );
    ctx.set(
        "ssd.pages_programmed",
        first.trace_device.page_programs as f64,
    );
    ctx.set("ssd.blocks_erased", first.trace_device.block_erases as f64);
    first.totals.emit(ctx, &first.search_device);
    if ctx.trace {
        let traced = &results[1..];
        let traced_ops: usize = traced.iter().map(|r| r.ops()).sum();
        let traced_s: f64 = traced.iter().map(|r| r.call_s()).sum();
        walls.emit(ctx);
        ctx.set(
            "telemetry.overhead_frac",
            1.0 - ratio(traced_ops as f64, traced_s) / ratio(plain_ops as f64, plain_s),
        );
        ctx.set("host.cpu_per_wall", host.0);
        ctx.set(
            "host.ctx_switches_per_op",
            ratio(host.1 as f64, first.ops() as f64),
        );
    }
    ctx.note("samples", searches_us.len().to_string());
    ctx.note("digest", format!("\"{:016x}\"", digests[0]));
}

/// Check that every returned chunk is the live corpus's chunk of its id.
fn check_live(ctx: &mut Ctx, live: &Live<'_>, outcome: &SearchOutcome, what: &str) {
    // The distance filter may return fewer than k results (even none) for
    // a query far from the corpus; every result returned must still carry
    // its own chunk. The recall floor catches answers that are too short.
    let ok = outcome.results.len() == outcome.documents.len()
        && outcome
            .results
            .iter()
            .zip(&outcome.documents)
            .all(|(n, doc)| {
                live.get(n.id)
                    .and_then(Option::as_ref)
                    .is_some_and(|(_, chunk)| *chunk == doc.as_slice())
            });
    ctx.check(ok, || {
        format!("mixed-durable: {what} returned a chunk that is not the live chunk of its id")
    });
}

fn fold(digest: &mut Digest, outcome: &SearchOutcome) {
    let distances: Vec<f32> = outcome.results.iter().map(|n| n.distance).collect();
    fold_answer(
        digest,
        &outcome.result_ids(),
        &distances,
        &outcome.documents,
    );
}

/// Search the probe queries; returns their digest, result ids and mean
/// fine pages per query.
fn probe(
    ctx: &mut Ctx,
    system: &mut ReisSystem,
    id: u32,
    queries: &[Vec<f32>],
    live: &Live<'_>,
    what: &str,
    walls: &mut WallTotals,
) -> (u64, Vec<Vec<usize>>, f64) {
    let nprobe = ctx.sizes.nprobe;
    let mut digest = Digest::default();
    let mut ids = Vec::new();
    let mut totals = OutcomeTotals::default();
    for query in queries {
        let outcome = ctx
            .tracer
            .span("probe", None, || {
                system.ivf_search_with_nprobe(id, query, K, nprobe)
            })
            .expect("probe search");
        // Probe searches are not trace-replay requests: their query traces
        // stay out of the stage wall times.
        walls.skip(0, system.telemetry());
        check_live(ctx, live, &outcome, what);
        fold(&mut digest, &outcome);
        totals.add(&outcome);
        ids.push(outcome.result_ids());
    }
    (digest.value(), ids, totals.fine_pages_per_query())
}

fn round<'a>(
    ctx: &mut Ctx,
    data: &'a SyntheticDataset,
    probes: &[Vec<f32>],
    trace: &'a MutationTrace,
    dir: &Path,
    traced: bool,
    walls: &mut WallTotals,
) -> Round {
    let sizes = ctx.sizes;
    let mut out = Round::default();
    let _ = std::fs::remove_dir_all(dir);

    let documents = data.documents_owned();
    let t0 = Instant::now();
    let db = VectorDatabase::ivf(data.vectors(), documents, sizes.nlist).expect("ivf database");
    out.setup.index_build_s = measure::secs(t0);
    let t1 = Instant::now();
    let (mut system, report) =
        ReisSystem::open(config(), DurableStore::dir(dir)).expect("open a fresh store");
    let id = system.deploy(&db).expect("deploy");
    out.setup.deploy_s = measure::secs(t1);
    out.setup.pages_programmed = system.controller().device().stats().page_programs;
    ctx.check(report.is_none(), || {
        "mixed-durable: the fresh store was not empty".to_string()
    });
    if !traced {
        inputs::record_kernels(ctx, &db, probes);
    }
    drop(db);
    if traced {
        system.enable_telemetry();
    }

    let mut live: Live<'a> = data
        .vectors()
        .iter()
        .zip(data.documents())
        .map(|(v, d)| Some((v.as_slice(), d.as_slice())))
        .collect();
    let mut stable: Vec<Option<u32>> = (0..data.len() as u32).map(Some).collect();
    let (_, _, fine_before) = probe(
        ctx,
        &mut system,
        id,
        probes,
        &live,
        "a probe before the trace",
        walls,
    );

    let mut digest = Digest::default();
    let trace_before = *system.controller().device().stats();
    let save_at = trace.ops().len() / 2;
    let mut wal_before_save = 0;
    for (step, op) in trace.ops().iter().enumerate() {
        if step == save_at {
            wal_before_save = newest_bytes(dir, "wal-");
            let t = Instant::now();
            ctx.tracer
                .span("save", None, || system.save())
                .expect("save");
            out.save_s = measure::secs(t);
            out.snapshot_bytes = newest_bytes(dir, "snapshot-");
        }
        let request = Some(step as u64);
        match op {
            MutationOp::Search { query } => {
                let before = *system.controller().device().stats();
                ctx.tracer.enter("search", request);
                let t = Instant::now();
                let result = system.ivf_search_with_nprobe(id, query, K, sizes.nprobe);
                let ns = t.elapsed().as_nanos() as u64;
                ctx.tracer.exit();
                ctx.attempt(result.is_err());
                let Ok(outcome) = result else { continue };
                out.search_device
                    .accumulate(&system.controller().device().stats().delta_since(&before));
                out.search_us.push(ns as f64 / 1e3);
                if traced {
                    walls.drain(0, system.telemetry());
                    walls.calls(1, ns);
                }
                check_live(ctx, &live, &outcome, "a trace search");
                fold(&mut digest, &outcome);
                out.search_modelled_us
                    .push(outcome.total_latency().as_nanos() as f64 / 1e3);
                out.totals.add(&outcome);
            }
            MutationOp::Insert { vector, document } => {
                ctx.tracer.enter("insert", request);
                let t = Instant::now();
                let result = system.insert(id, vector, document.clone());
                let ns = t.elapsed().as_nanos() as u64;
                ctx.tracer.exit();
                ctx.attempt(result.is_err());
                let Ok(outcome) = result else { continue };
                let new_id = outcome.ids[0] as usize;
                if live.len() <= new_id {
                    live.resize(new_id + 1, None);
                }
                live[new_id] = Some((vector.as_slice(), document.as_slice()));
                stable.push(Some(outcome.ids[0]));
                out.user_bytes += (vector.len() * 4 + document.len()) as u64;
                mutation(&mut out, 0, ns, &outcome);
            }
            MutationOp::Delete { target } => {
                let Some(sid) = stable[*target].take() else {
                    continue;
                };
                ctx.tracer.enter("delete", request);
                let t = Instant::now();
                let result = system.delete(id, sid);
                let ns = t.elapsed().as_nanos() as u64;
                ctx.tracer.exit();
                ctx.attempt(result.is_err());
                let Ok(outcome) = result else { continue };
                live[sid as usize] = None;
                out.user_bytes += 4;
                mutation(&mut out, 1, ns, &outcome);
            }
            MutationOp::Upsert {
                target,
                vector,
                document,
            } => {
                let Some(sid) = stable[*target] else { continue };
                ctx.tracer.enter("upsert", request);
                let t = Instant::now();
                let result = system.upsert(id, sid, vector, document);
                let ns = t.elapsed().as_nanos() as u64;
                ctx.tracer.exit();
                ctx.attempt(result.is_err());
                let Ok(outcome) = result else { continue };
                live[sid as usize] = Some((vector.as_slice(), document.as_slice()));
                out.user_bytes += (4 + vector.len() * 4 + document.len()) as u64;
                mutation(&mut out, 2, ns, &outcome);
            }
        }
    }
    out.trace_device = system
        .controller()
        .device()
        .stats()
        .delta_since(&trace_before);
    // The save keeps the previous epoch as a fallback, so each epoch's WAL
    // is counted from its own (newest at the time) file.
    out.wal_bytes = wal_before_save + newest_bytes(dir, "wal-");
    out.written_bytes = out.wal_bytes + out.snapshot_bytes;

    let (before_crash, _, fine_after) = probe(
        ctx,
        &mut system,
        id,
        probes,
        &live,
        "a probe after the trace",
        walls,
    );
    let (repeat, _, _) = probe(
        ctx,
        &mut system,
        id,
        probes,
        &live,
        "a repeated probe",
        walls,
    );
    ctx.check(before_crash == repeat, || {
        "mixed-durable: a repeated probe pass differed".to_string()
    });
    out.fine_growth = ratio(fine_after, fine_before);

    // Crash: drop without saving, then recover from the snapshot and WAL.
    drop(system);
    let t = Instant::now();
    let (mut system, report) = ctx
        .tracer
        .span("recover", None, || {
            ReisSystem::open(config(), DurableStore::dir(dir))
        })
        .expect("recover");
    out.recovery_s = measure::secs(t);
    let report = report.expect("a store with a snapshot recovers");
    ctx.check(report.quarantine_count() == 0, || {
        "mixed-durable: recovery quarantined part of the WAL".to_string()
    });
    out.records_replayed = report.wal_records_applied;
    let (after_recovery, got, _) = probe(
        ctx,
        &mut system,
        id,
        probes,
        &live,
        "a probe after recovery",
        walls,
    );
    ctx.check(after_recovery == before_crash, || {
        "mixed-durable: probes after recovery differ from probes before the crash".to_string()
    });
    drop(system);
    let _ = std::fs::remove_dir_all(dir);

    let corpus: Vec<(usize, &[f32])> = live
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.map(|(v, _)| (i, v)))
        .collect();
    let probe_refs: Vec<&[f32]> = probes.iter().map(Vec::as_slice).collect();
    let truth = inputs::exact_top_k(&corpus, &probe_refs, K);
    out.recall = inputs::recall(&got, &truth);
    out.digest = digest.value();
    out
}

/// Size of the newest file in `dir` whose name starts with `prefix`
/// (epoch numbers are zero-padded, so the newest sorts last).
fn newest_bytes(dir: &Path, prefix: &str) -> u64 {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let len = e.metadata().ok()?.len();
                    name.starts_with(prefix).then_some((name, len))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files.pop().map_or(0, |(_, len)| len)
}

fn mutation(out: &mut Round, kind: usize, ns: u64, outcome: &reis_core::MutationOutcome) {
    let us = ns as f64 / 1e3;
    out.mutation_us.push(us);
    out.kind_us[kind].push(us);
    out.mutations += 1;
    if outcome.compaction.is_some() {
        out.compaction_us.push(us);
    }
}
