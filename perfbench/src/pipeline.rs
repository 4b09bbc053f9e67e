//! `ivf-pipeline` and `cluster-pipeline`: seeded Poisson arrivals replayed
//! through the virtual-time request pipeline of one device
//! (`ReisSystem::pipeline`) or of a 4-shard, 2-way replicated cluster
//! (`ClusterSystem::pipeline`).
//!
//! One pass serves every rung of a fixed ladder of offered rates, and every
//! rung replays the same request sequence: the arrival generator draws the
//! same unit gaps and query indices for every rate and only scales the gaps.
//! Arrivals are timestamps in virtual time, so the generator is never late.

use std::collections::BTreeMap;
use std::time::Instant;

use reis_cluster::{ClusterPipelineReply, ClusterSearchOutcome, ClusterSystem};
use reis_core::{
    CounterId, PipelineConfig, PipelineReply, PipelineRequest, ReisConfig, ReisError, ReisSystem,
    SearchOutcome, Telemetry, VectorDatabase,
};
use reis_nand::FlashStats;
use reis_workloads::{ArrivalEvent, ArrivalTrace, SyntheticDataset};

use crate::inputs::{self, K};
use crate::measure::{self, fold_answer, median, quantile, ratio, Digest, HostSample};
use crate::stages::{emit_device, OutcomeTotals, WallTotals};
use crate::{record_setups, Ctx, SetupTimes};

/// Offered rates of the ladder, in queries per second of virtual time:
/// from below the unloaded single-query service rate (about 1000 q/s on
/// one device) to twice it.
pub const LADDER_QPS: [f64; 5] = [250.0, 500.0, 750.0, 1_000.0, 2_000.0];

/// The nominal rate (a rung of the ladder, below saturation) at which the
/// modelled latency quantiles are reported.
pub const NOMINAL_QPS: f64 = 500.0;

/// The latency limit on a rung's modelled p99 for
/// `pipeline.max_qps_at_slo`.
pub const SLO_P99_US: f64 = 5_000.0;

/// Cluster shape of `cluster-pipeline`.
const SHARDS: usize = 4;
const REPLICAS: usize = 2;

fn pipeline_config() -> PipelineConfig {
    // Executor budget: two workers, the host's core count.
    PipelineConfig::default().with_max_batch(8).with_workers(2)
}

/// One answer the pipeline returned.
enum Reply {
    Device(Box<SearchOutcome>),
    Cluster(Box<ClusterSearchOutcome>),
}

impl Reply {
    fn ids(&self) -> Vec<usize> {
        self.neighbors().iter().map(|n| n.id).collect()
    }

    fn neighbors(&self) -> &[reis_ann::topk::Neighbor] {
        match self {
            Reply::Device(o) => &o.results,
            Reply::Cluster(o) => &o.results,
        }
    }

    fn documents(&self) -> &[Vec<u8>] {
        match self {
            Reply::Device(o) => &o.documents,
            Reply::Cluster(o) => &o.documents,
        }
    }

    /// Modelled device latency of the request, without queueing.
    fn modelled_us(&self) -> f64 {
        let latency = match self {
            Reply::Device(o) => o.total_latency(),
            Reply::Cluster(o) => o.latency,
        };
        latency.as_nanos() as f64 / 1e3
    }

    fn full_coverage(&self) -> bool {
        match self {
            Reply::Device(_) => true,
            Reply::Cluster(o) => o.is_full_coverage(),
        }
    }
}

/// One completion, with the benchmark's wall latency for it.
struct Done {
    event: usize,
    submitted_ns: u64,
    dispatched_ns: u64,
    completed_ns: u64,
    reply: Result<Reply, String>,
    wall_us: f64,
}

/// One completion as either pipeline reports it.
struct Completion {
    request_id: u64,
    submitted_ns: u64,
    dispatched_ns: u64,
    completed_ns: u64,
    reply: Result<Reply, String>,
}

/// The common face of the two pipelines.
trait Front {
    fn submit(&mut self, at_ns: u64, request: PipelineRequest) -> Result<u64, ReisError>;
    fn flush(&mut self);
    /// Every completion since the last call.
    fn drain(&mut self) -> Vec<Completion>;
}

impl Front for reis_core::Pipeline<'_> {
    fn submit(&mut self, at_ns: u64, request: PipelineRequest) -> Result<u64, ReisError> {
        reis_core::Pipeline::submit(self, at_ns, request)
    }

    fn flush(&mut self) {
        reis_core::Pipeline::flush(self)
    }

    fn drain(&mut self) -> Vec<Completion> {
        self.drain_completions()
            .into_iter()
            .map(|c| {
                let reply = match c.reply {
                    Ok(PipelineReply::Search(o)) => Ok(Reply::Device(o)),
                    Ok(PipelineReply::Mutation(_)) => Err("mutation reply to a search".into()),
                    Err(e) => Err(e.to_string()),
                };
                Completion {
                    request_id: c.request_id,
                    submitted_ns: c.submitted_ns,
                    dispatched_ns: c.dispatched_ns,
                    completed_ns: c.completed_ns,
                    reply,
                }
            })
            .collect()
    }
}

impl Front for reis_cluster::ClusterPipeline<'_> {
    fn submit(&mut self, at_ns: u64, request: PipelineRequest) -> Result<u64, ReisError> {
        reis_cluster::ClusterPipeline::submit(self, at_ns, request)
    }

    fn flush(&mut self) {
        reis_cluster::ClusterPipeline::flush(self)
    }

    fn drain(&mut self) -> Vec<Completion> {
        self.drain_completions()
            .into_iter()
            .map(|c| {
                let reply = match c.reply {
                    Ok(ClusterPipelineReply::Search(o)) => Ok(Reply::Cluster(Box::new(o))),
                    Ok(_) => Err("mutation reply to a search".into()),
                    Err(e) => Err(e.to_string()),
                };
                Completion {
                    request_id: c.request_id,
                    submitted_ns: c.submitted_ns,
                    dispatched_ns: c.dispatched_ns,
                    completed_ns: c.completed_ns,
                    reply,
                }
            })
            .collect()
    }
}

/// The system behind the pipeline. A run holds one, so the variants'
/// sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Backend {
    Device { system: ReisSystem, id: u32 },
    Cluster(ClusterSystem),
}

impl Backend {
    fn telemetry(&self) -> Telemetry {
        match self {
            Backend::Device { system, .. } => system.telemetry().clone(),
            Backend::Cluster(cluster) => cluster.telemetry().clone(),
        }
    }

    fn enable_telemetry(&mut self) {
        match self {
            Backend::Device { system, .. } => system.enable_telemetry(),
            Backend::Cluster(cluster) => cluster.enable_telemetry(),
        }
    }

    /// Flash activity so far, summed over every device.
    fn device_stats(&self) -> FlashStats {
        match self {
            Backend::Device { system, .. } => *system.controller().device().stats(),
            Backend::Cluster(cluster) => {
                let mut sum = FlashStats::new();
                for leaf in 0..cluster.num_leaves() {
                    sum.accumulate(cluster.leaf(leaf).controller().device().stats());
                }
                sum
            }
        }
    }

    /// Serve one rung through a fresh pipeline.
    fn rung(
        &mut self,
        ctx: &mut Ctx,
        events: &[ArrivalEvent],
        queries: &[Vec<f32>],
        nprobe: usize,
        walls: Option<&mut WallTotals>,
    ) -> Rung {
        let telemetry = self.telemetry();
        match self {
            Backend::Device { system, id } => drive(
                ctx,
                &mut system.pipeline(*id, pipeline_config()),
                events,
                queries,
                nprobe,
                walls.map(|w| (w, &telemetry)),
            ),
            Backend::Cluster(cluster) => drive(
                ctx,
                &mut cluster.pipeline(pipeline_config()),
                events,
                queries,
                nprobe,
                walls.map(|w| (w, &telemetry)),
            ),
        }
    }
}

/// What one rung served.
#[derive(Default)]
struct Rung {
    done: Vec<Done>,
    call_ns: u64,
    shed: u64,
    /// Wall time of the calls that dispatched batches, and their batches.
    dispatch_ns: u64,
    batches: u64,
}

/// Per-rung bookkeeping of which request is which, and when it entered.
struct Inflight {
    started: Vec<Option<Instant>>,
    event_of: BTreeMap<u64, usize>,
}

fn drive(
    ctx: &mut Ctx,
    front: &mut impl Front,
    events: &[ArrivalEvent],
    queries: &[Vec<f32>],
    nprobe: usize,
    mut walls: Option<(&mut WallTotals, &Telemetry)>,
) -> Rung {
    let mut rung = Rung::default();
    let mut inflight = Inflight {
        started: vec![None; events.len()],
        event_of: BTreeMap::new(),
    };
    for (i, event) in events.iter().enumerate() {
        let request = PipelineRequest::IvfSearch {
            query: queries[event.query_index].clone(),
            k: K,
            nprobe,
        };
        ctx.tracer.enter("submit", Some(i as u64));
        let t = Instant::now();
        let submitted = front.submit(event.at_ns, request);
        let ns = t.elapsed().as_nanos() as u64;
        ctx.tracer.exit();
        match submitted {
            Ok(request_id) => {
                inflight.started[i] = Some(t);
                inflight.event_of.insert(request_id, i);
            }
            Err(_) => {
                rung.shed += 1;
                ctx.attempt(true);
            }
        }
        collect(ctx, &mut rung, &inflight, front.drain(), ns, walls.as_mut());
    }
    ctx.tracer.enter("flush", None);
    let t = Instant::now();
    front.flush();
    let ns = t.elapsed().as_nanos() as u64;
    ctx.tracer.exit();
    collect(ctx, &mut rung, &inflight, front.drain(), ns, walls.as_mut());
    rung
}

/// Account the completions one pipeline call of `ns` wall time produced.
fn collect(
    ctx: &mut Ctx,
    rung: &mut Rung,
    inflight: &Inflight,
    completions: Vec<Completion>,
    ns: u64,
    walls: Option<&mut (&mut WallTotals, &Telemetry)>,
) {
    let now = Instant::now();
    rung.call_ns += ns;
    if !completions.is_empty() {
        let mut dispatches: Vec<u64> = completions.iter().map(|c| c.dispatched_ns).collect();
        dispatches.dedup();
        rung.dispatch_ns += ns;
        rung.batches += dispatches.len() as u64;
    }
    if let Some((walls, telemetry)) = walls {
        walls.drain(0, telemetry);
        walls.calls(completions.len() as u64, ns);
    }
    for c in completions {
        let event = inflight.event_of[&c.request_id];
        let wall_us = inflight.started[event].map_or(0.0, |t| (now - t).as_secs_f64() * 1e6);
        ctx.attempt(c.reply.as_ref().map_or(true, |r| !r.full_coverage()));
        rung.done.push(Done {
            event,
            submitted_ns: c.submitted_ns,
            dispatched_ns: c.dispatched_ns,
            completed_ns: c.completed_ns,
            reply: c.reply,
            wall_us,
        });
    }
}

/// Modelled (virtual-time) statistics of one rung.
struct RungModel {
    latency_us: Vec<f64>,
    queue_us: Vec<f64>,
    service_us: Vec<f64>,
    busy_ns: u64,
    backlog_end_us: f64,
    batches: u64,
}

fn model(rung: &Rung) -> RungModel {
    let mut done: Vec<&Done> = rung.done.iter().collect();
    done.sort_by_key(|d| (d.dispatched_ns, d.event));
    // The device serves batches one after another: a batch starts when it
    // is dispatched or when the previous one ends, whichever is later, and
    // ends with its slowest member.
    let mut busy_ns = 0u64;
    let mut free_at = 0u64;
    let mut batches = 0u64;
    let mut i = 0;
    while i < done.len() {
        let dispatched = done[i].dispatched_ns;
        let mut end = 0u64;
        while i < done.len() && done[i].dispatched_ns == dispatched {
            end = end.max(done[i].completed_ns);
            i += 1;
        }
        let start = dispatched.max(free_at);
        busy_ns += end.saturating_sub(start);
        free_at = end.max(free_at);
        batches += 1;
    }
    let last_submit = done.iter().map(|d| d.submitted_ns).max().unwrap_or(0);
    let us = |ns: u64| ns as f64 / 1e3;
    RungModel {
        latency_us: done
            .iter()
            .map(|d| us(d.completed_ns - d.submitted_ns))
            .collect(),
        queue_us: done
            .iter()
            .map(|d| us(d.dispatched_ns - d.submitted_ns))
            .collect(),
        service_us: done
            .iter()
            .map(|d| us(d.completed_ns - d.dispatched_ns))
            .collect(),
        busy_ns,
        backlog_end_us: us(free_at.saturating_sub(last_submit)),
        batches,
    }
}

/// Digest of a rung's answers in request order.
fn rung_digest(rung: &Rung) -> u64 {
    let mut done: Vec<&Done> = rung.done.iter().collect();
    done.sort_by_key(|d| d.event);
    let mut digest = Digest::default();
    for d in done {
        digest.word(d.event as u64);
        if let Ok(reply) = &d.reply {
            let distances: Vec<f32> = reply.neighbors().iter().map(|n| n.distance).collect();
            fold_answer(&mut digest, &reply.ids(), &distances, reply.documents());
        }
    }
    digest.value()
}

/// Seed of the arrival schedule. The schedule is the same for every
/// `--seed`; seeds differ in which queries arrive.
const ARRIVAL_SEED: u64 = 0xA221_7A15;

/// The arrivals of one rung: the first `n` arrival times of a seeded
/// Poisson trace at `rate`, the i-th carrying query i of the pool. The
/// generator draws the same unit gaps at every rate, so rungs differ only
/// in time scale.
fn arrivals(rate: f64, n: usize) -> Vec<ArrivalEvent> {
    let horizon_us = (n as f64 / rate * 4e6) as u64 + 1_000;
    let trace = ArrivalTrace::poisson(rate, horizon_us, 1, ARRIVAL_SEED);
    trace
        .events()
        .iter()
        .take(n)
        .enumerate()
        .map(|(query_index, e)| ArrivalEvent {
            at_ns: e.at_ns,
            query_index,
        })
        .collect()
}

/// Sums over the cluster outcomes of a pass.
#[derive(Default)]
struct ClusterTotals {
    queries: u64,
    fanout_ns: u64,
    doc_ns: u64,
    merged: u64,
    cut: u64,
}

pub fn run(ctx: &mut Ctx, clustered: bool) {
    let name = if clustered {
        "cluster-pipeline"
    } else {
        "ivf-pipeline"
    };
    let sizes = ctx.sizes;
    let data = inputs::corpus(sizes.ivf_entries);
    let n = sizes.requests_per_rung;
    let pool = inputs::queries(&data, n, ctx.seed);
    let corpus: Vec<(usize, &[f32])> = data
        .vectors()
        .iter()
        .map(Vec::as_slice)
        .enumerate()
        .collect();
    let query_refs: Vec<&[f32]> = pool.iter().map(Vec::as_slice).collect();
    let truth = inputs::exact_top_k(&corpus, &query_refs, K);
    let ladder: Vec<Vec<ArrivalEvent>> = LADDER_QPS.iter().map(|&rate| arrivals(rate, n)).collect();
    ctx.check(ladder.iter().all(|rung| rung.len() == n), || {
        format!("{name}: a ladder rung has fewer than {n} arrivals")
    });
    let nominal = LADDER_QPS
        .iter()
        .position(|&r| r == NOMINAL_QPS)
        .expect("the nominal rate is a rung");
    let rates: Vec<String> = LADDER_QPS.iter().map(|r| r.to_string()).collect();
    ctx.note(
        "corpus",
        format!(
            "{{\"profile\":\"HotpotQA\",\"entries\":{},\"dim\":{},\"nlist\":{},\"nprobe\":{},\"query_pool\":{},\"k\":{K}}}",
            data.len(),
            data.profile().dim,
            sizes.nlist,
            sizes.nprobe,
            pool.len()
        ),
    );
    ctx.note(
        "open_loop",
        format!(
            "{{\"ladder_qps\":[{}],\"nominal_qps\":{NOMINAL_QPS},\"requests_per_rung\":{n},\"slo_p99_us\":{SLO_P99_US},\"max_batch\":8,\"workers\":2,\"generator_late_ns\":0,\"late_note\":\"arrivals are virtual-time timestamps, so the generator runs zero late by construction\"}}",
            rates.join(",")
        ),
    );
    if clustered {
        ctx.note(
            "cluster",
            format!("{{\"shards\":{SHARDS},\"replication\":{REPLICAS},\"faults\":\"none\"}}"),
        );
    }

    let mut setups = Vec::new();
    let mut backend = None;
    let mut kernel_db = None;
    for _ in 0..sizes.setups {
        drop(backend.take());
        drop(kernel_db.take());
        let documents = data.documents_owned();
        if clustered {
            let t0 = Instant::now();
            let mut cluster = ClusterSystem::new_replicated(ReisConfig::ssd1(), SHARDS, REPLICAS)
                .expect("cluster");
            cluster
                .deploy_ivf(data.vectors(), &documents, sizes.nlist)
                .expect("cluster deploy");
            let b = Backend::Cluster(cluster);
            setups.push(SetupTimes {
                index_build_s: 0.0,
                deploy_s: measure::secs(t0),
                pages_programmed: b.device_stats().page_programs,
            });
            backend = Some(b);
        } else {
            let t0 = Instant::now();
            let db =
                VectorDatabase::ivf(data.vectors(), documents, sizes.nlist).expect("ivf database");
            let built = measure::secs(t0);
            let t1 = Instant::now();
            let mut system = ReisSystem::new(ReisConfig::ssd1());
            let id = system.deploy(&db).expect("deploy");
            let deploy_s = measure::secs(t1);
            kernel_db = Some(db);
            let b = Backend::Device { system, id };
            setups.push(SetupTimes {
                index_build_s: built,
                deploy_s,
                pages_programmed: b.device_stats().page_programs,
            });
            backend = Some(b);
        }
    }
    record_setups(ctx, &setups);
    let mut backend = backend.expect("at least one set-up");
    if let Some(db) = kernel_db.take() {
        inputs::record_kernels(ctx, &db, &pool);
    }

    // ---- Measured passes over the ladder.
    let mut first_digest: Option<u64> = None;
    let mut first_models: Vec<RungModel> = Vec::new();
    let mut answers: BTreeMap<usize, (Vec<usize>, u64)> = BTreeMap::new();
    let mut device_us: Vec<f64> = Vec::new();
    let mut totals = OutcomeTotals::default();
    let mut cluster_totals = ClusterTotals::default();
    let mut first_device = FlashStats::new();
    let mut first_shed = 0u64;
    let mut digests_ok = true;
    let mut phases: Vec<Phase> = Vec::new();
    let traced_phases: &[bool] = if ctx.trace { &[false, true] } else { &[false] };
    let mut walls = WallTotals::default();
    let mut host = (0.0, 0u64);
    for &traced in traced_phases {
        if traced {
            backend.enable_telemetry();
            ctx.tracer.enable();
        }
        let budget = ctx.phase_seconds();
        let sample = HostSample::now();
        let mut phase = Phase::new(LADDER_QPS.len());
        let t0 = Instant::now();
        'passes: loop {
            ctx.tracer.enter("pass", None);
            for (r, events) in ladder.iter().enumerate() {
                let before = backend.device_stats();
                ctx.tracer.enter("rung", None);
                let rung = backend.rung(
                    ctx,
                    events,
                    &pool,
                    sizes.nprobe,
                    traced.then_some(&mut walls),
                );
                ctx.tracer.exit();
                let device = backend.device_stats().delta_since(&before);
                let digest = rung_digest(&rung);
                match first_digest {
                    None => first_digest = Some(digest),
                    Some(d) => digests_ok &= d == digest,
                }
                if first_models.len() < LADDER_QPS.len() {
                    first_device.accumulate(&device);
                    first_shed += rung.shed;
                    for d in &rung.done {
                        match &d.reply {
                            Ok(reply) => {
                                check_documents(ctx, name, &data, reply, d.event);
                                if r == 0 {
                                    let mut digest = Digest::default();
                                    let distances: Vec<f32> =
                                        reply.neighbors().iter().map(|n| n.distance).collect();
                                    fold_answer(
                                        &mut digest,
                                        &reply.ids(),
                                        &distances,
                                        reply.documents(),
                                    );
                                    answers.insert(d.event, (reply.ids(), digest.value()));
                                    device_us.push(reply.modelled_us());
                                }
                                match reply {
                                    Reply::Device(o) => totals.add(o),
                                    Reply::Cluster(o) => {
                                        cluster_totals.queries += 1;
                                        cluster_totals.fanout_ns += o.fanout_latency.as_nanos();
                                        cluster_totals.doc_ns += o.document_latency.as_nanos();
                                        cluster_totals.merged +=
                                            o.activity.merged_candidates as u64;
                                        cluster_totals.cut += o.activity.cut_candidates as u64;
                                    }
                                }
                            }
                            Err(e) => ctx.check(false, || {
                                format!("{name}: request {} failed: {e}", d.event)
                            }),
                        }
                    }
                    first_models.push(model(&rung));
                }
                phase.add(r, &rung);
                if phase.full_passes() >= 1 && measure::secs(t0) >= budget {
                    ctx.tracer.exit();
                    break 'passes;
                }
            }
            ctx.tracer.exit();
        }
        if !traced {
            host = sample.since();
        }
        phases.push(phase);
    }
    ctx.check(digests_ok, || {
        format!("{name}: rungs or passes returned different answers")
    });
    if let (true, Backend::Cluster(cluster)) = (ctx.trace, &backend) {
        ctx.set(
            "cluster.retries",
            cluster.telemetry().counter(CounterId::LeafRetries) as f64,
        );
    }

    drop(backend);

    // ---- Reference answers: a single device over the same corpus.
    if clustered {
        let t0 = Instant::now();
        let db = VectorDatabase::ivf(data.vectors(), data.documents_owned(), sizes.nlist)
            .expect("ivf database");
        let build_s = measure::secs(t0);
        // The cluster's deploy builds its index internally; the index-build
        // share is measured on this identical build.
        let setup = ctx.get("setup_s");
        ctx.set("ann.index_build_s", build_s);
        ctx.set("core.deploy_s", (setup - build_s).max(0.0));
        inputs::record_kernels(ctx, &db, &pool);
        let mut system = ReisSystem::new(ReisConfig::ssd1());
        let id = system.deploy(&db).expect("deploy");
        drop(db);
        let mut mismatches = 0usize;
        for (&q, (_, cluster_digest)) in &answers {
            let o = system
                .ivf_search_with_nprobe(id, &pool[q], K, sizes.nprobe)
                .expect("reference search");
            let mut digest = Digest::default();
            let distances: Vec<f32> = o.results.iter().map(|n| n.distance).collect();
            fold_answer(&mut digest, &o.result_ids(), &distances, &o.documents);
            mismatches += usize::from(digest.value() != *cluster_digest);
        }
        ctx.check(mismatches == 0, || {
            format!(
                "cluster-pipeline: {mismatches} of {} queries differ from the single-device answers",
                answers.len()
            )
        });
        ctx.note("reference_queries", answers.len().to_string());
    }

    // ---- End-to-end metrics.
    let plain = &phases[0];
    ctx.set("ops_per_s", plain.ops_per_s(n));
    ctx.set("latency_p50_us", quantile(&plain.wall_us, 0.5));
    ctx.set("latency_p90_us", quantile(&plain.wall_us, 0.9));
    ctx.set("search.p50_us", quantile(&plain.wall_us, 0.5));
    ctx.set("search.p99_us", quantile(&plain.wall_us, 0.99));
    let total_requests: usize = first_models.iter().map(|m| m.latency_us.len()).sum();
    let total_busy_s: f64 = first_models.iter().map(|m| m.busy_ns as f64 / 1e9).sum();
    ctx.set("modelled_qps", ratio(total_requests as f64, total_busy_s));
    let nominal_model = &first_models[nominal];
    ctx.set("modelled_mean_us", measure::mean(&device_us));
    ctx.set("modelled_p99_us", quantile(&device_us, 0.99));
    ctx.set(
        "pipeline.nominal_p50_us",
        quantile(&nominal_model.latency_us, 0.5),
    );
    ctx.set(
        "pipeline.nominal_p99_us",
        quantile(&nominal_model.latency_us, 0.99),
    );
    let got: Vec<Vec<usize>> = answers.values().map(|(ids, _)| ids.clone()).collect();
    let want: Vec<Vec<usize>> = answers.keys().map(|&q| truth[q].clone()).collect();
    let recall = inputs::recall(&got, &want);
    ctx.set("recall_at_10", recall);
    ctx.check(recall >= 0.5, || {
        format!("{name}: recall@10 {recall} below 0.5")
    });

    // ---- Per-layer metrics.
    let p99s: Vec<String> = first_models
        .iter()
        .map(|m| format!("{}", quantile(&m.latency_us, 0.99)))
        .collect();
    ctx.note("rung_modelled_p99_us", format!("[{}]", p99s.join(",")));
    let max_at_slo = LADDER_QPS
        .iter()
        .zip(&first_models)
        .filter(|(_, m)| {
            quantile(&m.latency_us, 0.99) <= SLO_P99_US && m.backlog_end_us <= SLO_P99_US
        })
        .map(|(&rate, _)| rate)
        .fold(0.0, f64::max);
    ctx.set(
        "pipeline.max_qps_at_slo",
        if first_shed == 0 { max_at_slo } else { 0.0 },
    );
    ctx.set(
        "pipeline.mean_batch",
        ratio(
            nominal_model.latency_us.len() as f64,
            nominal_model.batches as f64,
        ),
    );
    ctx.set(
        "pipeline.queue_wait_p99_us",
        quantile(&nominal_model.queue_us, 0.99),
    );
    ctx.set(
        "pipeline.service_p99_us",
        quantile(&nominal_model.service_us, 0.99),
    );
    ctx.set("pipeline.shed", first_shed as f64);
    ctx.set(
        "pipeline.host_us_per_request",
        ratio(1e6, plain.ops_per_s(n)),
    );
    if clustered {
        let q = cluster_totals.queries as f64;
        ctx.set(
            "cluster.fanout_modelled_us",
            ratio(cluster_totals.fanout_ns as f64 / 1e3, q),
        );
        ctx.set(
            "cluster.doc_modelled_us",
            ratio(cluster_totals.doc_ns as f64 / 1e3, q),
        );
        ctx.set(
            "cluster.senses_per_query",
            ratio(first_device.page_reads as f64, q),
        );
        ctx.set(
            "cluster.merged_candidates_per_query",
            ratio(cluster_totals.merged as f64, q),
        );
        ctx.set(
            "cluster.cut_ratio",
            ratio(cluster_totals.cut as f64, cluster_totals.merged as f64),
        );
        emit_device(ctx, &first_device, q);
    } else {
        totals.emit(ctx, &first_device);
        ctx.set(
            "fused.batch_wall_us",
            ratio(plain.dispatch_ns as f64 / 1e3, plain.batches as f64),
        );
    }
    if ctx.trace {
        let traced = &phases[1];
        walls.emit(ctx);
        ctx.set(
            "telemetry.overhead_frac",
            1.0 - traced.ops_per_s(n) / plain.ops_per_s(n),
        );
        ctx.set("host.cpu_per_wall", host.0);
        ctx.set(
            "host.ctx_switches_per_op",
            ratio(host.1 as f64, plain.wall_us.len() as f64),
        );
    }
    ctx.note(
        "passes",
        format!("{}", phases.iter().map(Phase::full_passes).sum::<usize>()),
    );
    ctx.note("samples", plain.wall_us.len().to_string());
    ctx.note("digest", format!("\"{:016x}\"", first_digest.unwrap_or(0)));
}

/// Wall-clock observations of one phase (untraced or traced).
struct Phase {
    rung_call_s: Vec<Vec<f64>>,
    /// Per-request wall latencies of the complete passes.
    wall_us: Vec<f64>,
    pending_us: Vec<f64>,
    dispatch_ns: u64,
    batches: u64,
}

impl Phase {
    fn new(rungs: usize) -> Self {
        Phase {
            rung_call_s: vec![Vec::new(); rungs],
            wall_us: Vec::new(),
            pending_us: Vec::new(),
            dispatch_ns: 0,
            batches: 0,
        }
    }

    fn add(&mut self, r: usize, rung: &Rung) {
        self.rung_call_s[r].push(rung.call_ns as f64 / 1e9);
        self.pending_us.extend(rung.done.iter().map(|d| d.wall_us));
        if r + 1 == self.rung_call_s.len() {
            // A pass is complete: its latencies join the sample, so every
            // run's sample has the same mix of rungs.
            self.wall_us.append(&mut self.pending_us);
        }
        self.dispatch_ns += rung.dispatch_ns;
        self.batches += rung.batches;
    }

    /// Passes in which every rung was served.
    fn full_passes(&self) -> usize {
        self.rung_call_s.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Requests per second of wall time inside the pipeline calls: each
    /// rung's median wall time over the passes, summed over the ladder, so
    /// a partly served last pass does not change the rung mix.
    fn ops_per_s(&self, per_rung: usize) -> f64 {
        let wall: f64 = self.rung_call_s.iter().map(|s| median(s)).sum();
        ratio((per_rung * self.rung_call_s.len()) as f64, wall)
    }
}

/// Check that every returned chunk is the corpus chunk of its id.
fn check_documents(
    ctx: &mut Ctx,
    name: &str,
    data: &SyntheticDataset,
    reply: &Reply,
    event: usize,
) {
    let ids = reply.ids();
    let ok = ids.len() == reply.documents().len()
        && ids
            .iter()
            .zip(reply.documents())
            .all(|(&id, doc)| data.documents().get(id) == Some(doc));
    ctx.check(ok, || {
        format!("{name}: request {event} returned chunks that are not its ids' chunks")
    });
}
