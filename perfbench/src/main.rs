//! The standing benchmark of the REIS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bf-single|ivf-pipeline|cluster-pipeline|mixed-durable> \
//!     --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! One run generates its inputs from `--seed`, sets the system up several
//! times, drives the workload through the public API for about `--seconds`,
//! checks every answer, and prints one JSON object as its last line of
//! standard output. With `--trace 0` the object carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics of a run whose
//! second half records telemetry and the benchmark's own spans. A failed
//! correctness check prints the failures to standard error and exits with
//! code 1 before any metric is printed. See `NOTES.md` for the reasons
//! behind each workload and metric.

mod bf;
mod inputs;
mod measure;
mod mixed;
mod pipeline;
mod stages;

use std::collections::BTreeMap;
use std::process::ExitCode;

use inputs::Sizes;
use measure::Tracer;

/// End-to-end metrics: every workload reports each of them, untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("modelled_qps", "q/s"),
    ("modelled_mean_us", "us"),
    ("modelled_p99_us", "us"),
    ("recall_at_10", "fraction"),
];

/// Per-layer metrics of the traced run. A layer a workload bypasses
/// reports 0: it did no work there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ann.index_build_s", "s"),
    ("core.deploy_s", "s"),
    ("ssd.deploy_pages_programmed", "count"),
    ("kernels.hamming_ns_per_page", "ns"),
    ("kernels.fused_ns_per_page_per_query", "ns"),
    ("nand.senses_per_query", "count"),
    ("nand.bytes_to_controller_per_query", "B"),
    ("nand.xor_ops_per_query", "count"),
    ("stage.broadcast.modelled_us", "us"),
    ("stage.coarse.modelled_us", "us"),
    ("stage.fine.modelled_us", "us"),
    ("stage.select.modelled_us", "us"),
    ("stage.rerank.modelled_us", "us"),
    ("stage.doc_fetch.modelled_us", "us"),
    ("stage.host_transfer.modelled_us", "us"),
    ("stage.broadcast.wall_us", "us"),
    ("stage.coarse.wall_us", "us"),
    ("stage.fine.wall_us", "us"),
    ("stage.select.wall_us", "us"),
    ("stage.rerank.wall_us", "us"),
    ("stage.doc_fetch.wall_us", "us"),
    ("stage.host_transfer.wall_us", "us"),
    ("stage.unattributed.wall_us", "us"),
    ("engine.coarse_pages_per_query", "count"),
    ("engine.fine_pages_per_query", "count"),
    ("engine.fine_entries_per_query", "count"),
    ("engine.fine_windows_per_query", "count"),
    ("engine.rerank_candidates_per_query", "count"),
    ("engine.int8_pages_per_query", "count"),
    ("engine.entries_per_fine_page", "ratio"),
    ("energy.modelled_qps_per_w", "q/s/W"),
    ("fused.sense_ratio", "ratio"),
    ("fused.batch_wall_us", "us"),
    ("pipeline.mean_batch", "count"),
    ("pipeline.nominal_p50_us", "us"),
    ("pipeline.nominal_p99_us", "us"),
    ("pipeline.queue_wait_p99_us", "us"),
    ("pipeline.service_p99_us", "us"),
    ("pipeline.shed", "count"),
    ("pipeline.host_us_per_request", "us"),
    ("pipeline.max_qps_at_slo", "q/s"),
    ("cluster.fanout_modelled_us", "us"),
    ("cluster.doc_modelled_us", "us"),
    ("cluster.senses_per_query", "count"),
    ("cluster.merged_candidates_per_query", "count"),
    ("cluster.cut_ratio", "ratio"),
    ("cluster.leaf.wall_us", "us"),
    ("cluster.merge.wall_us", "us"),
    ("cluster.retries", "count"),
    ("search.p50_us", "us"),
    ("search.p99_us", "us"),
    ("mutate.insert.wall_us", "us"),
    ("mutate.delete.wall_us", "us"),
    ("mutate.upsert.wall_us", "us"),
    ("mutate.p50_us", "us"),
    ("mutate.p99_us", "us"),
    ("mutate.pages_programmed_per_op", "count"),
    ("update.compactions", "count"),
    ("update.compaction_stall_us", "us"),
    ("update.fine_pages_growth", "ratio"),
    ("persist.wal_bytes_per_op", "B"),
    ("persist.bytes_written_per_user_byte", "ratio"),
    ("persist.snapshot_bytes", "B"),
    ("persist.save_s", "s"),
    ("persist.replay_us_per_record", "us"),
    ("persist.recovery_s", "s"),
    ("ssd.pages_programmed", "count"),
    ("ssd.blocks_erased", "count"),
    ("host.cpu_per_wall", "ratio"),
    ("host.ctx_switches_per_op", "count"),
    ("telemetry.overhead_frac", "fraction"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "bf-single",
    "ivf-pipeline",
    "cluster-pipeline",
    "mixed-durable",
];

/// The state of one run: its arguments, the metrics and run record it
/// fills in, and the correctness failures it collects.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
    /// The benchmark's own spans (recording only in the traced half).
    pub tracer: Tracer,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, sheds and partial-coverage answers.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    record: Vec<(String, String)>,
    checks: u64,
    failures: Vec<String>,
}

impl Ctx {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A metric set earlier (0 if unset).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Add a field to the run record (`json` is a JSON value).
    pub fn note(&mut self, key: &str, json: String) {
        self.record.push((key.to_string(), json));
    }

    /// Record a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record one attempted operation and whether it failed.
    pub fn attempt(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }

    /// Seconds of the measurement budget one phase gets: the whole budget,
    /// or half of it in the traced run (untraced half, then traced half).
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Wall times of one set-up of a workload's system.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Building the index (`VectorDatabase::flat` / `::ivf`: quantizers and
    /// k-means).
    pub index_build_s: f64,
    /// Constructing the system(s) and deploying onto simulated flash.
    pub deploy_s: f64,
    /// Flash pages the deployment programmed.
    pub pages_programmed: u64,
}

/// Record `setup_s` and its per-layer split as medians over the set-ups a
/// run made.
pub fn record_setups(ctx: &mut Ctx, setups: &[SetupTimes]) {
    let totals: Vec<f64> = setups
        .iter()
        .map(|s| s.index_build_s + s.deploy_s)
        .collect();
    let builds: Vec<f64> = setups.iter().map(|s| s.index_build_s).collect();
    let deploys: Vec<f64> = setups.iter().map(|s| s.deploy_s).collect();
    ctx.set("setup_s", measure::median(&totals));
    ctx.set("ann.index_build_s", measure::median(&builds));
    ctx.set("core.deploy_s", measure::median(&deploys));
    let pages = setups.last().map_or(0, |s| s.pages_programmed);
    ctx.check(setups.iter().all(|s| s.pages_programmed == pages), || {
        "set-ups programmed different page counts".to_string()
    });
    ctx.set("ssd.deploy_pages_programmed", pages as f64);
    ctx.note("setups", setups.len().to_string());
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size tiny]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut named: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                named.insert(&key[2..], value);
            }
            _ => return Err(usage()),
        }
    }
    let get = |key: &str| named.get(key).copied().ok_or_else(usage);
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; {}", usage()));
    }
    let seed: u64 = get("seed")?.parse().map_err(|_| usage())?;
    let seconds: f64 = get("seconds")?.parse().map_err(|_| usage())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(usage());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err(usage()),
    };
    let sizes = match named.get("size").copied() {
        None | Some("full") => Sizes::FULL,
        Some("tiny") => Sizes::TINY,
        Some(_) => return Err(usage()),
    };
    Ok((
        workload,
        Ctx {
            seed,
            seconds,
            trace,
            sizes,
            tracer: Tracer::new(false),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            record: Vec::new(),
            checks: 0,
            failures: Vec::new(),
        },
    ))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let (workload, mut ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match workload.as_str() {
        "bf-single" => bf::run(&mut ctx),
        "ivf-pipeline" => pipeline::run(&mut ctx, false),
        "cluster-pipeline" => pipeline::run(&mut ctx, true),
        "mixed-durable" => mixed::run(&mut ctx),
        _ => unreachable!("workload validated by parse_args"),
    }
    ctx.set("peak_rss_mb", measure::peak_rss_mb());

    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    for &(name, _) in wanted {
        let value = ctx.metrics.get(name).copied();
        match value {
            Some(v) if v.is_finite() => {}
            Some(v) => ctx
                .failures
                .push(format!("metric {name} is not finite: {v}")),
            None if ctx.trace => {
                // A layer this workload bypasses did no work.
                ctx.metrics.insert(name, 0.0);
            }
            None => ctx.failures.push(format!("metric {name} was not measured")),
        }
        if !ctx.trace && ctx.metrics.get(name).is_some_and(|&v| v <= 0.0) {
            ctx.failures
                .push(format!("end-to-end metric {name} is not positive"));
        }
    }
    if ctx.attempted == 0 {
        ctx.failures.push("no operation was attempted".to_string());
    }
    if !ctx.failures.is_empty() {
        eprintln!(
            "correctness gate failed ({} failed checks):",
            ctx.failures.len()
        );
        for failure in ctx.failures.iter().take(20) {
            eprintln!("  {failure}");
        }
        return ExitCode::from(1);
    }

    if ctx.trace {
        let self_us = ctx.tracer.self_time_us();
        let fields: Vec<String> = self_us
            .iter()
            .map(|(name, us)| format!("\"{name}\":{}", json_number(*us)))
            .collect();
        ctx.note("span_self_us", format!("{{{}}}", fields.join(",")));
        let dir = std::path::Path::new("perfbench-out");
        let path = dir.join(format!("spans-{workload}-{}.jsonl", ctx.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_jsonl()));
        match written {
            Ok(()) => ctx.note("spans_file", format!("\"{}\"", path.display())),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = vec![
        format!("\"workload\":\"{workload}\""),
        format!("\"seed\":{}", ctx.seed),
        format!("\"seconds\":{}", json_number(ctx.seconds)),
        format!("\"trace\":{}", u8::from(ctx.trace)),
        format!("\"available_cores\":{cores}"),
        format!("\"checks\":{}", ctx.checks),
    ];
    record.extend(ctx.record.iter().map(|(k, v)| format!("\"{k}\":{v}")));
    println!("{{\"record\":{{{}}}}}", record.join(","));

    let metrics: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(ctx.metrics[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ctx.attempted,
        ctx.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
