//! Per-query accounting shared by the workloads: modelled stage times and
//! engine counts read from `SearchOutcome`, device deltas read from the
//! controller's `FlashStats`, and stage wall times read from the
//! `QueryTrace` spans the system records once telemetry is enabled.

use std::collections::BTreeMap;

use reis_core::{QueryTrace, SearchOutcome, Telemetry};
use reis_nand::FlashStats;

use crate::measure::ratio;
use crate::Ctx;

/// Stage names as the metrics spell them, in pipeline order.
const STAGES: [&str; 7] = [
    "broadcast",
    "coarse",
    "fine",
    "select",
    "rerank",
    "doc_fetch",
    "host_transfer",
];

const MODELLED_NAMES: [&str; 7] = [
    "stage.broadcast.modelled_us",
    "stage.coarse.modelled_us",
    "stage.fine.modelled_us",
    "stage.select.modelled_us",
    "stage.rerank.modelled_us",
    "stage.doc_fetch.modelled_us",
    "stage.host_transfer.modelled_us",
];

const WALL_NAMES: [&str; 7] = [
    "stage.broadcast.wall_us",
    "stage.coarse.wall_us",
    "stage.fine.wall_us",
    "stage.select.wall_us",
    "stage.rerank.wall_us",
    "stage.doc_fetch.wall_us",
    "stage.host_transfer.wall_us",
];

/// Sums over single-device search outcomes.
#[derive(Debug, Default, Clone)]
pub struct OutcomeTotals {
    /// Outcomes folded in.
    pub queries: u64,
    modelled_ns: [u64; 7],
    coarse_pages: u64,
    fine_pages: u64,
    fine_entries: u64,
    fine_windows: u64,
    rerank_candidates: u64,
    int8_pages: u64,
    logical_senses: u64,
    energy_j: f64,
}

impl OutcomeTotals {
    /// Fold one outcome in.
    pub fn add(&mut self, o: &SearchOutcome) {
        let l = &o.latency;
        let stages = [
            l.input_broadcast,
            l.coarse_scan,
            l.fine_scan,
            l.select,
            l.rerank,
            l.document_fetch,
            l.host_transfer,
        ];
        for (sum, stage) in self.modelled_ns.iter_mut().zip(stages) {
            *sum += stage.as_nanos();
        }
        let a = &o.activity;
        self.queries += 1;
        self.coarse_pages += a.coarse_pages as u64;
        self.fine_pages += a.fine_pages as u64;
        self.fine_entries += a.fine_entries as u64;
        self.fine_windows += a.fine_windows as u64;
        self.rerank_candidates += a.rerank_candidates as u64;
        self.int8_pages += a.int8_pages as u64;
        self.logical_senses += o.flash_stats.page_reads;
        self.energy_j += o.energy.total_j();
    }

    /// Mean fine pages per query.
    pub fn fine_pages_per_query(&self) -> f64 {
        ratio(self.fine_pages as f64, self.queries as f64)
    }

    /// Set the modelled-stage, engine-count, energy and device metrics.
    /// `device` is the controller's `FlashStats` delta over exactly the
    /// searches folded in.
    pub fn emit(&self, ctx: &mut Ctx, device: &FlashStats) {
        let q = self.queries as f64;
        for (name, ns) in MODELLED_NAMES.iter().zip(self.modelled_ns) {
            ctx.set(name, ratio(ns as f64 / 1e3, q));
        }
        ctx.set(
            "engine.coarse_pages_per_query",
            ratio(self.coarse_pages as f64, q),
        );
        ctx.set(
            "engine.fine_pages_per_query",
            ratio(self.fine_pages as f64, q),
        );
        ctx.set(
            "engine.fine_entries_per_query",
            ratio(self.fine_entries as f64, q),
        );
        ctx.set(
            "engine.fine_windows_per_query",
            ratio(self.fine_windows as f64, q),
        );
        ctx.set(
            "engine.rerank_candidates_per_query",
            ratio(self.rerank_candidates as f64, q),
        );
        ctx.set(
            "engine.int8_pages_per_query",
            ratio(self.int8_pages as f64, q),
        );
        ctx.set(
            "engine.entries_per_fine_page",
            ratio(self.fine_entries as f64, self.fine_pages as f64),
        );
        // Fig. 8: queries per joule, i.e. (queries/s) per watt.
        ctx.set("energy.modelled_qps_per_w", ratio(q, self.energy_j));
        emit_device(ctx, device, q);
        ctx.set(
            "fused.sense_ratio",
            ratio(device.page_reads as f64, self.logical_senses as f64),
        );
    }
}

/// Set the `nand.*` metrics from a device delta over `queries` searches.
pub fn emit_device(ctx: &mut Ctx, device: &FlashStats, queries: f64) {
    ctx.set(
        "nand.senses_per_query",
        ratio(device.page_reads as f64, queries),
    );
    ctx.set(
        "nand.bytes_to_controller_per_query",
        ratio(device.bytes_to_controller as f64, queries),
    );
    ctx.set(
        "nand.xor_ops_per_query",
        ratio(device.xor_ops as f64, queries),
    );
}

/// Wall time per stage, from the system's own query traces, against the
/// wall time of the calls that produced them.
#[derive(Debug, Default, Clone)]
pub struct WallTotals {
    stage_ns: BTreeMap<&'static str, u64>,
    /// Queries whose calls were timed.
    pub queries: u64,
    /// Wall time of the calls that served those queries.
    pub call_ns: u64,
    last_seen: BTreeMap<usize, u64>,
}

impl WallTotals {
    /// Fold in every trace `telemetry` recorded since the last call with
    /// the same `source` key (the ring keeps only the newest traces, so
    /// callers drain after every call).
    pub fn drain(&mut self, source: usize, telemetry: &Telemetry) {
        let last = self.last_seen.get(&source).copied();
        let fresh: Vec<QueryTrace> = telemetry
            .traces()
            .into_iter()
            .filter(|t| last.is_none_or(|l| t.sequence > l))
            .collect();
        if let Some(newest) = fresh.iter().map(|t| t.sequence).max() {
            self.last_seen.insert(source, newest);
        }
        for trace in fresh {
            for span in &trace.spans {
                let stage = match span.stage {
                    "broadcast" => "broadcast",
                    "coarse_scan" => "coarse",
                    "fine_scan" => "fine",
                    "select" => "select",
                    "rerank" => "rerank",
                    "doc_fetch" => "doc_fetch",
                    "host_transfer" => "host_transfer",
                    "leaf" | "leaf_hedged" => "cluster.leaf",
                    "merge" => "cluster.merge",
                    _ => "other",
                };
                *self.stage_ns.entry(stage).or_insert(0) += span.wall_ns;
            }
        }
    }

    /// Mark every trace recorded so far as seen without counting it.
    pub fn skip(&mut self, source: usize, telemetry: &Telemetry) {
        if let Some(newest) = telemetry.traces().iter().map(|t| t.sequence).max() {
            self.last_seen.insert(source, newest);
        }
    }

    /// Add timed calls.
    pub fn calls(&mut self, queries: u64, call_ns: u64) {
        self.queries += queries;
        self.call_ns += call_ns;
    }

    /// Set the `stage.*.wall_us`, `stage.unattributed.wall_us` and cluster
    /// wall metrics, per query.
    pub fn emit(&self, ctx: &mut Ctx) {
        let q = self.queries as f64;
        let us = |ns: u64| ratio(ns as f64 / 1e3, q);
        let get = |stage: &str| self.stage_ns.get(stage).copied().unwrap_or(0);
        for (name, stage) in WALL_NAMES.iter().zip(STAGES) {
            ctx.set(name, us(get(stage)));
        }
        ctx.set("cluster.leaf.wall_us", us(get("cluster.leaf")));
        ctx.set("cluster.merge.wall_us", us(get("cluster.merge")));
        let attributed: u64 = self.stage_ns.values().sum();
        ctx.set(
            "stage.unattributed.wall_us",
            (self.call_ns as f64 - attributed as f64) / 1e3 / q.max(1.0),
        );
    }
}
