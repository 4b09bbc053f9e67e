//! Page-major fused execution of batched searches.
//!
//! Running a batch's queries one after another re-senses every page for
//! every query that scans it, so the physical sense count grows linearly
//! with the batch. This module inverts the loop, the way REIS amortizes
//! flash sensing across in-flight queries: the batch's probed pages are
//! computed up front, each distinct page is sensed **once** through the
//! borrowed [`SsdController::scan_region_page`] path, and the
//! threshold-aware fused multi-query kernel
//! ([`PassFailChecker::filter_fused`]) scores the sensed page against every
//! query whose selection covers it in a single pass over the page. Each
//! query accumulates candidates in its own Temporal Top List, and the
//! downstream phases (quickselect, INT8 rerank, document fetch) run per
//! query on the shared controller.
//!
//! The executor needs error-free embedding reads, because it scores stored
//! page bytes that no injected bit error can reach.
//! [`ReisSystem::search_batch`](crate::system::ReisSystem::search_batch)
//! runs it only then, with the batch's `workers` argument as the shard
//! budget, and otherwise serves the batch as sequential searches.
//!
//! # Bit-identity
//!
//! Per-query outcomes — results, documents, activity counters, modelled
//! latency and energy — are bit-identical to running
//! [`ReisSystem::search`](crate::system::ReisSystem::search) sequentially
//! per query:
//!
//! * The per-query *logical* activity is unchanged: a query is charged every
//!   page its own selection covers, exactly as the sequential scan counts
//!   them, even though the device sensed the page once for the whole batch.
//!   Only the device-level counters (and the wall clock) see the
//!   amortization.
//! * Candidate admission reuses the engine's entry constructors
//!   ([`engine::base_scan_entry`], [`engine::segment_scan_entry`],
//!   [`engine::coarse_scan_entry`]), and selection runs under the same
//!   `(distance, storage_index)` total order, so the kept set is
//!   order-independent.
//! * Adaptive thresholds follow each query's own *windowed* schedule: a
//!   query's threshold tightens only at barriers every
//!   [`adaptive_window_pages`](crate::config::ReisConfig::adaptive_window_pages)
//!   pages of its own deterministic page list (base subsequence of the
//!   union scan, then its probed clusters' segment runs), from the TTL
//!   state accumulated over its completed windows — exactly the schedule
//!   the sequential engine runs. The union scan advances in *chunks* that
//!   end whenever any in-flight query reaches a barrier, so within a chunk
//!   every threshold is constant and the chunk may shard across channel/die
//!   workers like a static scan. Append segments fuse per group of queries
//!   that share a probed-cluster order (equal order ⇒ aligned windows);
//!   brute-force batches share one order and fuse fully.
//!
//! # Accounting
//!
//! The fused scan performs no device mutation while scanning; after the scan
//! the *physical* flash activity — each page sensed once, the in-plane
//! XOR/count/check per `(page, query)` pair, the aggregate TTL traffic — is
//! folded into the device counters with
//! [`FlashDevice::absorb_stats`](reis_nand::FlashDevice::absorb_stats),
//! the same way intra-query scan shards account their work.

use std::collections::HashMap;
use std::time::Instant;

use reis_nand::peripheral::PassFailChecker;
use reis_nand::{FlashStats, FusedHit, OobEntry, OobLayout, ScanShardPlan};
use reis_ssd::{SsdController, StripedRegion};
use reis_telemetry::Telemetry;

use reis_sched::WorkerPool;

use crate::config::{ReisConfig, ScanParallelism};
use crate::deploy::DeployedDatabase;
use crate::energy::EnergyModel;
use crate::engine::{self, InStorageEngine, ScanCounts, ScanScratch};
use crate::error::{ReisError, Result};
use crate::perf::{PerfModel, QueryActivity};
use crate::records::{TemporalTopList, TtlEntry};
use crate::system::{record_query_telemetry, SearchOutcome, StageWalls};

/// The immutable per-query plan: the slot-padded binary query image the
/// fused kernel scores against, and the selection the query's fine scan
/// covers (shared with the sequential path via
/// [`engine::plan_fine_selection`]).
struct QueryPlan {
    /// Binary query padded to the embedding slot size (the broadcast image).
    padded: Vec<u8>,
    /// Merged page ranges of the fine scan, relative to the embedding
    /// sub-region.
    page_ranges: Vec<(usize, usize)>,
    /// Sorted storage-index ranges of the probed clusters.
    valid_ranges: Vec<(u32, u32)>,
    /// Probed clusters in selection order (segment-scan order).
    cluster_buf: Vec<usize>,
    /// Probed clusters sorted, for the fused segment pass's membership test.
    cluster_sorted: Vec<usize>,
}

/// The mutable per-query scan state.
struct QueryScanState {
    /// Current distance-filter threshold (tightens under adaptation).
    threshold: u32,
    /// The query's Temporal Top List.
    ttl: TemporalTopList,
    /// Coarse-phase activity.
    coarse: ScanCounts,
    /// Fine-phase activity (base region plus append segments).
    fine: ScanCounts,
    /// Per-window passed-entry counts (telemetry only, recorded at the
    /// chunk/segment barriers on the driving thread; sums to
    /// `fine.entries_passed` like the sequential scan's log).
    window_log: Vec<u64>,
    /// Entries already pushed into `window_log`.
    logged_entries: usize,
}

impl QueryScanState {
    fn new(threshold: u32) -> Self {
        QueryScanState {
            threshold,
            ttl: TemporalTopList::new(),
            coarse: ScanCounts::default(),
            fine: ScanCounts::default(),
            window_log: Vec::new(),
            logged_entries: 0,
        }
    }

    /// Log the entries admitted since the last barrier as one window.
    fn log_window(&mut self) {
        self.window_log
            .push((self.fine.entries_passed - self.logged_entries) as u64);
        self.logged_entries = self.fine.entries_passed;
    }
}

/// Which per-query counter a scored page belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Coarse,
    Fine,
}

/// Reusable buffers of one fused scoring loop: the active queries' padded
/// images and current thresholds, and the emitted hits. One set serves one
/// thread; workers own their own.
#[derive(Default)]
struct ScoreBufs<'a> {
    queries: Vec<&'a [u8]>,
    thresholds: Vec<u32>,
    hits: Vec<FusedHit>,
}

/// Score one borrowed page against the active queries with the
/// threshold-aware fused kernel and push the admitted entries into each
/// query's Temporal Top List.
///
/// Each active query is scored under its *current* threshold — constant for
/// the duration of a window under the windowed adaptive schedule (barrier
/// tightening is the caller's job), and the static paper threshold
/// otherwise. [`PassFailChecker::filter_fused`] folds the per-query
/// comparison into the single pass over the page and emits hits
/// chunk-major, so the OOB linkage of a slot unpacks once for every query
/// that passed it. `make_entry` maps `(query, page, slot, distance, oob)`
/// to an admitted entry.
#[allow(clippy::too_many_arguments)]
fn score_page<'a>(
    data: &[u8],
    oob: &[u8],
    page_offset: usize,
    slot_bytes: usize,
    epp: usize,
    oob_layout: &OobLayout,
    plans: &'a [QueryPlan],
    active: &[usize],
    states: &mut [QueryScanState],
    bufs: &mut ScoreBufs<'a>,
    phase: Phase,
    make_entry: &(dyn Fn(usize, usize, usize, u32, OobEntry) -> Option<TtlEntry> + Sync),
) -> Result<()> {
    let ScoreBufs {
        queries,
        thresholds,
        hits,
    } = bufs;
    queries.clear();
    queries.extend(active.iter().map(|&q| plans[q].padded.as_slice()));
    thresholds.clear();
    thresholds.extend(active.iter().map(|&q| states[q].threshold));
    let n_chunks = data.len().div_ceil(slot_bytes);
    let limit = n_chunks.min(epp);
    PassFailChecker::filter_fused(data, slot_bytes, limit, queries, thresholds, hits);
    for &q in active {
        let state = &mut states[q];
        let phase_counts = match phase {
            Phase::Coarse => &mut state.coarse,
            Phase::Fine => &mut state.fine,
        };
        phase_counts.pages += 1;
        phase_counts.slots_scanned += limit;
    }
    // Hits arrive chunk-major (ascending slot), so a slot's OOB entry is
    // unpacked once and reused across the queries that passed it.
    let mut cached: Option<(u32, OobEntry)> = None;
    for hit in hits.iter() {
        let oob_entry = match cached {
            Some((slot, entry)) if slot == hit.slot => entry,
            _ => {
                let entry = oob_layout.unpack_entry(oob, hit.slot as usize)?;
                cached = Some((hit.slot, entry));
                entry
            }
        };
        let q = active[hit.query as usize];
        if let Some(entry) = make_entry(q, page_offset, hit.slot as usize, hit.distance, oob_entry)
        {
            let state = &mut states[q];
            let phase_counts = match phase {
                Phase::Coarse => &mut state.coarse,
                Phase::Fine => &mut state.fine,
            };
            phase_counts.entries_passed += 1;
            state.ttl.push(entry);
        }
    }
    Ok(())
}

/// Walk `ranges` of `region` sequentially, sensing each page once and
/// scoring it against every query whose selection covers it. The shared
/// body of the unsharded static base scan and of one adaptive chunk.
#[allow(clippy::too_many_arguments)]
fn fused_walk_pages<'a>(
    controller: &SsdController,
    region: &StripedRegion,
    ranges: &[(usize, usize)],
    page_base: usize,
    slot_bytes: usize,
    epp: usize,
    oob_layout: &OobLayout,
    plans: &'a [QueryPlan],
    states: &mut [QueryScanState],
    bufs: &mut ScoreBufs<'a>,
    active: &mut Vec<usize>,
    physical_senses: &mut u64,
    make_entry: &(dyn Fn(usize, usize, usize, u32, OobEntry) -> Option<TtlEntry> + Sync),
) -> Result<()> {
    for &(start, end) in ranges {
        for offset in start..end {
            let page_offset = page_base + offset;
            let (_, data, oob) = controller.scan_region_page(region, page_offset)?;
            *physical_senses += 1;
            active.clear();
            active.extend(
                (0..plans.len()).filter(|&q| engine::in_page_ranges(&plans[q].page_ranges, offset)),
            );
            score_page(
                data,
                oob,
                page_offset,
                slot_bytes,
                epp,
                oob_layout,
                plans,
                active,
                states,
                bufs,
                Phase::Fine,
                make_entry,
            )?;
        }
    }
    Ok(())
}

/// The logical flash activity of one query's scan phases, reconstructed
/// from its counts exactly as the sequential engine tallies them on the
/// device: one sense, one XOR, one fail-bit count and one pass/fail check
/// per scanned page, plus the aggregate TTL channel traffic.
///
/// This mirrors the device-side accounting of `InStorageEngine::scan_pages`
/// rather than sharing code with it; any drift between the two is caught by
/// the fused-vs-sequential `flash_stats` equality assertions in
/// `crates/core/tests/fused.rs`, which fail CI.
fn logical_scan_stats(coarse: &ScanCounts, fine: &ScanCounts, entry_bytes: usize) -> FlashStats {
    let pages = (coarse.pages + fine.pages) as u64;
    FlashStats {
        page_reads: pages,
        xor_ops: pages,
        bit_count_ops: pages,
        pass_fail_ops: pages,
        bytes_to_controller: (entry_bytes * (coarse.entries_passed + fine.entries_passed)) as u64,
        ..FlashStats::new()
    }
}

/// Execute a whole batch of queries page-major on the shared controller.
///
/// The caller has already validated the query dimensions and checked that
/// the embedding regions read error-free (the borrowed scan path's
/// exactness precondition, same as intra-query sharding).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_batch_fused(
    config: &ReisConfig,
    controller: &mut SsdController,
    perf: &PerfModel,
    energy: &EnergyModel,
    scratch: &mut ScanScratch,
    pool: &WorkerPool,
    db: &DeployedDatabase,
    queries: &[Vec<f32>],
    k: usize,
    nprobe: Option<usize>,
    shard_budget: usize,
    telemetry: &Telemetry,
) -> Result<Vec<SearchOutcome>> {
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let record = telemetry.is_enabled();
    let scan_started = record.then(Instant::now);
    let layout = db.layout;
    let geometry = controller.config().geometry;
    let slot_bytes = layout.embedding_slot_bytes;
    let epp = layout.embeddings_per_page;
    let oob_layout = OobLayout::new(geometry.oob_size_bytes, epp)?;
    let entry_bytes = slot_bytes + config.ttl_metadata_bytes;
    let dim = db.binary_quantizer.dim();
    let candidate_count = config.rerank_factor.max(1) * k.max(1);
    let static_threshold = config.filter_threshold(dim);
    let adapt = if config.adapts(nprobe.is_none()) {
        Some(candidate_count.max(1))
    } else {
        None
    };

    // ---- Quantize every query up front and build the padded images the
    // fused kernel scores against (the broadcast payloads).
    let binaries = queries
        .iter()
        .map(|q| db.binary_quantizer.quantize(q))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let int8s = queries
        .iter()
        .map(|q| db.int8_quantizer.quantize(q))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let mut plans: Vec<QueryPlan> = binaries
        .iter()
        .map(|binary| {
            let mut padded = vec![0u8; slot_bytes];
            padded[..binary.as_bytes().len()].copy_from_slice(binary.as_bytes());
            QueryPlan {
                padded,
                page_ranges: Vec::new(),
                valid_ranges: Vec::new(),
                cluster_buf: Vec::new(),
                cluster_sorted: Vec::new(),
            }
        })
        .collect();
    let mut states: Vec<QueryScanState> = (0..queries.len())
        .map(|_| QueryScanState::new(static_threshold))
        .collect();

    let mut physical_senses = 0u64;
    let all_queries: Vec<usize> = (0..queries.len()).collect();
    // Reusable per-page active-query list: cleared and refilled for every
    // sensed page, like every other scan buffer (no per-page allocation).
    let mut active: Vec<usize> = Vec::with_capacity(queries.len());

    // The whole scan (coarse, planning, fused base, segments) runs inside
    // one fallible block so that the physical activity it accumulated is
    // folded into the device counters even when a phase fails midway — the
    // merge-then-fail policy the shard paths follow.
    let scan_error = (|| -> Result<()> {
        // ---- Coarse phase (IVF): the centroid pages are common to every
        // query, so each is sensed once and scored against the whole batch.
        // The centroid scan never filters and never adapts, so the fused order
        // is immaterial — entries match the sequential coarse search exactly.
        let per_query_clusters: Option<Vec<Vec<usize>>> = match nprobe {
            Some(nprobe) => {
                let centroids = layout.centroids;
                let make_coarse =
                    |_q: usize, page: usize, slot: usize, distance: u32, oob: OobEntry| {
                        engine::coarse_scan_entry(epp, centroids, page, slot, distance, oob)
                    };
                // Thresholds are u32::MAX during the coarse phase; save and
                // restore the fine-scan thresholds around it. The scoring
                // buffers are scoped to the phase so their borrow of `plans`
                // ends before the fine-scan planning mutates them.
                let mut bufs = ScoreBufs::default();
                for state in states.iter_mut() {
                    state.threshold = u32::MAX;
                }
                for page_offset in 0..layout.centroid_pages {
                    let (_, data, oob) =
                        controller.scan_region_page(&db.record.embedding_region, page_offset)?;
                    physical_senses += 1;
                    score_page(
                        data,
                        oob,
                        page_offset,
                        slot_bytes,
                        epp,
                        &oob_layout,
                        &plans,
                        &all_queries,
                        &mut states,
                        &mut bufs,
                        Phase::Coarse,
                        &make_coarse,
                    )?;
                }
                let keep = nprobe.max(1);
                let clusters = states
                    .iter_mut()
                    .map(|state| {
                        state.threshold = static_threshold;
                        state.ttl.quickselect(keep);
                        state.ttl.sort_ascending();
                        let selected = state
                            .ttl
                            .top(keep)
                            .iter()
                            .map(|e| e.storage_index as usize)
                            .collect();
                        state.ttl.clear();
                        selected
                    })
                    .collect();
                Some(clusters)
            }
            None => None,
        };

        // ---- Fine-scan planning: per-query selections (identical to the
        // sequential prologue) plus their union, which is what the device
        // actually senses.
        for (q, plan) in plans.iter_mut().enumerate() {
            let clusters = per_query_clusters.as_ref().map(|c| c[q].as_slice());
            engine::plan_fine_selection(
                db,
                clusters,
                &mut plan.page_ranges,
                &mut plan.valid_ranges,
                &mut plan.cluster_buf,
            )?;
            plan.cluster_sorted = plan.cluster_buf.clone();
            plan.cluster_sorted.sort_unstable();
        }
        let mut union_ranges: Vec<(usize, usize)> = plans
            .iter()
            .flat_map(|p| p.page_ranges.iter().copied())
            .collect();
        engine::merge_page_ranges(&mut union_ranges);
        let union_pages: usize = union_ranges.iter().map(|&(s, e)| e - s).sum();

        // ---- Fused base scan over the union, page-major and ascending.
        // Static scans cover the whole union in one pass, sharded across
        // channel/die workers when large enough (each worker scores all
        // active queries for its pages). Adapting scans advance in *chunks*
        // bounded by the next window barrier of any in-flight query: within
        // a chunk every threshold is constant, so the chunk shards exactly
        // like a static scan, and the barrier tightening between chunks
        // reproduces each query's sequential windowed schedule.
        let tombstones = &db.updates.tombstones;
        let entries_total = layout.entries;
        let centroid_pages = layout.centroid_pages;
        let plans_ref = &plans;
        let make_base = move |q: usize, page: usize, slot: usize, distance: u32, oob: OobEntry| {
            engine::base_scan_entry(
                centroid_pages,
                epp,
                entries_total,
                tombstones,
                &plans_ref[q].valid_ranges,
                page,
                slot,
                distance,
                oob,
            )
        };
        let mut bufs = ScoreBufs::default();
        let parallelism = if config.scan_parallelism.is_auto_default() {
            ScanParallelism::sharded(shard_budget)
        } else {
            config.scan_parallelism
        };
        let scan_units = ScanShardPlan::scan_units(&geometry);
        let region = &db.record.embedding_region;
        let window = config.adaptive_window_pages.max(1);
        match adapt {
            None => {
                let shard_count = parallelism.effective_shards(scan_units, union_pages);
                if shard_count > 1 {
                    fused_scan_sharded(
                        pool,
                        controller,
                        region,
                        &union_ranges,
                        shard_count,
                        centroid_pages,
                        slot_bytes,
                        epp,
                        &oob_layout,
                        plans_ref,
                        &mut states,
                        &mut physical_senses,
                        &make_base,
                    )?;
                } else {
                    fused_walk_pages(
                        controller,
                        region,
                        &union_ranges,
                        centroid_pages,
                        slot_bytes,
                        epp,
                        &oob_layout,
                        plans_ref,
                        &mut states,
                        &mut bufs,
                        &mut active,
                        &mut physical_senses,
                        &make_base,
                    )?;
                }
            }
            Some(candidate_count) => {
                // Per-query page positions (the index into each query's own
                // page list) advance deterministically with the union walk,
                // so chunk boundaries — the positions where some query
                // completes a window — are computed up front per chunk,
                // independent of how the chunk is then scanned.
                let mut chunk_ranges: Vec<(usize, usize)> = Vec::new();
                let mut pos: Vec<usize> = states.iter().map(|s| s.fine.pages).collect();
                let mut prev = pos.clone();
                let mut range_idx = 0usize;
                let mut off_in = 0usize;
                loop {
                    chunk_ranges.clear();
                    prev.copy_from_slice(&pos);
                    let mut crossed = false;
                    while !crossed && range_idx < union_ranges.len() {
                        let (start, end) = union_ranges[range_idx];
                        let offset = start + off_in;
                        match chunk_ranges.last_mut() {
                            Some(last) if last.1 == offset => last.1 = offset + 1,
                            _ => chunk_ranges.push((offset, offset + 1)),
                        }
                        off_in += 1;
                        if start + off_in == end {
                            range_idx += 1;
                            off_in = 0;
                        }
                        for (q, plan) in plans_ref.iter().enumerate() {
                            if engine::in_page_ranges(&plan.page_ranges, offset) {
                                pos[q] += 1;
                                if pos[q].is_multiple_of(window) {
                                    crossed = true;
                                }
                            }
                        }
                    }
                    let chunk_pages: usize = chunk_ranges.iter().map(|&(s, e)| e - s).sum();
                    if chunk_pages == 0 {
                        break;
                    }
                    let shard_count = parallelism.effective_shards(scan_units, chunk_pages);
                    if shard_count > 1 {
                        fused_scan_sharded(
                            pool,
                            controller,
                            region,
                            &chunk_ranges,
                            shard_count,
                            centroid_pages,
                            slot_bytes,
                            epp,
                            &oob_layout,
                            plans_ref,
                            &mut states,
                            &mut physical_senses,
                            &make_base,
                        )?;
                    } else {
                        fused_walk_pages(
                            controller,
                            region,
                            &chunk_ranges,
                            centroid_pages,
                            slot_bytes,
                            epp,
                            &oob_layout,
                            plans_ref,
                            &mut states,
                            &mut bufs,
                            &mut active,
                            &mut physical_senses,
                            &make_base,
                        )?;
                    }
                    // ---- Window barriers (by construction only at the
                    // chunk's end): every query that just completed a window
                    // tightens against its accumulated TTL state.
                    for (q, state) in states.iter_mut().enumerate() {
                        if state.fine.pages > prev[q] && state.fine.pages.is_multiple_of(window) {
                            state.fine.windows += 1;
                            engine::tighten_threshold(
                                &mut state.ttl,
                                candidate_count,
                                &mut state.threshold,
                            );
                            if record {
                                state.log_window();
                            }
                        }
                    }
                }
            }
        }

        // ---- Append segments of mutated indexes. Statically filtered batches
        // fuse per cluster (each run page sensed once for every query probing
        // the cluster — admission is order-independent). Adapting batches fuse
        // per *group of queries with the same probed-cluster order*: queries
        // of one group share the whole page list, so their window positions
        // stay aligned and the windowed schedule continues seamlessly from
        // the base scan into the runs (a window may straddle the boundary and
        // any number of runs). Brute-force batches (the adaptive default)
        // share one order and fuse fully.
        if !db.updates.store.is_empty() {
            let store = &db.updates.store;
            let base_capacity = db.updates.base_capacity;
            let make_segment =
                move |_q: usize, _page: usize, _slot: usize, distance: u32, oob: OobEntry| {
                    engine::segment_scan_entry(store, base_capacity, distance, oob)
                };
            match adapt {
                None => {
                    for cluster in 0..store.clusters() {
                        active.clear();
                        active.extend((0..queries.len()).filter(|&q| {
                            plans_ref[q].cluster_sorted.binary_search(&cluster).is_ok()
                        }));
                        if active.is_empty() {
                            continue;
                        }
                        for run in store.runs(cluster) {
                            for offset in 0..run.len {
                                let (_, data, oob) = controller.scan_region_page(run, offset)?;
                                physical_senses += 1;
                                score_page(
                                    data,
                                    oob,
                                    offset,
                                    slot_bytes,
                                    epp,
                                    &oob_layout,
                                    plans_ref,
                                    &active,
                                    &mut states,
                                    &mut bufs,
                                    Phase::Fine,
                                    &make_segment,
                                )?;
                            }
                        }
                    }
                }
                Some(candidate_count) => {
                    let mut groups: HashMap<&[usize], Vec<usize>> = HashMap::new();
                    for (q, plan) in plans.iter().enumerate() {
                        groups
                            .entry(plan.cluster_buf.as_slice())
                            .or_default()
                            .push(q);
                    }
                    let mut ordered: Vec<(&[usize], Vec<usize>)> = groups.into_iter().collect();
                    // Group iteration order only affects which queries share a
                    // sense, never any per-query outcome; sort for determinism
                    // of the physical counters.
                    ordered.sort_unstable_by_key(|(_, members)| members[0]);
                    for (cluster_order, members) in ordered {
                        for &cluster in cluster_order {
                            for run in store.runs(cluster) {
                                for offset in 0..run.len {
                                    let (_, data, oob) =
                                        controller.scan_region_page(run, offset)?;
                                    physical_senses += 1;
                                    score_page(
                                        data,
                                        oob,
                                        offset,
                                        slot_bytes,
                                        epp,
                                        &oob_layout,
                                        plans_ref,
                                        &members,
                                        &mut states,
                                        &mut bufs,
                                        Phase::Fine,
                                        &make_segment,
                                    )?;
                                    // Window barrier checks continue across
                                    // the base/segment boundary: a member
                                    // whose page position hits a multiple of
                                    // the window tightens here too.
                                    for &q in &members {
                                        let state = &mut states[q];
                                        if state.fine.pages.is_multiple_of(window) {
                                            state.fine.windows += 1;
                                            engine::tighten_threshold(
                                                &mut state.ttl,
                                                candidate_count,
                                                &mut state.threshold,
                                            );
                                            if record {
                                                state.log_window();
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Trailing telemetry window per query: entries admitted since the
        // last barrier (the whole scan for a statically filtered batch).
        if record {
            for state in states.iter_mut() {
                if state.fine.entries_passed > state.logged_entries {
                    state.log_window();
                }
            }
        }
        Ok(())
    })()
    .err();

    // ---- Fold the physical scan activity into the device counters — each
    // page sensed once, the in-plane compute and TTL traffic per
    // (page, query), plus every query's broadcast — *before* surfacing any
    // scan error or running a downstream phase that could fail: even a
    // failing scan walked real pages.
    let geometry = &config.ssd.geometry;
    let broadcast = FlashStats::input_broadcast(
        geometry.total_dies(),
        geometry.planes_per_die,
        slot_bytes,
        config.optimizations.multi_plane_ibc,
    );
    let mut page_scores = 0u64;
    let mut ttl_bytes = 0u64;
    for state in &states {
        let logical = logical_scan_stats(&state.coarse, &state.fine, entry_bytes);
        page_scores += logical.xor_ops;
        ttl_bytes += logical.bytes_to_controller;
    }
    let mut physical = FlashStats::fused_scan(physical_senses, page_scores, ttl_bytes);
    for _ in 0..states.len() {
        physical.accumulate(&broadcast);
    }
    controller.device_mut().absorb_stats(&physical);
    if let Some(error) = scan_error {
        return Err(error);
    }

    // ---- Per-query downstream phases on the shared controller: candidate
    // selection, INT8 rerank and document fetch, measured with per-query
    // device deltas so the outcome's flash/DRAM accounting matches a
    // sequential run of the same query.
    //
    // Telemetry wall clocks: the fused scan served the whole batch at once,
    // so its wall time is amortized evenly across the queries; the
    // downstream phases are timed per query.
    let scan_wall_per_query = scan_started
        .map(|t0| t0.elapsed().as_nanos() as u64 / queries.len() as u64)
        .unwrap_or(0);
    let mut outcomes = Vec::with_capacity(queries.len());
    for (q, state) in states.iter_mut().enumerate() {
        let downstream_started = record.then(Instant::now);
        state.ttl.quickselect(candidate_count.max(1));
        state.ttl.sort_ascending();
        std::mem::swap(&mut scratch.ttl, &mut state.ttl);
        scratch.candidate_count = candidate_count;

        let stats_before = *controller.device().stats();
        let dram_before = controller.dram().bytes_read() + controller.dram().bytes_written();
        let (results, documents, num_candidates, int8_pages) = {
            let mut query_engine = InStorageEngine::new(controller, *config, scratch, pool);
            let num_candidates = query_engine.num_candidates();
            let (results, int8_pages) = query_engine.rerank(db, &int8s[q], k)?;
            let documents = query_engine.fetch_documents(db, &results)?;
            (results, documents, num_candidates, int8_pages)
        };
        let rerank_delta = controller.device().stats().delta_since(&stats_before);
        let dram_bytes =
            controller.dram().bytes_read() + controller.dram().bytes_written() - dram_before;

        let activity = QueryActivity {
            coarse_pages: state.coarse.pages,
            coarse_entries: state.coarse.entries_passed,
            fine_pages: state.fine.pages,
            fine_entries: state.fine.entries_passed,
            fine_windows: state.fine.windows,
            rerank_candidates: num_candidates,
            int8_pages,
            documents: results.len(),
            embedding_slot_bytes: slot_bytes,
            dim,
            doc_slot_bytes: layout.doc_slot_bytes,
        };
        let mut flash_stats = logical_scan_stats(&state.coarse, &state.fine, entry_bytes);
        flash_stats.accumulate(&broadcast);
        flash_stats.accumulate(&rerank_delta);
        let latency = perf.query_latency(&activity, k);
        let core_busy = perf.core_busy(&activity, k);
        let energy_breakdown =
            energy.query_energy(&flash_stats, dram_bytes, core_busy, latency.total());
        let outcome = SearchOutcome {
            results,
            documents,
            latency,
            activity,
            energy: energy_breakdown,
            flash_stats,
        };
        if record {
            let walls = StageWalls {
                fine: scan_wall_per_query,
                rerank: downstream_started
                    .map(|t0| t0.elapsed().as_nanos() as u64)
                    .unwrap_or(0),
                ..StageWalls::default()
            };
            record_query_telemetry(
                telemetry,
                "fused_batch",
                &walls,
                &state.window_log,
                None,
                &outcome,
            );
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Shard a fused scan pass across channel/die workers: each shard worker
/// senses its own page subset once and scores all queries whose selection
/// covers the page, in its own per-query state seeded with that query's
/// *current* threshold. Valid whenever every threshold is constant for the
/// duration of the pass — the whole union for a static scan, one
/// window-bounded chunk for an adaptive scan (the caller tightens at the
/// barrier after the pass; admission within the pass is then
/// order-independent). The physical sense count accumulates into
/// `physical_senses` even when a shard fails, so the caller's
/// merge-then-fail accounting sees the work every shard performed.
#[allow(clippy::too_many_arguments)]
fn fused_scan_sharded(
    pool: &WorkerPool,
    controller: &SsdController,
    region: &StripedRegion,
    union_ranges: &[(usize, usize)],
    shard_count: usize,
    page_base: usize,
    slot_bytes: usize,
    epp: usize,
    oob_layout: &OobLayout,
    plans: &[QueryPlan],
    states: &mut [QueryScanState],
    physical_senses: &mut u64,
    make_entry: &(dyn Fn(usize, usize, usize, u32, OobEntry) -> Option<TtlEntry> + Sync),
) -> Result<()> {
    let geometry = controller.config().geometry;
    let plan = ScanShardPlan::build(&geometry, shard_count, union_ranges, |offset| {
        region
            .page_at(&geometry, page_base + offset)
            .map(|addr| addr.plane_addr())
    })?;
    let thresholds: Vec<u32> = states.iter().map(|s| s.threshold).collect();
    let thresholds = &thresholds;

    type ShardOutput = (Vec<QueryScanState>, u64, Option<ReisError>);
    let run_shard = |shard: &reis_nand::ScanShard| -> ShardOutput {
        let mut local: Vec<QueryScanState> = thresholds
            .iter()
            .map(|&threshold| QueryScanState::new(threshold))
            .collect();
        let mut senses = 0u64;
        let mut bufs = ScoreBufs::default();
        let mut active: Vec<usize> = Vec::with_capacity(plans.len());
        let error = fused_walk_pages(
            controller,
            region,
            shard.ranges(),
            page_base,
            slot_bytes,
            epp,
            oob_layout,
            plans,
            &mut local,
            &mut bufs,
            &mut active,
            &mut senses,
            make_entry,
        )
        .err();
        (local, senses, error)
    };
    let run_shard = &run_shard;
    // Pool tasks write into per-shard slots and the merge below walks the
    // slots in shard order, so scheduling cannot change the merged state.
    let shards: Vec<_> = plan
        .shards()
        .iter()
        .filter(|shard| !shard.is_empty())
        .collect();
    let mut shard_outputs: Vec<Option<ShardOutput>> = (0..shards.len()).map(|_| None).collect();
    pool.scope(|scope| {
        for (shard, output) in shards.into_iter().zip(shard_outputs.iter_mut()) {
            scope.spawn(move |_ctx| {
                *output = Some(run_shard(shard));
            });
        }
    })
    .map_err(|panic| ReisError::WorkerPanic(panic.message))?;

    // Merge shard-local states per query (selection is order-free under the
    // total-order quickselect) and the physical sense counts; the work a
    // failing shard performed is still merged before the error surfaces.
    let mut first_error = None;
    for output in shard_outputs {
        let (mut local, shard_senses, error) = output.expect("scope waits for every shard task");
        *physical_senses += shard_senses;
        for (state, shard_state) in states.iter_mut().zip(local.iter_mut()) {
            state.fine.absorb(shard_state.fine);
            state.ttl.absorb(&mut shard_state.ttl);
        }
        if first_error.is_none() {
            first_error = error;
        }
    }
    match first_error {
        Some(error) => Err(error),
        None => Ok(()),
    }
}
