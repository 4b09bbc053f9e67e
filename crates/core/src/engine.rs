//! The in-storage ANNS engine (Sec. 4.3).
//!
//! The engine executes searches *functionally* on the simulated flash
//! device: it broadcasts the query into every plane's cache latch, senses
//! embedding pages, XORs them against the query, counts differing bits
//! with the fail-bit counter, filters by distance with the pass/fail
//! checker, streams the surviving Temporal-Top-List entries (with the OOB
//! linkage they carry) to the controller, runs quickselect, fetches the
//! INT8 copies for reranking, quicksorts the survivors and finally reads
//! the documents of the top-k results. Every step counts its activity in a
//! [`crate::perf::QueryActivity`] so the latency model can price it.
//!
//! # Hot-path invariants
//!
//! The scan loop is the throughput-critical path of the whole simulator, so
//! it obeys three rules that any change here must preserve:
//!
//! 1. **One pass per page.** When the embedding regions read error-free
//!    (the ESP-SLC default) a page is scored in place from its stored
//!    bytes: the single-pass
//!    [`xor_count_filter_into`] kernel XORs it against the shared
//!    cache-latch image, counts every slot and filters in one pass, with no
//!    page-sized copy. Only error-prone embedding reads sense the page
//!    through the plane latches (`sense_page`, `xor_latches`,
//!    `count_fail_bits_into`), because only there must injected bit errors
//!    reach the distances. Either way no byte-at-a-time loop runs and no
//!    `Vec<bool>` is materialized.
//! 2. **No per-page allocation.** Every buffer a page scan needs (passing
//!    slots, TTL entries, page ranges) lives in a [`ScanScratch`] that is
//!    reused across pages, across the coarse and fine phases, and across
//!    queries. Page and OOB bytes are borrowed, never copied.
//! 3. **Page-ordered downstream phases.** Reranking and document retrieval
//!    sort their candidates by flash page and stream each page once,
//!    scoring INT8 slots directly from the borrowed page slice — no page
//!    cache map and no per-candidate vector copies.
//!
//! # Two levels of parallelism
//!
//! The scan path parallelizes at two granularities, mirroring how REIS
//! exploits the device:
//!
//! * **Across queries** — workers of a batched search each own one engine
//!   (and therefore one scratch) on a device replica, so queries
//!   parallelize without sharing any mutable state
//!   (`ReisSystem::search_batch`).
//! * **Within one query** — when
//!   [`ScanParallelism`](crate::config::ScanParallelism) enables it, the
//!   fine scan's merged page ranges are split into per-channel/per-die
//!   shards ([`reis_nand::sharding`]) that scan concurrently. Every shard
//!   runs the sequential scan's own per-page body on a scratch of its own,
//!   sharing the controller immutably, and the candidate lists merge into
//!   one Temporal Top List whose total-order quickselect makes the sharded
//!   result bit-identical to the sequential scan. Both levels compose:
//!   each batch worker drives its own intra-query shards.
//!
//! Adaptive distance filtering composes with both levels through the
//! *windowed* threshold schedule: an adapting scan consumes its
//! deterministic page list in fixed page-count windows, each window scans
//! under a constant threshold (and may itself shard), and the threshold
//! tightens only at window barriers — so the admitted entry set, and every
//! counter derived from it, is invariant under how the pages were
//! partitioned across workers or machines.

use reis_ann::topk::Neighbor;
use reis_ann::vector::{BinaryVector, Int8Vector};
use reis_nand::latch::Latch;
use reis_nand::peripheral::xor_count_filter_into;
use reis_nand::{FlashStats, OobEntry, OobLayout, ScanShardPlan};
use reis_sched::WorkerPool;
use reis_ssd::{RegionKind, SsdController, StripedRegion};
use reis_update::OOB_INVALID_RADR;

use crate::config::{ReisConfig, ScanExecutor};
use crate::deploy::DeployedDatabase;
use crate::error::{ReisError, Result};
use crate::leaf::LeafCandidate;
use crate::perf::QueryActivity;
use crate::records::{TemporalTopList, TtlEntry};

/// Activity counters of one scan pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Pages sensed.
    pub pages: usize,
    /// Embedding slots whose distance was computed.
    pub slots_scanned: usize,
    /// Entries that passed the distance filter and were transferred.
    pub entries_passed: usize,
    /// Adaptive window barriers crossed (0 for static-threshold scans): the
    /// number of times the embedded core re-ran quickselect over the
    /// accumulated Temporal Top List to tighten the in-plane threshold.
    pub windows: usize,
}

impl ScanCounts {
    /// Fold the page/slot/entry counters of another pass into this one
    /// (window barriers are owned by the windowed driver, not by the
    /// per-window passes, so they do not accumulate here).
    pub(crate) fn absorb(&mut self, other: ScanCounts) {
        self.pages += other.pages;
        self.slots_scanned += other.slots_scanned;
        self.entries_passed += other.entries_passed;
    }
}

/// Reusable buffers of the query hot path.
///
/// One scratch serves one engine at a time; creating it is cheap but the
/// point is to create it *once* (per system, or per batch worker) so the
/// steady-state scan performs no heap allocation. See the module docs for
/// the invariants it upholds.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Per-chunk fail-bit counts of the current page (latch path only).
    distances: Vec<u32>,
    /// `(slot, distance)` pairs that passed the distance filter on the
    /// current page.
    passing: Vec<(u32, u32)>,
    /// The Temporal Top List accumulating candidates, reused across the
    /// coarse and fine phases.
    pub(crate) ttl: TemporalTopList,
    /// Merged `(start, end)` page ranges selected for the fine scan.
    page_ranges: Vec<(usize, usize)>,
    /// Sorted `(first, last)` storage-index ranges of the probed clusters.
    valid_ranges: Vec<(u32, u32)>,
    /// Candidate visit order for the page-sorted rerank / document phases.
    order: Vec<usize>,
    /// Rerank scoring buffer: exact INT8 distances keyed for the
    /// deterministic `(distance, storage position)` tie-break.
    rerank_buf: Vec<RerankCandidate>,
    /// Pooled controller staging buffer for ECC'd TLC page reads (the
    /// rerank and document-fetch phases reuse it across pages and queries).
    page_buf: Vec<u8>,
    /// Pooled OOB staging buffer accompanying `page_buf`.
    page_oob: Vec<u8>,
    /// Clusters whose append segments the current fine scan must cover.
    cluster_buf: Vec<usize>,
    /// Cursor over the probed clusters' segment runs in deterministic scan
    /// order (the segment tail of the windowed adaptive page list).
    run_cursor: reis_update::RunCursor,
    /// Per-window segment-run slices handed out by the cursor.
    run_slices: Vec<reis_update::RunSlice>,
    /// Base page ranges of the current adaptive window.
    win_ranges: Vec<(usize, usize)>,
    /// Number of fine-search candidates requested (bounds `ttl.top`).
    pub(crate) candidate_count: usize,
    /// Per-window passed-entry counts of the most recent fine scan, filled
    /// only when `record_windows` is set (telemetry enabled). A static scan
    /// logs one window; a windowed adaptive scan logs one count per barrier
    /// plus the trailing partial window, so the log always sums to the
    /// scan's `entries_passed`. Recording happens at the existing barrier /
    /// scan-end points on the driving thread, never inside a scan loop, so
    /// it cannot perturb execution.
    pub(crate) window_log: Vec<u64>,
    /// Whether the next fine scan should fill `window_log`.
    pub(crate) record_windows: bool,
    /// Per-page explain capture of the next fine scan (telemetry explain
    /// mode): `Some` arms the capture. Only pages scanned on this scratch —
    /// not on a shard scratch — are captured, so explain traces are exact under
    /// [`ScanParallelism::pinned_sequential`](crate::config::ScanParallelism)
    /// and cover the sequentially scanned subset otherwise.
    pub(crate) explain_log: Option<Vec<reis_telemetry::ExplainEvent>>,
    /// The adaptive-window index the windowed driver is currently in
    /// (annotates explain events; maintained only while capturing).
    pub(crate) explain_window: u32,
    /// Per-shard scratches of an intra-query sharded scan, grown on first
    /// use and reused across queries. Each scan shard's worker owns one —
    /// its own passing-slot buffer and Temporal Top List — so shards run
    /// without shared mutable state, exactly like batch workers one level
    /// up.
    shard_pool: Vec<ScanScratch>,
}

impl ScanScratch {
    /// Create an empty scratch.
    pub fn new() -> Self {
        ScanScratch::default()
    }
}

/// One reranked candidate: the exact INT8 squared distance plus the keys of
/// the deterministic final sort. Sorting by `(raw, storage_index)` — the
/// entry's position in the scan order rather than its stable id — makes the
/// final ranking invariant under relocations: an index mutated online and
/// the same logical corpus redeployed from scratch order ties identically.
#[derive(Debug, Clone, Copy)]
struct RerankCandidate {
    raw: i64,
    storage_index: u32,
    dadr: u32,
}

/// Tighten an adaptive distance-filter threshold against the current
/// contents of a Temporal Top List: once at least `2 × candidate_count`
/// entries accumulated, quickselect down to the candidate count and clamp
/// the threshold to the worst surviving distance. Any embedding farther
/// than that can never enter the final candidate set (its total-order key
/// exceeds every kept key, and more candidates only shrink the cut), so
/// filtering it in-plane is lossless. The `<=` pass condition keeps
/// equal-distance entries flowing, which the `storage_index` tie-break may
/// still admit.
///
/// Under the windowed schedule this runs only at window *barriers* — fixed
/// page-count positions of the scan's deterministic page list — over the
/// TTL state accumulated across all completed windows. Because the TTL
/// quickselect keys on a total order, the merged state at a barrier (and
/// therefore the tightened threshold) is independent of how the window's
/// pages were partitioned across shard or fused-batch workers.
pub(crate) fn tighten_threshold(
    ttl: &mut crate::records::TemporalTopList,
    candidate_count: usize,
    threshold: &mut u32,
) {
    if ttl.len() >= candidate_count.saturating_mul(2) {
        ttl.quickselect(candidate_count);
        if let Some(max) = ttl.entries().iter().map(|e| e.distance).max() {
            *threshold = (*threshold).min(max);
        }
    }
}

/// The functional in-storage search engine, borrowing the SSD controller
/// (and a [`ScanScratch`]) for the duration of one or more queries.
#[derive(Debug)]
pub struct InStorageEngine<'a> {
    ssd: &'a mut SsdController,
    config: ReisConfig,
    scratch: &'a mut ScanScratch,
    pool: &'a WorkerPool,
}

/// Merge a list of `(start, end)` half-open ranges in place: empty ranges
/// are dropped, the rest sorted and overlapping/adjacent ranges coalesced.
pub(crate) fn merge_page_ranges(ranges: &mut Vec<(usize, usize)>) {
    ranges.retain(|&(start, end)| start < end);
    if ranges.len() <= 1 {
        return;
    }
    ranges.sort_unstable();
    let mut write = 0usize;
    for read in 1..ranges.len() {
        let (start, end) = ranges[read];
        if start <= ranges[write].1 {
            ranges[write].1 = ranges[write].1.max(end);
        } else {
            write += 1;
            ranges[write] = (start, end);
        }
    }
    ranges.truncate(write + 1);
}

/// Whether `index` falls inside one of the sorted, disjoint inclusive
/// `(first, last)` ranges.
pub(crate) fn in_valid_ranges(ranges: &[(u32, u32)], index: u32) -> bool {
    let after = ranges.partition_point(|&(first, _)| first <= index);
    after > 0 && ranges[after - 1].1 >= index
}

/// Whether relative page `offset` falls inside one of the sorted, disjoint
/// half-open `(start, end)` merged page ranges (the fused scan's per-query
/// membership test).
pub(crate) fn in_page_ranges(ranges: &[(usize, usize)], offset: usize) -> bool {
    let after = ranges.partition_point(|&(start, _)| start <= offset);
    after > 0 && ranges[after - 1].1 > offset
}

/// Compute the fine-scan selection of one query: the merged page ranges
/// (relative to the database-embedding sub-region), the sorted storage-index
/// ranges of interest, and the clusters whose append segments the scan must
/// also cover. This is the shared prologue of the sequential
/// [`InStorageEngine::fine_search`] and the fused batch executor, so both
/// paths select exactly the same pages and entries.
pub(crate) fn plan_fine_selection(
    db: &DeployedDatabase,
    clusters: Option<&[usize]>,
    page_ranges: &mut Vec<(usize, usize)>,
    valid_ranges: &mut Vec<(u32, u32)>,
    cluster_buf: &mut Vec<usize>,
) -> Result<()> {
    let layout = db.layout;
    page_ranges.clear();
    valid_ranges.clear();
    cluster_buf.clear();
    match clusters {
        Some(selected) => {
            for &cluster in selected {
                let entry = db
                    .rivf
                    .entry(cluster)
                    .ok_or(ReisError::UnsupportedSearch(format!(
                        "cluster {cluster} unknown"
                    )))?;
                cluster_buf.push(cluster);
                if entry.member_count() == 0 {
                    continue;
                }
                valid_ranges.push((entry.first_embedding, entry.last_embedding));
                let range = layout.embedding_page_range(
                    entry.first_embedding as usize,
                    entry.last_embedding as usize,
                );
                page_ranges.push(range);
            }
        }
        None => {
            cluster_buf.extend(0..db.update_clusters());
            if layout.entries > 0 {
                valid_ranges.push((0, (layout.entries - 1) as u32));
                page_ranges.push((0, layout.embedding_pages));
            }
        }
    }
    merge_page_ranges(page_ranges);
    valid_ranges.sort_unstable();
    Ok(())
}

/// Convert one passing base-region slot into a TTL entry, or `None` for
/// slots that are out of range, tombstoned or outside the probed clusters.
/// Shared by the sequential/sharded scan closures and the fused executor so
/// every path admits exactly the same candidates.
#[allow(clippy::too_many_arguments)]
pub(crate) fn base_scan_entry(
    centroid_pages: usize,
    epp: usize,
    entries_total: usize,
    tombstones: &reis_update::TombstoneSet,
    valid_ranges: &[(u32, u32)],
    page: usize,
    slot: usize,
    distance: u32,
    oob: OobEntry,
) -> Option<TtlEntry> {
    let storage_index = (page - centroid_pages) * epp + slot;
    if storage_index >= entries_total {
        return None;
    }
    // Tombstoned base entries are dead; their flash pages still hold
    // them, so the scan must drop them here.
    if tombstones.contains(storage_index) {
        return None;
    }
    let si = storage_index as u32;
    if !in_valid_ranges(valid_ranges, si) {
        return None;
    }
    Some(TtlEntry {
        distance,
        storage_index: si,
        radr: oob.radr,
        dadr: oob.dadr,
        tag: oob.tag,
    })
}

/// Convert one passing append-segment slot into a TTL entry, filtering the
/// OOB validity sentinel of unfilled slots and DRAM-side deletions. Shared
/// by the sequential scan closure and the fused executor.
pub(crate) fn segment_scan_entry(
    store: &reis_update::SegmentStore,
    base_capacity: u32,
    distance: u32,
    oob: OobEntry,
) -> Option<TtlEntry> {
    if oob.radr == OOB_INVALID_RADR || oob.radr < base_capacity {
        return None;
    }
    let entry = store.entry(oob.radr - base_capacity)?;
    if entry.deleted {
        return None;
    }
    Some(TtlEntry {
        distance,
        storage_index: oob.radr,
        radr: oob.radr,
        dadr: oob.dadr,
        tag: oob.tag,
    })
}

/// Convert one passing centroid slot into a TTL-C entry, or `None` for pad
/// slots past the last centroid. Shared by the sequential coarse search and
/// the fused executor.
pub(crate) fn coarse_scan_entry(
    epp: usize,
    centroids: usize,
    page: usize,
    slot: usize,
    distance: u32,
    oob: OobEntry,
) -> Option<TtlEntry> {
    let cluster = page * epp + slot;
    if cluster >= centroids {
        return None;
    }
    Some(TtlEntry {
        distance,
        storage_index: cluster as u32,
        radr: oob.radr,
        dadr: oob.dadr,
        tag: oob.tag,
    })
}

/// Whether the embedding regions of `ssd` read error-free (the ESP-SLC
/// default): the gate between scoring pages in place from their stored
/// bytes — sequentially, sharded or fused across a batch — and sensing them
/// through the plane latches, so that injected bit errors reach the
/// distances.
pub(crate) fn embedding_reads_error_free(ssd: &SsdController) -> bool {
    let scheme = ssd.hybrid_policy().scheme_for(RegionKind::BinaryEmbeddings);
    ssd.device().read_is_error_free(scheme)
}

/// Admit the passing `(slot, distance)` pairs of one scored page — left in
/// `scratch.passing` by the scoring step — into the scratch's Temporal Top
/// List, unpacking each survivor's OOB linkage, and log the page into an
/// armed explain capture. `limit` is the number of slots the page scored.
/// Shared by the borrowed and the sensed scan bodies, so both admit the same
/// entries and count them the same way.
fn admit_page<F>(
    scratch: &mut ScanScratch,
    counts: &mut ScanCounts,
    oob: &[u8],
    oob_layout: &OobLayout,
    page_offset: usize,
    limit: usize,
    make_entry: &F,
) -> Result<()>
where
    F: Fn(usize, usize, u32, OobEntry) -> Option<TtlEntry>,
{
    counts.pages += 1;
    counts.slots_scanned += limit;
    let entries_before = counts.entries_passed;
    for &(slot, distance) in &scratch.passing {
        let oob_entry = oob_layout.unpack_entry(oob, slot as usize)?;
        if let Some(entry) = make_entry(page_offset, slot as usize, distance, oob_entry) {
            counts.entries_passed += 1;
            scratch.ttl.push(entry);
        }
    }
    if let Some(events) = scratch.explain_log.as_mut() {
        events.push(reis_telemetry::ExplainEvent {
            page: page_offset as u32,
            window: scratch.explain_window,
            slots: limit as u32,
            passed: (counts.entries_passed - entries_before) as u32,
        });
    }
    Ok(())
}

/// The per-page body of every scan whose embedding reads are error-free:
/// score the pages of `ranges` (offsets relative to `page_base` within
/// `region`) in place from their stored bytes and append the admitted
/// entries to `scratch`'s Temporal Top List. A sequential scan runs it
/// inline on the engine's own scratch; each shard of a sharded scan runs it
/// on a shard scratch of its own.
///
/// Per page it borrows the stored bytes through
/// [`SsdController::scan_region_page`] (the sense), reads the plane's
/// cache-latch image — failing with `LatchEmpty` if no query was broadcast
/// — and XOR-popcounts every slot against the image in one pass with
/// [`xor_count_filter_into`]. The whole image takes part, so the distances
/// are exact for any cache-latch contents. The controller is only read:
/// the operations the latch path counts on the device (`page_reads`,
/// `xor_ops`, `bit_count_ops` and `pass_fail_ops` per page, the TTL channel
/// bytes of a completed scan) are tallied in the returned [`FlashStats`]
/// for the caller to absorb.
///
/// Counts and flash activity are returned even when the scan fails, so the
/// work done before the error is still accounted — as the latch path, which
/// counts each operation on the device as it happens, would have it.
#[allow(clippy::too_many_arguments)]
fn scan_borrowed_pages<F>(
    ssd: &SsdController,
    region: &StripedRegion,
    ranges: &[(usize, usize)],
    page_base: usize,
    slot_bytes: usize,
    threshold: u32,
    oob_layout: &OobLayout,
    entry_bytes: usize,
    scratch: &mut ScanScratch,
    make_entry: &F,
) -> (ScanCounts, FlashStats, Option<ReisError>)
where
    F: Fn(usize, usize, u32, OobEntry) -> Option<TtlEntry>,
{
    let mut counts = ScanCounts::default();
    let mut flash = FlashStats::new();
    let mut scan = || -> Result<()> {
        for &(start, end) in ranges {
            for offset in start..end {
                let page_offset = page_base + offset;
                let (addr, data, oob) = ssd.scan_region_page(region, page_offset)?;
                flash.page_reads += 1;
                let image = ssd
                    .device()
                    .page_buffer(addr.plane_addr())?
                    .read_latch(Latch::Cache)?;
                let limit = data
                    .len()
                    .div_ceil(slot_bytes)
                    .min(oob_layout.entries_per_page);
                xor_count_filter_into(
                    data,
                    image,
                    slot_bytes,
                    limit,
                    threshold,
                    &mut scratch.passing,
                );
                flash.xor_ops += 1;
                flash.bit_count_ops += 1;
                flash.pass_fail_ops += 1;
                admit_page(
                    scratch,
                    &mut counts,
                    oob,
                    oob_layout,
                    page_offset,
                    limit,
                    make_entry,
                )?;
            }
        }
        Ok(())
    };
    let error = scan().err();
    if error.is_none() {
        // The aggregate channel traffic of the transferred entries, accounted
        // once per completed scan.
        flash.bytes_to_controller += (entry_bytes * counts.entries_passed) as u64;
    }
    (counts, flash, error)
}

impl<'a> InStorageEngine<'a> {
    /// Create an engine bound to a controller, a configuration and the
    /// scratch buffers it may reuse across queries.
    pub fn new(
        ssd: &'a mut SsdController,
        config: ReisConfig,
        scratch: &'a mut ScanScratch,
        pool: &'a WorkerPool,
    ) -> Self {
        InStorageEngine {
            ssd,
            config,
            scratch,
            pool,
        }
    }

    /// Broadcast the query embedding into the cache latches of every die
    /// (Input Broadcasting, optionally multi-plane). Every plane shares one
    /// tiled image of the query.
    pub fn broadcast_query(&mut self, db: &DeployedDatabase, query: &BinaryVector) -> Result<()> {
        let slot = db.layout.embedding_slot_bytes;
        let mut payload = vec![0u8; slot];
        payload[..query.as_bytes().len()].copy_from_slice(query.as_bytes());
        self.ssd
            .device_mut()
            .input_broadcast_all(&payload, self.config.optimizations.multi_plane_ibc)?;
        Ok(())
    }

    /// The shard count [`ScanParallelism`](crate::config::ScanParallelism)
    /// allows for a scan of the pages in `ranges`.
    fn shards_for(&self, ranges: &[(usize, usize)]) -> usize {
        let geometry = self.ssd.config().geometry;
        let pages = ranges.iter().map(|&(start, end)| end - start).sum();
        self.config
            .scan_parallelism
            .effective_shards(ScanShardPlan::scan_units(&geometry), pages)
    }

    /// Scan the pages of `ranges` (offsets relative to `page_base` within
    /// `region`) against the broadcast query, computing in-plane distances,
    /// filtering them by `threshold` and appending the TTL entries that
    /// pass to the scratch's Temporal Top List.
    ///
    /// `make_entry` converts a passing `(page_offset, slot, distance,
    /// oob_entry)` into a TTL entry, or returns `None` to skip slots outside
    /// the caller's range of interest. The whole loop reuses the scratch
    /// buffers — no allocation per page.
    ///
    /// Error-free embedding reads run [`scan_borrowed_pages`]: inline on the
    /// engine's scratch for one shard, or split into `shards`
    /// per-channel/per-die shards on the worker pool. Error-prone reads
    /// must carry their injected bit errors into the distances, so they
    /// sense every page into its plane's latches instead, sequentially
    /// (see `scan_sensed_pages`). Either way the candidates, counts and
    /// flash statistics equal those of a sequential latch-path scan.
    #[allow(clippy::too_many_arguments)]
    fn scan_pages<F>(
        &mut self,
        region: &StripedRegion,
        ranges: &[(usize, usize)],
        page_base: usize,
        slot_bytes: usize,
        threshold: u32,
        oob_entries_per_page: usize,
        shards: usize,
        make_entry: &F,
    ) -> Result<ScanCounts>
    where
        F: Fn(usize, usize, u32, OobEntry) -> Option<TtlEntry> + Sync,
    {
        let geometry = self.ssd.config().geometry;
        let oob_layout = OobLayout::new(geometry.oob_size_bytes, oob_entries_per_page)?;
        let entry_bytes = slot_bytes + self.config.ttl_metadata_bytes;
        if !embedding_reads_error_free(self.ssd) {
            return self.scan_sensed_pages(
                region,
                ranges,
                page_base,
                slot_bytes,
                threshold,
                &oob_layout,
                entry_bytes,
                make_entry,
            );
        }
        let (counts, flash, error) = if shards > 1 {
            let plan = ScanShardPlan::build(&geometry, shards, ranges, |offset| {
                region
                    .page_at(&geometry, page_base + offset)
                    .map(|addr| addr.plane_addr())
            })?;
            self.scan_shards(
                region,
                &plan,
                page_base,
                slot_bytes,
                threshold,
                &oob_layout,
                entry_bytes,
                make_entry,
            )?
        } else {
            scan_borrowed_pages(
                self.ssd,
                region,
                ranges,
                page_base,
                slot_bytes,
                threshold,
                &oob_layout,
                entry_bytes,
                self.scratch,
                make_entry,
            )
        };
        self.ssd.device_mut().absorb_stats(&flash);
        match error {
            Some(error) => Err(error),
            None => Ok(counts),
        }
    }

    /// The latch path of a scan, for embedding regions whose reads are not
    /// error-free: sense every page into its plane's sensing latch (which
    /// injects the scheme's raw bit errors), XOR it against the cache latch
    /// into the data latch, count fail bits per slot and filter — each step
    /// a device operation that counts itself.
    #[allow(clippy::too_many_arguments)]
    fn scan_sensed_pages<F>(
        &mut self,
        region: &StripedRegion,
        ranges: &[(usize, usize)],
        page_base: usize,
        slot_bytes: usize,
        threshold: u32,
        oob_layout: &OobLayout,
        entry_bytes: usize,
        make_entry: &F,
    ) -> Result<ScanCounts>
    where
        F: Fn(usize, usize, u32, OobEntry) -> Option<TtlEntry>,
    {
        let geometry = self.ssd.config().geometry;
        let mut counts = ScanCounts::default();
        for &(start, end) in ranges {
            for offset in start..end {
                let page_offset = page_base + offset;
                let addr = region.page_at(&geometry, page_offset)?;
                let plane = addr.plane_addr();
                let device = self.ssd.device_mut();
                device.sense_page(addr)?;
                device.xor_latches(plane)?;
                device.count_fail_bits_into(plane, slot_bytes, &mut self.scratch.distances)?;
                let limit = self
                    .scratch
                    .distances
                    .len()
                    .min(oob_layout.entries_per_page);
                let passing = &mut self.scratch.passing;
                passing.clear();
                device.pass_fail_filter(
                    &self.scratch.distances[..limit],
                    threshold,
                    |slot, distance| passing.push((slot as u32, distance)),
                );
                // The OOB bytes were sensed together with the page.
                let oob = self.ssd.device().page_buffer(plane)?.oob().unwrap_or(&[]);
                admit_page(
                    self.scratch,
                    &mut counts,
                    oob,
                    oob_layout,
                    page_offset,
                    limit,
                    make_entry,
                )?;
            }
        }
        self.ssd
            .device_mut()
            .transfer_to_controller(entry_bytes * counts.entries_passed);
        Ok(counts)
    }

    /// Scan the planned shards of one query concurrently — one task per
    /// non-empty shard on the persistent worker pool (or one scoped
    /// `std::thread` under [`ScanExecutor::SpawnScoped`]) — each running
    /// [`scan_borrowed_pages`] on its own shard scratch, and merge the
    /// shard-local results: counts and flash activity are summed in shard
    /// order (a failing shard's work included, its error returned as the
    /// third element) and the shard-local Temporal Top Lists are
    /// concatenated into the engine's TTL.
    /// [`TemporalTopList::quickselect`]'s total-order tie-break then makes
    /// the final candidate set bit-identical to a sequential scan of the
    /// same pages. Only a worker panic fails the call itself.
    #[allow(clippy::too_many_arguments)]
    fn scan_shards<F>(
        &mut self,
        region: &StripedRegion,
        plan: &ScanShardPlan,
        page_base: usize,
        slot_bytes: usize,
        threshold: u32,
        oob_layout: &OobLayout,
        entry_bytes: usize,
        make_entry: &F,
    ) -> Result<(ScanCounts, FlashStats, Option<ReisError>)>
    where
        F: Fn(usize, usize, u32, OobEntry) -> Option<TtlEntry> + Sync,
    {
        let ScanScratch {
            ttl, shard_pool, ..
        } = &mut *self.scratch;
        while shard_pool.len() < plan.shard_count() {
            shard_pool.push(ScanScratch::new());
        }

        let ssd: &SsdController = self.ssd;
        let shard_outputs: Vec<(ScanCounts, FlashStats, Option<ReisError>)> =
            match self.config.scan_executor {
                // The persistent pool: one queued task per non-empty shard, no
                // thread creation. The task bodies are byte-for-byte the spawn
                // path's; only the execution vehicle differs, and the merge
                // below walks slots in shard order either way, so results and
                // accounting cannot depend on the executor.
                ScanExecutor::Pooled => {
                    let jobs: Vec<_> = plan
                        .shards()
                        .iter()
                        .zip(shard_pool.iter_mut())
                        .filter(|(shard, _)| !shard.is_empty())
                        .collect();
                    let mut outputs: Vec<Option<(ScanCounts, FlashStats, Option<ReisError>)>> =
                        (0..jobs.len()).map(|_| None).collect();
                    let scope_result = self.pool.scope(|scope| {
                        for ((shard, shard_scratch), output) in
                            jobs.into_iter().zip(outputs.iter_mut())
                        {
                            scope.spawn(move |_ctx| {
                                *output = Some(scan_borrowed_pages(
                                    ssd,
                                    region,
                                    shard.ranges(),
                                    page_base,
                                    slot_bytes,
                                    threshold,
                                    oob_layout,
                                    entry_bytes,
                                    shard_scratch,
                                    make_entry,
                                ));
                            });
                        }
                    });
                    if let Err(panic) = scope_result {
                        // A panicking shard leaves partial candidates in the
                        // shard scratches; drop them so the next scan over this
                        // scratch pool cannot absorb stale entries.
                        for shard_scratch in shard_pool.iter_mut() {
                            shard_scratch.ttl.clear();
                        }
                        return Err(ReisError::WorkerPanic(panic.message));
                    }
                    outputs
                        .into_iter()
                        .map(|output| output.expect("scope waits for every shard task"))
                        .collect()
                }
                // The pre-pool executor, kept for the identity baseline and the
                // `fig_scheduler` overhead comparison: scoped threads spawned
                // and joined for every call.
                ScanExecutor::SpawnScoped => std::thread::scope(|scope| {
                    let handles: Vec<_> = plan
                        .shards()
                        .iter()
                        .zip(shard_pool.iter_mut())
                        .filter(|(shard, _)| !shard.is_empty())
                        .map(|(shard, shard_scratch)| {
                            scope.spawn(move || {
                                scan_borrowed_pages(
                                    ssd,
                                    region,
                                    shard.ranges(),
                                    page_base,
                                    slot_bytes,
                                    threshold,
                                    oob_layout,
                                    entry_bytes,
                                    shard_scratch,
                                    make_entry,
                                )
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|handle| handle.join().expect("scan shard worker panicked"))
                        .collect()
                }),
            };

        // Every shard — including a failing one — performed real flash
        // work, so the caller absorbs the merged stats before any error is
        // surfaced, mirroring the batch path's merge-then-fail policy and
        // the latch path's count-as-you-go device statistics.
        let mut counts = ScanCounts::default();
        let mut flash = FlashStats::new();
        let mut first_error = None;
        for (shard_counts, shard_flash, shard_error) in shard_outputs {
            counts.absorb(shard_counts);
            flash.accumulate(&shard_flash);
            if first_error.is_none() {
                first_error = shard_error;
            }
        }
        for shard_scratch in shard_pool.iter_mut() {
            ttl.absorb(&mut shard_scratch.ttl);
        }
        Ok((counts, flash, first_error))
    }

    /// Coarse-grained search: scan the centroid pages and return the
    /// `nprobe` nearest cluster indices.
    pub fn coarse_search(
        &mut self,
        db: &DeployedDatabase,
        nprobe: usize,
    ) -> Result<(Vec<usize>, ScanCounts)> {
        if !db.is_ivf() {
            return Err(ReisError::UnsupportedSearch(
                "coarse search requires an IVF deployment".into(),
            ));
        }
        let layout = db.layout;
        let centroids = layout.centroids;
        let epp = layout.embeddings_per_page;
        self.scratch.ttl.clear();
        let counts = self.scan_pages(
            &db.record.embedding_region,
            &[(0, layout.centroid_pages)],
            0,
            layout.embedding_slot_bytes,
            // Centroid scan is never filtered: every cluster distance is needed.
            u32::MAX,
            epp,
            1,
            &|page, slot, distance, oob| {
                coarse_scan_entry(epp, centroids, page, slot, distance, oob)
            },
        )?;
        let keep = nprobe.max(1);
        self.scratch.ttl.quickselect(keep);
        self.scratch.ttl.sort_ascending();
        let clusters: Vec<usize> = self
            .scratch
            .ttl
            .top(keep)
            .iter()
            .map(|e| e.storage_index as usize)
            .collect();
        Ok((clusters, counts))
    }

    /// Fine-grained search over the embedding pages of the given clusters
    /// (or of the whole database for a brute-force search). The surviving
    /// candidates are left, in rank order, in the scratch's Temporal Top
    /// List (see [`InStorageEngine::candidates`]).
    ///
    /// When the configuration's
    /// [`ScanParallelism`](crate::config::ScanParallelism) allows more than
    /// one shard for a scan of this size, the merged page ranges are split
    /// across per-channel/per-die shard workers and scanned concurrently;
    /// the result — candidates, counts and flash statistics — is
    /// bit-identical to the sequential scan. Both the brute-force and the
    /// IVF search path run through this method, so both inherit the
    /// sharding. The (much smaller) centroid scan of
    /// [`InStorageEngine::coarse_search`] always runs sequentially.
    ///
    /// Scans that adapt their distance-filter threshold run the *windowed*
    /// driver (`fine_scan_windowed`): the page list is
    /// consumed in fixed page-count windows, each window scans under a
    /// constant threshold (sharded when large enough), and the threshold
    /// tightens only at the barrier between windows — which is what makes
    /// adaptive results and transferred-entry counts identical under every
    /// parallelism setting.
    pub fn fine_search(
        &mut self,
        db: &DeployedDatabase,
        query: &BinaryVector,
        clusters: Option<&[usize]>,
        candidate_count: usize,
    ) -> Result<ScanCounts> {
        let layout = db.layout;
        let threshold = self.config.filter_threshold(query.dim());

        // Which embedding pages (relative to the database-embedding
        // sub-region) need scanning, and which storage-index ranges are of
        // interest. Page ranges are merged instead of materializing a page
        // set; storage ranges are sorted for binary search in the scan loop.
        // The probed clusters are remembered so the append-segment pass
        // below covers the same selection. The planning is shared with the
        // fused batch executor (`plan_fine_selection`), so both paths select
        // identically.
        {
            let ScanScratch {
                page_ranges,
                valid_ranges,
                cluster_buf,
                ..
            } = &mut *self.scratch;
            plan_fine_selection(db, clusters, page_ranges, valid_ranges, cluster_buf)?;
        }

        let entries_total = layout.entries;
        let epp = layout.embeddings_per_page;
        // Adaptive distance filtering tightens the in-plane threshold at
        // fixed page-window barriers of the scan's deterministic page list
        // (base ranges, then the probed clusters' segment runs). The
        // schedule is a pure function of page order, so it composes with
        // every parallelism mode (see `AdaptiveFiltering`).
        let adapt = if self.config.adapts(clusters.is_none()) {
            Some(candidate_count.max(1))
        } else {
            None
        };

        // Temporarily move the range buffers out of the scratch so the scan
        // (which borrows the engine mutably) can read them.
        let pages = std::mem::take(&mut self.scratch.page_ranges);
        let valid = std::mem::take(&mut self.scratch.valid_ranges);
        self.scratch.ttl.clear();
        let valid_ref = &valid;
        let tombstones = &db.updates.tombstones;
        let make_entry = move |page: usize, slot: usize, distance: u32, oob: OobEntry| {
            base_scan_entry(
                layout.centroid_pages,
                epp,
                entries_total,
                tombstones,
                valid_ref,
                page,
                slot,
                distance,
                oob,
            )
        };

        let scanned = match adapt {
            None => self.fine_scan_static(db, &pages, threshold, &make_entry),
            Some(candidates) => {
                self.fine_scan_windowed(db, &pages, threshold, candidates, &make_entry)
            }
        };
        self.scratch.page_ranges = pages;
        self.scratch.valid_ranges = valid;
        let counts = scanned?;

        self.scratch.ttl.quickselect(candidate_count.max(1));
        self.scratch.ttl.sort_ascending();
        self.scratch.candidate_count = candidate_count;
        Ok(counts)
    }

    /// Static-threshold fine scan: the merged base ranges in one pass
    /// (sharded across channel/die workers when large enough), then the
    /// probed clusters' segment runs sequentially. Candidates join the
    /// scratch's Temporal Top List; the total-order quickselect keeps the
    /// combined result deterministic. OOB validity (the RADR sentinel of
    /// unfilled slots) and the DRAM-side deletion flags filter dead segment
    /// slots.
    fn fine_scan_static<F>(
        &mut self,
        db: &DeployedDatabase,
        pages: &[(usize, usize)],
        threshold: u32,
        make_entry: &F,
    ) -> Result<ScanCounts>
    where
        F: Fn(usize, usize, u32, OobEntry) -> Option<TtlEntry> + Sync,
    {
        let layout = db.layout;
        let epp = layout.embeddings_per_page;
        let slot_bytes = layout.embedding_slot_bytes;
        let shards = self.shards_for(pages);
        let mut counts = self.scan_pages(
            &db.record.embedding_region,
            pages,
            layout.centroid_pages,
            slot_bytes,
            threshold,
            epp,
            shards,
            make_entry,
        )?;

        // Append-segment pass: entries inserted since deployment live in
        // per-cluster segment runs that the base region does not cover.
        // Segment runs are small (compaction folds them back), so they scan
        // sequentially after the (possibly sharded) base scan.
        if !db.updates.store.is_empty() {
            let seg_clusters = std::mem::take(&mut self.scratch.cluster_buf);
            let base_capacity = db.updates.base_capacity;
            let store = &db.updates.store;
            for &cluster in &seg_clusters {
                for run in store.runs(cluster) {
                    let seg_counts = self.scan_pages(
                        run,
                        &[(0, run.len)],
                        0,
                        slot_bytes,
                        threshold,
                        epp,
                        1,
                        &|_page, _slot, distance, oob| {
                            segment_scan_entry(store, base_capacity, distance, oob)
                        },
                    )?;
                    counts.absorb(seg_counts);
                }
            }
            self.scratch.cluster_buf = seg_clusters;
        }
        // A static scan is one telemetry "window": the whole page list under
        // one threshold.
        if self.scratch.record_windows && counts.entries_passed > 0 {
            self.scratch.window_log.push(counts.entries_passed as u64);
        }
        Ok(counts)
    }

    /// Windowed adaptive fine scan — the partition-invariant adaptive
    /// driver.
    ///
    /// The scan's deterministic page list — the merged base ranges followed
    /// by the probed clusters' segment runs (clusters in probe order, runs
    /// in append order) — is consumed in fixed windows of
    /// [`ReisConfig::adaptive_window_pages`](crate::config::ReisConfig)
    /// pages. Within a window the threshold is constant, so the window's
    /// base portion may shard across channel/die workers exactly like a
    /// static scan (the per-window page count feeds the same
    /// `effective_shards` rule, so tiny windows stay sequential); its
    /// segment slices scan sequentially. At each window *barrier* the
    /// threshold tightens from the Temporal-Top-List state accumulated over
    /// all completed windows ([`tighten_threshold`]). A trailing partial
    /// window ends the scan without a barrier.
    ///
    /// Because the threshold any page sees is a pure function of the page's
    /// position in the list — never of which worker scanned it when — the
    /// results, documents *and transferred-entry counts* are bit-identical
    /// across `ScanParallelism` settings, machines, and the fused batch
    /// executor (which implements the same schedule per query).
    fn fine_scan_windowed<F>(
        &mut self,
        db: &DeployedDatabase,
        pages: &[(usize, usize)],
        mut threshold: u32,
        candidate_count: usize,
        make_entry: &F,
    ) -> Result<ScanCounts>
    where
        F: Fn(usize, usize, u32, OobEntry) -> Option<TtlEntry> + Sync,
    {
        let layout = db.layout;
        let epp = layout.embeddings_per_page;
        let slot_bytes = layout.embedding_slot_bytes;
        let window = self.config.adaptive_window_pages.max(1);
        let base_capacity = db.updates.base_capacity;
        let store = &db.updates.store;
        let region = &db.record.embedding_region;

        // The segment tail of the page list, pinned in probe order.
        let seg_clusters = std::mem::take(&mut self.scratch.cluster_buf);
        let mut run_cursor = std::mem::take(&mut self.scratch.run_cursor);
        run_cursor.reset(store, &seg_clusters);
        let mut run_slices = std::mem::take(&mut self.scratch.run_slices);
        let mut win_ranges = std::mem::take(&mut self.scratch.win_ranges);

        let seg_entry = |_page: usize, _slot: usize, distance: u32, oob: OobEntry| {
            segment_scan_entry(store, base_capacity, distance, oob)
        };

        let mut base_idx = 0usize;
        let mut base_off = 0usize;
        // Entries already logged into the telemetry window log (recording
        // happens at the barriers below, on this thread only).
        let mut logged_entries = 0usize;
        let mut scan = |engine: &mut Self,
                        run_cursor: &mut reis_update::RunCursor,
                        run_slices: &mut Vec<reis_update::RunSlice>,
                        win_ranges: &mut Vec<(usize, usize)>|
         -> Result<ScanCounts> {
            let mut counts = ScanCounts::default();
            loop {
                let mut budget = window;

                // ---- Base portion of this window.
                win_ranges.clear();
                while budget > 0 && base_idx < pages.len() {
                    let (start, end) = pages[base_idx];
                    let from = start + base_off;
                    let take = (end - from).min(budget);
                    win_ranges.push((from, from + take));
                    budget -= take;
                    base_off += take;
                    if from + take == end {
                        base_idx += 1;
                        base_off = 0;
                    }
                }
                if !win_ranges.is_empty() {
                    let shards = engine.shards_for(win_ranges);
                    let scanned = engine.scan_pages(
                        region,
                        win_ranges,
                        layout.centroid_pages,
                        slot_bytes,
                        threshold,
                        epp,
                        shards,
                        make_entry,
                    )?;
                    counts.absorb(scanned);
                }

                // ---- Segment portion of this window (a window may straddle
                // the base/segment boundary and any number of runs).
                if budget > 0 {
                    run_slices.clear();
                    budget -= run_cursor.take_into(budget, run_slices);
                    for slice in run_slices.iter() {
                        let seg_counts = engine.scan_pages(
                            &slice.region,
                            &[(slice.start, slice.end)],
                            0,
                            slot_bytes,
                            threshold,
                            epp,
                            1,
                            &seg_entry,
                        )?;
                        counts.absorb(seg_counts);
                    }
                }

                if budget == window {
                    // The page list was exhausted before this window began.
                    break;
                }
                if budget > 0 {
                    // Trailing partial window: the scan ends, no barrier.
                    break;
                }
                // ---- Window barrier: tighten against every completed
                // window's accumulated TTL state.
                tighten_threshold(&mut engine.scratch.ttl, candidate_count, &mut threshold);
                counts.windows += 1;
                if engine.scratch.record_windows {
                    engine
                        .scratch
                        .window_log
                        .push((counts.entries_passed - logged_entries) as u64);
                    logged_entries = counts.entries_passed;
                }
                if engine.scratch.explain_log.is_some() {
                    engine.scratch.explain_window += 1;
                }
            }
            Ok(counts)
        };
        let result = scan(self, &mut run_cursor, &mut run_slices, &mut win_ranges);
        // Trailing partial window: entries admitted since the last barrier.
        if self.scratch.record_windows {
            if let Ok(counts) = &result {
                if counts.entries_passed > logged_entries {
                    self.scratch
                        .window_log
                        .push((counts.entries_passed - logged_entries) as u64);
                }
            }
        }

        self.scratch.cluster_buf = seg_clusters;
        self.scratch.run_cursor = run_cursor;
        self.scratch.run_slices = run_slices;
        self.scratch.win_ranges = win_ranges;
        result
    }

    /// The fine-search candidates in rank order (valid after
    /// [`InStorageEngine::fine_search`]).
    pub fn candidates(&self) -> &[TtlEntry] {
        self.scratch.ttl.top(self.scratch.candidate_count)
    }

    /// Number of candidates the fine search produced for reranking.
    pub fn num_candidates(&self) -> usize {
        self.candidates().len()
    }

    /// Rerank the fine-search candidates in INT8 precision on the embedded
    /// core: fetch their INT8 copies from the TLC regions (through the
    /// controller, with ECC), recompute distances, and return the `k`
    /// nearest as `(original id, INT8 squared distance)` plus the number of
    /// distinct INT8 pages read.
    ///
    /// Candidates are visited in page order so every distinct page is read
    /// exactly once and each slot is scored directly from the pooled staging
    /// buffer — no page cache, no per-candidate copy and no per-page
    /// allocation (the ECC staging buffer lives in the [`ScanScratch`]).
    /// Base-region candidates resolve their INT8 copy through the layout's
    /// RADR arithmetic; append-segment candidates resolve through the
    /// segment store's slot references. The final ranking ties on
    /// `(distance, storage_index)`, matching the candidate selection's total
    /// order.
    pub fn rerank(
        &mut self,
        db: &DeployedDatabase,
        query_int8: &Int8Vector,
        k: usize,
    ) -> Result<(Vec<Neighbor>, usize)> {
        let layout = db.layout;
        let base_capacity = db.updates.base_capacity;
        let candidate_count = self.scratch.candidate_count;
        let ScanScratch {
            ttl,
            order,
            rerank_buf,
            page_buf,
            page_oob,
            ..
        } = &mut *self.scratch;
        let candidates = ttl.top(candidate_count);

        // Resolve a candidate's INT8 page: `(region, page, slot)`.
        let locate = |candidate: &TtlEntry| -> (StripedRegion, usize, usize) {
            if candidate.radr < base_capacity {
                let (page, slot) = layout.int8_location(candidate.radr as usize);
                (db.record.int8_region, page, slot)
            } else {
                let entry = db
                    .updates
                    .store
                    .entry(candidate.radr - base_capacity)
                    .expect("candidate segment entry exists");
                (entry.int8.region, entry.int8.page, entry.int8.slot)
            }
        };

        order.clear();
        order.extend(0..candidates.len());
        order.sort_unstable_by_key(|&i| {
            let (region, page, _) = locate(&candidates[i]);
            (region.start, page)
        });

        rerank_buf.clear();
        let mut pages_read = 0usize;
        let mut current: Option<(usize, usize)> = None;
        for &i in order.iter() {
            let candidate = &candidates[i];
            let (region, page, slot) = locate(candidate);
            if current != Some((region.start, page)) {
                self.ssd.read_region_page_into(
                    &region,
                    page,
                    RegionKind::Int8Embeddings,
                    page_buf,
                    page_oob,
                )?;
                current = Some((region.start, page));
                pages_read += 1;
            }
            let start = slot * layout.int8_bytes;
            let raw = query_int8.squared_l2_raw(&page_buf[start..start + layout.int8_bytes]);
            rerank_buf.push(RerankCandidate {
                raw,
                storage_index: candidate.storage_index,
                dadr: candidate.dadr,
            });
        }
        rerank_buf.sort_unstable_by_key(|c| (c.raw, c.storage_index));
        let top = rerank_buf[..k.min(rerank_buf.len())]
            .iter()
            .map(|c| Neighbor::new(c.dadr as usize, c.raw as f32))
            .collect();
        Ok((top, pages_read))
    }

    /// Rerank *every* fine-search candidate and return the full scored set
    /// instead of a top-k cut — the leaf half of the scale-out protocol
    /// (see `crate::leaf`). The aggregator needs each candidate's binary
    /// scan distance (to reproduce the single-device candidate cut
    /// globally) *and* its INT8 raw distance (to reproduce the final
    /// ranking), so both are returned per candidate, together with the
    /// stable id. INT8 pages are read in page order exactly like
    /// [`InStorageEngine::rerank`]; the returned set is ordered by the
    /// leaf-local `(binary distance, storage index)` total order.
    pub fn rerank_all(
        &mut self,
        db: &DeployedDatabase,
        query_int8: &Int8Vector,
    ) -> Result<(Vec<LeafCandidate>, usize)> {
        let layout = db.layout;
        let base_capacity = db.updates.base_capacity;
        let candidate_count = self.scratch.candidate_count;
        let ScanScratch {
            ttl,
            order,
            page_buf,
            page_oob,
            ..
        } = &mut *self.scratch;
        let candidates = ttl.top(candidate_count);

        // Resolve a candidate's INT8 page: `(region, page, slot)`.
        let locate = |candidate: &TtlEntry| -> (StripedRegion, usize, usize) {
            if candidate.radr < base_capacity {
                let (page, slot) = layout.int8_location(candidate.radr as usize);
                (db.record.int8_region, page, slot)
            } else {
                let entry = db
                    .updates
                    .store
                    .entry(candidate.radr - base_capacity)
                    .expect("candidate segment entry exists");
                (entry.int8.region, entry.int8.page, entry.int8.slot)
            }
        };

        order.clear();
        order.extend(0..candidates.len());
        order.sort_unstable_by_key(|&i| {
            let (region, page, _) = locate(&candidates[i]);
            (region.start, page)
        });

        let mut scored: Vec<LeafCandidate> = Vec::with_capacity(candidates.len());
        let mut pages_read = 0usize;
        let mut current: Option<(usize, usize)> = None;
        for &i in order.iter() {
            let candidate = &candidates[i];
            let (region, page, slot) = locate(candidate);
            if current != Some((region.start, page)) {
                self.ssd.read_region_page_into(
                    &region,
                    page,
                    RegionKind::Int8Embeddings,
                    page_buf,
                    page_oob,
                )?;
                current = Some((region.start, page));
                pages_read += 1;
            }
            let start = slot * layout.int8_bytes;
            let raw = query_int8.squared_l2_raw(&page_buf[start..start + layout.int8_bytes]);
            scored.push(LeafCandidate {
                binary: candidate.distance,
                storage_index: candidate.storage_index,
                id: candidate.dadr,
                raw,
            });
        }
        scored.sort_unstable_by_key(|c| (c.binary, c.storage_index));
        Ok((scored, pages_read))
    }

    /// Document identification and retrieval: read the chunks of the top-k
    /// results from the document regions, in page order (each document page
    /// is read once), validating every slot's length prefix.
    ///
    /// A result id resolves to its live chunk: relocated ids (inserts, and
    /// upserts of base entries) read from their append-segment page; base
    /// ids read from the base document region at the slot the update state
    /// maps them to (identity before the first compaction). The page reads
    /// stage through the scratch's pooled buffer.
    ///
    /// # Errors
    ///
    /// * [`ReisError::CorruptDocument`] if a slot's 4-byte length prefix is
    ///   missing or points outside the slot.
    /// * [`ReisError::EntryNotFound`] if a result id has no live document
    ///   (cannot happen for ids produced by the same search).
    pub fn fetch_documents(
        &mut self,
        db: &DeployedDatabase,
        top: &[Neighbor],
    ) -> Result<Vec<Vec<u8>>> {
        let layout = db.layout;
        // Resolve an id's document page: `(region, page, slot)`.
        let locate = |id: u32| -> Result<(StripedRegion, usize, usize)> {
            if let Some(&sid) = db.updates.relocated.get(&id) {
                let entry = db
                    .updates
                    .store
                    .entry(sid)
                    .ok_or(ReisError::EntryNotFound(id))?;
                return Ok((
                    entry.document.region,
                    entry.document.page,
                    entry.document.slot,
                ));
            }
            let slot_index = db
                .updates
                .base_doc_slot(id)
                .ok_or(ReisError::EntryNotFound(id))? as usize;
            let (page, slot) = layout.document_location(slot_index);
            Ok((db.record.document_region, page, slot))
        };

        let ScanScratch {
            order,
            page_buf,
            page_oob,
            ..
        } = &mut *self.scratch;
        // Resolve every result's location once, up front; the sort and the
        // read loop then work off the resolved triples.
        let locations = top
            .iter()
            .map(|n| locate(n.id as u32))
            .collect::<Result<Vec<_>>>()?;
        order.clear();
        order.extend(0..top.len());
        order.sort_unstable_by_key(|&i| {
            let (region, page, _) = locations[i];
            (region.start, page)
        });

        let mut documents: Vec<Vec<u8>> = vec![Vec::new(); top.len()];
        let mut current: Option<(usize, usize)> = None;
        for &i in order.iter() {
            let (region, page, slot) = locations[i];
            if current != Some((region.start, page)) {
                self.ssd.read_region_page_into(
                    &region,
                    page,
                    RegionKind::Documents,
                    page_buf,
                    page_oob,
                )?;
                current = Some((region.start, page));
            }
            let start = slot * layout.doc_slot_bytes;
            let corrupt = ReisError::CorruptDocument { page, slot };
            if start + 4 > page_buf.len() {
                return Err(corrupt);
            }
            let len = u32::from_le_bytes(
                page_buf[start..start + 4]
                    .try_into()
                    .expect("4-byte prefix"),
            ) as usize;
            if len > layout.doc_slot_bytes - 4 || start + 4 + len > page_buf.len() {
                return Err(corrupt);
            }
            documents[i] = page_buf[start + 4..start + 4 + len].to_vec();
        }
        Ok(documents)
    }

    /// Number of candidates handed to the reranker for a top-`k` search
    /// (`rerank_factor × k`, the paper's 10·k).
    pub fn rerank_candidates(&self, k: usize) -> usize {
        self.config.rerank_factor.max(1) * k.max(1)
    }

    /// Build the activity record of a query from its scan counts and
    /// downstream statistics.
    #[allow(clippy::too_many_arguments)]
    pub fn activity(
        &self,
        db: &DeployedDatabase,
        coarse: ScanCounts,
        fine: ScanCounts,
        rerank_candidates: usize,
        int8_pages: usize,
        documents: usize,
        dim: usize,
    ) -> QueryActivity {
        QueryActivity {
            coarse_pages: coarse.pages,
            coarse_entries: coarse.entries_passed,
            fine_pages: fine.pages,
            fine_entries: fine.entries_passed,
            fine_windows: fine.windows,
            rerank_candidates,
            int8_pages,
            documents,
            embedding_slot_bytes: db.layout.embedding_slot_bytes,
            dim,
            doc_slot_bytes: db.layout.doc_slot_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::VectorDatabase;
    use reis_ssd::SsdConfig;

    #[test]
    fn fetch_documents_reports_corrupt_slots_instead_of_panicking() {
        let vectors: Vec<Vec<f32>> = (0..24)
            .map(|i| {
                (0..32)
                    .map(|d| (((i * 7 + d) % 13) as f32 - 6.0) / 3.0)
                    .collect()
            })
            .collect();
        let documents: Vec<Vec<u8>> = (0..24).map(|i| format!("doc {i}").into_bytes()).collect();
        let mut ssd = SsdController::new(SsdConfig::tiny());
        let db = VectorDatabase::flat(&vectors, documents).unwrap();
        let deployed = crate::deploy::deploy(&mut ssd, &db, 1).unwrap();

        // Corrupt the first document page: erase its block and reprogram the
        // page with all-ones, which makes every slot's length prefix invalid.
        let geometry = ssd.config().geometry;
        let addr = deployed
            .record
            .document_region
            .page_at(&geometry, 0)
            .unwrap();
        ssd.device_mut().erase_block(addr.block_addr()).unwrap();
        ssd.device_mut()
            .program_page(
                addr,
                &vec![0xFF; geometry.page_size_bytes],
                &[],
                reis_nand::ProgramScheme::EnhancedSlc,
            )
            .unwrap();

        let mut scratch = ScanScratch::new();
        let config = crate::config::ReisConfig::tiny();
        let pool = WorkerPool::new(2);
        let mut engine = InStorageEngine::new(&mut ssd, config, &mut scratch, &pool);
        let top = [Neighbor::new(0, 0.0)];
        let err = engine.fetch_documents(&deployed, &top).unwrap_err();
        assert!(
            matches!(err, ReisError::CorruptDocument { page: 0, slot: 0 }),
            "expected CorruptDocument, got {err:?}"
        );
    }

    #[test]
    fn merge_page_ranges_coalesces_overlaps() {
        let mut ranges = vec![(5, 7), (0, 2), (1, 4), (7, 9), (12, 12), (10, 11)];
        merge_page_ranges(&mut ranges);
        assert_eq!(ranges, vec![(0, 4), (5, 9), (10, 11)]);
        let mut empty: Vec<(usize, usize)> = vec![(3, 3)];
        merge_page_ranges(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn in_valid_ranges_uses_binary_search_semantics() {
        let ranges = vec![(0u32, 4u32), (10, 10), (20, 29)];
        for (index, expected) in [
            (0, true),
            (4, true),
            (5, false),
            (9, false),
            (10, true),
            (11, false),
            (25, true),
            (30, false),
        ] {
            assert_eq!(in_valid_ranges(&ranges, index), expected, "index {index}");
        }
        assert!(!in_valid_ranges(&[], 0));
    }
}
