//! REIS system configuration.

use serde::{Deserialize, Serialize};

use reis_ssd::SsdConfig;
use reis_update::CompactionPolicy;

/// The three optimizations evaluated in the sensitivity study of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Optimizations {
    /// Distance Filtering (DF): discard embeddings whose Hamming distance
    /// from the query exceeds a threshold inside the flash die, before they
    /// are transferred to the controller (Sec. 4.3.3).
    pub distance_filtering: bool,
    /// Pipelining (PL): overlap page reads, in-plane computation, channel
    /// transfers and the controller's selection kernel (Sec. 4.3.4).
    pub pipelining: bool,
    /// Multi-Plane Input Broadcasting (MPIBC): broadcast the query to all
    /// planes of a die simultaneously (Sec. 4.3.4).
    pub multi_plane_ibc: bool,
}

impl Optimizations {
    /// All optimizations enabled (the full REIS design).
    pub fn all() -> Self {
        Optimizations {
            distance_filtering: true,
            pipelining: true,
            multi_plane_ibc: true,
        }
    }

    /// All optimizations disabled (the `No-OPT` baseline of Fig. 9).
    pub fn none() -> Self {
        Optimizations {
            distance_filtering: false,
            pipelining: false,
            multi_plane_ibc: false,
        }
    }

    /// `No-OPT` plus Distance Filtering only.
    pub fn df_only() -> Self {
        Optimizations {
            distance_filtering: true,
            ..Optimizations::none()
        }
    }

    /// Distance Filtering plus Pipelining.
    pub fn df_pl() -> Self {
        Optimizations {
            distance_filtering: true,
            pipelining: true,
            multi_plane_ibc: false,
        }
    }
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations::all()
    }
}

/// How far one query's fine scan is parallelized *inside* the device.
///
/// REIS partitions a single scan over the SSD's channel×die units so that
/// the flash-internal parallelism shortens the *latency* of one query, not
/// just the throughput of many (Sec. 4.3.4). The simulator mirrors that
/// with worker-pool tasks, one per scan shard, each owning its own scan
/// scratch and Temporal Top List; see `reis_nand::sharding` for the
/// geometry-aware plan and [`crate::engine`] for the execution and merge.
///
/// The default is sequential (one shard), which keeps single-threaded
/// behaviour — and determinism expectations of downstream tooling —
/// unchanged; benchmarks and latency-sensitive deployments opt in via
/// [`ReisConfig::with_scan_parallelism`]. Sharding composes with batched
/// search: each batch worker drives its own intra-query shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanParallelism {
    /// Maximum number of scan shards per query (1 = sequential scan). The
    /// effective count is additionally capped by the device's channel×die
    /// unit count and by the size of the scan.
    pub max_shards: usize,
    /// Minimum pages a shard must receive for sharding to be worthwhile;
    /// scans smaller than `2 × min_pages_per_shard` run sequentially so
    /// the cost of dispatching pool tasks and merging shard results never
    /// dominates tiny scans.
    pub min_pages_per_shard: usize,
}

impl ScanParallelism {
    /// Sequential scanning (the constructor default): one shard, no worker
    /// threads.
    ///
    /// For *single-query* searches this exact value doubles as the "no
    /// preference" sentinel: `ReisSystem::search` upgrades it to
    /// `sharded(available_parallelism)` (results are bit-identical; only
    /// wall-clock changes — adaptive scans included, since their windowed
    /// threshold schedule is partition-invariant). Use
    /// [`ScanParallelism::pinned_sequential`] to force single-threaded
    /// scans even there.
    pub fn sequential() -> Self {
        ScanParallelism {
            max_shards: 1,
            min_pages_per_shard: 16,
        }
    }

    /// A setting that always scans sequentially, bypassing the
    /// auto-sharding that `ReisSystem::search` applies when it sees the
    /// plain [`ScanParallelism::sequential`] constructor default (the two
    /// differ only in the unreachable per-shard page minimum).
    pub fn pinned_sequential() -> Self {
        ScanParallelism {
            max_shards: 1,
            min_pages_per_shard: usize::MAX,
        }
    }

    /// Shard every large-enough scan across up to `max_shards` workers.
    ///
    /// `sharded(1)` is an *explicit* one-shard request and returns
    /// [`ScanParallelism::pinned_sequential`], so it is never mistaken for
    /// the [`ScanParallelism::sequential`] "no preference" default that
    /// single-query searches auto-upgrade.
    pub fn sharded(max_shards: usize) -> Self {
        if max_shards <= 1 {
            return ScanParallelism::pinned_sequential();
        }
        ScanParallelism {
            max_shards,
            ..ScanParallelism::sequential()
        }
    }

    /// Builder-style override of the minimum shard size.
    pub fn with_min_pages_per_shard(mut self, pages: usize) -> Self {
        self.min_pages_per_shard = pages.max(1);
        self
    }

    /// Whether this value is the "no preference" constructor default that
    /// single-query searches and fused batch scans upgrade to the host's
    /// available parallelism. The check is structural, so a hand-built
    /// value identical to [`ScanParallelism::sequential`] counts as the
    /// default too — use [`ScanParallelism::pinned_sequential`] (and leave
    /// its page minimum alone) to express an unforgeable "stay
    /// sequential".
    pub fn is_auto_default(&self) -> bool {
        *self == ScanParallelism::sequential()
    }

    /// The shard count to actually use for a scan of `pages` pages on a
    /// device with `scan_units` channel×die units (always at least 1).
    pub fn effective_shards(&self, scan_units: usize, pages: usize) -> usize {
        self.max_shards
            .min(scan_units)
            .min(pages / self.min_pages_per_shard.max(1))
            .max(1)
    }
}

impl Default for ScanParallelism {
    fn default() -> Self {
        ScanParallelism::sequential()
    }
}

/// Which scans tighten their distance-filter threshold adaptively as the
/// Temporal Top List fills (see [`ReisConfig::with_adaptive_filtering`]).
///
/// The adaptive schedule is *windowed*: the scan's deterministic page list
/// (merged base ranges followed by the probed clusters' segment runs, in
/// probe order) is split into fixed page-count windows
/// ([`ReisConfig::adaptive_window_pages`]), and the threshold only tightens
/// at window barriers, computed from the Temporal-Top-List state
/// accumulated over all *completed* windows. The threshold any page is
/// scanned under is therefore a pure function of the page's position in
/// that list — never of which worker scanned it when — so adaptive scans
/// are **partition-invariant**: results, documents and transferred-entry
/// counts are bit-identical across every [`ScanParallelism`] setting and
/// inside the fused batch executor, on every machine. (Earlier revisions pinned
/// adapting scans sequential because the schedule tightened per page; the
/// windowed schedule removed that restriction.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdaptiveFiltering {
    /// Never adapt; the static paper threshold holds for the whole scan.
    Off,
    /// Adapt only brute-force fine scans (the default): those scans walk the
    /// whole embedding region, so tightening pays the most, and their page
    /// order is the plain storage order on every machine.
    BruteForce,
    /// Adapt every fine scan, IVF included.
    All,
}

/// How a batched search executes on the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchFusion {
    /// Page-major fused execution on the *shared* device (the default):
    /// the batch's probed pages are sensed once each and scored against
    /// every in-flight query by the fused multi-query kernel. Per-query
    /// results, activity and modelled latency are bit-identical to running
    /// the queries sequentially; only the physical sense count (and the
    /// wall clock) shrinks.
    Fused,
    /// Per-worker device replicas (the pre-fusion path): every worker clones
    /// the controller copy-on-write and executes its chunk of queries
    /// independently, so every query re-senses every page it scans.
    Replicas,
}

/// How shard/replica workers are executed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanExecutor {
    /// The persistent work-stealing worker pool (`reis-sched`), created
    /// once at system construction (the default). No query or mutation
    /// path creates threads afterwards; scan windows, fused page chunks
    /// and replica batches are queued onto the long-lived workers, which
    /// keep per-worker scratch warm between requests.
    Pooled,
    /// A scoped `std::thread` spawn per window/chunk/batch — the pre-pool
    /// executor. Kept selectable so the identity property suite can prove
    /// pooled execution bit-identical to it, and so `fig_scheduler` can
    /// measure the per-window spawn overhead the pool removes.
    SpawnScoped,
}

/// Complete configuration of a REIS system instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReisConfig {
    /// The underlying SSD configuration (geometry, timing, DRAM, cores).
    pub ssd: SsdConfig,
    /// Which of the REIS optimizations are enabled.
    pub optimizations: Optimizations,
    /// Reranking candidate multiplier: the engine reranks the top
    /// `rerank_factor × k` binary candidates in INT8 (the paper uses 10).
    pub rerank_factor: usize,
    /// Distance-filter threshold, expressed as a fraction of the embedding
    /// dimensionality; an embedding passes when its Hamming distance is at or
    /// below `threshold_fraction × dim`.
    pub filter_threshold_fraction: f64,
    /// PCIe bandwidth between the SSD and the host, bytes per second (used
    /// for returning document chunks).
    pub host_link_bandwidth_bps: f64,
    /// Bytes of one Temporal-Top-List entry on the flash channel, excluding
    /// the embedding itself (DIST + EADR + RADR + DADR + TAG).
    pub ttl_metadata_bytes: usize,
    /// Intra-query scan sharding across the device's channel/die units.
    pub scan_parallelism: ScanParallelism,
    /// Which scans tighten the distance-filter threshold adaptively (see
    /// [`ReisConfig::with_adaptive_filtering`]). Defaults to
    /// [`AdaptiveFiltering::BruteForce`]: brute-force fine scans adapt, IVF
    /// scans keep the static paper threshold.
    pub adaptive_filtering: AdaptiveFiltering,
    /// Page-count window of the adaptive threshold schedule: an adapting
    /// scan's threshold tightens only at barriers every
    /// `adaptive_window_pages` pages of its deterministic page list (see
    /// [`AdaptiveFiltering`]). Values are clamped to at least 1; a window
    /// of 1 reproduces the historical tighten-after-every-page schedule,
    /// and a window larger than the scan is the static threshold.
    ///
    /// The window is also the **unit of intra-scan parallelism**: between
    /// two barriers the threshold is constant, so each window's pages feed
    /// the same [`ScanParallelism::effective_shards`] rule a static scan
    /// uses. Smaller windows tighten sooner — fewer transferred entries,
    /// more barrier quickselects, and *less shardable work per window*:
    /// under the default 16-page [`ScanParallelism::min_pages_per_shard`]
    /// only windows of ≥ 32 pages actually split across channel/die
    /// workers, so the 4-page default (tuned for transfer cuts) runs its
    /// windows sequentially. Deployments that want adaptive scans to
    /// parallelize choose a larger window (the `fig_adaptive_window` bench
    /// sweeps the trade) or a lower per-shard minimum; the *results and
    /// entry counts* are identical either way — that is the windowed
    /// schedule's partition invariance.
    pub adaptive_window_pages: usize,
    /// How batched searches execute (see [`BatchFusion`]); defaults to the
    /// page-major fused path on the shared device.
    pub batch_fusion: BatchFusion,
    /// How shard/replica workers run on the host (see [`ScanExecutor`]);
    /// defaults to the persistent worker pool. Scheduling never changes
    /// results or logical accounting — only wall-clock cost.
    pub scan_executor: ScanExecutor,
    /// When the update path compacts automatically (append segments folded
    /// back into dense regions). [`CompactionPolicy::manual`] disables
    /// auto-compaction entirely.
    pub compaction: CompactionPolicy,
}

impl ReisConfig {
    /// REIS on the cost-oriented SSD1 with all optimizations.
    pub fn ssd1() -> Self {
        ReisConfig {
            ssd: SsdConfig::ssd1(),
            optimizations: Optimizations::all(),
            rerank_factor: 10,
            filter_threshold_fraction: 0.47,
            host_link_bandwidth_bps: 7.0e9,
            ttl_metadata_bytes: 13,
            scan_parallelism: ScanParallelism::sequential(),
            adaptive_filtering: AdaptiveFiltering::BruteForce,
            adaptive_window_pages: 4,
            batch_fusion: BatchFusion::Fused,
            scan_executor: ScanExecutor::Pooled,
            compaction: CompactionPolicy::auto(),
        }
    }

    /// REIS on the performance-oriented SSD2 with all optimizations.
    pub fn ssd2() -> Self {
        ReisConfig {
            ssd: SsdConfig::ssd2(),
            ..ReisConfig::ssd1()
        }
    }

    /// A miniature configuration for unit tests.
    pub fn tiny() -> Self {
        ReisConfig {
            ssd: SsdConfig::tiny(),
            ..ReisConfig::ssd1()
        }
    }

    /// Builder-style override of the optimization set.
    pub fn with_optimizations(mut self, optimizations: Optimizations) -> Self {
        self.optimizations = optimizations;
        self
    }

    /// Builder-style override of the distance-filter threshold fraction.
    pub fn with_filter_threshold(mut self, fraction: f64) -> Self {
        self.filter_threshold_fraction = fraction;
        self
    }

    /// Builder-style override of the intra-query scan sharding policy.
    pub fn with_scan_parallelism(mut self, scan_parallelism: ScanParallelism) -> Self {
        self.scan_parallelism = scan_parallelism;
        self
    }

    /// Builder-style toggle of adaptive distance filtering: `true` adapts
    /// every fine scan ([`AdaptiveFiltering::All`]), `false` disables
    /// adaptation entirely ([`AdaptiveFiltering::Off`]). The constructor
    /// default sits between the two ([`AdaptiveFiltering::BruteForce`]).
    ///
    /// With adaptive filtering on, a scan tightens its pass/fail threshold
    /// once its Temporal Top List holds a full candidate set: an embedding
    /// whose distance exceeds the current k-th best can never enter the
    /// final candidate list, so transferring it is pure waste. The top-k
    /// result is provably identical to the static threshold; only the
    /// number of transferred entries — and with it the modelled channel
    /// transfer and quickselect latency, which [`crate::perf::PerfModel`]
    /// prices from the actual entry count — shrinks. The threshold tightens
    /// at fixed page-window barriers, which makes the schedule — and the
    /// transferred-entry counts — identical under every parallelism setting
    /// (see [`AdaptiveFiltering`] and
    /// [`ReisConfig::adaptive_window_pages`]).
    pub fn with_adaptive_filtering(mut self, adaptive: bool) -> Self {
        self.adaptive_filtering = if adaptive {
            AdaptiveFiltering::All
        } else {
            AdaptiveFiltering::Off
        };
        self
    }

    /// Builder-style override of the adaptive-filtering scope.
    pub fn with_adaptive_scope(mut self, scope: AdaptiveFiltering) -> Self {
        self.adaptive_filtering = scope;
        self
    }

    /// Builder-style override of the adaptive threshold-window size in
    /// pages (clamped to at least 1; see
    /// [`ReisConfig::adaptive_window_pages`]).
    pub fn with_adaptive_window(mut self, pages: usize) -> Self {
        self.adaptive_window_pages = pages.max(1);
        self
    }

    /// Builder-style override of the batched-search execution mode.
    pub fn with_batch_fusion(mut self, fusion: BatchFusion) -> Self {
        self.batch_fusion = fusion;
        self
    }

    /// Builder-style override of the host-side executor (see
    /// [`ScanExecutor`]).
    pub fn with_scan_executor(mut self, executor: ScanExecutor) -> Self {
        self.scan_executor = executor;
        self
    }

    /// Builder-style override of the automatic compaction policy.
    pub fn with_compaction(mut self, compaction: CompactionPolicy) -> Self {
        self.compaction = compaction;
        self
    }

    /// Whether a fine scan adapts its distance-filter threshold, given
    /// whether the scan is brute-force (no cluster selection). Adapting
    /// requires distance filtering to be enabled in the first place.
    pub fn adapts(&self, brute_force: bool) -> bool {
        self.optimizations.distance_filtering
            && match self.adaptive_filtering {
                AdaptiveFiltering::Off => false,
                AdaptiveFiltering::BruteForce => brute_force,
                AdaptiveFiltering::All => true,
            }
    }

    /// The absolute Hamming-distance filter threshold for embeddings of
    /// `dim` dimensions (`u32::MAX`, i.e. no filtering, when DF is off).
    pub fn filter_threshold(&self, dim: usize) -> u32 {
        if !self.optimizations.distance_filtering {
            return u32::MAX;
        }
        (self.filter_threshold_fraction * dim as f64).round() as u32
    }
}

impl Default for ReisConfig {
    fn default() -> Self {
        ReisConfig::ssd1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_presets_cover_the_sensitivity_ladder() {
        assert!(!Optimizations::none().distance_filtering);
        assert!(Optimizations::df_only().distance_filtering);
        assert!(!Optimizations::df_only().pipelining);
        assert!(Optimizations::df_pl().pipelining);
        assert!(!Optimizations::df_pl().multi_plane_ibc);
        assert!(Optimizations::all().multi_plane_ibc);
    }

    #[test]
    fn filter_threshold_scales_with_dimensionality_and_respects_df() {
        let config = ReisConfig::ssd1();
        assert_eq!(config.filter_threshold(1024), 481);
        let no_df = config.with_optimizations(Optimizations::none());
        assert_eq!(no_df.filter_threshold(1024), u32::MAX);
        let tighter = config.with_filter_threshold(0.25);
        assert_eq!(tighter.filter_threshold(1024), 256);
    }

    #[test]
    fn effective_shards_respects_units_pages_and_floor() {
        let seq = ScanParallelism::sequential();
        assert_eq!(seq.effective_shards(128, 10_000), 1);
        let sharded = ScanParallelism::sharded(8);
        // Capped by the requested maximum.
        assert_eq!(sharded.effective_shards(128, 10_000), 8);
        // Capped by the device's scan units.
        assert_eq!(sharded.effective_shards(4, 10_000), 4);
        // Capped by the scan size: 40 pages / 16 per shard = 2 shards.
        assert_eq!(sharded.effective_shards(128, 40), 2);
        // Tiny scans stay sequential.
        assert_eq!(sharded.effective_shards(128, 8), 1);
        let fine = sharded.with_min_pages_per_shard(1);
        assert_eq!(fine.effective_shards(128, 8), 8);
        assert_eq!(fine.effective_shards(128, 0), 1);
    }

    #[test]
    fn adaptive_window_builder_clamps_and_defaults() {
        let config = ReisConfig::ssd1();
        assert_eq!(config.adaptive_window_pages, 4);
        assert_eq!(config.with_adaptive_window(32).adaptive_window_pages, 32);
        // A zero window would never reach a barrier; it clamps to 1 (the
        // historical per-page schedule).
        assert_eq!(config.with_adaptive_window(0).adaptive_window_pages, 1);
    }

    #[test]
    fn adaptive_scope_and_fusion_defaults() {
        let config = ReisConfig::ssd1();
        assert_eq!(config.adaptive_filtering, AdaptiveFiltering::BruteForce);
        assert_eq!(config.batch_fusion, BatchFusion::Fused);
        assert!(config.adapts(true));
        assert!(!config.adapts(false));
        assert!(config.with_adaptive_filtering(true).adapts(false));
        assert!(!config.with_adaptive_filtering(false).adapts(true));
        // Without distance filtering there is no threshold to tighten.
        assert!(!config
            .with_optimizations(Optimizations::none())
            .adapts(true));
        assert_eq!(
            config.with_batch_fusion(BatchFusion::Replicas).batch_fusion,
            BatchFusion::Replicas
        );
        assert_eq!(
            config
                .with_adaptive_scope(AdaptiveFiltering::Off)
                .adaptive_filtering,
            AdaptiveFiltering::Off
        );
    }

    #[test]
    fn presets_differ_only_in_the_ssd() {
        let a = ReisConfig::ssd1();
        let b = ReisConfig::ssd2();
        assert_eq!(a.rerank_factor, b.rerank_factor);
        assert_ne!(a.ssd.geometry.channels, b.ssd.geometry.channels);
        assert_eq!(a.ssd.name, "REIS-SSD1");
        assert_eq!(b.ssd.name, "REIS-SSD2");
    }
}
