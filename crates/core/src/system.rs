//! The REIS system: the host-facing API of Table 1 on top of the in-storage
//! engine.
//!
//! [`ReisSystem`] owns the simulated SSD, deploys vector databases into it
//! (`DB_Deploy` / `IVF_Deploy`) and serves `Search` / `IVF_Search` requests,
//! returning both the retrieved documents and the modelled latency and
//! energy of each query. Batched variants ([`ReisSystem::search_batch`],
//! [`ReisSystem::ivf_search_batch`]) execute independent queries in parallel
//! on per-worker replicas of the simulated device, each worker reusing its
//! own engine scratch.

use std::collections::HashMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use reis_ann::topk::Neighbor;
use reis_nand::{FlashStats, Nanos};
use reis_persist::WalRecord;
use reis_ssd::{ControllerActivity, SsdController, SsdMode};
use reis_telemetry::{
    CounterId, ExplainEvent, ExplainTrace, GaugeId, HistogramId, QueryTrace, Span, Telemetry,
};

use reis_sched::{WorkerLocal, WorkerPool};

use crate::config::{BatchFusion, ReisConfig, ScanExecutor, ScanParallelism};
use crate::database::VectorDatabase;
use crate::deploy::{self, DeployedDatabase};
use crate::durable::Durability;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::engine::{self, InStorageEngine, ScanScratch};
use crate::error::{ReisError, Result};
use crate::fused;
use crate::mutate::{self, CompactionOutcome, MutationOutcome};
use crate::perf::{LatencyBreakdown, PerfModel, QueryActivity};

/// Result of one REIS search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The top-k results as `(original entry id, INT8 rerank distance)` in
    /// ascending distance order.
    pub results: Vec<Neighbor>,
    /// The retrieved document chunks, aligned with `results`.
    pub documents: Vec<Vec<u8>>,
    /// Per-phase latency of the query.
    pub latency: LatencyBreakdown,
    /// Activity counters (pages scanned, entries transferred, …).
    pub activity: QueryActivity,
    /// Energy breakdown of the query.
    pub energy: EnergyBreakdown,
    /// Flash operation counters attributable to the query.
    pub flash_stats: FlashStats,
}

impl SearchOutcome {
    /// End-to-end latency of the query.
    pub fn total_latency(&self) -> Nanos {
        self.latency.total()
    }

    /// Queries per second this query's latency corresponds to.
    pub fn qps(&self) -> f64 {
        let secs = self.total_latency().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            1.0 / secs
        }
    }

    /// Queries per second per watt (the energy-efficiency metric of Fig. 8).
    pub fn qps_per_watt(&self) -> f64 {
        let energy = self.energy.total_j();
        if energy <= 0.0 {
            0.0
        } else {
            1.0 / energy
        }
    }

    /// The original entry ids of the results, in rank order.
    pub fn result_ids(&self) -> Vec<usize> {
        self.results.iter().map(|n| n.id).collect()
    }
}

/// The REIS retrieval system.
#[derive(Debug)]
pub struct ReisSystem {
    pub(crate) config: ReisConfig,
    pub(crate) controller: SsdController,
    pub(crate) perf: PerfModel,
    pub(crate) energy: EnergyModel,
    pub(crate) databases: HashMap<u32, DeployedDatabase>,
    pub(crate) next_db_id: u32,
    /// Scan scratch reused by every sequential query this system serves.
    pub(crate) scratch: ScanScratch,
    /// The host's available parallelism, captured once: the shard budget of
    /// auto-sharded single-query scans and of fused batch scans.
    pub(crate) auto_shards: usize,
    /// The durable store this system checkpoints snapshots to and logs
    /// mutations into — `None` for a purely in-memory system (the
    /// [`ReisSystem::new`] default) and during WAL replay, which is how
    /// replayed mutations avoid re-logging themselves. Attached by
    /// [`ReisSystem::open`] / [`ReisSystem::recover`] (see `crate::durable`).
    pub(crate) durability: Option<Durability>,
    /// The telemetry handle every layer of this system records into.
    /// Disabled by default (every recording call is a single branch);
    /// enabled by `REIS_TELEMETRY=1` at construction or by
    /// [`ReisSystem::enable_telemetry`]. Recording only reads values the
    /// engine already computed, at merge/barrier/post-query points, so
    /// results and all logical accounting are bit-identical with telemetry
    /// on and off (the CI determinism gate enforces this).
    pub(crate) telemetry: Telemetry,
    /// The persistent worker pool every shard scan, fused chunk and
    /// replica batch executes on (under the default
    /// [`ScanExecutor::Pooled`](crate::config::ScanExecutor)). Created
    /// once here; no query or mutation path spawns threads afterwards.
    /// Sized by `REIS_SCHED_WORKERS`, else by `auto_shards`.
    pub(crate) sched: WorkerPool,
    /// Per-worker scan scratch for replica batch workers: the pool keeps
    /// each worker's buffers warm across batches instead of allocating a
    /// fresh scratch per worker per batch. Scratch reuse never affects
    /// results (buffers are cleared or overwritten per scan), so affinity
    /// is purely an allocation-count optimization.
    pub(crate) worker_scratch: WorkerLocal<ScanScratch>,
}

impl ReisSystem {
    /// Create a REIS system on a freshly initialised SSD.
    ///
    /// The host's available parallelism is captured once and used as the
    /// shard budget of auto-sharded scans. Results never depend on it (the
    /// windowed adaptive schedule and the total-order candidate selection
    /// are partition-invariant); the `REIS_TEST_PARALLELISM` environment
    /// variable overrides the captured value so CI can *prove* that by
    /// diffing runs pinned to different budgets on the same machine.
    pub fn new(config: ReisConfig) -> Self {
        let mut controller = SsdController::new(config.ssd);
        controller.switch_mode(SsdMode::Rag);
        let auto_shards = std::env::var("REIS_TEST_PARALLELISM")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let sched = WorkerPool::from_env(auto_shards);
        let worker_scratch = WorkerLocal::new(&sched, |_| ScanScratch::new());
        ReisSystem {
            config,
            controller,
            perf: PerfModel::new(config),
            energy: EnergyModel::default(),
            databases: HashMap::new(),
            next_db_id: 1,
            scratch: ScanScratch::new(),
            auto_shards,
            durability: None,
            telemetry: Telemetry::from_env(),
            sched,
            worker_scratch,
        }
    }

    /// The persistent worker pool this system executes shard scans, fused
    /// chunks and replica batches on. Exposed so tests and benches can
    /// observe its size (set via `REIS_SCHED_WORKERS`, defaulting to the
    /// captured host parallelism) or drive it directly.
    pub fn scheduler(&self) -> &WorkerPool {
        &self.sched
    }

    /// The telemetry handle of this system (disabled unless
    /// `REIS_TELEMETRY=1` was set at construction or
    /// [`ReisSystem::enable_telemetry`] was called). Use it to read
    /// counters/histograms, pull query traces, arm explain mode, or render
    /// a Prometheus/JSON export.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enable telemetry on this system with a fresh registry (no-op if
    /// already enabled). Enabling is provably non-perturbing: results,
    /// transferred-entry counts and all modelled accounting stay
    /// bit-identical to a telemetry-off run.
    pub fn enable_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::enabled();
        }
    }

    /// The configuration of this instance.
    pub fn config(&self) -> &ReisConfig {
        &self.config
    }

    /// Change the intra-query scan sharding policy of subsequent queries.
    ///
    /// Sharding is a host-side execution knob, not a property of the
    /// deployed data, so it can be reconfigured at any time — benchmarks
    /// sweep it over one deployment. Results are bit-identical across
    /// settings; only wall-clock latency changes.
    ///
    /// Note that the plain [`ScanParallelism::sequential`] value is the
    /// "no preference" default that single-query searches auto-upgrade to
    /// `available_parallelism` shards; pass
    /// [`ScanParallelism::pinned_sequential`] to actually force
    /// single-threaded scans.
    pub fn set_scan_parallelism(&mut self, scan_parallelism: ScanParallelism) {
        self.config.scan_parallelism = scan_parallelism;
    }

    /// Change the adaptive threshold-window size of subsequent queries
    /// (clamped to at least 1; see
    /// [`ReisConfig::adaptive_window_pages`](crate::config::ReisConfig)).
    ///
    /// Like scan parallelism, the window is a host-side execution knob, not
    /// a property of the deployed data, so benchmarks sweep it over one
    /// deployment. The returned top-k and documents are invariant under the
    /// window size; the transferred-entry counts — and the latency the
    /// model prices from them — are what change. The latency model is
    /// rebuilt so the per-barrier maintenance cost follows the new window.
    pub fn set_adaptive_window(&mut self, pages: usize) {
        self.config.adaptive_window_pages = pages.max(1);
        self.perf = PerfModel::new(self.config);
    }

    /// Access to the underlying SSD controller (primarily for inspection in
    /// tests and benchmarks).
    pub fn controller(&self) -> &SsdController {
        &self.controller
    }

    /// The deployed database with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`ReisError::DatabaseNotDeployed`] for an unknown id.
    pub fn database(&self, db_id: u32) -> Result<&DeployedDatabase> {
        self.databases
            .get(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))
    }

    /// Deploy a database (`DB_Deploy` for flat databases, `IVF_Deploy` when
    /// the database carries cluster information) and return its id.
    ///
    /// On a durably-opened system (see [`ReisSystem::open`]) a deployment
    /// immediately checkpoints a new snapshot: deployments are carried by
    /// snapshots, mutations by the WAL, so a database is crash-durable from
    /// the moment this method returns.
    ///
    /// # Errors
    ///
    /// Propagates layout and capacity errors from the deployment path.
    pub fn deploy(&mut self, database: &VectorDatabase) -> Result<u32> {
        let db_id = self.next_db_id;
        let deployed = deploy::deploy(&mut self.controller, database, db_id)?;
        self.databases.insert(db_id, deployed);
        self.next_db_id += 1;
        if self.durability.is_some() {
            self.save()?;
        }
        self.telemetry
            .gauge_set(GaugeId::DatabasesDeployed, self.databases.len() as u64);
        Ok(db_id)
    }

    /// Map a target Recall@10 to an `nprobe` setting for a database with
    /// `nlist` clusters (the `R` parameter of `IVF_Search`). The mapping is
    /// the monotone heuristic the device uses when the host does not specify
    /// `nprobe` directly: ~2 % of the clusters at recall 0.90 rising to
    /// ~10 % at recall 0.98.
    pub fn nprobe_for_recall(nlist: usize, target_recall: f64) -> usize {
        let recall = target_recall.clamp(0.0, 1.0);
        let fraction = 0.02 + (recall - 0.90).max(0.0) * 1.0;
        ((nlist as f64 * fraction).ceil() as usize).clamp(1, nlist.max(1))
    }

    /// `Search(Q, Qid, Did, k)`: brute-force top-k search over the whole
    /// database.
    ///
    /// # Errors
    ///
    /// * [`ReisError::DatabaseNotDeployed`] for an unknown id.
    /// * [`ReisError::QueryDimensionMismatch`] for a query of the wrong
    ///   dimensionality.
    ///
    /// # Examples
    ///
    /// ```
    /// use reis_core::{ReisConfig, ReisSystem, VectorDatabase};
    ///
    /// # fn main() -> Result<(), reis_core::ReisError> {
    /// let vectors: Vec<Vec<f32>> = (0..64)
    ///     .map(|i| (0..32).map(|d| ((i * 7 + d) % 13) as f32 - 6.0).collect())
    ///     .collect();
    /// let documents: Vec<Vec<u8>> = (0..64).map(|i| format!("doc {i}").into_bytes()).collect();
    ///
    /// let mut reis = ReisSystem::new(ReisConfig::tiny());
    /// let db = reis.deploy(&VectorDatabase::flat(&vectors, documents)?)?;
    /// let outcome = reis.search(db, &vectors[5], 5)?;
    ///
    /// // An indexed vector is its own nearest neighbor, and the linked
    /// // document chunk comes back with the hit.
    /// assert_eq!(outcome.results[0].id, 5);
    /// assert_eq!(outcome.documents[0], b"doc 5");
    /// assert!(outcome.total_latency().as_secs_f64() > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn search(&mut self, db_id: u32, query: &[f32], k: usize) -> Result<SearchOutcome> {
        self.run_query(db_id, query, k, None)
    }

    /// `IVF_Search(Q, Qid, Did, k, R)`: IVF top-k search with a target
    /// recall, which the device maps to an `nprobe` value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::search`], plus
    /// [`ReisError::UnsupportedSearch`] if the database was deployed without
    /// cluster structure.
    pub fn ivf_search(
        &mut self,
        db_id: u32,
        query: &[f32],
        k: usize,
        target_recall: f64,
    ) -> Result<SearchOutcome> {
        let nlist = self.database(db_id)?.rivf.len();
        if nlist == 0 {
            return Err(ReisError::UnsupportedSearch(
                "IVF_Search requires an IVF deployment".into(),
            ));
        }
        let nprobe = Self::nprobe_for_recall(nlist, target_recall);
        self.run_query(db_id, query, k, Some(nprobe))
    }

    /// IVF top-k search with an explicit `nprobe` (used by benchmarks that
    /// calibrate `nprobe` against measured recall).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::ivf_search`].
    pub fn ivf_search_with_nprobe(
        &mut self,
        db_id: u32,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<SearchOutcome> {
        if self.database(db_id)?.rivf.is_empty() {
            return Err(ReisError::UnsupportedSearch(
                "IVF_Search requires an IVF deployment".into(),
            ));
        }
        self.run_query(db_id, query, k, Some(nprobe))
    }

    /// Insert one entry into a deployed database and return its assigned
    /// stable id (plus the mutation's cost breakdown).
    ///
    /// The embedding is quantized with the deployment's frozen quantizers,
    /// assigned to its nearest IVF centroid (cluster 0 for flat
    /// deployments) and appended — together with its INT8 copy and document
    /// chunk — to that cluster's append segment on freshly programmed
    /// pages. The entry is searchable immediately; no rebuild or redeploy
    /// happens. May trigger an automatic compaction afterwards, per the
    /// configured [`CompactionPolicy`](reis_update::CompactionPolicy).
    ///
    /// # Errors
    ///
    /// * [`ReisError::DatabaseNotDeployed`] for an unknown id.
    /// * [`ReisError::QueryDimensionMismatch`] for a vector of the wrong
    ///   dimensionality.
    /// * [`ReisError::MalformedDatabase`] for a document chunk that does
    ///   not fit the deployment's document slots.
    ///
    /// # Examples
    ///
    /// ```
    /// use reis_core::{ReisConfig, ReisSystem, VectorDatabase};
    ///
    /// # fn main() -> Result<(), reis_core::ReisError> {
    /// let vectors: Vec<Vec<f32>> = (0..32)
    ///     .map(|i| (0..16).map(|d| ((i * 5 + d) % 11) as f32 - 5.0).collect())
    ///     .collect();
    /// let documents: Vec<Vec<u8>> = (0..32).map(|i| format!("doc {i}").into_bytes()).collect();
    /// let mut reis = ReisSystem::new(ReisConfig::tiny());
    /// let db = reis.deploy(&VectorDatabase::flat(&vectors, documents)?)?;
    ///
    /// let fresh: Vec<f32> = (0..16).map(|d| (d % 3) as f32).collect();
    /// let outcome = reis.insert(db, &fresh, b"fresh doc".to_vec())?;
    /// let id = outcome.ids[0];
    ///
    /// // The inserted entry is immediately searchable and returns its chunk.
    /// let hit = reis.search(db, &fresh, 1)?;
    /// assert_eq!(hit.results[0].id, id as usize);
    /// assert_eq!(hit.documents[0], b"fresh doc");
    ///
    /// // And it can be deleted again.
    /// reis.delete(db, id)?;
    /// let miss = reis.search(db, &fresh, 1)?;
    /// assert_ne!(miss.results[0].id, id as usize);
    /// # Ok(())
    /// # }
    /// ```
    pub fn insert(
        &mut self,
        db_id: u32,
        vector: &[f32],
        document: Vec<u8>,
    ) -> Result<MutationOutcome> {
        self.insert_batch(
            db_id,
            std::slice::from_ref(&vector.to_vec()),
            vec![document],
        )
    }

    /// Insert a batch of entries (see [`ReisSystem::insert`]); ids are
    /// returned in batch order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::insert`].
    pub fn insert_batch(
        &mut self,
        db_id: u32,
        vectors: &[Vec<f32>],
        documents: Vec<Vec<u8>>,
    ) -> Result<MutationOutcome> {
        // Clone the batch for the WAL only when a durable store is attached
        // (the clone is the record's payload; the ids it carries are filled
        // in after the mutation assigns them).
        let started = self.telemetry.is_enabled().then(Instant::now);
        let wal_payload = self
            .durability
            .is_some()
            .then(|| (vectors.to_vec(), documents.clone()));
        let outcome = self.insert_batch_inner(db_id, vectors, documents)?;
        if let Some((vectors, documents)) = wal_payload {
            self.log_wal(WalRecord::InsertBatch {
                db_id,
                vectors,
                documents,
                ids: outcome.ids.clone(),
            })?;
        }
        self.record_mutation(
            CounterId::Inserts,
            outcome.ids.len() as u64,
            started,
            &outcome,
            db_id,
        );
        Ok(outcome)
    }

    /// The body of [`ReisSystem::insert_batch`], minus WAL logging (WAL
    /// replay re-applies records through this path).
    pub(crate) fn insert_batch_inner(
        &mut self,
        db_id: u32,
        vectors: &[Vec<f32>],
        documents: Vec<Vec<u8>>,
    ) -> Result<MutationOutcome> {
        let db = self
            .databases
            .get_mut(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        let (centroid_pages, centroids) = if db.is_ivf() {
            (db.layout.centroid_pages, db.layout.centroids)
        } else {
            (0, 0)
        };
        let (ids, latency, pages_programmed) =
            mutate::insert_batch(&mut self.controller, db, vectors, &documents)?;
        // The mutation path prices the flash work (page programs, centroid
        // senses); the controller-core and DRAM costs of the append are
        // modelled here.
        let overhead = self
            .perf
            .append_overhead(ids.len(), centroid_pages, centroids);
        let compaction = self.maybe_auto_compact(db_id)?;
        Ok(MutationOutcome {
            ids,
            latency: latency + overhead,
            pages_programmed,
            compaction,
        })
    }

    /// Delete the entry with stable id `id` (a tombstone: the flash pages
    /// are reclaimed by the next compaction).
    ///
    /// # Errors
    ///
    /// * [`ReisError::DatabaseNotDeployed`] for an unknown database.
    /// * [`ReisError::EntryNotFound`] if the id never existed or was
    ///   already deleted.
    pub fn delete(&mut self, db_id: u32, id: u32) -> Result<MutationOutcome> {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let outcome = self.delete_inner(db_id, id)?;
        self.log_wal(WalRecord::Delete { db_id, id })?;
        self.record_mutation(CounterId::Deletes, 1, started, &outcome, db_id);
        Ok(outcome)
    }

    /// The body of [`ReisSystem::delete`], minus WAL logging.
    pub(crate) fn delete_inner(&mut self, db_id: u32, id: u32) -> Result<MutationOutcome> {
        let db = self
            .databases
            .get_mut(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        mutate::delete_entry(&mut self.controller, db, id)?;
        let compaction = self.maybe_auto_compact(db_id)?;
        Ok(MutationOutcome {
            ids: vec![id],
            // A tombstone touches no flash; its modelled cost is the id-map
            // lookup plus the DRAM validity-bit write.
            latency: self.perf.tombstone_overhead(),
            pages_programmed: 0,
            compaction,
        })
    }

    /// Replace the entry with stable id `id` by a new embedding/document
    /// pair under the same id (delete + append in one call; a deleted id is
    /// revived). The id must have been assigned by the deployment or an
    /// earlier insert.
    ///
    /// # Errors
    ///
    /// Union of the conditions of [`ReisSystem::insert`] and
    /// [`ReisSystem::delete`].
    pub fn upsert(
        &mut self,
        db_id: u32,
        id: u32,
        vector: &[f32],
        document: &[u8],
    ) -> Result<MutationOutcome> {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let outcome = self.upsert_inner(db_id, id, vector, document)?;
        if self.durability.is_some() {
            self.log_wal(WalRecord::Upsert {
                db_id,
                id,
                vector: vector.to_vec(),
                document: document.to_vec(),
            })?;
        }
        self.record_mutation(CounterId::Upserts, 1, started, &outcome, db_id);
        Ok(outcome)
    }

    /// The body of [`ReisSystem::upsert`], minus WAL logging.
    pub(crate) fn upsert_inner(
        &mut self,
        db_id: u32,
        id: u32,
        vector: &[f32],
        document: &[u8],
    ) -> Result<MutationOutcome> {
        let db = self
            .databases
            .get_mut(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        let (centroid_pages, centroids) = if db.is_ivf() {
            (db.layout.centroid_pages, db.layout.centroids)
        } else {
            (0, 0)
        };
        let (latency, pages_programmed, tombstoned) =
            mutate::upsert_entry(&mut self.controller, db, id, vector, document)?;
        // A revival of a deleted id writes no tombstone, so it costs none.
        let mut overhead = self.perf.append_overhead(1, centroid_pages, centroids);
        if tombstoned {
            overhead += self.perf.tombstone_overhead();
        }
        let compaction = self.maybe_auto_compact(db_id)?;
        Ok(MutationOutcome {
            ids: vec![id],
            latency: latency + overhead,
            pages_programmed,
            compaction,
        })
    }

    /// Compact a database now: fold its append segments and tombstones into
    /// a densely packed base region, swap the R-DB record and erase every
    /// block the rewrite freed completely. Search results are unchanged by
    /// compaction; only the scan cost shrinks back to the dense layout's.
    ///
    /// # Errors
    ///
    /// * [`ReisError::DatabaseNotDeployed`] for an unknown database.
    /// * Flash/allocator errors if the device cannot hold the old and new
    ///   generation simultaneously during the rewrite.
    pub fn compact(&mut self, db_id: u32) -> Result<CompactionOutcome> {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let outcome = self.compact_inner(db_id)?;
        self.log_wal(WalRecord::Compact { db_id })?;
        if self.telemetry.is_enabled() {
            self.record_compaction(&outcome, started.map(|t0| t0.elapsed().as_nanos() as u64));
            self.publish_gauges(db_id);
        }
        Ok(outcome)
    }

    /// The body of [`ReisSystem::compact`], minus WAL logging. Also the
    /// compaction the auto-compaction policy triggers: a policy-driven
    /// compaction is *derived* state, re-derived identically during WAL
    /// replay, so only explicitly requested compactions are logged.
    pub(crate) fn compact_inner(&mut self, db_id: u32) -> Result<CompactionOutcome> {
        let db = self
            .databases
            .get_mut(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        mutate::compact(&mut self.controller, db)
    }

    /// Append one mutation record to the open WAL epoch, if a durable store
    /// is attached (no-op otherwise — including during WAL replay, which
    /// runs before the store is re-attached). An I/O failure here surfaces
    /// as an error *after* the in-memory mutation applied; the next
    /// successful [`ReisSystem::save`] re-establishes durability.
    pub(crate) fn log_wal(&mut self, record: WalRecord) -> Result<()> {
        if let Some(durability) = self.durability.as_mut() {
            durability.append(&record)?;
        }
        Ok(())
    }

    /// Run the configured [`CompactionPolicy`](reis_update::CompactionPolicy)
    /// against a database's current shape, compacting if it says so.
    pub(crate) fn maybe_auto_compact(&mut self, db_id: u32) -> Result<Option<CompactionOutcome>> {
        let db = self
            .databases
            .get(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        let store = &db.updates.store;
        let dead = db.updates.tombstones.dead_count() + (store.len() - store.live_count());
        let should = self.config.compaction.should_compact(
            db.entries(),
            store.len(),
            dead,
            db.live_entries(),
            db.updates.stats.mutations(),
        );
        if should {
            Ok(Some(self.compact_inner(db_id)?))
        } else {
            Ok(None)
        }
    }

    /// Record one completed mutation: its counter, wall-clock and modelled
    /// latencies, any compaction it triggered, and the refreshed update
    /// gauges. No-op when telemetry is disabled.
    fn record_mutation(
        &self,
        counter: CounterId,
        entries: u64,
        started: Option<Instant>,
        outcome: &MutationOutcome,
        db_id: u32,
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.count(counter, entries);
        if let Some(t0) = started {
            self.telemetry
                .observe(HistogramId::MutationWallNs, t0.elapsed().as_nanos() as u64);
        }
        self.telemetry
            .observe(HistogramId::MutationModelledNs, outcome.latency.as_nanos());
        if let Some(compaction) = &outcome.compaction {
            // Auto-triggered: the wall clock is folded into the mutation's.
            self.record_compaction(compaction, None);
        }
        self.publish_gauges(db_id);
    }

    /// Record one compaction pass (explicit or policy-triggered).
    fn record_compaction(&self, outcome: &CompactionOutcome, wall_ns: Option<u64>) {
        self.telemetry.count(CounterId::Compactions, 1);
        self.telemetry.count(
            CounterId::CompactionPagesRewritten,
            outcome.pages_rewritten as u64,
        );
        self.telemetry.count(
            CounterId::CompactionBlocksReclaimed,
            outcome.blocks_reclaimed as u64,
        );
        if let Some(ns) = wall_ns {
            self.telemetry.observe(HistogramId::CompactionWallNs, ns);
        }
    }

    /// Refresh the update-state gauges (segment entries, tombstones) of a
    /// database plus the deployment gauge.
    fn publish_gauges(&self, db_id: u32) {
        if let Some(db) = self.databases.get(&db_id) {
            db.updates.publish_telemetry(&self.telemetry);
        }
        self.telemetry
            .gauge_set(GaugeId::DatabasesDeployed, self.databases.len() as u64);
    }

    /// Single-query execution. When the configured [`ScanParallelism`] is
    /// the constructor default (sequential) and no batch is in flight —
    /// which is always true here, since batches run through
    /// [`ReisSystem::search_batch`] — the fine scan is auto-sharded across
    /// up to `available_parallelism` channel/die workers: a latency-only
    /// optimization whose results, activity and modelled latency are
    /// bit-identical to the sequential scan. Adapting scans shard too —
    /// their windowed threshold schedule is a pure function of page order,
    /// so even the transferred-entry counts are machine-invariant (see
    /// [`AdaptiveFiltering`](crate::config::AdaptiveFiltering)). An
    /// explicitly configured parallelism — including
    /// [`ScanParallelism::pinned_sequential`] — is used as-is.
    fn run_query(
        &mut self,
        db_id: u32,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> Result<SearchOutcome> {
        let db = self
            .databases
            .get(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        let mut config = self.config;
        if config.scan_parallelism.is_auto_default() {
            config.scan_parallelism = ScanParallelism::sharded(self.auto_shards);
        }
        execute_query(
            &config,
            &mut self.controller,
            &self.perf,
            &self.energy,
            &mut self.scratch,
            &self.sched,
            db,
            query,
            k,
            nprobe,
            &self.telemetry,
            "search",
        )
    }

    /// `Search` over a whole batch of independent queries.
    ///
    /// By default ([`BatchFusion::Fused`]) the batch executes page-major on
    /// the *shared* device: the union of the batch's probed pages is
    /// computed up front, each distinct page is sensed once, and the fused
    /// multi-query kernel scores it against every query whose selection
    /// covers it — the same sense-amortization REIS applies to in-flight
    /// query batches. The fused pass additionally shards across up to
    /// `workers` (capped at the host's parallelism) channel/die workers —
    /// adaptive scans included, chunked at their window barriers — and
    /// per-query results, documents, activity and
    /// modelled latency/energy are bit-identical to running
    /// [`ReisSystem::search`] sequentially; only the device-level sense
    /// count (and the wall clock) shrinks. The physical scan activity is
    /// folded into the primary controller with each page counted as sensed
    /// once.
    ///
    /// With [`BatchFusion::Replicas`] (or when the embedding regions are
    /// not error-free to read) the pre-fusion path runs instead: up to
    /// `workers` threads each own a copy-on-write replica of the device and
    /// execute their chunk of queries independently, re-sensing every page
    /// per query; the workers' flash, DRAM and ECC activity is merged back
    /// into the primary controller afterwards. Either way, only the raw
    /// error-injection statistics may differ from the sequential run, since
    /// TLC rerank reads draw from different points of the error stream.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::search`]; the first failing query's
    /// error (in query order) is returned.
    pub fn search_batch(
        &mut self,
        db_id: u32,
        queries: &[Vec<f32>],
        k: usize,
        workers: usize,
    ) -> Result<Vec<SearchOutcome>> {
        self.run_batch(db_id, queries, k, None, workers)
    }

    /// `IVF_Search` over a batch of independent queries with a target
    /// recall, executed in parallel across up to `workers` threads (see
    /// [`ReisSystem::search_batch`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::ivf_search`].
    pub fn ivf_search_batch(
        &mut self,
        db_id: u32,
        queries: &[Vec<f32>],
        k: usize,
        target_recall: f64,
        workers: usize,
    ) -> Result<Vec<SearchOutcome>> {
        let nlist = self.database(db_id)?.rivf.len();
        if nlist == 0 {
            return Err(ReisError::UnsupportedSearch(
                "IVF_Search requires an IVF deployment".into(),
            ));
        }
        let nprobe = Self::nprobe_for_recall(nlist, target_recall);
        self.run_batch(db_id, queries, k, Some(nprobe), workers)
    }

    /// IVF batch search with an explicit `nprobe` (see
    /// [`ReisSystem::search_batch`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReisSystem::ivf_search_with_nprobe`].
    pub fn ivf_search_batch_with_nprobe(
        &mut self,
        db_id: u32,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: usize,
        workers: usize,
    ) -> Result<Vec<SearchOutcome>> {
        if self.database(db_id)?.rivf.is_empty() {
            return Err(ReisError::UnsupportedSearch(
                "IVF_Search requires an IVF deployment".into(),
            ));
        }
        self.run_batch(db_id, queries, k, Some(nprobe), workers)
    }

    fn run_batch(
        &mut self,
        db_id: u32,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: Option<usize>,
        workers: usize,
    ) -> Result<Vec<SearchOutcome>> {
        let db = self
            .databases
            .get(&db_id)
            .ok_or(ReisError::DatabaseNotDeployed(db_id))?;
        // Validate up front so a malformed query fails before threads spawn.
        let dim = db.binary_quantizer.dim();
        if let Some(bad) = queries.iter().find(|q| q.len() != dim) {
            return Err(ReisError::QueryDimensionMismatch {
                expected: dim,
                actual: bad.len(),
            });
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.telemetry.count(CounterId::Batches, 1);

        // Page-major fused execution on the shared device (the default):
        // every distinct probed page is sensed once and scored against all
        // covering queries; per-query outcomes are bit-identical to
        // sequential search. Exactness of the borrowed page reads requires
        // error-free embedding reads (ESP-SLC), the same gate that lets the
        // engine score pages in place; otherwise — or when configured —
        // fall back to the per-worker replica path below.
        if self.config.batch_fusion == BatchFusion::Fused
            && engine::embedding_reads_error_free(&self.controller)
        {
            let shard_budget = workers.clamp(1, self.auto_shards.max(1));
            self.telemetry.count(CounterId::FusedBatches, 1);
            return fused::execute_batch_fused(
                &self.config,
                &mut self.controller,
                &self.perf,
                &self.energy,
                &mut self.scratch,
                &self.sched,
                db,
                queries,
                k,
                nprobe,
                shard_budget,
                &self.telemetry,
            );
        }

        let workers = workers.clamp(1, queries.len().max(1));
        if workers == 1 {
            return queries
                .iter()
                .map(|query| {
                    execute_query(
                        &self.config,
                        &mut self.controller,
                        &self.perf,
                        &self.energy,
                        &mut self.scratch,
                        &self.sched,
                        db,
                        query,
                        k,
                        nprobe,
                        &self.telemetry,
                        "batch",
                    )
                })
                .collect();
        }

        // Latch contents are per-query scratch; dropping them first makes the
        // per-worker clones (copy-on-write over the flash blocks) nearly
        // free, so batch throughput scales with the worker count instead of
        // being dominated by device copies.
        self.controller.device_mut().clear_all_latches();
        let config = &self.config;
        let perf = &self.perf;
        let energy = &self.energy;
        let telemetry = &self.telemetry;
        let controller = &self.controller;
        let sched = &self.sched;
        let worker_scratch = &self.worker_scratch;
        let activity_before = controller.activity_snapshot();
        let chunk_len = queries.len().div_ceil(workers);

        // One replica worker's chunk: its own copy-on-write device replica,
        // a re-seeded error RNG (decorrelating the workers' injected error
        // streams, which would otherwise all replay the primary's) and the
        // scratch the caller hands it. No state is shared between queries
        // in flight; the chunking and the seed depend only on the worker
        // *number*, so both executors compute identical outcomes.
        let run_chunk = |worker: usize, chunk: &[Vec<f32>], scratch: &mut ScanScratch| {
            let mut replica = controller.clone();
            replica.device_mut().reseed_error_rng(
                0x9E37_79B9_7F4A_7C15 ^ activity_before.flash.page_reads ^ ((worker as u64) << 32),
            );
            let outcomes: Vec<Result<SearchOutcome>> = chunk
                .iter()
                .map(|query| {
                    execute_query(
                        config,
                        &mut replica,
                        perf,
                        energy,
                        scratch,
                        sched,
                        db,
                        query,
                        k,
                        nprobe,
                        telemetry,
                        "batch",
                    )
                })
                .collect();
            WorkerOutput {
                outcomes,
                activity: replica.activity_since(&activity_before),
            }
        };
        let run_chunk = &run_chunk;

        let mut worker_outputs: Vec<WorkerOutput> = match self.config.scan_executor {
            // Queue one task per chunk on the persistent pool. Each task
            // reuses its worker's long-lived scratch (warm buffers across
            // batches); when every slot is momentarily held — possible
            // while a waiting worker helps run a sibling chunk — it falls
            // back to a temporary scratch, which cannot affect results.
            ScanExecutor::Pooled => {
                let chunks: Vec<_> = queries.chunks(chunk_len).enumerate().collect();
                let mut outputs: Vec<Option<WorkerOutput>> =
                    (0..chunks.len()).map(|_| None).collect();
                sched
                    .scope(|scope| {
                        for ((worker, chunk), output) in chunks.into_iter().zip(outputs.iter_mut())
                        {
                            scope.spawn(move |ctx| {
                                let mut guard = worker_scratch.acquire(ctx);
                                let mut temp;
                                let scratch: &mut ScanScratch = match guard.as_deref_mut() {
                                    Some(slot) => slot,
                                    None => {
                                        temp = ScanScratch::new();
                                        &mut temp
                                    }
                                };
                                *output = Some(run_chunk(worker, chunk, scratch));
                            });
                        }
                    })
                    .map_err(|panic| ReisError::WorkerPanic(panic.message))?;
                outputs
                    .into_iter()
                    .map(|output| output.expect("scope waits for every chunk task"))
                    .collect()
            }
            ScanExecutor::SpawnScoped => std::thread::scope(|scope| {
                let handles: Vec<_> = queries
                    .chunks(chunk_len)
                    .enumerate()
                    .map(|(worker, chunk)| {
                        scope.spawn(move || {
                            let mut scratch = ScanScratch::new();
                            run_chunk(worker, chunk, &mut scratch)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("batch worker panicked"))
                    .collect()
            }),
        };

        // Merge every worker's flash, DRAM and ECC activity into the primary
        // controller before surfacing any per-query error: even a failing
        // batch performed real work on the replicas, and the primary's
        // counters stay authoritative for monitoring.
        for output in &worker_outputs {
            self.controller.absorb_activity(&output.activity);
        }

        let mut outcomes = Vec::with_capacity(queries.len());
        for output in worker_outputs.drain(..) {
            for outcome in output.outcomes {
                outcomes.push(outcome?);
            }
        }
        Ok(outcomes)
    }
}

/// Per-worker products of one batch-search chunk: the query outcomes plus
/// the controller-activity delta to merge back into the primary.
struct WorkerOutput {
    outcomes: Vec<Result<SearchOutcome>>,
    activity: ControllerActivity,
}

/// Execute one query against a deployed database on the given controller.
///
/// This is the shared body of the sequential and batched search paths: the
/// caller supplies the controller (the system's own, or a per-worker
/// replica) and the [`ScanScratch`] to reuse.
#[allow(clippy::too_many_arguments)]
fn execute_query(
    config: &ReisConfig,
    controller: &mut SsdController,
    perf: &PerfModel,
    energy: &EnergyModel,
    scratch: &mut ScanScratch,
    pool: &WorkerPool,
    db: &DeployedDatabase,
    query: &[f32],
    k: usize,
    nprobe: Option<usize>,
    telemetry: &Telemetry,
    kind: &'static str,
) -> Result<SearchOutcome> {
    let dim = db.binary_quantizer.dim();
    if query.len() != dim {
        return Err(ReisError::QueryDimensionMismatch {
            expected: dim,
            actual: query.len(),
        });
    }
    let query_binary = db.binary_quantizer.quantize(query)?;
    let query_int8 = db.int8_quantizer.quantize(query)?;

    // Arm the scratch-side telemetry capture. Recording into the log
    // happens at barrier/scan-end points on the driving thread and only
    // *reads* counts the engine computed anyway, so execution is identical
    // with telemetry on and off.
    let enabled = telemetry.is_enabled();
    scratch.record_windows = enabled;
    scratch.window_log.clear();
    scratch.explain_log = (enabled && telemetry.explain_armed()).then(Vec::new);
    scratch.explain_window = 0;
    let mut walls = StageWalls::default();
    let mut mark = enabled.then(Instant::now);

    let stats_before = *controller.device().stats();
    let dram_before = controller.dram().bytes_read() + controller.dram().bytes_written();

    let mut engine = InStorageEngine::new(controller, *config, scratch, pool);
    engine.broadcast_query(db, &query_binary)?;
    stamp(&mut mark, &mut walls.broadcast);

    let (clusters, coarse_counts) = match nprobe {
        Some(nprobe) => {
            let (clusters, counts) = engine.coarse_search(db, nprobe)?;
            (Some(clusters), counts)
        }
        None => (None, Default::default()),
    };
    stamp(&mut mark, &mut walls.coarse);

    let candidate_count = engine.rerank_candidates(k);
    let fine_counts =
        engine.fine_search(db, &query_binary, clusters.as_deref(), candidate_count)?;
    stamp(&mut mark, &mut walls.fine);
    let num_candidates = engine.num_candidates();
    let (results, int8_pages) = engine.rerank(db, &query_int8, k)?;
    stamp(&mut mark, &mut walls.rerank);
    let documents = engine.fetch_documents(db, &results)?;
    stamp(&mut mark, &mut walls.doc_fetch);

    let activity = engine.activity(
        db,
        coarse_counts,
        fine_counts,
        num_candidates,
        int8_pages,
        results.len(),
        dim,
    );
    let latency = perf.query_latency(&activity, k);
    let core_busy = perf.core_busy(&activity, k);
    let flash_stats = controller.device().stats().delta_since(&stats_before);
    let dram_bytes =
        controller.dram().bytes_read() + controller.dram().bytes_written() - dram_before;
    let energy = energy.query_energy(&flash_stats, dram_bytes, core_busy, latency.total());

    let outcome = SearchOutcome {
        results,
        documents,
        latency,
        activity,
        energy,
        flash_stats,
    };
    if enabled {
        let window_log = std::mem::take(&mut scratch.window_log);
        let explain_log = scratch.explain_log.take();
        record_query_telemetry(telemetry, kind, &walls, &window_log, explain_log, &outcome);
        scratch.window_log = window_log;
    }
    Ok(outcome)
}

/// Wall-clock nanoseconds of each query stage (all zero when telemetry is
/// disabled or a stage did not run on this path).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StageWalls {
    pub(crate) broadcast: u64,
    pub(crate) coarse: u64,
    pub(crate) fine: u64,
    pub(crate) rerank: u64,
    pub(crate) doc_fetch: u64,
}

/// Advance a stage-timing mark: store the elapsed nanoseconds since the
/// previous mark and restart the clock. No-op when timing is off.
pub(crate) fn stamp(mark: &mut Option<Instant>, out: &mut u64) {
    if let Some(t0) = mark {
        *out = t0.elapsed().as_nanos() as u64;
        *mark = Some(Instant::now());
    }
}

/// Record one completed query into the telemetry handle: lifecycle
/// counters, wall/modelled histograms, the trace-ring span record and the
/// explain trace if one was armed. Shared by the sequential/replica path
/// ([`execute_query`]) and the fused batch executor. No-op when disabled.
pub(crate) fn record_query_telemetry(
    telemetry: &Telemetry,
    kind: &'static str,
    walls: &StageWalls,
    window_log: &[u64],
    explain_log: Option<Vec<ExplainEvent>>,
    outcome: &SearchOutcome,
) {
    if !telemetry.is_enabled() {
        return;
    }
    let activity = &outcome.activity;
    let latency = &outcome.latency;
    telemetry.count(CounterId::Queries, 1);
    telemetry.count(CounterId::CoarsePages, activity.coarse_pages as u64);
    telemetry.count(CounterId::FinePages, activity.fine_pages as u64);
    telemetry.count(CounterId::FineEntries, activity.fine_entries as u64);
    telemetry.count(CounterId::FineWindows, activity.fine_windows as u64);
    telemetry.count(
        CounterId::RerankCandidates,
        activity.rerank_candidates as u64,
    );
    telemetry.count(CounterId::DocumentsFetched, activity.documents as u64);
    telemetry.count(CounterId::FlashSenses, outcome.flash_stats.page_reads);
    for &entries in window_log {
        telemetry.count(CounterId::WindowEntries, entries);
        telemetry.observe(HistogramId::WindowEntriesPerWindow, entries);
    }
    let wall_total = walls.broadcast + walls.coarse + walls.fine + walls.rerank + walls.doc_fetch;
    telemetry.observe(HistogramId::QueryWallNs, wall_total);
    telemetry.observe(HistogramId::QueryModelledNs, latency.total().as_nanos());
    telemetry.observe(
        HistogramId::CoarseModelledNs,
        latency.coarse_scan.as_nanos(),
    );
    telemetry.observe(HistogramId::FineModelledNs, latency.fine_scan.as_nanos());
    telemetry.observe(HistogramId::RerankModelledNs, latency.rerank.as_nanos());
    telemetry.observe(
        HistogramId::DocFetchModelledNs,
        latency.document_fetch.as_nanos(),
    );
    let sequence = telemetry.next_sequence();
    telemetry.record_trace(QueryTrace {
        sequence,
        kind,
        spans: vec![
            span("broadcast", walls.broadcast, latency.input_broadcast),
            span("coarse_scan", walls.coarse, latency.coarse_scan),
            span("fine_scan", walls.fine, latency.fine_scan),
            span("select", 0, latency.select),
            span("rerank", walls.rerank, latency.rerank),
            span("doc_fetch", walls.doc_fetch, latency.document_fetch),
            span("host_transfer", 0, latency.host_transfer),
        ],
    });
    if let Some(events) = explain_log {
        telemetry.record_explain(ExplainTrace { sequence, events });
    }
}

/// A lifecycle span with both clocks (see [`reis_telemetry::Span`]).
fn span(stage: &'static str, wall_ns: u64, modelled: Nanos) -> Span {
    Span {
        stage,
        index: 0,
        wall_ns,
        modelled_ns: modelled.as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use reis_ann::flat::FlatIndex;
    use reis_ann::metrics::recall_at_k;
    use reis_ann::Metric;

    fn clustered_vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        // Eight well-separated pseudo-random clusters.
        (0..n)
            .map(|i| {
                let cluster = i % 8;
                (0..dim)
                    .map(|d| {
                        let center = (((cluster * 37 + d * 11) % 19) as f32 - 9.0) / 2.0;
                        let jitter = (((i * 13 + d * 7) % 11) as f32 - 5.0) / 25.0;
                        center + jitter
                    })
                    .collect()
            })
            .collect()
    }

    fn documents(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("document {i}").into_bytes())
            .collect()
    }

    fn deploy_flat(system: &mut ReisSystem, n: usize, dim: usize) -> (u32, Vec<Vec<f32>>) {
        let vectors = clustered_vectors(n, dim);
        let db = VectorDatabase::flat(&vectors, documents(n)).unwrap();
        let id = system.deploy(&db).unwrap();
        (id, vectors)
    }

    fn deploy_ivf(
        system: &mut ReisSystem,
        n: usize,
        dim: usize,
        nlist: usize,
    ) -> (u32, Vec<Vec<f32>>) {
        let vectors = clustered_vectors(n, dim);
        let db = VectorDatabase::ivf(&vectors, documents(n), nlist).unwrap();
        let id = system.deploy(&db).unwrap();
        (id, vectors)
    }

    #[test]
    fn brute_force_search_returns_the_query_itself_and_its_document() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_flat(&mut system, 96, 64);
        let outcome = system.search(id, &vectors[17], 5).unwrap();
        assert_eq!(outcome.results.len(), 5);
        assert_eq!(
            outcome.results[0].id, 17,
            "an indexed vector is its own nearest neighbor"
        );
        assert_eq!(outcome.documents[0], b"document 17");
        assert!(outcome.total_latency() > Nanos::ZERO);
        assert!(outcome.energy.total_j() > 0.0);
        assert!(outcome.qps() > 0.0);
        assert!(outcome.qps_per_watt() > 0.0);
        assert!(outcome.flash_stats.page_reads > 0);
        assert_eq!(outcome.activity.coarse_pages, 0);
        // A brute-force search scans every embedding page of the database.
        let expected_pages = system.database(id).unwrap().layout.embedding_pages;
        assert_eq!(outcome.activity.fine_pages, expected_pages);
    }

    #[test]
    fn ivf_search_matches_brute_force_recall_on_clustered_data() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_ivf(&mut system, 160, 64, 8);
        let flat = FlatIndex::new(vectors.clone(), Metric::SquaredL2).unwrap();
        let mut recall = 0.0;
        let queries = 8usize;
        for q in 0..queries {
            let query = &vectors[q * 19];
            let truth: Vec<usize> = flat
                .search(query, 10)
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let outcome = system.ivf_search_with_nprobe(id, query, 10, 8).unwrap();
            recall += recall_at_k(&outcome.result_ids(), &truth, 10);
        }
        recall /= queries as f64;
        assert!(recall > 0.8, "in-storage IVF recall@10 = {recall}");
    }

    #[test]
    fn probing_fewer_clusters_scans_fewer_pages() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_ivf(&mut system, 200, 64, 10);
        let query = &vectors[3];
        let narrow = system.ivf_search_with_nprobe(id, query, 10, 1).unwrap();
        let wide = system.ivf_search_with_nprobe(id, query, 10, 10).unwrap();
        assert!(narrow.activity.fine_pages < wide.activity.fine_pages);
        assert!(narrow.total_latency() < wide.total_latency());
        assert!(narrow.activity.coarse_pages > 0);
    }

    #[test]
    fn distance_filtering_reduces_transferred_entries_without_losing_the_top_hit() {
        let config_df = ReisConfig::tiny();
        let config_nodf = ReisConfig::tiny().with_optimizations(Optimizations::none());
        let mut with_df = ReisSystem::new(config_df);
        let mut without_df = ReisSystem::new(config_nodf);
        let vectors = clustered_vectors(120, 64);
        let db = VectorDatabase::flat(&vectors, documents(120)).unwrap();
        let id_a = with_df.deploy(&db).unwrap();
        let id_b = without_df.deploy(&db).unwrap();
        let query = &vectors[33];
        let a = with_df.search(id_a, query, 5).unwrap();
        let b = without_df.search(id_b, query, 5).unwrap();
        assert!(a.activity.fine_entries < b.activity.fine_entries);
        assert_eq!(a.results[0].id, 33);
        assert_eq!(b.results[0].id, 33);
    }

    #[test]
    fn searches_validate_inputs() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_flat(&mut system, 32, 64);
        assert!(matches!(
            system.search(99, &vectors[0], 5),
            Err(ReisError::DatabaseNotDeployed(99))
        ));
        assert!(matches!(
            system.search(id, &vectors[0][..10], 5),
            Err(ReisError::QueryDimensionMismatch { .. })
        ));
        assert!(matches!(
            system.ivf_search(id, &vectors[0], 5, 0.94),
            Err(ReisError::UnsupportedSearch(_))
        ));
    }

    #[test]
    fn search_batch_matches_sequential_search_for_any_worker_count() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_flat(&mut system, 96, 64);
        let queries: Vec<Vec<f32>> = (0..7).map(|q| vectors[q * 11].clone()).collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| system.search(id, q, 5).unwrap())
            .collect();
        for workers in [1usize, 2, 3, 8] {
            let batch = system.search_batch(id, &queries, 5, workers).unwrap();
            assert_eq!(batch.len(), sequential.len());
            for (b, s) in batch.iter().zip(&sequential) {
                assert_eq!(b.result_ids(), s.result_ids(), "workers {workers}");
                assert_eq!(b.documents, s.documents, "workers {workers}");
                assert_eq!(b.latency, s.latency, "workers {workers}");
                assert_eq!(b.activity, s.activity, "workers {workers}");
            }
        }
    }

    #[test]
    fn ivf_search_batch_matches_sequential_and_merges_stats() {
        // Replica mode: every query re-senses its own pages, so the merged
        // device delta equals the per-query sum exactly.
        let config = ReisConfig::tiny().with_batch_fusion(crate::config::BatchFusion::Replicas);
        let mut system = ReisSystem::new(config);
        let (id, vectors) = deploy_ivf(&mut system, 160, 64, 8);
        let queries: Vec<Vec<f32>> = (0..6).map(|q| vectors[q * 19].clone()).collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| system.ivf_search_with_nprobe(id, q, 10, 4).unwrap())
            .collect();
        let before = *system.controller().device().stats();
        let batch = system
            .ivf_search_batch_with_nprobe(id, &queries, 10, 4, 3)
            .unwrap();
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.result_ids(), s.result_ids());
            assert_eq!(b.documents, s.documents);
        }
        // The workers' flash activity is folded back into the primary device.
        let delta = system.controller().device().stats().delta_since(&before);
        let per_query: u64 = batch.iter().map(|o| o.flash_stats.page_reads).sum();
        assert_eq!(delta.page_reads, per_query);
        assert!(delta.page_reads > 0);
    }

    #[test]
    fn fused_batch_amortizes_senses_but_reports_per_query_activity() {
        // Fused mode (the default): per-query outcomes are unchanged, but
        // the device senses the shared pages once for the whole batch, so
        // the merged delta is strictly below the per-query sum.
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_ivf(&mut system, 160, 64, 8);
        let queries: Vec<Vec<f32>> = (0..6).map(|q| vectors[q * 19].clone()).collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| system.ivf_search_with_nprobe(id, q, 10, 4).unwrap())
            .collect();
        let before = *system.controller().device().stats();
        let batch = system
            .ivf_search_batch_with_nprobe(id, &queries, 10, 4, 3)
            .unwrap();
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.result_ids(), s.result_ids());
            assert_eq!(b.documents, s.documents);
            assert_eq!(b.latency, s.latency);
            assert_eq!(b.activity, s.activity);
        }
        let delta = system.controller().device().stats().delta_since(&before);
        let per_query: u64 = batch.iter().map(|o| o.flash_stats.page_reads).sum();
        assert!(
            delta.page_reads < per_query,
            "fused batch sensed {} pages, per-query accounting says {}",
            delta.page_reads,
            per_query
        );
        // The in-plane compute is not amortized: one XOR per (page, query).
        let per_query_xor: u64 = batch.iter().map(|o| o.flash_stats.xor_ops).sum();
        assert_eq!(delta.xor_ops, per_query_xor);
        assert!(delta.page_reads > 0);
    }

    #[test]
    fn batch_searches_validate_inputs() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_flat(&mut system, 32, 64);
        assert!(matches!(
            system.search_batch(99, &[vectors[0].clone()], 5, 2),
            Err(ReisError::DatabaseNotDeployed(99))
        ));
        assert!(matches!(
            system.search_batch(id, &[vectors[0][..10].to_vec()], 5, 2),
            Err(ReisError::QueryDimensionMismatch { .. })
        ));
        assert!(matches!(
            system.ivf_search_batch(id, &[vectors[0].clone()], 5, 0.94, 2),
            Err(ReisError::UnsupportedSearch(_))
        ));
        assert!(system.search_batch(id, &[], 5, 4).unwrap().is_empty());
    }

    /// Equality of everything a query computes. The raw
    /// `injected_bit_errors` counter is exempt: it reflects the device RNG's
    /// position, which depends on the *history* of TLC reads on that device,
    /// not on how the scan of the compared query was parallelized (the batch
    /// path documents the same exemption for its worker replicas).
    fn assert_outcome_eq(a: &SearchOutcome, b: &SearchOutcome, ctx: &str) {
        assert_eq!(a.results, b.results, "results: {ctx}");
        assert_eq!(a.documents, b.documents, "documents: {ctx}");
        assert_eq!(a.latency, b.latency, "latency: {ctx}");
        assert_eq!(a.activity, b.activity, "activity: {ctx}");
        assert_eq!(a.energy, b.energy, "energy: {ctx}");
        let mut fa = a.flash_stats;
        let mut fb = b.flash_stats;
        fa.injected_bit_errors = 0;
        fb.injected_bit_errors = 0;
        assert_eq!(fa, fb, "flash stats: {ctx}");
    }

    #[test]
    fn sharded_scan_is_bit_identical_to_sequential() {
        let vectors = clustered_vectors(160, 64);
        let db = VectorDatabase::ivf(&vectors, documents(160), 8).unwrap();
        for shards in [2usize, 3, 4, 8] {
            // Fresh systems per shard count so both devices see the same
            // query history; everything including the raw error-injection
            // stream must then agree. This test pins static thresholds; the
            // adaptive (windowed) counterpart lives in
            // `crates/core/tests/adaptive.rs`.
            let mut sequential = ReisSystem::new(ReisConfig::tiny().with_adaptive_filtering(false));
            let seq_id = sequential.deploy(&db).unwrap();
            let config = ReisConfig::tiny()
                .with_adaptive_filtering(false)
                .with_scan_parallelism(
                    crate::config::ScanParallelism::sharded(shards).with_min_pages_per_shard(1),
                );
            let mut system = ReisSystem::new(config);
            let id = system.deploy(&db).unwrap();
            for q in [0usize, 19, 57] {
                let query = &vectors[q];
                let a = sequential.search(seq_id, query, 10).unwrap();
                let b = system.search(id, query, 10).unwrap();
                assert_eq!(a, b, "brute force, {shards} shards, query {q}");
                let a = sequential
                    .ivf_search_with_nprobe(seq_id, query, 10, 4)
                    .unwrap();
                let b = system.ivf_search_with_nprobe(id, query, 10, 4).unwrap();
                assert_eq!(a, b, "ivf, {shards} shards, query {q}");
            }
        }
    }

    #[test]
    fn scan_parallelism_is_reconfigurable_at_runtime() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_flat(&mut system, 96, 64);
        let baseline = system.search(id, &vectors[11], 5).unwrap();
        system.set_scan_parallelism(
            crate::config::ScanParallelism::sharded(4).with_min_pages_per_shard(1),
        );
        let sharded = system.search(id, &vectors[11], 5).unwrap();
        assert_outcome_eq(&baseline, &sharded, "sharded after reconfigure");
        system.set_scan_parallelism(crate::config::ScanParallelism::pinned_sequential());
        let again = system.search(id, &vectors[11], 5).unwrap();
        assert_outcome_eq(&again, &baseline, "sequential after reconfigure");
    }

    #[test]
    fn batch_workers_compose_with_intra_query_shards() {
        // Pin the replica batch path: this test is about replica workers
        // each driving their own intra-query shards (fused composition is
        // covered by the fused test suite).
        let config = ReisConfig::tiny()
            .with_batch_fusion(crate::config::BatchFusion::Replicas)
            .with_adaptive_filtering(false)
            .with_scan_parallelism(
                crate::config::ScanParallelism::sharded(2).with_min_pages_per_shard(1),
            );
        let mut system = ReisSystem::new(config);
        let (id, vectors) = deploy_flat(&mut system, 96, 64);
        let queries: Vec<Vec<f32>> = (0..5).map(|q| vectors[q * 13].clone()).collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| system.search(id, q, 5).unwrap())
            .collect();
        let batch = system.search_batch(id, &queries, 5, 3).unwrap();
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.result_ids(), s.result_ids());
            assert_eq!(b.documents, s.documents);
            assert_eq!(b.latency, s.latency);
            assert_eq!(b.activity, s.activity);
        }
    }

    #[test]
    fn auto_sharded_default_search_matches_forced_sequential() {
        // The constructor default is ScanParallelism::sequential(), which
        // single-query search upgrades to sharded(available_parallelism).
        // A config that pins the scan sequential (one shard, unreachable
        // minimum) must produce bit-identical outcomes on every machine.
        let vectors = clustered_vectors(160, 64);
        let db = VectorDatabase::ivf(&vectors, documents(160), 8).unwrap();
        let mut auto = ReisSystem::new(ReisConfig::tiny());
        let auto_id = auto.deploy(&db).unwrap();
        let pinned_config = ReisConfig::tiny()
            .with_scan_parallelism(crate::config::ScanParallelism::pinned_sequential());
        let mut pinned = ReisSystem::new(pinned_config);
        let pinned_id = pinned.deploy(&db).unwrap();
        for q in [0usize, 19, 57] {
            let query = &vectors[q];
            let a = auto.search(auto_id, query, 10).unwrap();
            let b = pinned.search(pinned_id, query, 10).unwrap();
            assert_eq!(a, b, "brute force, query {q}");
            let a = auto.ivf_search_with_nprobe(auto_id, query, 10, 4).unwrap();
            let b = pinned
                .ivf_search_with_nprobe(pinned_id, query, 10, 4)
                .unwrap();
            assert_eq!(a, b, "ivf, query {q}");
        }
    }

    #[test]
    fn default_adaptive_brute_force_keeps_topk_and_lowers_modelled_latency() {
        // Adaptive filtering is default-on for brute-force scans; against an
        // explicitly static system the top-k is identical while the
        // transferred entries — and with them the modelled latency — shrink.
        let vectors = clustered_vectors(150, 64);
        let db = VectorDatabase::flat(&vectors, documents(150)).unwrap();
        let mut adaptive = ReisSystem::new(ReisConfig::tiny());
        let adaptive_id = adaptive.deploy(&db).unwrap();
        let mut static_system = ReisSystem::new(ReisConfig::tiny().with_adaptive_filtering(false));
        let static_id = static_system.deploy(&db).unwrap();
        let query = &vectors[42];
        let a = adaptive.search(adaptive_id, query, 1).unwrap();
        let b = static_system.search(static_id, query, 1).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.documents, b.documents);
        assert!(
            a.activity.fine_entries < b.activity.fine_entries,
            "adaptive transferred {} entries, static {}",
            a.activity.fine_entries,
            b.activity.fine_entries
        );
        assert!(
            a.total_latency() < b.total_latency(),
            "adaptive modelled latency {} should beat static {}",
            a.total_latency(),
            b.total_latency()
        );
        // IVF scans keep the static threshold under the default scope
        // (fresh systems — the tiny device cannot hold a second database).
        let ivf_db = VectorDatabase::ivf(&vectors, documents(150), 8).unwrap();
        let mut adaptive_ivf = ReisSystem::new(ReisConfig::tiny());
        let ivf_a = adaptive_ivf.deploy(&ivf_db).unwrap();
        let mut static_ivf = ReisSystem::new(ReisConfig::tiny().with_adaptive_filtering(false));
        let ivf_b = static_ivf.deploy(&ivf_db).unwrap();
        let x = adaptive_ivf
            .ivf_search_with_nprobe(ivf_a, query, 5, 4)
            .unwrap();
        let y = static_ivf
            .ivf_search_with_nprobe(ivf_b, query, 5, 4)
            .unwrap();
        assert_eq!(x.activity, y.activity);
    }

    #[test]
    fn mutation_latency_includes_controller_overheads() {
        let mut system = ReisSystem::new(ReisConfig::tiny());
        let (id, vectors) = deploy_ivf(&mut system, 96, 64, 4);
        let fresh: Vec<f32> = (0..64).map(|d| (d % 5) as f32).collect();
        let insert = system.insert(id, &fresh, b"fresh".to_vec()).unwrap();
        let perf = PerfModel::new(*system.config());
        let db = system.database(id).unwrap();
        let overhead = perf.append_overhead(1, db.layout.centroid_pages, db.layout.centroids);
        assert!(overhead > Nanos::ZERO);
        assert!(insert.latency > overhead, "insert prices flash + overhead");
        // Deletes used to be modelled as free; they now cost the id-map
        // lookup and the DRAM tombstone write.
        let delete = system.delete(id, insert.ids[0]).unwrap();
        assert_eq!(delete.latency, perf.tombstone_overhead());
        assert!(delete.latency > Nanos::ZERO);
        let upsert = system
            .upsert(id, vectors.len() as u32 - 1, &fresh, b"updated")
            .unwrap();
        assert!(upsert.latency > overhead + perf.tombstone_overhead());
    }

    #[test]
    fn nprobe_mapping_is_monotone_in_recall() {
        let low = ReisSystem::nprobe_for_recall(16384, 0.90);
        let mid = ReisSystem::nprobe_for_recall(16384, 0.94);
        let high = ReisSystem::nprobe_for_recall(16384, 0.98);
        assert!(low < mid && mid < high);
        assert!(ReisSystem::nprobe_for_recall(4, 0.99) <= 4);
        assert_eq!(ReisSystem::nprobe_for_recall(0, 0.9), 1);
    }

    #[test]
    fn ssd2_serves_the_same_query_faster_than_ssd1_scaled_geometry() {
        // Use the two reference configurations on a small database; SSD2's
        // extra channels and planes must strictly reduce latency.
        let vectors = clustered_vectors(256, 1024);
        let db = VectorDatabase::ivf(&vectors, documents(256), 8).unwrap();
        let mut ssd1 = ReisSystem::new(ReisConfig::ssd1());
        let mut ssd2 = ReisSystem::new(ReisConfig::ssd2());
        let a = ssd1.deploy(&db).unwrap();
        let b = ssd2.deploy(&db).unwrap();
        let q = &vectors[5];
        let t1 = ssd1
            .ivf_search_with_nprobe(a, q, 10, 4)
            .unwrap()
            .total_latency();
        let t2 = ssd2
            .ivf_search_with_nprobe(b, q, 10, 4)
            .unwrap()
            .total_latency();
        assert!(t2 < t1, "REIS-SSD2 ({t2}) should beat REIS-SSD1 ({t1})");
    }
}
