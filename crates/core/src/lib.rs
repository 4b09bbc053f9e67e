//! # reis-core — the REIS in-storage retrieval system
//!
//! The paper's primary contribution, built on the `reis-nand` flash device
//! model, the `reis-ssd` controller and the `reis-ann` algorithm library:
//!
//! * [`database`] — the host-side [`database::VectorDatabase`] handed to
//!   `DB_Deploy` / `IVF_Deploy`.
//! * [`layout`] — how a database maps onto flash pages (embedding /
//!   INT8 / document regions, mini-pages, OOB linkage capacity).
//! * [`deploy`] — deployment: cluster-contiguous storage order, OOB
//!   embedding-to-document linkage, the R-DB record and the R-IVF array.
//! * [`records`] — the controller-DRAM structures (R-IVF, Temporal Top
//!   Lists).
//! * [`engine`] — the functional in-storage ANNS engine (Input Broadcasting,
//!   in-plane XOR + fail-bit counting, distance filtering, quickselect,
//!   INT8 reranking, document retrieval), including the intra-query scan
//!   sharding that runs one query's fine scan concurrently across the
//!   device's channel/die units (see [`config::ScanParallelism`]).
//! * [`perf`] — the latency model (plane/die/channel parallelism,
//!   pipelining, MPIBC).
//! * [`energy`] — the per-operation energy model.
//! * [`system`] — [`system::ReisSystem`], the host-facing API of Table 1.
//!   Its batched searches run page-major *fused* execution on the shared
//!   device when embedding reads are error-free: each probed page is read
//!   once and scored against every in-flight query, bit-identical per
//!   query to sequential search. Error-prone reads run the batch as
//!   sequential searches. A batch's `workers` argument is the fused scan's
//!   shard budget and has no effect on error-prone reads.
//! * [`config`] — REIS-SSD1 / REIS-SSD2 configurations and the optimization
//!   toggles of the Fig. 9 sensitivity study.
//!
//! # Example
//!
//! ```
//! use reis_core::{ReisConfig, ReisSystem, VectorDatabase};
//!
//! # fn main() -> Result<(), reis_core::ReisError> {
//! let vectors: Vec<Vec<f32>> = (0..96)
//!     .map(|i| (0..64).map(|d| (((i * 7 + d) % 13) as f32 - 6.0) / 3.0).collect())
//!     .collect();
//! let documents: Vec<Vec<u8>> = (0..96).map(|i| format!("doc {i}").into_bytes()).collect();
//!
//! let mut reis = ReisSystem::new(ReisConfig::tiny());
//! let db = VectorDatabase::ivf(&vectors, documents, 8)?;
//! let id = reis.deploy(&db)?;
//! let outcome = reis.ivf_search_with_nprobe(id, &vectors[5], 10, 8)?;
//! assert_eq!(outcome.results[0].id, 5);
//! assert_eq!(outcome.documents[0], b"doc 5");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod database;
pub mod deploy;
pub mod durable;
pub mod energy;
pub mod engine;
pub mod error;
mod fused;
pub mod layout;
pub mod leaf;
pub mod mutate;
pub mod perf;
pub mod pipeline;
pub mod records;
pub mod system;

pub use config::{AdaptiveFiltering, Optimizations, ReisConfig, ScanParallelism};
pub use database::{ClusterInfo, VectorDatabase};
pub use deploy::DeployedDatabase;
pub use durable::{RecoveryReport, WalQuarantine};
pub use energy::{EnergyBreakdown, EnergyModel, EnergyParams};
pub use error::{ReisError, Result};
pub use layout::{LayoutPlan, DOC_SUBPAGE_BYTES};
pub use leaf::{LeafCandidate, LeafDocumentsOutcome, LeafQueryOutcome};
pub use mutate::{CompactionOutcome, MutationOutcome};
pub use perf::{LatencyBreakdown, PerfModel, QueryActivity};
pub use pipeline::{
    LanePriority, Pipeline, PipelineBackend, PipelineCompletion, PipelineConfig, PipelineMutation,
    PipelineReply, PipelineRequest,
};
pub use records::{RIvf, RIvfEntry, TemporalTopList, TtlEntry};
pub use reis_sched::{WorkerContext, WorkerPool};

pub use reis_persist::{
    DirVfs, DurableStore, FaultHandle, FaultVfs, MemVfs, PersistError, ScrubReport, Vfs, WalRecord,
};
pub use reis_telemetry::{
    CounterId, ExplainEvent, ExplainTrace, GaugeId, HistogramId, HistogramSnapshot, QueryTrace,
    Span, Telemetry, TELEMETRY_ENV,
};
pub use reis_update::{CompactionPolicy, MutationStats, UpdateState};
pub use system::{ReisSystem, SearchOutcome};
