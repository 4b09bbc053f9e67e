//! The asynchronous request pipeline over an aggregator-leaf cluster.
//!
//! There is one request pipeline, [`reis_core::Pipeline`]: bounded lanes,
//! batch formation, priority lanes, explicit [`ReisError::Overloaded`]
//! backpressure and the virtual-time busy horizon. This module makes
//! [`ClusterSystem`] one of its [`PipelineBackend`]s, so a formed batch
//! fans out across every shard once per query through
//! [`ClusterSystem::search_batch`], and the same traces serve a device and
//! a cluster unchanged.
//!
//! The aggregator's modelled end-to-end latency prices search completions.
//! Cluster inserts mint a stable id rather than returning a mutation
//! outcome, so they report no modelled latency and complete at their start
//! time with [`ClusterPipelineReply::Inserted`].
//!
//! [`ReisError::Overloaded`]: reis_core::ReisError::Overloaded

use reis_core::{
    MutationOutcome, Pipeline, PipelineBackend, PipelineCompletion, PipelineConfig,
    PipelineMutation, Result, Telemetry,
};
use reis_nand::Nanos;

use crate::cluster::{ClusterSearchOutcome, ClusterSystem};

/// A completed cluster request's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterPipelineReply {
    /// A search's merged cluster-wide outcome.
    Search(ClusterSearchOutcome),
    /// An insert's globally minted stable id.
    Inserted(u32),
    /// A delete or upsert outcome (from the owning shard's replicas).
    Mutation(MutationOutcome),
}

/// The request pipeline over a [`ClusterSystem`], created by
/// [`ClusterSystem::pipeline`].
pub type ClusterPipeline<'a> = Pipeline<'a, ClusterSystem>;

/// One cluster completion record.
pub type ClusterPipelineCompletion = PipelineCompletion<ClusterPipelineReply>;

impl ClusterSystem {
    /// Open an asynchronous request pipeline over the deployed corpus
    /// (see [`ClusterPipeline`]). The pipeline borrows the cluster
    /// exclusively; drop it (after [`Pipeline::flush`]) to use the cluster
    /// directly again. [`PipelineConfig::workers`] has no effect here:
    /// every leaf runs its queries one at a time.
    pub fn pipeline(&mut self, config: PipelineConfig) -> ClusterPipeline<'_> {
        Pipeline::new(self, (), config)
    }
}

impl PipelineBackend for ClusterSystem {
    /// A cluster serves one corpus.
    type Target = ();
    type Reply = ClusterPipelineReply;

    fn telemetry(&self) -> &Telemetry {
        ClusterSystem::telemetry(self)
    }

    fn execute_batch(
        &mut self,
        _: (),
        queries: &[Vec<f32>],
        k: usize,
        nprobe: Option<usize>,
        _workers: usize,
    ) -> Result<Vec<(ClusterPipelineReply, Nanos)>> {
        Ok(self
            .search_batch(queries, k, nprobe)?
            .into_iter()
            .map(|outcome| {
                let latency = outcome.latency;
                (ClusterPipelineReply::Search(outcome), latency)
            })
            .collect())
    }

    fn execute_mutation(
        &mut self,
        _: (),
        mutation: PipelineMutation,
    ) -> Result<(ClusterPipelineReply, Nanos)> {
        let outcome = match mutation {
            PipelineMutation::Insert { vector, document } => {
                let id = self.insert(&vector, document)?;
                return Ok((ClusterPipelineReply::Inserted(id), Nanos::ZERO));
            }
            PipelineMutation::Delete { id } => self.delete(id)?,
            PipelineMutation::Upsert {
                id,
                vector,
                document,
            } => self.upsert(id, &vector, &document)?,
        };
        let latency = outcome.latency;
        Ok((ClusterPipelineReply::Mutation(outcome), latency))
    }
}
