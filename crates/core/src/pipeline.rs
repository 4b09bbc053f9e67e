//! The asynchronous request pipeline: REIS's front door under load.
//!
//! Callers of [`ReisSystem::search`] choose their own batch sizes; a serving
//! deployment cannot — requests arrive whenever clients send them. The
//! [`Pipeline`] turns arrivals into device work the way a real heavy-traffic
//! server would, and makes **batch size an emergent property of load**:
//!
//! * **Bounded submission queues.** Each lane holds at most
//!   [`PipelineConfig::queue_depth`] requests; past that, [`Pipeline::submit`]
//!   returns [`ReisError::Overloaded`] — explicit backpressure instead of
//!   unbounded queueing.
//! * **Batch formation.** Compatible searches (same `k`/`nprobe`) collect
//!   until the batch reaches [`PipelineConfig::max_batch`] or its oldest
//!   member has waited [`PipelineConfig::max_wait_ns`], then the whole batch
//!   executes as one call to the backend (on a device, the fused batch
//!   executor: one sense per distinct page for the entire batch). Under
//!   light load batches stay small and latency low; under heavy load they
//!   fill and throughput rises.
//! * **Priority lanes.** Mutations and searches queue separately;
//!   [`LanePriority`] decides whether pending mutations drain before a
//!   search batch dispatches (`MutationsFirst`, the default — searches then
//!   observe every earlier-arriving write) or wait their own turn.
//!
//! This is the one request pipeline. It is generic over a
//! [`PipelineBackend`], which only executes a formed search batch, applies
//! one mutation and prices each reply; [`ReisSystem`] serves one database
//! through it, and `reis_cluster::ClusterSystem` a whole cluster. Formation
//! never looks at the backend, so the same trace dispatches the same
//! batches at the same virtual times on either.
//!
//! Time is **virtual**: callers stamp submissions with nanosecond
//! timestamps (e.g. from a seeded
//! [`ArrivalTrace`](../../reis_workloads/arrival) — the `fig_scheduler`
//! bench does), and completions are priced by the backend's modelled
//! latency, serialized through a device-busy horizon. The whole pipeline is therefore
//! deterministic: the same trace produces byte-identical completions on any
//! machine and any pool size, which is what lets the scheduler CI gate diff
//! its summaries, and lets a QPS-vs-p99 sweep run on a single-core host.
//!
//! Queue depth, queue wait and formed batch size are observable through
//! `reis-telemetry` (`reis_pipeline_*`), recorded only at submit/dispatch
//! points — never inside the engine — so telemetry stays non-perturbing.

use std::fmt::Debug;

use reis_nand::Nanos;
use reis_telemetry::{CounterId, HistogramId, Telemetry};

use crate::error::{ReisError, Result};
use crate::mutate::MutationOutcome;
use crate::system::{ReisSystem, SearchOutcome};

/// Which lane dispatches first when a search batch is ready while mutations
/// are still queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePriority {
    /// Drain every pending mutation before a search batch dispatches (the
    /// default): searches always observe writes that arrived before them.
    MutationsFirst,
    /// Dispatch the search batch immediately; mutations wait for their own
    /// `max_wait` deadline (lower search latency, relaxed read-your-writes).
    SearchesFirst,
}

/// Tuning knobs of a [`Pipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Largest batch handed to the backend; a full lane dispatches
    /// immediately. Clamped to ≥ 1.
    pub max_batch: usize,
    /// Longest time the oldest queued request waits before its lane
    /// dispatches regardless of batch size, in virtual nanoseconds.
    pub max_wait_ns: u64,
    /// Per-lane submission-queue bound; submissions past it are shed with
    /// [`ReisError::Overloaded`]. Clamped to ≥ 1.
    pub queue_depth: usize,
    /// Lane dispatch order (see [`LanePriority`]).
    pub priority: LanePriority,
    /// The fused batch executor's shard budget on a device. Deliberately
    /// explicit (not derived from the pool size) so the formed work — and
    /// with it every diffable summary — is identical across pool sizes. It
    /// has no effect on a cluster, whose leaves run queries one at a time.
    pub workers: usize,
}

impl Default for PipelineConfig {
    /// 8-query batches, 200 µs formation window, 64-deep lanes,
    /// mutations-first, 4 executor workers.
    fn default() -> Self {
        PipelineConfig {
            max_batch: 8,
            max_wait_ns: 200_000,
            queue_depth: 64,
            priority: LanePriority::MutationsFirst,
            workers: 4,
        }
    }
}

impl PipelineConfig {
    /// Builder-style override of the maximum formed batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Builder-style override of the formation window, in microseconds.
    pub fn with_max_wait_us(mut self, us: u64) -> Self {
        self.max_wait_ns = us.saturating_mul(1_000);
        self
    }

    /// Builder-style override of the per-lane queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Builder-style override of the lane priority.
    pub fn with_priority(mut self, priority: LanePriority) -> Self {
        self.priority = priority;
        self
    }

    /// Builder-style override of the executor worker budget.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// One request submitted to the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineRequest {
    /// Brute-force top-`k` search.
    Search {
        /// The query embedding.
        query: Vec<f32>,
        /// Results requested.
        k: usize,
    },
    /// IVF top-`k` search with an explicit probe count.
    IvfSearch {
        /// The query embedding.
        query: Vec<f32>,
        /// Results requested.
        k: usize,
        /// Clusters probed.
        nprobe: usize,
    },
    /// Append one entry.
    Insert {
        /// The embedding to insert.
        vector: Vec<f32>,
        /// Its document chunk.
        document: Vec<u8>,
    },
    /// Tombstone one entry by stable id.
    Delete {
        /// The stable id to delete.
        id: u32,
    },
    /// Replace one entry by stable id.
    Upsert {
        /// The stable id to replace.
        id: u32,
        /// The replacement embedding.
        vector: Vec<f32>,
        /// The replacement document chunk.
        document: Vec<u8>,
    },
}

/// A mutation as the mutation lane holds it and a [`PipelineBackend`]
/// applies it.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineMutation {
    /// Append one entry.
    Insert {
        /// The embedding to insert.
        vector: Vec<f32>,
        /// Its document chunk.
        document: Vec<u8>,
    },
    /// Tombstone one entry by stable id.
    Delete {
        /// The stable id to delete.
        id: u32,
    },
    /// Replace one entry by stable id.
    Upsert {
        /// The stable id to replace.
        id: u32,
        /// The replacement embedding.
        vector: Vec<f32>,
        /// The replacement document chunk.
        document: Vec<u8>,
    },
}

/// Two searches fuse into one batch only when the batch executor would
/// treat them identically: same `k` and same probe selection (`None` for a
/// brute-force search).
type BatchKey = (usize, Option<usize>);

/// A request sorted into its lane.
enum Routed {
    Search { key: BatchKey, query: Vec<f32> },
    Mutation(PipelineMutation),
}

impl From<PipelineRequest> for Routed {
    fn from(request: PipelineRequest) -> Self {
        match request {
            PipelineRequest::Search { query, k } => Routed::Search {
                key: (k, None),
                query,
            },
            PipelineRequest::IvfSearch { query, k, nprobe } => Routed::Search {
                key: (k, Some(nprobe)),
                query,
            },
            PipelineRequest::Insert { vector, document } => {
                Routed::Mutation(PipelineMutation::Insert { vector, document })
            }
            PipelineRequest::Delete { id } => Routed::Mutation(PipelineMutation::Delete { id }),
            PipelineRequest::Upsert {
                id,
                vector,
                document,
            } => Routed::Mutation(PipelineMutation::Upsert {
                id,
                vector,
                document,
            }),
        }
    }
}

/// What a [`Pipeline`] dispatches its formed work to: one device database
/// ([`ReisSystem`]) or a whole cluster (`reis_cluster::ClusterSystem`). The
/// pipeline owns lanes, formation, priority, shedding and the device-busy
/// horizon; a backend only executes and prices what it is handed.
pub trait PipelineBackend {
    /// Which part of the backend a pipeline serves (a database id on one
    /// device).
    type Target: Copy + Debug;
    /// A completed request's answer.
    type Reply;

    /// The telemetry handle queueing is recorded into.
    fn telemetry(&self) -> &Telemetry;

    /// Run one formed search batch: every query with the same `k` and
    /// probe count (`None` for brute force) on a `workers` budget. Returns
    /// one reply per query, in query order, each with its modelled latency.
    ///
    /// # Errors
    ///
    /// The executor's error; the pipeline surfaces it on every request of
    /// the batch.
    fn execute_batch(
        &mut self,
        target: Self::Target,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: Option<usize>,
        workers: usize,
    ) -> Result<Vec<(Self::Reply, Nanos)>>;

    /// Apply one mutation; returns its reply and modelled latency.
    ///
    /// # Errors
    ///
    /// The mutation's error; the pipeline surfaces it on that request.
    fn execute_mutation(
        &mut self,
        target: Self::Target,
        mutation: PipelineMutation,
    ) -> Result<(Self::Reply, Nanos)>;
}

impl PipelineBackend for ReisSystem {
    /// The deployed database the pipeline serves.
    type Target = u32;
    type Reply = PipelineReply;

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn execute_batch(
        &mut self,
        db_id: u32,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: Option<usize>,
        workers: usize,
    ) -> Result<Vec<(PipelineReply, Nanos)>> {
        let outcomes = match nprobe {
            Some(nprobe) => self.ivf_search_batch_with_nprobe(db_id, queries, k, nprobe, workers),
            None => self.search_batch(db_id, queries, k, workers),
        }?;
        Ok(outcomes
            .into_iter()
            .map(|outcome| {
                let latency = outcome.total_latency();
                (PipelineReply::Search(Box::new(outcome)), latency)
            })
            .collect())
    }

    fn execute_mutation(
        &mut self,
        db_id: u32,
        mutation: PipelineMutation,
    ) -> Result<(PipelineReply, Nanos)> {
        let outcome = match mutation {
            PipelineMutation::Insert { vector, document } => self.insert(db_id, &vector, document),
            PipelineMutation::Delete { id } => self.delete(db_id, id),
            PipelineMutation::Upsert {
                id,
                vector,
                document,
            } => self.upsert(db_id, id, &vector, &document),
        }?;
        let latency = outcome.latency;
        Ok((PipelineReply::Mutation(outcome), latency))
    }
}

/// A completed request's answer on one device.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineReply {
    /// A search's outcome (boxed: a [`SearchOutcome`] dwarfs the
    /// mutation variant).
    Search(Box<SearchOutcome>),
    /// A mutation's outcome.
    Mutation(MutationOutcome),
}

/// One completion record: when the request entered, when its batch
/// dispatched, when the modelled backend finished it, and the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCompletion<R = PipelineReply> {
    /// The id [`Pipeline::submit`] returned.
    pub request_id: u64,
    /// Virtual submission timestamp (the caller's).
    pub submitted_ns: u64,
    /// Virtual time the request's batch left its lane.
    pub dispatched_ns: u64,
    /// Virtual time the modelled backend completed it. The end-to-end
    /// sojourn is `completed_ns - submitted_ns`.
    pub completed_ns: u64,
    /// Size of the batch the request dispatched in (1 for mutations).
    pub batch_size: usize,
    /// The answer, or the error the whole batch surfaced. Request-level
    /// errors never poison the pipeline itself.
    pub reply: Result<R>,
}

/// A queued request's submission metadata.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    request_id: u64,
    submitted_ns: u64,
}

/// The forming search batch: its tickets and queries share one key.
#[derive(Debug, Default)]
struct SearchLane {
    key: BatchKey,
    tickets: Vec<Ticket>,
    queries: Vec<Vec<f32>>,
}

/// The asynchronous request pipeline over one [`PipelineBackend`] (see the
/// module docs): by default one [`ReisSystem`] database, created by
/// [`ReisSystem::pipeline`]. Holds the backend exclusively, so submissions
/// and dispatches interleave deterministically.
#[derive(Debug)]
pub struct Pipeline<'a, B: PipelineBackend = ReisSystem> {
    backend: &'a mut B,
    target: B::Target,
    config: PipelineConfig,
    /// Virtual now: the latest submission or dispatch event processed.
    clock_ns: u64,
    /// When the modelled backend frees up; dispatches serialize behind it.
    device_free_ns: u64,
    searches: SearchLane,
    mutations: Vec<(Ticket, PipelineMutation)>,
    completions: Vec<PipelineCompletion<B::Reply>>,
    next_id: u64,
    shed: u64,
}

impl ReisSystem {
    /// Open an asynchronous request pipeline over one deployed database
    /// (see [`Pipeline`]). The pipeline borrows the system exclusively;
    /// drop it (after [`Pipeline::flush`]) to use the system directly
    /// again.
    pub fn pipeline(&mut self, db_id: u32, config: PipelineConfig) -> Pipeline<'_> {
        Pipeline::new(self, db_id, config)
    }
}

impl<'a, B: PipelineBackend> Pipeline<'a, B> {
    /// Open a pipeline over `target` of `backend`, with `config`'s batch,
    /// queue and worker bounds clamped to ≥ 1.
    pub fn new(backend: &'a mut B, target: B::Target, config: PipelineConfig) -> Self {
        Pipeline {
            backend,
            target,
            config: PipelineConfig {
                max_batch: config.max_batch.max(1),
                queue_depth: config.queue_depth.max(1),
                workers: config.workers.max(1),
                ..config
            },
            clock_ns: 0,
            device_free_ns: 0,
            searches: SearchLane::default(),
            mutations: Vec::new(),
            completions: Vec::new(),
            next_id: 0,
            shed: 0,
        }
    }

    /// Submit one request at virtual time `at_ns` (timestamps must be
    /// non-decreasing across calls; earlier stamps are clamped to the
    /// current virtual clock). Returns the request id its completion will
    /// carry.
    ///
    /// # Errors
    ///
    /// [`ReisError::Overloaded`] when the request's lane is at
    /// [`PipelineConfig::queue_depth`] — the request is shed, nothing is
    /// queued, and the pipeline stays fully usable (drain by advancing
    /// time, then resubmit).
    pub fn submit(&mut self, at_ns: u64, request: PipelineRequest) -> Result<u64> {
        // Fire every formation deadline that elapsed before this arrival.
        self.run_until(at_ns);
        self.clock_ns = self.clock_ns.max(at_ns);

        let routed = Routed::from(request);
        let lane_len = match routed {
            Routed::Search { .. } => self.searches.tickets.len(),
            Routed::Mutation(_) => self.mutations.len(),
        };
        if lane_len >= self.config.queue_depth {
            self.shed += 1;
            self.backend.telemetry().count(CounterId::PipelineShed, 1);
            return Err(ReisError::Overloaded {
                depth: self.config.queue_depth,
            });
        }

        let ticket = Ticket {
            request_id: self.next_id,
            submitted_ns: self.clock_ns,
        };
        self.next_id += 1;
        let depth = match routed {
            Routed::Search { key, query } => {
                // A search that cannot fuse with the forming batch closes
                // it: the lane stays homogeneous, so a dispatch always takes
                // the whole lane.
                if !self.searches.tickets.is_empty() && self.searches.key != key {
                    self.dispatch_searches();
                }
                self.searches.key = key;
                self.searches.tickets.push(ticket);
                self.searches.queries.push(query);
                self.searches.tickets.len()
            }
            Routed::Mutation(mutation) => {
                self.mutations.push((ticket, mutation));
                self.mutations.len()
            }
        };
        let telemetry = self.backend.telemetry();
        telemetry.count(CounterId::PipelineRequests, 1);
        telemetry.observe(HistogramId::PipelineQueueDepth, depth as u64);

        if self.searches.tickets.len() >= self.config.max_batch {
            self.dispatch_searches();
        }
        Ok(ticket.request_id)
    }

    /// Advance virtual time to `at_ns`, firing every lane whose formation
    /// deadline (`oldest submission + max_wait`) elapses on the way, in
    /// deadline order (ties broken by [`LanePriority`]).
    pub fn run_until(&mut self, at_ns: u64) {
        let max_wait_ns = self.config.max_wait_ns;
        let deadline =
            |ticket: Option<&Ticket>| ticket.map(|t| t.submitted_ns.saturating_add(max_wait_ns));
        loop {
            let search_deadline = deadline(self.searches.tickets.first());
            let mutation_deadline = deadline(self.mutations.first().map(|(t, _)| t));
            let (mutations_first, deadline) = match (search_deadline, mutation_deadline) {
                (Some(s), None) if s <= at_ns => (false, s),
                (None, Some(m)) if m <= at_ns => (true, m),
                (Some(s), Some(m)) if s.min(m) <= at_ns => {
                    if m < s || (m == s && self.config.priority == LanePriority::MutationsFirst) {
                        (true, m)
                    } else {
                        (false, s)
                    }
                }
                _ => break,
            };
            self.clock_ns = self.clock_ns.max(deadline);
            if mutations_first {
                self.dispatch_mutations();
            } else {
                self.dispatch_searches();
            }
        }
        self.clock_ns = self.clock_ns.max(at_ns);
    }

    /// Dispatch everything still queued, in priority order, regardless of
    /// formation deadlines. Call before reading the final completion set.
    pub fn flush(&mut self) {
        match self.config.priority {
            LanePriority::MutationsFirst => {
                self.dispatch_mutations();
                self.dispatch_searches();
            }
            LanePriority::SearchesFirst => {
                self.dispatch_searches();
                self.dispatch_mutations();
            }
        }
    }

    /// Take every completion recorded so far, in dispatch order.
    pub fn drain_completions(&mut self) -> Vec<PipelineCompletion<B::Reply>> {
        std::mem::take(&mut self.completions)
    }

    /// Requests shed with [`ReisError::Overloaded`] so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests currently queued across both lanes.
    pub fn queued(&self) -> usize {
        self.searches.tickets.len() + self.mutations.len()
    }

    /// The current virtual time, nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Dispatch the whole search lane as one batch.
    fn dispatch_searches(&mut self) {
        // Read-your-writes: under MutationsFirst no search batch leaves
        // while an earlier-arriving mutation is still queued.
        if self.config.priority == LanePriority::MutationsFirst && !self.mutations.is_empty() {
            self.dispatch_mutations();
        }
        if self.searches.tickets.is_empty() {
            return;
        }
        let dispatched_ns = self.clock_ns;
        let start_ns = dispatched_ns.max(self.device_free_ns);
        let batch_size = self.searches.tickets.len();
        let telemetry = self.backend.telemetry();
        telemetry.observe(HistogramId::PipelineBatchSize, batch_size as u64);
        for ticket in &self.searches.tickets {
            telemetry.observe(
                HistogramId::PipelineQueueWaitNs,
                dispatched_ns.saturating_sub(ticket.submitted_ns),
            );
        }

        let (k, nprobe) = self.searches.key;
        let executed = self.backend.execute_batch(
            self.target,
            &self.searches.queries,
            k,
            nprobe,
            self.config.workers,
        );
        self.searches.queries.clear();
        let tickets = self.searches.tickets.drain(..);
        match executed {
            Ok(replies) => {
                // Queries in a batch share the backend; the batch occupies
                // it for its slowest member while each request completes at
                // its own modelled latency.
                let mut busy_until = start_ns;
                for (ticket, (reply, latency)) in tickets.zip(replies) {
                    let completed_ns = start_ns + latency.as_nanos();
                    busy_until = busy_until.max(completed_ns);
                    self.completions.push(PipelineCompletion {
                        request_id: ticket.request_id,
                        submitted_ns: ticket.submitted_ns,
                        dispatched_ns,
                        completed_ns,
                        batch_size,
                        reply: Ok(reply),
                    });
                }
                self.device_free_ns = busy_until;
            }
            Err(error) => {
                // The whole batch surfaces the executor's error; no
                // modelled time elapses for work the backend rejected.
                for ticket in tickets {
                    self.completions.push(PipelineCompletion {
                        request_id: ticket.request_id,
                        submitted_ns: ticket.submitted_ns,
                        dispatched_ns,
                        completed_ns: start_ns,
                        batch_size,
                        reply: Err(error.clone()),
                    });
                }
            }
        }
    }

    /// Dispatch the whole mutation lane, sequentially in arrival order
    /// (mutations serialize on the backend's program path).
    fn dispatch_mutations(&mut self) {
        let dispatched_ns = self.clock_ns;
        for (ticket, mutation) in std::mem::take(&mut self.mutations) {
            self.backend.telemetry().observe(
                HistogramId::PipelineQueueWaitNs,
                dispatched_ns.saturating_sub(ticket.submitted_ns),
            );
            let start_ns = dispatched_ns.max(self.device_free_ns);
            let (completed_ns, reply) = match self.backend.execute_mutation(self.target, mutation) {
                Ok((reply, latency)) => {
                    let done = start_ns + latency.as_nanos();
                    self.device_free_ns = done;
                    (done, Ok(reply))
                }
                Err(error) => (start_ns, Err(error)),
            };
            self.completions.push(PipelineCompletion {
                request_id: ticket.request_id,
                submitted_ns: ticket.submitted_ns,
                dispatched_ns,
                completed_ns,
                batch_size: 1,
                reply,
            });
        }
    }
}
