//! Scheduler identity: the persistent worker pool changes *when threads
//! exist*, never *what a query returns*.
//!
//! Every parallel execution path — sharded scan windows and fused page
//! chunks — runs on one long-lived work-stealing pool (`reis-sched`), and
//! the asynchronous request [`Pipeline`] sits in front of the batch
//! executor. Both are pure scheduling, so this suite proves the strongest
//! claim available: results, documents, modelled latency/activity and
//! transferred-entry accounting are bit-identical across `ScanParallelism`
//! × fused batch × pool sizes, and a pipeline-formed batch answers exactly
//! like a direct `search_batch` call.
//!
//! # The scheduler CI gate
//!
//! When `REIS_TEST_SUMMARY_DIR` is set, the property tests write one
//! summary file per test, one line per generated case. CI runs this suite
//! four times crossing `REIS_TEST_PARALLELISM={1,4}` (the forced auto-shard
//! budget) with `REIS_SCHED_WORKERS={1,4}` (the pool size) and diffs every
//! leg against the first: any accounting that depends on how many workers
//! the pool has — or on how many shards a scan split into — fails the gate.
//! The pipeline property makes the diff sensitive to formation order
//! because its summary records virtual completion times, which would shift
//! if pool size leaked into batch formation. The cluster pipeline property
//! records the same schedule for the cluster front door.

use std::io::Write;

use proptest::prelude::*;

use reis_cluster::{ClusterPipelineReply, ClusterSystem};
use reis_core::{
    AdaptiveFiltering, CompactionPolicy, LanePriority, PipelineConfig, PipelineReply,
    PipelineRequest, ReisConfig, ReisError, ReisSystem, ScanParallelism, SearchOutcome,
    VectorDatabase,
};
use reis_workloads::{ArrivalEvent, ArrivalTrace};

fn vectors(n: usize, dim: usize, salt: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| (((i * 23 + d * 11 + salt * 5) % 29) as f32 - 14.0) / 6.0)
                .collect()
        })
        .collect()
}

fn documents(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("doc {i}").into_bytes()).collect()
}

/// Full-outcome equality modulo the raw error-injection counter (the same
/// exemption the adaptive/fused suites document: the device RNG's position
/// depends on TLC read history, not on who executed the shard).
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

/// Append one summary line to `<REIS_TEST_SUMMARY_DIR>/<test>.txt` (no-op
/// when the variable is unset); first write truncates, so reruns diff
/// cleanly. Same contract as the determinism-gate suites.
fn record_summary(test: &str, line: &str) {
    let Some(dir) = std::env::var_os("REIS_TEST_SUMMARY_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("summary dir");
    let path = dir.join(format!("{test}.txt"));
    thread_local! {
        static STARTED: std::cell::RefCell<std::collections::HashSet<String>> =
            std::cell::RefCell::new(std::collections::HashSet::new());
    }
    let fresh = STARTED.with(|s| s.borrow_mut().insert(test.to_string()));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(!fresh)
        .truncate(fresh)
        .open(&path)
        .expect("summary file");
    writeln!(file, "{line}").expect("summary write");
}

/// The first `num_requests` arrivals of a seeded Poisson trace, the
/// horizon deterministically doubled on the rare short draw.
fn poisson_arrivals(
    offered_qps: u64,
    num_requests: usize,
    num_queries: usize,
    seed: u64,
) -> Vec<ArrivalEvent> {
    let mut duration_us = ((num_requests as f64 / offered_qps as f64) * 2e6).ceil() as u64 + 1_000;
    let mut trace = ArrivalTrace::poisson(offered_qps as f64, duration_us, num_queries, seed);
    while trace.len() < num_requests {
        duration_us *= 2;
        trace = ArrivalTrace::poisson(offered_qps as f64, duration_us, num_queries, seed);
    }
    trace.events()[..num_requests].to_vec()
}

/// The forced auto-shard budget of the gate (`REIS_TEST_PARALLELISM`), or
/// `fallback` when unset — the same lever the adaptive gate uses to make
/// different legs partition every scan differently.
fn forced_budget(fallback: usize) -> usize {
    std::env::var("REIS_TEST_PARALLELISM")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(fallback)
}

#[test]
fn worker_panic_is_isolated_and_the_system_stays_correct() {
    // A panicking pool task must surface as an error — not poison the pool
    // or abort the process — and the system must answer the next query
    // exactly like a fresh one.
    let all = vectors(96, 64, 6);
    let db = VectorDatabase::flat(&all, documents(96)).unwrap();
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let id = system.deploy(&db).unwrap();

    let panic = system
        .scheduler()
        .scope(|scope| {
            scope.spawn(|_ctx| panic!("deliberate task failure"));
        })
        .expect_err("the panic must surface");
    assert!(
        panic.message.contains("deliberate task failure"),
        "panic payload lost: {}",
        panic.message
    );

    // The pool survives: queries on the same system still match a system
    // whose pool never saw a panic.
    let mut fresh = ReisSystem::new(ReisConfig::tiny());
    let fresh_id = fresh.deploy(&db).unwrap();
    for q in 0..3 {
        let a = system.search(id, &all[q * 29], 5).unwrap();
        let b = fresh.search(fresh_id, &all[q * 29], 5).unwrap();
        assert_outcome_eq(&a, &b, &format!("after panic, query {q}"));
    }
}

#[test]
fn pipeline_backpressure_sheds_then_recovers() {
    // Past `queue_depth` queued searches, submit sheds with
    // `ReisError::Overloaded` and queues nothing; once the lane drains, the
    // pipeline accepts again and every accepted request completes.
    let all = vectors(96, 64, 8);
    let db = VectorDatabase::flat(&all, documents(96)).unwrap();
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let id = system.deploy(&db).unwrap();

    let config = PipelineConfig::default()
        .with_max_batch(16)
        .with_max_wait_us(100)
        .with_queue_depth(4);
    let mut pipeline = system.pipeline(id, config);
    let mut accepted = 0usize;
    for i in 0..6 {
        let submitted = pipeline.submit(
            10,
            PipelineRequest::Search {
                query: all[i * 7].clone(),
                k: 3,
            },
        );
        if i < 4 {
            submitted.expect("under the bound");
            accepted += 1;
        } else {
            match submitted {
                Err(ReisError::Overloaded { depth }) => assert_eq!(depth, 4),
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
    }
    assert_eq!(pipeline.shed(), 2);
    assert_eq!(pipeline.queued(), 4);

    // Advancing past the formation deadline drains the lane...
    pipeline.run_until(1_000_000);
    assert_eq!(pipeline.queued(), 0);
    // ...after which the same submission succeeds.
    pipeline
        .submit(
            1_000_010,
            PipelineRequest::Search {
                query: all[3].clone(),
                k: 3,
            },
        )
        .expect("drained lane accepts again");
    accepted += 1;
    pipeline.flush();
    let completions = pipeline.drain_completions();
    assert_eq!(completions.len(), accepted);
    for completion in &completions {
        let reply = completion.reply.as_ref().expect("healthy system");
        assert!(matches!(reply, PipelineReply::Search(_)));
        assert!(completion.completed_ns >= completion.dispatched_ns);
        assert!(completion.dispatched_ns >= completion.submitted_ns);
    }
    assert_eq!(pipeline.shed(), 2, "recovery must not re-count old sheds");
}

#[test]
fn pipeline_mutations_first_gives_read_your_writes() {
    // Under MutationsFirst, a search batch never dispatches while an
    // earlier-arriving insert is queued: the search must see the insert.
    let all = vectors(64, 64, 10);
    let db = VectorDatabase::flat(&all, documents(64)).unwrap();
    let mut system = ReisSystem::new(ReisConfig::tiny());
    let id = system.deploy(&db).unwrap();

    // A probe vector far from the corpus, then a search for exactly it.
    let probe: Vec<f32> = (0..64)
        .map(|d| if d % 2 == 0 { 9.0 } else { -9.0 })
        .collect();
    let mut pipeline = system.pipeline(
        id,
        PipelineConfig::default().with_priority(LanePriority::MutationsFirst),
    );
    pipeline
        .submit(
            5,
            PipelineRequest::Insert {
                vector: probe.clone(),
                document: b"the new arrival".to_vec(),
            },
        )
        .unwrap();
    pipeline
        .submit(
            6,
            PipelineRequest::Search {
                query: probe.clone(),
                k: 1,
            },
        )
        .unwrap();
    pipeline.flush();
    let completions = pipeline.drain_completions();
    assert_eq!(completions.len(), 2);
    let Ok(PipelineReply::Search(outcome)) = &completions[1].reply else {
        panic!("second completion must be the search");
    };
    assert_eq!(
        outcome.documents[0], b"the new arrival",
        "the search dispatched before the mutation it arrived after"
    );
}

/// Build the pooled parallelism legs the identity property compares. Both
/// legs must agree with each other — and with themselves across the gate's
/// `REIS_SCHED_WORKERS` pool sizes.
fn scheduler_mode_configs(base: ReisConfig, shards: usize) -> Vec<(&'static str, ReisConfig)> {
    vec![
        (
            "pooled/pinned-sequential",
            base.with_scan_parallelism(ScanParallelism::pinned_sequential()),
        ),
        (
            "pooled/sharded",
            base.with_scan_parallelism(
                ScanParallelism::sharded(forced_budget(shards)).with_min_pages_per_shard(1),
            ),
        ),
    ]
}

proptest! {
    /// Searches on the pool are bit-identical across pinned-sequential and
    /// sharded `ScanParallelism`, and the pooled fused batch is per-query
    /// bit-identical to them, over random database shapes and mutation
    /// traces. The transferred-entry and sense accounting lands in the
    /// scheduler-gate summary, so CI additionally diffs it across forced
    /// shard budgets *and* pool sizes.
    #[test]
    fn executor_identity_across_pool_spawn_and_fusion(
        entries in 24usize..72,
        dim_words in 1usize..3,
        window in 1usize..7,
        shards in 2usize..5,
        mutations in 0usize..6,
        seed in 0usize..1_000,
    ) {
        let dim = dim_words * 32;
        let base = ReisConfig::tiny()
            .with_adaptive_scope(AdaptiveFiltering::All)
            .with_adaptive_window(window)
            .with_compaction(CompactionPolicy::manual());
        let all = vectors(entries, dim, seed);
        let nlist = (entries / 6).clamp(1, 4);
        let db = VectorDatabase::ivf(&all, documents(entries), nlist).expect("database");
        let queries: Vec<Vec<f32>> =
            (0..3).map(|q| all[(seed + q * 17) % entries].clone()).collect();
        let nprobe = nlist.min(2);

        // Replayed verbatim on every fresh system so all legs search the
        // identical index state.
        let mutate = |system: &mut ReisSystem, id: u32| {
            for m in 0..mutations {
                let x = (seed * 29 + m * 11) % 10;
                let vector: Vec<f32> = (0..dim)
                    .map(|d| (((m * 17 + d * 3 + seed) % 23) as f32 - 11.0) / 5.0)
                    .collect();
                if x < 5 {
                    system
                        .insert(id, &vector, format!("ins {m}").into_bytes())
                        .expect("insert");
                } else if x < 7 {
                    let _ = system.delete(id, ((seed + m * 3) % entries) as u32);
                } else {
                    let _ = system.upsert(
                        id,
                        ((seed + m * 5) % entries) as u32,
                        &vector,
                        format!("ups {m}").as_bytes(),
                    );
                }
            }
        };

        let mut per_leg: Vec<(&str, Vec<SearchOutcome>)> = Vec::new();
        for (name, config) in scheduler_mode_configs(base, shards) {
            let mut system = ReisSystem::new(config);
            let id = system.deploy(&db).expect("deploy");
            mutate(&mut system, id);
            let mut outcomes: Vec<SearchOutcome> = Vec::new();
            for q in &queries {
                outcomes.push(system.search(id, q, 1).expect("bf search"));
            }
            for q in &queries {
                outcomes.push(
                    system
                        .ivf_search_with_nprobe(id, q, 1, nprobe)
                        .expect("ivf search"),
                );
            }
            per_leg.push((name, outcomes));
        }
        let (ref_name, reference) = &per_leg[0];
        for (name, got) in &per_leg[1..] {
            for (i, (a, b)) in reference.iter().zip(got).enumerate() {
                assert_outcome_eq(a, b, &format!("{ref_name} vs {name}, query {i}"));
            }
        }

        // The pooled fused batch must be per-query bit-identical to the
        // sequential reference.
        let mut system = ReisSystem::new(base);
        let id = system.deploy(&db).expect("batch deploy");
        mutate(&mut system, id);
        let before = *system.controller().device().stats();
        let bf = system
            .search_batch(id, &queries, 1, shards)
            .expect("bf batch");
        let fused_senses = system
            .controller()
            .device()
            .stats()
            .delta_since(&before)
            .page_reads;
        let ivf = system
            .ivf_search_batch_with_nprobe(id, &queries, 1, nprobe, shards)
            .expect("ivf batch");
        for (i, (b, s)) in bf.iter().chain(&ivf).zip(reference).enumerate() {
            assert_outcome_eq(b, s, &format!("pooled-fused batch vs sequential, query {i}"));
        }

        // Gate summary: identical regardless of shard budget or pool size —
        // that is precisely the scheduler-invariance claim.
        let entries_line: Vec<String> = reference
            .iter()
            .map(|o| format!("{}/{}", o.activity.fine_entries, o.activity.fine_windows))
            .collect();
        record_summary(
            "executor_identity_across_pool_spawn_and_fusion",
            &format!(
                "case window={window} shards={shards} entries={} mutations={mutations} \
                 per_query={} fused_senses={fused_senses}",
                entries,
                entries_line.join(","),
            ),
        );
    }

    /// A pipeline-formed batch answers exactly like a direct
    /// `search_batch` call, and the whole pipeline — completion ids,
    /// virtual times, batch sizes, shed counts — is deterministic for a
    /// seeded arrival trace. The summary records the completion schedule,
    /// so the gate diff would catch pool size leaking into formation.
    #[test]
    fn pipeline_matches_direct_batch_and_is_deterministic(
        entries in 24usize..64,
        dim_words in 1usize..3,
        num_requests in 4usize..24,
        max_batch in 1usize..9,
        max_wait_us in 10u64..400,
        offered_qps in 20_000u64..400_000,
        seed in 0u64..1_000,
    ) {
        let dim = dim_words * 32;
        let all = vectors(entries, dim, seed as usize);
        let db = VectorDatabase::flat(&all, documents(entries)).expect("database");
        let arrivals = poisson_arrivals(offered_qps, num_requests, entries, seed);
        let config = PipelineConfig::default()
            .with_max_batch(max_batch)
            .with_max_wait_us(max_wait_us);

        let run = || {
            let mut system = ReisSystem::new(ReisConfig::tiny());
            let id = system.deploy(&db).expect("deploy");
            let mut pipeline = system.pipeline(id, config);
            for event in &arrivals {
                pipeline
                    .submit(
                        event.at_ns,
                        PipelineRequest::Search {
                            query: all[event.query_index].clone(),
                            k: 3,
                        },
                    )
                    .expect("default queue depth exceeds the request count");
            }
            pipeline.flush();
            let shed = pipeline.shed();
            (pipeline.drain_completions(), shed)
        };
        let (completions, shed) = run();
        let (replay, replay_shed) = run();
        prop_assert_eq!(&completions, &replay, "pipeline must be trace-deterministic");
        prop_assert_eq!(shed, replay_shed);
        prop_assert_eq!(completions.len(), arrivals.len());

        // Per-request answers equal a direct batch call on a fresh system,
        // in completion order (fused batches are per-query bit-identical
        // to sequential execution, so formation boundaries cannot matter).
        let mut direct_system = ReisSystem::new(ReisConfig::tiny());
        let direct_id = direct_system.deploy(&db).expect("direct deploy");
        let ordered: Vec<Vec<f32>> = completions
            .iter()
            .map(|c| all[arrivals[c.request_id as usize].query_index].clone())
            .collect();
        let direct = direct_system
            .search_batch(direct_id, &ordered, 3, 4)
            .expect("direct batch");
        for (i, (completion, want)) in completions.iter().zip(&direct).enumerate() {
            let Ok(PipelineReply::Search(got)) = &completion.reply else {
                panic!("search completion {i} errored: {:?}", completion.reply);
            };
            assert_outcome_eq(got, want, &format!("pipeline vs direct, request {i}"));
        }

        // Gate summary: the full virtual completion schedule.
        let schedule: Vec<String> = completions
            .iter()
            .map(|c| {
                format!(
                    "{}@{}:{}:{}x{}",
                    c.request_id, c.submitted_ns, c.dispatched_ns, c.completed_ns, c.batch_size
                )
            })
            .collect();
        record_summary(
            "pipeline_matches_direct_batch_and_is_deterministic",
            &format!(
                "case requests={} max_batch={max_batch} wait_us={max_wait_us} shed={shed} \
                 schedule={}",
                arrivals.len(),
                schedule.join(","),
            ),
        );
    }

    /// The cluster front door is the device front door over another
    /// backend. A seeded trace of searches (two `k` values, so incompatible
    /// searches close a forming batch) interleaved with inserts, deletes
    /// and upserts on live ids, served through `ClusterSystem::pipeline` on
    /// a 2-shard, 2-way replicated cluster:
    ///
    /// * replays to equal completions;
    /// * answers every request exactly like the same operation applied
    ///   directly to a twin cluster in completion order;
    /// * forms the same batches at the same virtual times as
    ///   `ReisSystem::pipeline` fed the same trace on the union corpus,
    ///   because formation never looks at the backend;
    /// * completes an insert at its start time: a cluster insert reports
    ///   no modelled latency.
    #[test]
    fn cluster_pipeline_matches_direct_cluster_and_device_schedule(
        entries in 16usize..40,
        num_requests in 6usize..24,
        max_batch in 1usize..6,
        max_wait_us in 10u64..400,
        offered_qps in 20_000u64..400_000,
        searches_first in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let dim = 64;
        let all = vectors(entries, dim, seed as usize);
        let docs = documents(entries);
        let arrivals = poisson_arrivals(offered_qps, num_requests, entries, seed);

        // Mutations execute in arrival order among themselves whatever the
        // lane priority, so tracking live ids at submission keeps every
        // delete and upsert on an id that is live when it runs.
        let mut live: Vec<u32> = (0..entries as u32).collect();
        let mut next_id = entries as u32;
        let requests: Vec<PipelineRequest> = arrivals
            .iter()
            .enumerate()
            .map(|(i, event)| {
                let pick = (event.query_index + i * 7 + seed as usize) % 10;
                let fresh = vectors(1, dim, seed as usize + 31 * i + 1).remove(0);
                match pick {
                    0..=5 => PipelineRequest::Search {
                        query: all[event.query_index].clone(),
                        k: if pick < 4 { 3 } else { 5 },
                    },
                    6 => {
                        live.push(next_id);
                        next_id += 1;
                        PipelineRequest::Insert {
                            vector: fresh,
                            document: format!("ins {i}").into_bytes(),
                        }
                    }
                    7 if live.len() > 8 => PipelineRequest::Delete {
                        id: live.swap_remove(event.query_index % live.len()),
                    },
                    _ => PipelineRequest::Upsert {
                        id: live[event.query_index % live.len()],
                        vector: fresh,
                        document: format!("ups {i}").into_bytes(),
                    },
                }
            })
            .collect();
        let priority = if searches_first == 1 {
            LanePriority::SearchesFirst
        } else {
            LanePriority::MutationsFirst
        };
        let config = PipelineConfig::default()
            .with_max_batch(max_batch)
            .with_max_wait_us(max_wait_us)
            .with_priority(priority);

        let fresh_cluster = || {
            let mut cluster =
                ClusterSystem::new_replicated(ReisConfig::tiny(), 2, 2).expect("cluster");
            cluster.deploy_flat(&all, &docs).expect("deploy");
            cluster
        };
        let run = || {
            let mut cluster = fresh_cluster();
            let mut pipeline = cluster.pipeline(config);
            for (event, request) in arrivals.iter().zip(&requests) {
                pipeline
                    .submit(event.at_ns, request.clone())
                    .expect("default queue depth exceeds the request count");
            }
            pipeline.flush();
            assert_eq!(pipeline.shed(), 0);
            pipeline.drain_completions()
        };
        let completions = run();
        prop_assert_eq!(&completions, &run(), "cluster pipeline must be trace-deterministic");
        prop_assert_eq!(completions.len(), requests.len());

        // Every reply equals the same operation on a twin cluster, applied
        // in completion order.
        let mut twin = fresh_cluster();
        for completion in &completions {
            let want = match requests[completion.request_id as usize].clone() {
                PipelineRequest::Search { query, k } => {
                    twin.search(&query, k).map(ClusterPipelineReply::Search)
                }
                PipelineRequest::Insert { vector, document } => {
                    twin.insert(&vector, document).map(ClusterPipelineReply::Inserted)
                }
                PipelineRequest::Delete { id } => {
                    twin.delete(id).map(ClusterPipelineReply::Mutation)
                }
                PipelineRequest::Upsert { id, vector, document } => twin
                    .upsert(id, &vector, &document)
                    .map(ClusterPipelineReply::Mutation),
                other => panic!("the trace holds no {other:?}"),
            };
            prop_assert!(want.is_ok(), "request {} failed: {:?}", completion.request_id, want);
            prop_assert_eq!(&completion.reply, &want, "request {}", completion.request_id);
        }

        // Formation is the device pipeline's: the same trace on one device
        // holding the union corpus dispatches the same batches at the same
        // virtual times.
        let mut device = ReisSystem::new(ReisConfig::tiny());
        let db = VectorDatabase::flat(&all, docs.clone()).expect("database");
        let device_db = device.deploy(&db).expect("device deploy");
        let mut device_pipeline = device.pipeline(device_db, config);
        for (event, request) in arrivals.iter().zip(&requests) {
            device_pipeline
                .submit(event.at_ns, request.clone())
                .expect("default queue depth exceeds the request count");
        }
        device_pipeline.flush();
        let cluster_formation: Vec<_> = completions
            .iter()
            .map(|c| (c.request_id, c.submitted_ns, c.dispatched_ns, c.batch_size))
            .collect();
        let device_formation: Vec<_> = device_pipeline
            .drain_completions()
            .iter()
            .map(|c| (c.request_id, c.submitted_ns, c.dispatched_ns, c.batch_size))
            .collect();
        prop_assert_eq!(cluster_formation, device_formation);

        // A request starts when its dispatch and every earlier completion
        // are behind it; an insert completes right there.
        let mut horizon = 0u64;
        let mut schedule: Vec<String> = Vec::with_capacity(completions.len());
        for c in &completions {
            let kind = match &c.reply {
                Ok(ClusterPipelineReply::Search(_)) => 's',
                Ok(ClusterPipelineReply::Inserted(_)) => {
                    prop_assert_eq!(c.completed_ns, c.dispatched_ns.max(horizon));
                    'i'
                }
                Ok(ClusterPipelineReply::Mutation(_)) => 'm',
                Err(_) => 'e',
            };
            horizon = horizon.max(c.completed_ns);
            schedule.push(format!(
                "{}{kind}@{}:{}:{}x{}",
                c.request_id, c.submitted_ns, c.dispatched_ns, c.completed_ns, c.batch_size
            ));
        }

        // Gate summary: the cluster's full virtual completion schedule.
        record_summary(
            "cluster_pipeline_matches_direct_cluster_and_device_schedule",
            &format!(
                "case entries={entries} requests={} max_batch={max_batch} wait_us={max_wait_us} \
                 priority={priority:?} schedule={}",
                completions.len(),
                schedule.join(","),
            ),
        );
    }
}
