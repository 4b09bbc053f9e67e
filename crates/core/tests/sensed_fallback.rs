//! Pinned results and flash accounting of searches whose embedding reads
//! are, or are not, error-free.
//!
//! The engine scores a page straight from its stored bytes only when the
//! embedding regions read error-free (the ESP-SLC default). With error-prone
//! embedding reads — every region in TLC, as a conventional SSD would store
//! it — each page must instead be sensed into its plane's latches, so the
//! injected bit errors reach the distances. Both paths are pinned here to
//! literal result ids and flash counters, for the single brute-force search,
//! the single IVF search and a batch search: a change to how a page is
//! scored must not move what a query returns or what it is charged. With
//! error-prone reads a batch runs its queries one after another on the one
//! device, so it must also equal the same searches issued one at a time.

use reis_core::{ReisConfig, ReisSystem, SearchOutcome, VectorDatabase};
use reis_ssd::HybridPolicy;

fn vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| (((i * 13 + d * 7) % 31) as f32 - 15.0) / 7.0)
                .collect()
        })
        .collect()
}

fn documents(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("doc {i}").into_bytes()).collect()
}

/// The pinned view of one outcome: result ids, then `page_reads`,
/// `xor_ops`, `bit_count_ops`, `pass_fail_ops`, `bytes_to_controller` and
/// `injected_bit_errors` of its flash counters.
type Pinned = (Vec<usize>, [u64; 6]);

fn pinned(outcome: &SearchOutcome) -> Pinned {
    let flash = &outcome.flash_stats;
    (
        outcome.result_ids(),
        [
            flash.page_reads,
            flash.xor_ops,
            flash.bit_count_ops,
            flash.pass_fail_ops,
            flash.bytes_to_controller,
            flash.injected_bit_errors,
        ],
    )
}

/// Deploy a flat and an IVF database on a fresh system and run one
/// brute-force and one IVF search. Returns the system, the flat database
/// id, the corpus and the two outcomes.
fn prefix(config: ReisConfig) -> (ReisSystem, u32, Vec<Vec<f32>>, [SearchOutcome; 2]) {
    let all = vectors(96, 256);
    let mut system = ReisSystem::new(config);
    let flat = system
        .deploy(&VectorDatabase::flat(&all, documents(96)).unwrap())
        .unwrap();
    let ivf = system
        .deploy(&VectorDatabase::ivf(&all, documents(96), 4).unwrap())
        .unwrap();
    let search = system.search(flat, &all[37], 5).unwrap();
    let ivf_search = system.ivf_search_with_nprobe(ivf, &all[37], 5, 2).unwrap();
    (system, flat, all, [search, ivf_search])
}

/// The two queries of the batch search.
const BATCH: [usize; 2] = [37, 90];

/// Run a brute-force search, an IVF search and a two-query batch search on
/// one system, in that order, and return each outcome's pinned view.
fn run(config: ReisConfig) -> Vec<(&'static str, Pinned)> {
    let (mut system, flat, all, [search, ivf_search]) = prefix(config);
    let batch = system
        .search_batch(flat, &BATCH.map(|q| all[q].clone()), 5, 2)
        .unwrap();
    vec![
        ("search", pinned(&search)),
        ("ivf_search", pinned(&ivf_search)),
        ("batch[0]", pinned(&batch[0])),
        ("batch[1]", pinned(&batch[1])),
    ]
}

fn expect(got: Vec<(&'static str, Pinned)>, want: &[(&str, Pinned)]) {
    assert_eq!(got.len(), want.len());
    for ((path, got), (want_path, want)) in got.iter().zip(want) {
        assert_eq!(path, want_path);
        assert_eq!(got, want, "{path}");
    }
}

#[test]
fn error_free_embedding_reads_are_pinned() {
    let config = ReisConfig::tiny();
    expect(
        run(config),
        &[
            (
                "search",
                (vec![6, 37, 68, 25, 56], [15, 4, 4, 4, 49942, 37]),
            ),
            (
                "ivf_search",
                (vec![6, 37, 68, 25, 56], [11, 3, 3, 3, 36661, 27]),
            ),
            (
                "batch[0]",
                (vec![6, 37, 68, 25, 56], [15, 4, 4, 4, 49942, 35]),
            ),
            (
                "batch[1]",
                (vec![28, 59, 90, 16, 47], [15, 4, 4, 4, 49942, 37]),
            ),
        ],
    );
}

#[test]
fn error_prone_embedding_reads_sense_through_the_latches() {
    let mut config = ReisConfig::tiny();
    config.ssd.hybrid = HybridPolicy::all_tlc();
    expect(
        run(config),
        &[
            (
                "search",
                (vec![6, 37, 68, 25, 56], [15, 4, 4, 4, 49942, 50]),
            ),
            (
                "ivf_search",
                (vec![6, 37, 68, 25, 56], [11, 3, 3, 3, 36661, 37]),
            ),
            (
                "batch[0]",
                (vec![6, 37, 68, 25, 56], [15, 4, 4, 4, 49942, 49]),
            ),
            (
                "batch[1]",
                (vec![28, 59, 90, 16, 47], [15, 4, 4, 4, 49942, 50]),
            ),
        ],
    );
}

#[test]
fn error_prone_batch_equals_sequential_searches() {
    // Error-prone reads run a batch query by query on the one device, so
    // after the same prefix a batch and the same searches issued one at a
    // time draw the same error stream and agree field for field.
    let mut config = ReisConfig::tiny();
    config.ssd.hybrid = HybridPolicy::all_tlc();
    let (mut batched, flat, all, _) = prefix(config);
    let batch = batched
        .search_batch(flat, &BATCH.map(|q| all[q].clone()), 5, 2)
        .unwrap();
    let (mut twin, twin_flat, _, _) = prefix(config);
    let sequential: Vec<SearchOutcome> = BATCH
        .iter()
        .map(|&q| twin.search(twin_flat, &all[q], 5).unwrap())
        .collect();
    assert_eq!(batch, sequential);
    assert_eq!(
        batched.controller().device().stats(),
        twin.controller().device().stats()
    );
}
