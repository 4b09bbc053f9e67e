//! Pinned accounting of the query's Input Broadcast (Sec. 4.3.2).
//!
//! One search broadcasts the query into every die of the device. Its
//! counters and modelled latency feed the energy and latency models, so
//! they are pinned here to literal values: a change to how the simulator
//! performs the broadcast must not move what the broadcast is charged.
//! Every search path that broadcasts is checked — the single-query brute
//! force and IVF searches, the fused batch executor (which models the
//! broadcast without performing it) and the cluster leaf query — with
//! Multi-Plane IBC on and off.

use reis_core::{Optimizations, ReisConfig, ReisSystem, VectorDatabase};
use reis_nand::{FlashStats, Nanos};

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

/// The broadcast's share of one search: its operation count, the bytes it
/// moved from the controller (a search programs nothing, so this is all of
/// `bytes_from_controller`) and its modelled latency.
fn broadcast_share(flash: &FlashStats, input_broadcast: Nanos) -> (u64, u64, Nanos) {
    (
        flash.broadcast_ops,
        flash.bytes_from_controller,
        input_broadcast,
    )
}

/// Run one query down every broadcasting search path on the tiny config
/// and return each path's broadcast share.
fn shares(multi_plane_ibc: bool) -> Vec<(&'static str, (u64, u64, Nanos))> {
    let config = ReisConfig::tiny().with_optimizations(Optimizations {
        multi_plane_ibc,
        ..Optimizations::all()
    });
    let all = vectors(96, 256);
    let query = all[37].clone();

    let mut system = ReisSystem::new(config);
    let flat = system
        .deploy(&VectorDatabase::flat(&all, documents(96)).unwrap())
        .unwrap();
    let search = system.search(flat, &query, 5).unwrap();
    let batch = system
        .search_batch(flat, &[query.clone(), all[90].clone()], 5, 2)
        .unwrap();
    let leaf = system.leaf_query(flat, &query, 5, None).unwrap();

    let mut system = ReisSystem::new(config);
    let ivf = system
        .deploy(&VectorDatabase::ivf(&all, documents(96), 4).unwrap())
        .unwrap();
    let ivf_search = system.ivf_search_with_nprobe(ivf, &query, 5, 2).unwrap();
    vec![
        (
            "search",
            broadcast_share(&search.flash_stats, search.latency.input_broadcast),
        ),
        (
            "ivf_search",
            broadcast_share(&ivf_search.flash_stats, ivf_search.latency.input_broadcast),
        ),
        (
            "fused batch",
            broadcast_share(&batch[0].flash_stats, batch[0].latency.input_broadcast),
        ),
        (
            "leaf_query",
            broadcast_share(&leaf.flash_stats, leaf.latency.input_broadcast),
        ),
    ]
}

/// The tiny geometry has 2 channels x 2 dies x 2 planes and the 256-d query
/// occupies a 32-byte embedding slot. With MPIBC each die takes the slot
/// once (4 x 32 B); without it once per plane (4 x 2 x 32 B), at twice the
/// die-I/O time. Dies on one channel receive the broadcast in turn.
#[test]
fn broadcast_accounting_is_pinned() {
    let geometry = ReisConfig::tiny().ssd.geometry;
    let dies = (geometry.channels * geometry.dies_per_channel) as u64;
    assert_eq!(dies, 4);
    for (mpibc, bytes, latency_ns) in [(true, 128, 1054), (false, 256, 2108)] {
        for (path, (ops, from_controller, latency)) in shares(mpibc) {
            let ctx = format!("{path}, MPIBC {mpibc}");
            assert_eq!(ops, dies, "broadcast_ops: {ctx}");
            assert_eq!(from_controller, bytes, "bytes_from_controller: {ctx}");
            assert_eq!(
                latency,
                Nanos::from_nanos(latency_ns),
                "latency.input_broadcast: {ctx}"
            );
        }
    }
}
