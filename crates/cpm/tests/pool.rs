//! Stress runs of the full parallel pipeline on the persistent pool.
//!
//! The DSU stress tests (`tests/dsu.rs`) hammer the union–find alone;
//! these hammer the whole pool-backed pipeline: many successive
//! percolations at shifting worker counts, all through the one global
//! `exec::Pool`, asserting bit-identity with the sequential result
//! every time and that the pool's thread set stops growing once the
//! largest worker count has been seen. Run under `--release`
//! (`cargo test --release -p cpm --test pool`) for the CI stress
//! target — more repeats race harder there.

use asgraph::{Graph, GraphBuilder};
use exec::{Pool, Threads};
use rand::prelude::*;
use rand::rngs::StdRng;

fn random_graph(n: u32, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_nodes(n as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// The largest explicit worker count any test in this binary requests.
const MAX_WORKERS: usize = 8;

/// Serialises this binary's pool-census tests, and grows the shared
/// pool to the largest worker count any test here can request (the
/// explicit counts, or `Threads::Auto` up to the machine) before a
/// census is read, so no test running beside it can spawn threads under
/// it.
fn census_lock() -> std::sync::MutexGuard<'static, ()> {
    static CENSUS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = CENSUS.lock().unwrap_or_else(|e| e.into_inner());
    Pool::global().run(MAX_WORKERS.max(exec::available_parallelism()), |_| {});
    guard
}

const REPEATS: usize = if cfg!(debug_assertions) { 3 } else { 16 };

#[test]
fn repeated_percolations_stay_bit_identical() {
    // Dense enough for multi-k strata, small enough to repeat often.
    let graphs: Vec<Graph> = (0..4).map(|s| random_graph(90, 0.25, s)).collect();
    let references: Vec<_> = graphs.iter().map(cpm::percolate).collect();
    for round in 0..REPEATS {
        for (g, reference) in graphs.iter().zip(&references) {
            // Shift the worker count every round so the pool grows,
            // shrinks its active set, and reuses parked threads.
            let threads = [1usize, 2, 4, 8, 3, 7][round % 6];
            let par = cpm::parallel::percolate_parallel(g, threads);
            assert_eq!(
                reference.cliques, par.cliques,
                "round {round}, {threads} workers"
            );
            assert_eq!(
                reference.levels, par.levels,
                "round {round}, {threads} workers"
            );
        }
    }
}

#[test]
fn pool_thread_set_stops_growing() {
    let _census = census_lock();
    let g = random_graph(120, 0.15, 99);
    let reference = cpm::percolate(&g);
    // Touch the largest worker count once...
    let par = cpm::parallel::percolate_parallel(&g, 8);
    assert_eq!(reference.levels, par.levels);
    let spawned = Pool::global().spawned_threads();
    // ...then no later call at any smaller or equal count may spawn.
    for round in 0..REPEATS {
        for threads in [2usize, 8, 5, 1] {
            let par = cpm::parallel::percolate_parallel(&g, threads);
            assert_eq!(reference.levels, par.levels, "round {round}");
        }
        assert_eq!(
            Pool::global().spawned_threads(),
            spawned,
            "round {round}: pool spawned new threads for an already-seen worker count"
        );
    }
}

#[test]
fn mixed_phases_share_one_pool() {
    // Interleave enumeration-only, strata-only, and full-pipeline jobs:
    // the phases must not corrupt each other's per-worker scratch.
    let g = random_graph(100, 0.2, 5);
    let mut cliques = cliques::max_cliques(&g);
    cliques.canonicalize();
    let index = cpm::build_vertex_index(&cliques, g.node_count());
    let flat_strata = cpm::overlap_strata(&cliques, &index);
    let reference = cpm::percolate(&g);
    for round in 0..REPEATS {
        let threads = [2usize, 4, 7][round % 3];
        let c = cliques::parallel::max_cliques_parallel(&g, threads);
        assert_eq!(c.len(), cliques.len(), "round {round}");
        let strata = cpm::parallel::overlap_strata_parallel(&cliques, &index, threads);
        assert_eq!(
            strata.edge_count(),
            flat_strata.edge_count(),
            "round {round}"
        );
        let par = cpm::parallel::percolate_parallel(&g, threads);
        assert_eq!(reference.levels, par.levels, "round {round}");
    }
}

#[test]
fn auto_threads_agree_with_sequential_above_and_below_the_grain() {
    for (n, p, seed) in [(20u32, 0.3, 1u64), (150, 0.12, 2), (60, 0.5, 3)] {
        let g = random_graph(n, p, seed);
        let seq = cpm::percolate(&g);
        let auto = cpm::parallel::percolate_parallel(&g, Threads::Auto);
        assert_eq!(seq.cliques, auto.cliques, "n={n}");
        assert_eq!(seq.levels, auto.levels, "n={n}");
    }
}
