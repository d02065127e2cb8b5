//! Fused-pipeline invariance: the sink-driven percolator must be
//! bit-identical to itself at every worker count, agree with the staged
//! pipeline on every cover, and — like `tests/cancel.rs` — leave the
//! shared worker pool fully reusable and the run resumable after a
//! cancellation mid-enumeration.

use cliques::Kernel;
use cpm::Mode;
use exec::{CancelToken, Pool};
use proptest::prelude::*;

fn random_graph(n: u32, p: f64, seed: u64) -> asgraph::Graph {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = asgraph::GraphBuilder::with_nodes(n as usize);
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
const MAX_WORKERS: usize = 7;

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

/// Canonically sorted member lists per level — the order-independent
/// view shared by the fused and staged pipelines.
fn covers(levels: &[cpm::KLevel]) -> Vec<(u32, Vec<Vec<asgraph::NodeId>>)> {
    levels
        .iter()
        .map(|l| {
            let mut ms: Vec<_> = l.communities.iter().map(|c| c.members.clone()).collect();
            ms.sort_unstable();
            (l.k, ms)
        })
        .collect()
}

/// The parallel fused driver reassembles work-stolen chunks in order,
/// so the result is *strictly equal* — ordinals, parents, everything —
/// to the sequential run at 1, 2, 4, and 7 workers, for both modes and
/// every kernel.
#[test]
fn fused_parallel_is_bit_identical_at_every_worker_count() {
    let g = random_graph(70, 0.12, 23);
    for mode in [Mode::Exact, Mode::Almost] {
        let sequential = cpm::percolate_fused(&g, mode);
        assert_eq!(
            covers(&sequential.levels),
            covers(&cpm::percolate_mode(&g, mode).levels),
            "{mode}: fused differs from staged"
        );
        for threads in [1usize, 2, 4, 7] {
            assert_eq!(
                sequential,
                cpm::percolate_fused_parallel(&g, threads, mode),
                "{mode} threads {threads}"
            );
            for kernel in [Kernel::Bitset, Kernel::Merge] {
                let token = CancelToken::new();
                let got = cpm::percolate_fused_cancellable(&g, threads, kernel, &token, mode)
                    .expect("live token never cancels");
                assert_eq!(sequential, got, "{mode} threads {threads} kernel {kernel}");
            }
        }
    }
}

/// A run cancelled mid-enumeration drains through the normal job
/// protocol: the pool spawns no replacement threads, and an immediate
/// retry with a live token produces the full, bit-identical answer —
/// the fused pipeline is resumable by rerunning, exactly like
/// `tests/cancel.rs` proves for the staged one.
#[test]
fn fused_cancellation_leaves_the_pool_reusable_and_the_run_resumable() {
    let _census = census_lock();
    let g = random_graph(60, 0.15, 47);
    let reference = cpm::percolate_fused(&g, Mode::Almost);

    // Warm the pool, then record its thread census.
    let warm = cpm::percolate_fused_parallel(&g, 4, Mode::Almost);
    assert_eq!(warm, reference);
    let spawned = Pool::global().spawned_threads();

    let tripped = CancelToken::new();
    tripped.cancel();
    for threads in [1usize, 2, 4] {
        for mode in [Mode::Exact, Mode::Almost] {
            assert!(
                cpm::percolate_fused_cancellable(&g, threads, Kernel::Auto, &tripped, mode)
                    .is_err(),
                "{mode} threads {threads}: tripped token must cancel"
            );
        }
        // Immediately after each cancelled run the pool must do full
        // correct work again, without spawning replacement threads.
        let again = cpm::percolate_fused_parallel(&g, threads, Mode::Almost);
        assert_eq!(again, reference, "threads {threads}");
        assert_eq!(
            Pool::global().spawned_threads(),
            spawned,
            "cancelled fused run leaked or killed pool threads"
        );
    }
}

/// `m` triangles sharing one common edge — every pair of the `m`
/// maximal cliques overlaps in exactly 2 vertices, so the k = 3 stratum
/// holds `m·(m−1)/2` pairs. `m = 150` gives 11 175, crossing the
/// parallel sweep's `PAR_UNION_MIN` (8 192) so the chunk-queue drain
/// path runs, not just the leader-inline one.
fn book_graph(m: u32) -> asgraph::Graph {
    let mut b = asgraph::GraphBuilder::with_nodes(m as usize + 2);
    for w in 2..m + 2 {
        b.add_edge(0, 1);
        b.add_edge(0, w);
        b.add_edge(1, w);
    }
    b.build()
}

/// Builds the percolator by the *sequential* sink so the engine state
/// is identical across runs; only the finish path under test varies.
fn consumed(g: &asgraph::Graph, mode: Mode) -> cpm::FusedPercolator {
    let mut p = cpm::FusedPercolator::new(g.node_count(), mode);
    cliques::consume_max_cliques(g, Kernel::Auto, &mut p);
    p
}

/// The finish-time phases (pair detection, sweep, extraction) on the
/// pool are strictly equal — ordinals, parents, members, everything —
/// to the sequential `finish()` at 1, 2, 4, and 7 workers, for both
/// modes, on a substrate whose k = 3 stratum crosses the parallel
/// sweep's chunk-queue threshold.
#[test]
fn parallel_finish_is_bit_identical_to_sequential_finish() {
    for g in [random_graph(70, 0.12, 23), book_graph(150)] {
        for mode in [Mode::Exact, Mode::Almost] {
            let sequential = consumed(&g, mode).finish();
            for threads in [1usize, 2, 4, 7] {
                assert_eq!(
                    sequential,
                    consumed(&g, mode).finish_parallel(threads),
                    "{mode} threads {threads}"
                );
                let token = CancelToken::new();
                let got = consumed(&g, mode)
                    .finish_cancellable(threads, &token)
                    .expect("live token never cancels");
                assert_eq!(sequential, got, "{mode} cancellable threads {threads}");
            }
        }
    }
}

/// A token tripped *between* enumeration and finish interrupts the
/// finish-time phases themselves: the pool spawns no replacement
/// threads, and re-consuming with a live token produces the full,
/// bit-identical answer.
#[test]
fn cancellation_mid_finish_leaves_the_pool_reusable() {
    let _census = census_lock();
    let g = book_graph(150);
    // Warm the pool, then record its thread census.
    let _ = cpm::percolate_fused_parallel(&g, 4, Mode::Almost);
    let spawned = Pool::global().spawned_threads();

    let tripped = CancelToken::new();
    tripped.cancel();
    for mode in [Mode::Exact, Mode::Almost] {
        let reference = consumed(&g, mode).finish();
        for threads in [1usize, 2, 4] {
            assert!(
                consumed(&g, mode)
                    .finish_cancellable(threads, &tripped)
                    .is_err(),
                "{mode} threads {threads}: tripped token must cancel the finish"
            );
            let again = consumed(&g, mode)
                .finish_cancellable(threads, &CancelToken::new())
                .expect("live token never cancels");
            assert_eq!(
                again, reference,
                "{mode} threads {threads}: retry after cancel"
            );
            assert_eq!(
                Pool::global().spawned_threads(),
                spawned,
                "cancelled finish leaked or killed pool threads"
            );
        }
    }
}

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

proptest! {
    /// Fused ≡ staged covers and per-k byte identity on random soups,
    /// both modes, with the parallel driver strictly equal to the
    /// sequential one at 1/2/4/7 workers.
    #[test]
    fn fused_equals_staged_across_workers(edges in edge_soup(14, 50)) {
        let g = asgraph::Graph::from_edges(14, edges);
        for mode in [Mode::Exact, Mode::Almost] {
            let fused = cpm::percolate_fused(&g, mode);
            let staged = cpm::percolate_mode(&g, mode);
            prop_assert_eq!(fused.clique_count, staged.cliques.len());
            prop_assert_eq!(covers(&fused.levels), covers(&staged.levels));
            for threads in [1usize, 2, 4, 7] {
                prop_assert_eq!(
                    &fused,
                    &cpm::percolate_fused_parallel(&g, threads, mode),
                    "mode {} threads {}", mode, threads
                );
            }
            for k in 2..=5usize {
                prop_assert_eq!(
                    cpm::percolate_at_fused(&g, k, mode),
                    cpm::percolate_at_mode(&g, k, mode),
                    "mode {} k {}", mode, k
                );
            }
        }
    }
}
