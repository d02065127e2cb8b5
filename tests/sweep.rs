//! Parallel-sweep equivalence on realistic substrates.
//!
//! The unit and property tests in `crates/cpm` prove the pooled
//! pipeline bit-identical to the sequential one on random edge soups;
//! here the oracle is the seeded `InternetModel` — power-law degrees,
//! dense IXP cores, deep overlap strata — and the assertion is full
//! bit-identity of the `CpmResult` (community tree parents included)
//! across kernels and thread counts, plus the streaming sweep's
//! indifference to its (ignored) thread argument.

use kclique::cliques::Kernel;
use kclique::cpm;
use kclique::exec::Threads;
use kclique::stream::{self, GraphSource};
use kclique::topology::{generate, ModelConfig};

fn internet_graph(seed: u64) -> kclique::graph::Graph {
    generate(&ModelConfig::tiny(seed))
        .expect("preset config is valid")
        .graph
}

fn assert_same_result(a: &cpm::CpmResult, b: &cpm::CpmResult, what: &str) {
    assert_eq!(a.cliques, b.cliques, "{what}: cliques differ");
    assert_eq!(a.levels, b.levels, "{what}: levels differ");
}

#[test]
fn parallel_matches_sequential_on_internet_model() {
    for seed in [7, 23] {
        let g = internet_graph(seed);
        let seq = cpm::percolate(&g);
        let par = cpm::parallel::percolate_parallel(&g, Threads::Auto);
        assert_same_result(&seq, &par, &format!("seed {seed}"));
        assert!(
            seq.k_max().unwrap_or(0) >= 3,
            "seed {seed}: fixture too sparse to exercise the strata"
        );
    }
}

#[test]
fn pooled_sweep_is_thread_count_invariant() {
    // The concurrent union–find races freely inside each stratum; the
    // result must not depend on how many workers raced, and must equal
    // the sequential sweep bit for bit.
    let g = internet_graph(3);
    let reference = cpm::percolate(&g);
    for kernel in [Kernel::Auto, Kernel::Bitset, Kernel::Merge] {
        for threads in [1, 2, 4, 7] {
            let par = cpm::parallel::percolate_parallel_with_kernel(&g, threads, kernel);
            assert_same_result(
                &reference,
                &par,
                &format!("threads {threads}, kernel {kernel}"),
            );
        }
    }
}

#[test]
fn strata_match_flat_edges_on_internet_model() {
    let g = internet_graph(11);
    let cliques = {
        let mut c = kclique::cliques::max_cliques(&g);
        c.canonicalize();
        c
    };
    let index = cpm::build_vertex_index(&cliques, g.node_count());
    let flat = cpm::overlap_edges(&cliques, &index);
    for threads in [1, 4] {
        let strata = cpm::parallel::overlap_strata_parallel(&cliques, &index, threads);
        assert_eq!(strata.edge_count(), flat.len(), "threads {threads}");
        for o in 1..strata.max_size() {
            let expect: Vec<(u32, u32)> = flat
                .iter()
                .filter(|e| e.overlap as usize == o)
                .map(|e| (e.a, e.b))
                .collect();
            assert_eq!(
                strata.stratum(o),
                expect.as_slice(),
                "threads {threads}, stratum {o}"
            );
        }
    }
}

/// The streaming sweep runs off the pool; its `threads` argument must
/// not change a single level.
#[test]
fn streaming_waves_are_thread_count_invariant() {
    let g = internet_graph(5);
    let seq = stream::stream_percolate_parallel(&mut GraphSource::new(&g), 1)
        .expect("in-memory replay cannot fail");
    for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
        let par = stream::stream_percolate_parallel(&mut GraphSource::new(&g), threads)
            .expect("in-memory replay cannot fail");
        assert_eq!(seq.levels, par.levels, "{threads} threads");
    }
    assert!(seq.k_max().unwrap_or(0) >= 3, "fixture too sparse");
}
