//! The streaming engine against two oracles: the batch engine's covers
//! at every `k`, and the per-level `StreamPercolator` sweep the one-pass
//! nested union–find replaced (members, clique ids and parents, bit for
//! bit), on random graphs and on seeded synthetic Internets; plus
//! round-trip and refinement properties of the clique log and the
//! last-seen approximation.

use asgraph::{Graph, NodeId};
use cpm::KLevel;
use cpm_stream::{
    stream_percolate, stream_percolate_at, stream_percolate_parallel_mode, CliqueLogReader,
    CliqueLogWriter, CliqueSource, GraphSource, LogSource, Mode, StreamPercolator, Threads,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn edge_soup(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

/// Canonically sorted batch cover at level `k`.
fn batch_cover(result: &cpm::CpmResult, k: u32) -> Vec<Vec<NodeId>> {
    let mut cover: Vec<Vec<NodeId>> = result
        .level(k)
        .map(|l| l.communities.iter().map(|c| c.members.clone()).collect())
        .unwrap_or_default();
    cover.sort_unstable();
    cover
}

/// Canonically sorted streaming cover at level `k`.
fn stream_cover(result: &cpm_stream::StreamCpmResult, k: u32) -> Vec<Vec<NodeId>> {
    let mut cover: Vec<Vec<NodeId>> = result
        .level(k)
        .map(|l| l.communities.iter().map(|c| c.members.clone()).collect())
        .unwrap_or_default();
    cover.sort_unstable();
    cover
}

/// The per-level oracle: one independent [`StreamPercolator`] per level,
/// each fed its own replay, linked by Theorem 1 through a map from
/// stream ordinal to community.
fn per_level_sweep<S: CliqueSource + ?Sized>(source: &mut S, mode: Mode) -> Vec<KLevel> {
    let mut k_max = 0;
    source
        .replay(&mut |c| k_max = k_max.max(c.len()))
        .expect("replay");
    let mut levels: Vec<KLevel> = Vec::new();
    for k in 2..=k_max {
        let mut p = StreamPercolator::with_mode(source.node_count(), k, mode);
        source.replay(&mut |c| p.push(c)).expect("replay");
        let mut communities = p.finish();
        if let Some(below) = levels.last() {
            let owner: HashMap<u32, u32> = below
                .communities
                .iter()
                .enumerate()
                .flat_map(|(i, c)| c.clique_ids.iter().map(move |&o| (o, i as u32)))
                .collect();
            for c in &mut communities {
                c.parent = Some(owner[&c.clique_ids[0]]);
            }
        }
        levels.push(KLevel {
            k: k as u32,
            communities,
        });
    }
    levels
}

/// The all-k sweep under test, at the default thread policy.
fn sweep<S: CliqueSource + ?Sized>(source: &mut S, mode: Mode) -> Vec<KLevel> {
    stream_percolate_parallel_mode(source, Threads::Auto, mode)
        .expect("source replays cleanly")
        .levels
}

/// A [`CliqueSource`] that counts how often it is replayed.
struct Counting<S> {
    inner: S,
    replays: usize,
}

impl<S: CliqueSource> CliqueSource for Counting<S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn replay(&mut self, visit: &mut dyn FnMut(&[NodeId])) -> Result<(), cpm_stream::StreamError> {
        self.replays += 1;
        self.inner.replay(visit)
    }
}

/// Writes `g`'s clique log to a per-process temp file and opens it.
fn log_of(g: &Graph, name: &str) -> (LogSource, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("cpm_stream_oracle_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    cpm_stream::write_clique_log(g, &path).expect("log build");
    (LogSource::open(&path).expect("log open"), path)
}

/// Asserts both modes of the all-k sweep equal the per-level oracle
/// bit for bit, through a live and a logged source, and that the exact
/// covers equal the batch engine's.
fn assert_sweep_matches_oracles(g: &Graph, name: &str) {
    let (mut log, path) = log_of(g, name);
    for mode in [Mode::Exact, Mode::Almost] {
        let reference = per_level_sweep(&mut GraphSource::new(g), mode);
        assert_eq!(
            sweep(&mut GraphSource::new(g), mode),
            reference,
            "{mode}, graph source"
        );
        assert_eq!(sweep(&mut log, mode), reference, "{mode}, log source");
    }
    std::fs::remove_file(&path).ok();
    assert_stream_matches_batch(g);
}

/// Asserts the full streaming sweep equals batch percolation level by
/// level, and that parent links point at true containers.
fn assert_stream_matches_batch(g: &Graph) {
    let batch = cpm::percolate(g);
    let stream = stream_percolate(&mut GraphSource::new(g)).expect("in-memory source");
    assert_eq!(stream.k_max(), batch.k_max());
    for k in 2..=batch.k_max().unwrap_or(1) {
        assert_eq!(
            stream_cover(&stream, k),
            batch_cover(&batch, k),
            "level {k}"
        );
    }
    for (i, level) in stream.levels.iter().enumerate() {
        for c in &level.communities {
            if level.k == 2 {
                assert!(c.parent.is_none());
            } else {
                let parent =
                    &stream.levels[i - 1].communities[c.parent.expect("k>2 has parent") as usize];
                assert!(
                    c.members.iter().all(|&v| parent.contains(v)),
                    "level {} parent does not contain child",
                    level.k
                );
            }
        }
    }
}

proptest! {
    /// The one-pass sweep equals the per-level percolators on every
    /// level — members, clique ids and parents — for both modes, on
    /// sparse soups and on dense ones with deep clique nesting.
    #[test]
    fn one_pass_sweep_matches_per_level_percolators(
        sparse in edge_soup(14, 50),
        dense in edge_soup(9, 60),
    ) {
        for g in [Graph::from_edges(14, sparse), Graph::from_edges(9, dense)] {
            for mode in [Mode::Exact, Mode::Almost] {
                prop_assert_eq!(
                    sweep(&mut GraphSource::new(&g), mode),
                    per_level_sweep(&mut GraphSource::new(&g), mode),
                    "{}", mode
                );
            }
        }
    }

    /// Streaming percolation is community-equivalent to `cpm::percolate`
    /// for every k on random graphs.
    #[test]
    fn stream_sweep_matches_batch(edges in edge_soup(14, 50)) {
        let g = Graph::from_edges(14, edges);
        assert_stream_matches_batch(&g);
    }

    /// The single-k entry point agrees with `cpm::percolate_at`.
    #[test]
    fn stream_at_matches_batch_at(edges in edge_soup(14, 50), k in 2usize..6) {
        let g = Graph::from_edges(14, edges);
        let got = stream_percolate_at(&mut GraphSource::new(&g), k).expect("in-memory source");
        prop_assert_eq!(got, cpm::percolate_at(&g, k));
    }

    /// Percolating off a clique log gives the same result as live
    /// enumeration (log and graph sources are interchangeable).
    #[test]
    fn log_source_matches_graph_source(edges in edge_soup(12, 40)) {
        let g = Graph::from_edges(12, edges);
        let dir = std::env::temp_dir().join(format!("cpm_stream_oracle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("soup.cliquelog");
        cpm_stream::write_clique_log(&g, &path).expect("log build");
        let via_graph = stream_percolate(&mut GraphSource::new(&g)).expect("graph source");
        let mut log = LogSource::open(&path).expect("log open");
        let via_log = stream_percolate(&mut log).expect("log source");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(via_graph.k_max(), via_log.k_max());
        for k in 2..=via_graph.k_max().unwrap_or(1) {
            prop_assert_eq!(stream_cover(&via_graph, k), stream_cover(&via_log, k));
        }
    }

    /// The clique log round-trips arbitrary valid clique streams bit-for-bit.
    #[test]
    fn clique_log_round_trips(
        cliques in prop::collection::vec(prop::collection::vec(0u32..200, 1..12), 0..40)
    ) {
        // Canonicalise each generated member soup into a valid clique.
        let cliques: Vec<Vec<NodeId>> = cliques
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c.dedup();
                c
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("cpm_stream_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("rt.cliquelog");
        let mut w = CliqueLogWriter::create(&path, 200).expect("create");
        for c in &cliques {
            w.push(c).expect("push");
        }
        let info = w.finish().expect("finish");
        prop_assert_eq!(info.clique_count, cliques.len() as u64);

        let mut r = CliqueLogReader::open(&path).expect("open");
        let mut decoded = Vec::new();
        r.for_each(|c| decoded.push(c.to_vec())).expect("decode");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(decoded, cliques);
    }

    /// The last-seen approximation never over-merges: every approximate
    /// community is contained in some exact community (it may split
    /// exact communities, never fuse them).
    #[test]
    fn last_seen_refines_exact(edges in edge_soup(14, 50), k in 3usize..6) {
        let g = Graph::from_edges(14, edges);
        let exact = stream_percolate_at(&mut GraphSource::new(&g), k).expect("exact pass");
        let mut approx = StreamPercolator::with_mode(g.node_count(), k, Mode::Almost);
        GraphSource::new(&g)
            .replay(&mut |c| approx.push(c))
            .expect("in-memory source");
        for c in approx.finish() {
            let containers = exact
                .iter()
                .filter(|e| c.members.iter().all(|m| e.binary_search(m).is_ok()))
                .count();
            // Exact communities may overlap, so a small approximate
            // community can sit inside more than one — but never zero.
            prop_assert!(containers >= 1, "approx community {:?} not nested in exact cover", c.members);
        }
    }
}

/// The acceptance-criteria fixture: a seeded `topology::InternetModel`
/// instance, checked exhaustively at every level.
#[test]
fn stream_matches_batch_on_seeded_internet_model() {
    let topo = topology::generate(&topology::ModelConfig::tiny(7)).expect("preset is valid");
    assert_stream_matches_batch(&topo.graph);
}

/// Classic shapes where naive streaming merges go wrong.
#[test]
fn stream_matches_batch_on_adversarial_fixtures() {
    // K6, overlapping K5s, star of triangles, two components, and a
    // mixed chain.
    let fixtures: Vec<Graph> = vec![
        Graph::complete(6),
        Graph::from_edges(
            8,
            (0..5u32)
                .flat_map(|u| (u + 1..5).map(move |v| (u, v)))
                .chain((3..8u32).flat_map(|u| (u + 1..8).map(move |v| (u, v))))
                .collect::<Vec<_>>(),
        ),
        Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (0, 3),
                (3, 4),
                (4, 0),
                (0, 5),
                (5, 6),
                (6, 0),
            ],
        ),
        Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        // A triangle, a bridge, and a bowtie of two triangles.
        Graph::from_edges(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5),
            ],
        ),
    ];
    for (i, g) in fixtures.iter().enumerate() {
        assert_sweep_matches_oracles(g, &format!("fixture{i}.cliquelog"));
    }
}

/// The small InternetModel preset — hubs, IXP cores, cliques up to the
/// teens — through both source kinds.
#[test]
fn one_pass_sweep_matches_oracles_on_small_internet_model() {
    let topo = topology::generate(&topology::ModelConfig::small(7)).expect("preset is valid");
    assert_sweep_matches_oracles(&topo.graph, "small.cliquelog");
}

/// The medium preset: minutes of per-level replays in a debug build, so
/// it runs on demand (`cargo test --release -p cpm-stream --test oracle
/// -- --ignored`).
#[test]
#[ignore = "medium preset; run with --release -- --ignored"]
fn one_pass_sweep_matches_oracles_on_medium_internet_model() {
    let topo = topology::generate(&topology::ModelConfig::medium(7)).expect("preset is valid");
    assert_sweep_matches_oracles(&topo.graph, "medium.cliquelog");
}

/// The exact sweep replays its source exactly once, whatever the
/// thread policy; the almost sweep replays once per level.
#[test]
fn exact_sweep_replays_the_source_once() {
    let topo = topology::generate(&topology::ModelConfig::tiny(7)).expect("preset is valid");
    let g = &topo.graph;
    for threads in [Threads::Fixed(1), Threads::Fixed(4), Threads::Auto] {
        let mut source = Counting {
            inner: GraphSource::new(g),
            replays: 0,
        };
        let result = stream_percolate_parallel_mode(&mut source, threads, Mode::Exact)
            .expect("in-memory source");
        assert!(result.k_max().unwrap_or(0) >= 3, "fixture too sparse");
        assert_eq!(source.replays, 1, "{threads} threads");
    }
    let mut source = Counting {
        inner: GraphSource::new(g),
        replays: 0,
    };
    let result = stream_percolate_parallel_mode(&mut source, 1, Mode::Almost).expect("replay");
    assert_eq!(source.replays, result.levels.len());
    let edgeless = Graph::empty(3);
    let mut empty = Counting {
        inner: GraphSource::new(&edgeless),
        replays: 0,
    };
    assert!(sweep(&mut empty, Mode::Exact).is_empty());
    assert_eq!(empty.replays, 1);
}
