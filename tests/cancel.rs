//! Cooperative-cancellation invariance: cancelling and resuming must
//! change *nothing* about the final answer, at every worker count, and
//! a cancelled run must leave the shared worker pool fully reusable.

use cliques::Kernel;
use cpm_stream::{stream_percolate, CliqueSource, GraphSource, LogBuildOptions, LogSource};
use exec::{CancelToken, Pool};

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
const MAX_WORKERS: usize = 4;

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

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kclique_cancel_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A live (never-tripped) token is invisible: the cancellable pipeline
/// produces bit-identical results to the plain one at 1, 2, and 4
/// workers.
#[test]
fn live_token_is_invariant_at_every_worker_count() {
    let g = random_graph(70, 0.12, 23);
    let reference = cpm::percolate(&g);
    let token = CancelToken::new();
    for threads in [1, 2, 4] {
        let got = cpm::parallel::percolate_parallel_cancellable(&g, threads, Kernel::Auto, &token)
            .expect("live token never cancels");
        assert_eq!(got.levels, reference.levels, "threads {threads}");
    }
}

/// Cancel-then-resume of a log build converges to the uninterrupted
/// answer: whatever prefix a cancelled build sealed, the resumed build
/// completes the identical clique stream, and the percolation of the
/// finished log matches the live graph at every worker count.
#[test]
fn cancel_then_resume_matches_uninterrupted() {
    let g = random_graph(50, 0.16, 31);
    let full: Vec<Vec<asgraph::NodeId>> = {
        let mut out = Vec::new();
        GraphSource::new(&g)
            .replay(&mut |c| out.push(c.to_vec()))
            .unwrap();
        out
    };
    let dir = scratch_dir("resume");
    let path = dir.join("log.cliquelog");
    let reference = stream_percolate(&mut GraphSource::new(&g)).unwrap();

    // Interruption points: immediately, mid-segment, at a segment
    // boundary, one short of the end.
    let checkpoint = 4;
    for cut in [0, 1, 3, 4, 9, full.len().saturating_sub(1)] {
        // A pre-tripped token models the worst case — cancelled before
        // the first clique — and exercises build_clique_log's
        // interrupted-but-sealed path end to end.
        let _ = std::fs::remove_file(&path);
        let tripped = CancelToken::new();
        tripped.cancel();
        let outcome = cpm_stream::build_clique_log(
            &g,
            &path,
            &LogBuildOptions {
                checkpoint_cliques: checkpoint,
                cancel: Some(tripped),
                ..LogBuildOptions::default()
            },
        )
        .unwrap();
        assert!(outcome.interrupted);
        assert_eq!(outcome.info.clique_count, 0);

        // Simulate a build cancelled after `cut` cliques: exactly the
        // sealed, finished log such a build leaves behind (a cancelled
        // build finishes its log; only crashes tear — tests/faultio.rs
        // covers those).
        let mut writer =
            cpm_stream::CliqueLogWriter::with_checkpoint(&path, g.node_count() as u32, checkpoint)
                .unwrap();
        for c in &full[..cut] {
            writer.push(c).unwrap();
        }
        writer.finish().unwrap();

        // Resume from the sealed prefix: the outcome must be the full
        // stream, whatever the cut.
        let outcome = cpm_stream::build_clique_log(
            &g,
            &path,
            &LogBuildOptions {
                checkpoint_cliques: checkpoint,
                resume: true,
                ..LogBuildOptions::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.resumed_from, cut as u64, "cut {cut}");
        assert!(!outcome.interrupted);
        assert_eq!(outcome.info.clique_count, full.len() as u64, "cut {cut}");

        let mut replayed = Vec::new();
        let mut src = LogSource::open(&path).unwrap();
        src.replay(&mut |c| replayed.push(c.to_vec())).unwrap();
        assert_eq!(replayed, full, "cut {cut}");

        let from_log = stream_percolate(&mut LogSource::open(&path).unwrap()).unwrap();
        assert_eq!(from_log.levels, reference.levels, "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cancelled parallel run drains through the normal job protocol: no
/// poisoned locks, no stuck workers, no extra threads on the next call.
#[test]
fn cancelled_runs_leave_the_pool_reusable() {
    let _census = census_lock();
    let g = random_graph(60, 0.15, 47);
    let reference = cpm::percolate(&g);
    let tripped = CancelToken::new();
    tripped.cancel();

    // Warm the pool, then record its thread census.
    let warm = cpm::parallel::percolate_parallel(&g, 4);
    assert_eq!(warm.levels, reference.levels);
    let spawned = Pool::global().spawned_threads();

    for threads in [2, 4] {
        assert!(
            cpm::parallel::percolate_parallel_cancellable(&g, threads, Kernel::Auto, &tripped)
                .is_err(),
            "threads {threads}"
        );
        assert!(
            cliques::parallel::max_cliques_parallel_cancellable(
                &g,
                threads,
                Kernel::Auto,
                &tripped
            )
            .is_err(),
            "threads {threads}"
        );
        // Immediately after each cancelled run the pool must do full
        // correct work again, without spawning replacement threads.
        let again = cpm::parallel::percolate_parallel(&g, threads);
        assert_eq!(again.levels, reference.levels, "threads {threads}");
        assert_eq!(
            Pool::global().spawned_threads(),
            spawned,
            "cancelled run leaked or killed pool threads"
        );
    }
}
