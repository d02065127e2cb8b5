//! `communities --k` runs the threaded, cancellable single-level
//! engine: a deadline that does not expire leaves stdout byte-identical,
//! an expired one exits 75, and the shared pool survives the cancelled
//! run.

use exec::Pool;
use kclique_cli::{Command as Cli, EXIT_INTERRUPTED};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kclique-cli"))
}

/// The small preset's edge list, generated once per test binary.
fn small_edges() -> &'static PathBuf {
    static EDGES: OnceLock<PathBuf> = OnceLock::new();
    EDGES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("kclique_cli_single_k_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = bin()
            .args(["generate", "--scale", "small", "--seed", "42", "--out"])
            .arg(&dir)
            .output()
            .expect("spawn kclique-cli");
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        dir.join("topology.edges")
    })
}

fn communities(args: &[&str]) -> Output {
    bin()
        .arg("communities")
        .arg("--input")
        .arg(small_edges())
        .args(args)
        .output()
        .expect("spawn kclique-cli")
}

/// A generous deadline is invisible: same bytes as the deadline-free
/// run, at every worker count.
#[test]
fn generous_deadline_keeps_stdout_bytes() {
    for k in ["2", "3", "4", "8"] {
        let plain = communities(&["--k", k]);
        assert_eq!(plain.status.code(), Some(0), "{plain:?}");
        for threads in ["1", "2", "4"] {
            let timed = communities(&["--k", k, "--threads", threads, "--deadline", "600"]);
            assert_eq!(timed.status.code(), Some(0), "{timed:?}");
            assert_eq!(plain.stdout, timed.stdout, "k {k} threads {threads}");
        }
    }
}

/// An already expired deadline stops the run with the resumable exit
/// code and prints no communities.
#[test]
fn expired_deadline_exits_interrupted() {
    let out = communities(&["--k", "4", "--deadline", "0"]);
    assert_eq!(out.status.code(), Some(EXIT_INTERRUPTED), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

/// In one process: a cancelled single-k run, then a fresh one that
/// succeeds on the same pool without spawning replacement threads.
#[test]
fn cancelled_single_k_leaves_the_pool_reusable() {
    let input = small_edges().to_str().expect("utf-8 temp path").to_owned();
    let run = |deadline: Option<&str>| {
        let mut args = vec![
            "communities",
            "--input",
            &input,
            "--k",
            "4",
            "--threads",
            "4",
        ];
        if let Some(secs) = deadline {
            args.extend(["--deadline", secs]);
        }
        Cli::parse(args.into_iter().map(str::to_owned))
            .expect("valid arguments")
            .run()
    };
    // Grow the pool to the runs' 4 workers before the census; this is
    // the binary's only census, so no lock is needed.
    Pool::global().run(4, |_| {});
    let spawned = Pool::global().spawned_threads();
    let cancelled = run(Some("0")).expect_err("an expired deadline cancels");
    assert_eq!(cancelled.code, EXIT_INTERRUPTED);
    run(None).expect("a fresh run succeeds after a cancelled one");
    run(Some("600")).expect("a live deadline does not cancel");
    assert_eq!(
        Pool::global().spawned_threads(),
        spawned,
        "pool threads were replaced"
    );
}
