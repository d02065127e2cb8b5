//! `trace`: the per-layer run.
//!
//! Each batch stage is re-run in this one process through the public
//! calls its CLI verb makes, with a span around every call into a
//! layer (crate). A span records its name, start, end and parent; the
//! spans stay in memory and are printed at the end. A layer's self
//! time is its spans' durations minus what their child spans cover,
//! and `run.py` sets the layer total of each stage against the same
//! stage timed through the CLI with tracing off.
//!
//! After the stages come the probes that no single verb makes alone:
//! enumeration into a counting consumer, the fused finish at one
//! worker, log replay, the streaming rebuild `serve` starts with, and
//! the snapshot-index lookups and HTTP codec.

use crate::{ms, Flags, Json};
use bench::memprof;
use cliques::{CliqueConsumer, Kernel};
use cpm::{FusedPercolator, FusedPhases, Mode, SnapshotIndex};
use cpm_stream::{CliqueSource, LogSource, StreamError};
use exec::{CancelToken, Threads};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The batch stages, in the order the CLI runs them.
const STAGES: [&str; 5] = [
    "ingest",
    "exact_all_k",
    "almost_all_k",
    "exact_k4",
    "clique_log",
];

/// Lookups per probe loop: enough that one run's per-call mean is
/// steady to a few per cent.
const LOOKUPS: usize = 20_000;

struct Span {
    name: String,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name: name.to_owned(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = Instant::now();
        out
    }

    fn dur_ms(&self, id: usize) -> f64 {
        ms(self.spans[id].end - self.spans[id].start)
    }

    /// Span duration minus the time its children cover. Children run
    /// one after another on this thread, so they never overlap.
    fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.dur_ms(c))
            .sum();
        self.dur_ms(id) - children
    }

    /// Total duration of every span named `name`.
    fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|i| self.dur_ms(i)).sum()
    }

    /// Mean duration of the spans named `name`.
    fn mean_ms(&self, name: &str) -> f64 {
        self.total_ms(name) / self.named(name).count().max(1) as f64
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// The last root span named `name`.
    fn root(&self, name: &str) -> usize {
        (0..self.spans.len())
            .rev()
            .find(|&i| self.spans[i].name == name && self.spans[i].parent.is_none())
            .expect("stage span recorded")
    }

    /// Self time of every non-`cli` span under `root`: the time the
    /// layers account for.
    fn layer_ms(&self, root: usize) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.descends_from(i, root) && !self.spans[i].name.starts_with("cli."))
            .map(|i| self.self_ms(i))
            .sum()
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    fn spans_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut j = Json::default();
                j.raw("name", &format!("\"{}\"", s.name))
                    .num("start_ms", ms(s.start - self.t0))
                    .num("end_ms", ms(s.end - self.t0))
                    .num("parent", s.parent.map_or(-1, |p| p as i64));
                j.finish()
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// Counts maximal cliques, their members and the largest size.
#[derive(Default)]
struct CliqueCount {
    cliques: usize,
    members: usize,
    max_size: usize,
}

impl CliqueConsumer for CliqueCount {
    fn consume(&mut self, clique: &[asgraph::NodeId]) {
        self.cliques += 1;
        self.members += clique.len();
        self.max_size = self.max_size.max(clique.len());
    }
}

/// A [`CliqueSource`] that counts how often it is replayed.
struct Counted<S> {
    inner: S,
    replays: usize,
}

impl<S: CliqueSource> CliqueSource for Counted<S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn replay(&mut self, visit: &mut dyn FnMut(&[asgraph::NodeId])) -> Result<(), StreamError> {
        self.replays += 1;
        self.inner.replay(visit)
    }
}

fn load_graph(t: &mut Tracer, path: &Path) -> Result<asgraph::Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    t.span("asgraph.parse", |_| asgraph::io::parse_edge_list(&text))
        .map_err(|e| e.to_string())
}

pub fn run(flags: &Flags) -> Result<String, String> {
    let dir = PathBuf::from(flags.str("dir")?);
    let threads = Threads::Fixed(flags.num("threads")?);
    let mut rng = StdRng::seed_from_u64(flags.num("seed")?);
    let edges = dir.join("graph.edges");
    let log = dir.join("trace.cliquelog");
    let mut t = Tracer::new();
    let mut m = Json::default();

    // ingest --input ×3 --largest-cc --out --map
    let outcome = t.span("cli.ingest", |t| {
        let mut ing = ingest::Ingestor::new(ingest::IngestOptions {
            largest_cc: true,
            ..ingest::IngestOptions::default()
        });
        for name in ["caida.aslinks", "dimes.csv", "extra.edges"] {
            t.span("ingest.parse", |_| {
                ing.ingest_path(&dir.join(name), None).map(|_| ())
            })
            .map_err(|e| format!("{e:?}"))?;
        }
        let outcome = t
            .span("ingest.finish", |_| ing.finish())
            .map_err(|e| format!("{e:?}"))?;
        let text = t.span("asgraph.write", |_| {
            asgraph::io::to_edge_list_string(&outcome.graph)
        });
        std::fs::write(dir.join("trace.edges"), text).map_err(|e| e.to_string())?;
        Ok::<_, String>(outcome)
    })?;
    let report = &outcome.report;
    let bytes: u64 = report.sources.iter().map(|s| s.bytes).sum();
    let records: u64 = report.sources.iter().map(|s| s.records).sum();
    let parse_ms = t.total_ms("ingest.parse");
    m.num("ingest.parse_ms", parse_ms)
        .num("ingest.finish_ms", t.total_ms("ingest.finish"))
        .num("ingest.records", records)
        .num(
            "ingest.kept_ratio",
            report.cleanup.edges as f64 / report.cleanup.raw_records as f64,
        )
        .num("ingest.mb_per_s", bytes as f64 / 1e6 / (parse_ms / 1e3));
    drop(outcome);

    // communities --all-k --mode exact|almost
    for (stage, mode, tag) in [
        ("cli.exact_all_k", Mode::Exact, "exact"),
        ("cli.almost_all_k", Mode::Almost, "almost"),
    ] {
        let (phases, peak) = t.span(stage, |t| {
            let g = load_graph(t, &edges)?;
            let (phases, peak) = memprof::measure_peak(|| {
                let mut p = FusedPercolator::new(g.node_count(), mode);
                t.span(&format!("cpm.{tag}.consume"), |_| {
                    cliques::parallel::consume_max_cliques_parallel(
                        &g,
                        threads,
                        Kernel::Auto,
                        &mut p,
                    )
                });
                let mut phases = FusedPhases::default();
                let result = t.span(&format!("cpm.{tag}.finish"), |_| {
                    p.finish_phases_parallel(threads, &mut phases)
                });
                black_box(result);
                phases
            });
            Ok::<_, String>((phases, peak as f64 / (1024.0 * 1024.0)))
        })?;
        m.num(
            &format!("cpm.{tag}.consume_ms"),
            t.total_ms(&format!("cpm.{tag}.consume")),
        )
        .num(
            &format!("cpm.{tag}.finish_ms"),
            t.total_ms(&format!("cpm.{tag}.finish")),
        )
        .num(&format!("cpm.{tag}.peak_heap_mb"), peak);
        if mode == Mode::Exact {
            m.num("cpm.exact.pairs_ms", ms(phases.pairs))
                .num("cpm.exact.sweep_ms", ms(phases.sweep))
                .num("cpm.exact.extract_ms", ms(phases.extract));
        }
    }

    // communities --k 4
    let communities = t.span("cli.exact_k4", |t| {
        let g = load_graph(t, &edges)?;
        let comms = t.span("cpm.at_k", |_| {
            cpm::percolate_at_fused_with_kernel(&g, 4, Kernel::Auto, Mode::Exact)
        });
        Ok::<_, String>(comms.len())
    })?;
    m.num("cpm.at_k_ms", t.total_ms("cpm.at_k"))
        .num("cpm.communities", communities);

    // clique-log build
    t.span("cli.clique_log", |t| {
        let g = load_graph(t, &edges)?;
        t.span("stream.log_build", |_| {
            cpm_stream::build_clique_log(&g, &log, &cpm_stream::LogBuildOptions::default())
        })
        .map_err(|e| e.to_string())
    })?;
    let log_bytes = std::fs::metadata(&log).map_err(|e| e.to_string())?.len();
    m.num("stream.log_build_ms", t.total_ms("stream.log_build"))
        .num("stream.log_bytes", log_bytes)
        .num("asgraph.parse_ms", t.mean_ms("asgraph.parse"));

    let mut stages = Json::default();
    for stage in STAGES {
        let root = t.root(&format!("cli.{stage}"));
        let mut s = Json::default();
        s.num("traced_ms", t.dur_ms(root))
            .num("layer_ms", t.layer_ms(root));
        stages.raw(stage, &s.finish());
    }

    // Probes.
    let g = load_graph(&mut t, &edges)?;
    let mut count = CliqueCount::default();
    t.span("cliques.enumerate", |_| {
        cliques::consume_max_cliques(&g, Kernel::Auto, &mut count)
    });
    m.num("cliques.enumerate_ms", t.total_ms("cliques.enumerate"))
        .num("cliques.max_cliques", count.cliques)
        .num("cliques.members", count.members)
        .num("cliques.max_size", count.max_size);

    // The same exact finish at one worker and at `threads`.
    let mut finish_ms = [0.0f64; 2];
    for (slot, workers) in [(0, Threads::Fixed(1)), (1, threads)] {
        let mut p = FusedPercolator::new(g.node_count(), Mode::Exact);
        cliques::parallel::consume_max_cliques_parallel(&g, threads, Kernel::Auto, &mut p);
        let start = Instant::now();
        black_box(p.finish_parallel(workers));
        finish_ms[slot] = ms(start.elapsed());
    }
    m.num("exec.fused_speedup", finish_ms[0] / finish_ms[1]);

    let mut source = LogSource::open(&log).map_err(|e| e.to_string())?;
    let mut seen = 0usize;
    t.span("stream.replay", |_| source.replay(&mut |c| seen += c.len()))
        .map_err(|e| e.to_string())?;
    black_box(seen);
    // `serve` starts and reloads with `Threads::Auto` and exact mode.
    let mut counted = Counted {
        inner: source,
        replays: 0,
    };
    let result = t
        .span("stream.percolate", |_| {
            cpm_stream::stream_percolate_parallel_mode(&mut counted, Threads::Auto, Mode::Exact)
        })
        .map_err(|e| e.to_string())?;
    m.num("stream.replay_ms", t.total_ms("stream.replay"))
        .num("stream.percolate_ms", t.total_ms("stream.percolate"))
        .num("stream.replays", counted.replays);
    let index = t.span("serve.index_build", |_| {
        SnapshotIndex::from_levels(counted.node_count(), &result.levels)
    });
    drop(result);
    m.num("serve.index_build_ms", t.total_ms("serve.index_build"))
        .num("serve.index_bytes", index.to_bytes().len());
    let loaded = t
        .span("serve.load_index", |_| {
            serve::load_index(&log, &CancelToken::new(), Threads::Auto, Mode::Exact)
        })
        .map_err(|e| e.to_string())?;
    black_box(loaded);
    m.num("serve.load_index_ms", t.total_ms("serve.load_index"));
    lookups(&g, &index, &mut rng, &mut m)?;

    let mut out = Json::default();
    out.raw("metrics", &m.finish())
        .raw("stages", &stages.finish())
        .raw("spans", &t.spans_json());
    Ok(out.finish())
}

/// Per-call cost of the index queries `serve` answers and of its HTTP
/// request parser and response writer, over degree-skewed ASes.
fn lookups(
    g: &asgraph::Graph,
    index: &SnapshotIndex,
    rng: &mut StdRng,
    m: &mut Json,
) -> Result<(), String> {
    let ends: Vec<u32> = g.edges().flat_map(|(u, v)| [u, v]).collect();
    let mut pick = || ends[rng.random_range(0..ends.len())];
    let ases: Vec<(u32, u32)> = (0..LOOKUPS).map(|_| (pick(), pick())).collect();
    let ids: Vec<cpm::CommunityId> = ases
        .iter()
        .filter_map(|&(a, _)| index.membership(a, None).last().copied())
        .collect();
    let per_call_ns =
        |start: Instant, calls: usize| start.elapsed().as_nanos() as f64 / calls as f64;

    let start = Instant::now();
    for &(a, _) in &ases {
        black_box(index.membership(a, None));
    }
    m.num("serve.lookup.membership_ns", per_call_ns(start, ases.len()));
    let start = Instant::now();
    for &(a, b) in &ases {
        black_box(index.common_community(a, b, 2));
    }
    m.num("serve.lookup.common_ns", per_call_ns(start, ases.len()));
    let start = Instant::now();
    for &id in &ids {
        black_box(index.ancestors(id));
    }
    m.num(
        "serve.lookup.ancestors_ns",
        per_call_ns(start, ids.len().max(1)),
    );

    let mut wire = Vec::new();
    for &(a, _) in &ases {
        wire.extend_from_slice(
            format!("GET /membership/{a}?k=4 HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
        );
    }
    let mut reader = BufReader::new(wire.as_slice());
    let start = Instant::now();
    let mut parsed = 0usize;
    while serve::http::read_request(&mut reader)
        .map_err(|e| e.to_string())?
        .is_some()
    {
        parsed += 1;
    }
    m.num("serve.http.read_ns", per_call_ns(start, parsed.max(1)));
    let body = format!(
        "{{\"as\":0,\"k\":null,\"generation\":1,\"communities\":{}}}",
        serve::json::raw_array(
            index
                .membership(ases[0].0, None)
                .iter()
                .map(|id| { format!("{{\"id\":\"{id}\",\"k\":{},\"size\":1}}", id.k) })
        )
    );
    let mut out = Vec::with_capacity(body.len() + 256);
    let start = Instant::now();
    for _ in 0..LOOKUPS {
        out.clear();
        serve::http::write_response(&mut out, 200, &body, true).map_err(|e| e.to_string())?;
        black_box(&out);
    }
    m.num("serve.http.write_ns", per_call_ns(start, LOOKUPS));
    Ok(())
}
