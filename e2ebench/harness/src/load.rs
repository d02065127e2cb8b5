//! `load`: the `serve` load generator and response checker.
//!
//! One process, at most two threads and two keep-alive connections
//! (the daemon runs `--threads 2`, which is also its connection cap):
//!
//! 1. `/healthz` ping-pong on the control connection (`rtt_us`).
//! 2. An open loop at a fixed rate on the query connection. Each
//!    request is timed from when it was sent (`query_p50_us`,
//!    `reload_query_p50_us`) and from when it was due, which charges a
//!    stall to every request it delays; the sender's own lateness is
//!    reported beside them.
//! 3. [`RELOADS`] `POST /reload`s, one after another, on the control
//!    connection while the open loop runs on at a lower rate; after
//!    each, `/healthz` polls until the generation goes up by one. Each
//!    reload is timed, with the CPU time the host stole meanwhile.
//! 4. A closed, pipelined loop on one connection for saturation
//!    throughput. The client and one daemon worker fill the two cores
//!    of the reference machine; a second pair would only add scheduler
//!    noise. The daemon's CPU time over the loop is read from
//!    `/proc/<pid>/stat`, and `run.py` divides the requests by it: the
//!    rate one worker sustains on a core of its own. The host's steal
//!    halved the wall-clock rate in some runs, but it is not charged
//!    to the daemon's CPU time.
//!
//! The four query endpoints — `membership` (half with `?k=`),
//! `common`, `community` and `tree` — are drawn with equal weight. No
//! real traffic sets these weights; they are a plain choice. ASes are
//! drawn in proportion to their degree. Sampled bodies are compared
//! byte for byte against an in-process `SnapshotIndex` built from the
//! same clique log.

use crate::{Flags, Json};
use cpm::{CommunityId, FusedPercolator, Mode, SnapshotIndex};
use cpm_stream::{CliqueSource, LogSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Distinct queries drawn per run; phases cycle through them.
const OPS: usize = 4096;
/// Open-loop requests per second: a quarter of what one connection
/// answers unpipelined on the reference machine, so the loop stays
/// well under saturation.
const OPEN_RATE: f64 = 4000.0;
/// The open loop's rate while the reload is in flight. The sender then
/// sleeps instead of spinning, so the rebuild and the readers share
/// the cores with the daemon alone.
const RELOAD_RATE: f64 = 2000.0;
/// Reloads, back to back; `run.py` reports their wall time net of the
/// host's steal.
const RELOADS: u64 = 2;
/// `/healthz` round trips for `rtt_us`.
const PINGS: usize = 1000;
/// Requests per write in the closed loop.
const PIPELINE: usize = 16;
/// Open-loop responses kept for the body check: one in this many.
const OPEN_SAMPLE: usize = 4;
/// Closed-loop responses kept for the body check: one in this many.
const CLOSED_SAMPLE: usize = 64;
/// `/healthz` poll interval while a reload is in flight.
const RELOAD_POLL: Duration = Duration::from_millis(5);
/// Open-loop window, in consecutive requests. The latency metrics are
/// the median over the quietest windows (see [`quietest`]) of each
/// window's p50 or p75, so a stall of the shared machine moves one
/// window instead of the whole run. (On the reference machine the load
/// generator itself runs late by milliseconds for over 1 % of its
/// sends, so a p99 measures the host's scheduling, not the daemon;
/// whole-phase p90s and p99s go in the report.)
const TAIL_WINDOW: usize = 1000;
/// Longest any single response may take before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

enum Query {
    Membership(u32, Option<u32>),
    Common(u32, u32),
    Community(CommunityId),
    Tree(CommunityId),
}

impl Query {
    fn path(&self) -> String {
        match self {
            Query::Membership(v, None) => format!("/membership/{v}"),
            Query::Membership(v, Some(k)) => format!("/membership/{v}?k={k}"),
            Query::Common(a, b) => format!("/common/{a}/{b}"),
            Query::Community(id) => format!("/community/{id}"),
            Query::Tree(id) => format!("/tree/{id}"),
        }
    }
}

/// A response kept for the body check.
struct Sample {
    op: usize,
    status: u16,
    body: String,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer: s, reader })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<(u16, String), String> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("Content-Length: ") {
                len = v.parse().map_err(|_| format!("bad header {header:?}"))?;
            }
        }
        let mut body = vec![0u8; len];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("recv body: {e}"))?;
        Ok((status, String::from_utf8(body).map_err(|e| e.to_string())?))
    }

    fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        self.send(request("GET", path).as_bytes())?;
        self.recv()
    }
}

fn request(method: &str, path: &str) -> String {
    format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n\r\n")
}

/// The generation a `/healthz` (or reload) body reports.
fn generation(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"generation\":")? + 13..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Waits until `due`. With `spin` it sleeps until shortly before and
/// then spins, so the send time tracks the schedule to a few
/// microseconds; the spin yields, so a runnable daemon thread on this
/// core is not held off by it. Without, it only sleeps and leaves the
/// cores to the daemon.
fn wait_until(due: Instant, spin: bool) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if !spin {
            std::thread::sleep(left);
        } else if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Nearest-rank percentile of sorted microsecond samples.
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// CPU time the hypervisor has taken from this guest so far, in clock
/// ticks (the `steal` column of `/proc/stat`); 0 where it is missing.
fn steal_ticks() -> u64 {
    let mut line = String::new();
    if let Ok(f) = std::fs::File::open("/proc/stat") {
        let _ = BufReader::new(f).read_line(&mut line);
    }
    line.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The half of the windows (rounded up) the hypervisor took the least
/// CPU time from, each window given with its steal ticks. A window the
/// host stole from measures the host's scheduling, not the daemon.
fn quietest<T>(windows: &[(T, u64)]) -> Vec<&T> {
    let mut ranked: Vec<&(T, u64)> = windows.iter().collect();
    ranked.sort_by_key(|w| w.1);
    ranked.truncate(windows.len().div_ceil(2));
    ranked.into_iter().map(|w| &w.0).collect()
}

/// Median over the quietest windows of each window's `q` percentile;
/// the plain percentile of `all` (sorted) when there is no whole window.
fn windowed(windows: &[(Vec<f64>, u64)], all: &[f64], q: f64) -> f64 {
    if windows.is_empty() {
        return pct(all, q);
    }
    median(
        quietest(windows)
            .into_iter()
            .map(|w| {
                let mut w = w.clone();
                w.sort_by(f64::total_cmp);
                pct(&w, q)
            })
            .collect(),
    )
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    pct(&values, 0.5)
}

/// User plus system CPU time `pid` has used so far, in clock ticks
/// (fields 14 and 15 of `/proc/<pid>/stat`).
fn cpu_ticks(pid: &str) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // The command name, field 2, is in parentheses and may hold spaces.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let field = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(user), Some(system)) => Ok(user + system),
        _ => Err(format!("unreadable /proc/{pid}/stat")),
    }
}

/// The index `serve` builds from `log`, rebuilt here in process: the
/// log's stream folded into the fused exact engine.
fn expected_index(log: &str) -> Result<SnapshotIndex, String> {
    let mut source = LogSource::open(log).map_err(|e| e.to_string())?;
    let n = source.node_count();
    let mut p = FusedPercolator::new(n, Mode::Exact);
    cpm_stream::consume_source(&mut source, &mut p).map_err(|e| e.to_string())?;
    let result = p.finish_parallel(exec::Threads::Auto);
    Ok(SnapshotIndex::from_levels(n, &result.levels))
}

fn draw_queries(index: &SnapshotIndex, g: &asgraph::Graph, rng: &mut StdRng) -> Vec<Query> {
    // An edge endpoint drawn uniformly is an AS drawn by degree.
    let ends: Vec<u32> = g.edges().flat_map(|(u, v)| [u, v]).collect();
    let k_max = index.k_max().unwrap_or(2);
    let pick = |rng: &mut StdRng| ends[rng.random_range(0..ends.len())];
    // Community and tree ids are communities of a drawn AS at levels
    // k >= 4. The largest k = 2 and k = 3 communities span the graph's
    // connected core (34,987 and 14,964 ASes at paper scale), so a body
    // of one is a bulk export of every member. With them in the mix one
    // connection answers about 4,600 requests/s at paper scale, under
    // the open loop's fixed OPEN_RATE: the loop would then time its own
    // queue instead of the daemon.
    let community = |rng: &mut StdRng| loop {
        let ids: Vec<CommunityId> = index
            .membership(pick(rng), None)
            .into_iter()
            .filter(|id| id.k >= 4)
            .collect();
        if !ids.is_empty() {
            break ids[rng.random_range(0..ids.len())];
        }
    };
    (0..OPS)
        .map(|_| match rng.random_range(0..8) {
            0 => Query::Membership(pick(rng), None),
            1 => Query::Membership(pick(rng), Some(rng.random_range(2..=k_max))),
            2 | 3 => Query::Common(pick(rng), pick(rng)),
            4 | 5 => Query::Community(community(rng)),
            _ => Query::Tree(community(rng)),
        })
        .collect()
}

fn summary(index: &SnapshotIndex, id: CommunityId) -> String {
    let size = index.community(id).map_or(0, |c| c.size());
    format!(
        "{{\"id\":{},\"k\":{},\"size\":{}}}",
        json::string(&id.to_string()),
        id.k,
        size
    )
}

/// The body `serve` must answer `q` with, from the expected index.
/// Membership bodies carry the generation, which the reload moves; it
/// is taken from the response and checked separately.
fn expected_body(index: &SnapshotIndex, q: &Query, generation: u64) -> String {
    match *q {
        Query::Membership(v, k) => format!(
            "{{\"as\":{v},\"k\":{},\"generation\":{generation},\"communities\":{}}}",
            k.map_or("null".to_owned(), |k| k.to_string()),
            json::raw_array(
                index
                    .membership(v, k)
                    .into_iter()
                    .map(|id| summary(index, id))
            ),
        ),
        Query::Common(a, b) => format!(
            "{{\"a\":{a},\"b\":{b},\"min_k\":2,\"community\":{}}}",
            index
                .common_community(a, b, 2)
                .map_or("null".to_owned(), |id| summary(index, id)),
        ),
        Query::Community(id) => {
            let c = index
                .community(id)
                .expect("queries name existing communities");
            let name = |k: u32, idx: u32| json::string(&CommunityId { k, idx }.to_string());
            format!(
                "{{\"id\":{},\"k\":{},\"size\":{},\"parent\":{},\"children\":{},\"members\":{}}}",
                json::string(&id.to_string()),
                id.k,
                c.size(),
                c.parent.map_or("null".to_owned(), |p| name(id.k - 1, p)),
                json::raw_array(c.children.iter().map(|&i| name(id.k + 1, i))),
                json::number_array(c.members.iter().copied()),
            )
        }
        Query::Tree(id) => format!(
            "{{\"id\":{},\"ancestors\":{},\"children\":{}}}",
            json::string(&id.to_string()),
            json::raw_array(index.ancestors(id).into_iter().map(|a| summary(index, a))),
            json::raw_array(index.children(id).into_iter().map(|c| summary(index, c))),
        ),
    }
}

/// One open-loop request's outcome: its latency from when it was due
/// and from when it was sent, and how late it was sent.
struct Timed {
    due: Instant,
    latency_us: f64,
    service_us: f64,
    lateness_us: f64,
}

pub fn run(flags: &Flags) -> Result<String, String> {
    let addr = flags.str("addr")?.to_owned();
    let server_pid = flags.str("server-pid")?;
    let open = Duration::from_secs_f64(flags.num("open-secs")?);
    let closed = Duration::from_secs_f64(flags.num("closed-secs")?);
    let mut rng = StdRng::seed_from_u64(flags.num("seed")?);
    let text = std::fs::read_to_string(flags.str("edges")?).map_err(|e| e.to_string())?;
    let g = asgraph::io::parse_edge_list(&text).map_err(|e| e.to_string())?;
    let index = expected_index(flags.str("log")?)?;
    let ops = draw_queries(&index, &g, &mut rng);
    let wires: Vec<String> = ops.iter().map(|q| request("GET", &q.path())).collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // 1. Ping-pong on the control connection.
    let mut control = Conn::open(&addr)?;
    let (status, body) = control.get("/healthz")?;
    let gen0 = generation(&body)
        .filter(|_| status == 200)
        .ok_or("bad /healthz")?;
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let start = Instant::now();
        let (status, _) = control.get("/healthz")?;
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
        attempted += 1;
        failed += u64::from(status != 200);
    }
    // Idle connections are closed by the daemon after a few seconds;
    // the reload opens a fresh one.
    drop(control);
    rtts.sort_by(f64::total_cmp);

    // 2 + 3. Open loop, with the reload beside it.
    let stop = AtomicBool::new(false);
    let reloading = AtomicBool::new(false);
    let mut query = Conn::open(&addr)?;
    let start = Instant::now() + Duration::from_millis(20);
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let reload_interval = Duration::from_secs_f64(1.0 / RELOAD_RATE);
    let (open_out, reload_out) = std::thread::scope(|s| {
        type Open = (Vec<Timed>, Vec<Sample>, u64, Vec<u64>);
        let sender = s.spawn(|| -> Result<Open, String> {
            let mut timed = Vec::new();
            let mut samples = Vec::new();
            let mut bad = 0u64;
            let mut steals = Vec::new();
            let mut due = start;
            for i in 0.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if i % TAIL_WINDOW == 0 {
                    steals.push(steal_ticks());
                }
                let reload_phase = reloading.load(Ordering::SeqCst);
                wait_until(due, !reload_phase);
                let sent = Instant::now();
                let op = i % OPS;
                query.send(wires[op].as_bytes())?;
                let (status, body) = query.recv()?;
                let done = Instant::now();
                bad += u64::from(status != 200);
                timed.push(Timed {
                    due,
                    latency_us: (done - due).as_secs_f64() * 1e6,
                    service_us: (done - sent).as_secs_f64() * 1e6,
                    lateness_us: (sent - due).as_secs_f64() * 1e6,
                });
                if i % OPEN_SAMPLE == 0 {
                    samples.push(Sample { op, status, body });
                }
                due += if reload_phase {
                    reload_interval
                } else {
                    interval
                };
            }
            steals.push(steal_ticks());
            Ok((timed, samples, bad, steals))
        });
        type Reloads = (Vec<(Instant, Instant, u64)>, u64, u64);
        let reload = (|| -> Result<Reloads, String> {
            std::thread::sleep((start + open).saturating_duration_since(Instant::now()));
            let mut control = Conn::open(&addr)?;
            reloading.store(true, Ordering::SeqCst);
            let mut reloads = Vec::new();
            let mut polls = 0u64;
            let mut bad = 0u64;
            for r in 1..=RELOADS {
                let steal = steal_ticks();
                let posted = Instant::now();
                control.send(request("POST", "/reload").as_bytes())?;
                let (status, body) = control.recv()?;
                bad += u64::from(status != 202 || generation(&body) != Some(gen0 + r));
                polls += 1;
                let reloaded = loop {
                    std::thread::sleep(RELOAD_POLL);
                    let (status, body) = control.get("/healthz")?;
                    polls += 1;
                    bad += u64::from(status != 200);
                    let now = Instant::now();
                    if generation(&body) == Some(gen0 + r) {
                        break now;
                    }
                    if now - posted > IO_TIMEOUT {
                        return Err("reload never finished".to_owned());
                    }
                };
                reloads.push((posted, reloaded, steal_ticks() - steal));
            }
            Ok((reloads, polls, bad))
        })();
        stop.store(true, Ordering::SeqCst);
        (sender.join().expect("sender thread panicked"), reload)
    });
    let (timed, mut samples, bad, steals) = open_out?;
    let (reloads, polls, reload_bad) = reload_out?;
    // The reloads run back to back: the requests due from the first
    // POST to the last new generation were served beside a rebuild.
    let (posted, reloaded) = (reloads[0].0, reloads[reloads.len() - 1].1);
    attempted += timed.len() as u64 + polls;
    failed += bad + reload_bad;
    let mut before: Vec<f64> = Vec::new();
    let mut before_service: Vec<f64> = Vec::new();
    let mut during: Vec<f64> = Vec::new();
    let mut during_service: Vec<f64> = Vec::new();
    let mut late: Vec<f64> = Vec::new();
    for t in &timed {
        late.push(t.lateness_us);
        if t.due < posted {
            before.push(t.latency_us);
            before_service.push(t.service_us);
        } else if t.due <= reloaded {
            during.push(t.latency_us);
            during_service.push(t.service_us);
        }
    }
    // Whole windows of one phase, each with the ticks the host stole
    // during it; windows that straddle the reload's start or end are
    // dropped.
    let mut before_windows = Vec::new();
    let mut before_service_windows = Vec::new();
    let mut during_windows = Vec::new();
    let mut during_service_windows = Vec::new();
    for (w, reqs) in timed.chunks_exact(TAIL_WINDOW).enumerate() {
        let steal = steals[w + 1] - steals[w];
        let entry = (
            reqs.iter().map(|t| t.latency_us).collect::<Vec<f64>>(),
            steal,
        );
        let service_entry = (
            reqs.iter().map(|t| t.service_us).collect::<Vec<f64>>(),
            steal,
        );
        let (first, last) = (reqs[0].due, reqs[TAIL_WINDOW - 1].due);
        if last < posted {
            before_windows.push(entry);
            before_service_windows.push(service_entry);
        } else if first >= posted && last <= reloaded {
            during_windows.push(entry);
            during_service_windows.push(service_entry);
        }
    }
    before.sort_by(f64::total_cmp);
    before_service.sort_by(f64::total_cmp);
    during.sort_by(f64::total_cmp);
    during_service.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    drop(query);

    // 4. Closed, pipelined loop, with the daemon's CPU time around it.
    let mut conn = Conn::open(&addr)?;
    let mut closed_done = 0u64;
    let mut batch = Vec::new();
    let started = Instant::now();
    let cpu_before = cpu_ticks(server_pid)?;
    while started.elapsed() < closed {
        batch.clear();
        let first = closed_done as usize;
        for j in 0..PIPELINE {
            batch.extend_from_slice(wires[(first + j) % OPS].as_bytes());
        }
        conn.send(&batch)?;
        for j in 0..PIPELINE {
            let (status, body) = conn.recv()?;
            failed += u64::from(status != 200);
            if (first + j).is_multiple_of(CLOSED_SAMPLE) {
                samples.push(Sample {
                    op: (first + j) % OPS,
                    status,
                    body,
                });
            }
        }
        closed_done += PIPELINE as u64;
    }
    let closed_cpu_ticks = cpu_ticks(server_pid)? - cpu_before;
    let closed_s = started.elapsed().as_secs_f64();
    attempted += closed_done;
    drop(conn);

    // Body check, off the timed path.
    let mut checked = 0u64;
    let mut wrong = 0u64;
    for s in &samples {
        checked += 1;
        let generation = match ops[s.op] {
            Query::Membership(..) => generation(&s.body).unwrap_or(0),
            _ => gen0,
        };
        let expected = expected_body(&index, &ops[s.op], generation);
        let ok =
            s.status == 200 && (gen0..=gen0 + RELOADS).contains(&generation) && s.body == expected;
        if !ok {
            if wrong == 0 {
                eprintln!(
                    "e2e-harness load: {} answered {} {:?}, expected {:?}",
                    ops[s.op].path(),
                    s.status,
                    s.body.chars().take(200).collect::<String>(),
                    expected.chars().take(200).collect::<String>(),
                );
            }
            wrong += 1;
        }
    }
    attempted += checked;
    failed += wrong;

    let mut out = Json::default();
    let quiet_count = |w: &[(Vec<f64>, u64)]| w.iter().filter(|w| w.1 == 0).count();
    out.num(
        "query_p50_us",
        windowed(&before_service_windows, &before_service, 0.50),
    )
    .num("query_p50_due_us", windowed(&before_windows, &before, 0.50))
    .num("query_p75_due_us", windowed(&before_windows, &before, 0.75))
    .num("query_p90_all_us", pct(&before, 0.90))
    .num("query_p99_all_us", pct(&before, 0.99))
    .num("query_samples", before.len())
    .num("query_windows", before_windows.len())
    .num("query_quiet_windows", quiet_count(&before_windows))
    .raw(
        "reload_s",
        &json::number_array(reloads.iter().map(|r| (r.1 - r.0).as_secs_f64())),
    )
    .raw(
        "reload_steal_ticks",
        &json::number_array(reloads.iter().map(|r| r.2)),
    )
    .num(
        "reload_query_p50_us",
        windowed(&during_service_windows, &during_service, 0.50),
    )
    .num(
        "reload_query_p50_due_us",
        windowed(&during_windows, &during, 0.50),
    )
    .num("reload_query_p90_all_us", pct(&during, 0.90))
    .num("reload_query_p99_all_us", pct(&during, 0.99))
    .num("reload_query_samples", during.len())
    .num("reload_windows", during_windows.len())
    .num("reload_quiet_windows", quiet_count(&during_windows))
    .num("closed_requests", closed_done)
    .num("closed_cpu_ticks", closed_cpu_ticks)
    .num("closed_wall_qps", closed_done as f64 / closed_s)
    .num("rtt_us", pct(&rtts, 0.50))
    .num("open_rate", OPEN_RATE)
    .num("reload_rate", RELOAD_RATE)
    .num("pings", PINGS)
    .num("lateness_p99_us", pct(&late, 0.99))
    .num("lateness_max_us", late.last().copied().unwrap_or(0.0))
    .num("bodies_checked", checked)
    .num("attempted", attempted)
    .num("failed", failed);
    Ok(out.finish())
}
