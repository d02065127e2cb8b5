#!/usr/bin/env python3
"""End-to-end benchmark of the ingest -> communities / clique-log -> serve path.

Run from the repository root:

    python3 e2ebench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0

It builds `kclique-cli` and the benchmark's own harness from source, makes
the workload's inputs from --seed, drives the CLI the way a user does (one
stage at a time, tracing off, --threads set to nproc), checks every output,
and prints two JSON lines: a report with the machine fingerprint and the raw
samples, then the result. With --trace 1 the result carries the per-layer
metrics of a separate traced run instead of the end-to-end ones.

Every workload runs the whole path, because every run reports every
end-to-end metric; a workload sets the presets of its batch stages and of
its daemon, how much of the run each part gets, and which part is its
set-up (see README.md).
"""

import argparse
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

STAGES = ["ingest", "exact_all_k", "almost_all_k", "exact_k4", "clique_log"]

# Each workload runs the whole path. `preset` is the batch stages'
# graph and `serve_preset` the daemon's; `batch_share` is the part of
# --seconds the batch passes get, and `setup` names the part reported as
# setup_s.
WORKLOADS = {
    "batch-paper": dict(preset="full", serve_preset="medium", setup="ingest",
                        batch_share=0.65, serve_starts=1),
    "serve-mixed": dict(preset="medium", serve_preset="medium", setup="serve",
                        batch_share=0.5, serve_starts=2),
}
# The parts of --seconds the open loop before the reload and the closed
# loop get, in every workload.
OPEN_SHARE = 0.35
CLOSED_SHARE = 0.1

END_TO_END = {
    "setup_s": "s", "exact_all_k_s": "s", "almost_all_k_s": "s",
    "exact_k4_s": "s", "clique_log_s": "s", "exact_peak_rss_mb": "MB",
    "almost_peak_rss_mb": "MB", "query_p50_us": "us",
    "query_qps": "1/s", "reload_s": "s", "serve_peak_rss_mb": "MB",
}

SERVE_THREADS = 2     # the daemon's workers, and the load's connection cap
TIMEOUT_S = 150       # no single child may outlive the run's deadline
# Peak-RSS sampling period. Sampling takes CPU from the stage it
# watches (5 % at 1 ms on two cores), so only the stages whose peak
# RSS is a metric are sampled.
POLL_S = 0.005
RSS_STAGES = ("exact_all_k", "almost_all_k")
# The time each stage fills in every batch pass: a short stage runs
# several times, so its median rests on as many samples as its noise
# (process start, page cache) needs.
MIN_STAGE_S = 0.4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build(target):
    """Builds the CLI and the harness; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (["-p", "cli"],
                 ["--manifest-path", "e2ebench/harness/Cargo.toml"]):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                       env=env, check=True, stdout=sys.stderr)
    return (os.path.join(target, "release", "kclique-cli"),
            os.path.join(target, "release", "e2e-harness"))


def vm_hwm_mb(pid):
    """The process's peak resident set (VmHWM) so far, or None once it
    has exited."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class Child:
    """A spawned process and its peak RSS: the last VmHWM read while it
    ran. With `poll` the reading repeats every POLL_S from spawn to
    exit; the daemon, whose peak is long past when it is stopped, is
    read once by `sample` before the stop. (wait4's ru_maxrss would be
    simpler, but it starts from this interpreter's own RSS, which the
    child holds until it execs.)"""

    def __init__(self, args, poll, **popen):
        self.proc = subprocess.Popen(args, **popen)
        self.peak_mb = 0.0
        self._done = threading.Event()
        self._sampler = threading.Thread(target=self._poll) if poll else None
        if self._sampler:
            self._sampler.start()

    def sample(self):
        hwm = vm_hwm_mb(self.proc.pid)
        if hwm is not None:
            self.peak_mb = max(self.peak_mb, hwm)

    def _poll(self):
        while not self._done.is_set():
            self.sample()
            self._done.wait(POLL_S)

    def reap(self, deadline_s=TIMEOUT_S):
        """Waits for the exit: (exit code, peak RSS in MB)."""
        killer = threading.Timer(deadline_s, self.proc.kill)
        killer.start()
        try:
            # A blocking wait: Popen.wait(timeout) polls with sleeps
            # that would quantise the stage times.
            self.proc.wait()
        finally:
            killer.cancel()
            self._done.set()
            if self._sampler:
                self._sampler.join()
        return self.proc.returncode, self.peak_mb


def run_stage(args, err_path, poll=False):
    """One CLI process: (wall s, peak RSS MB, exit code, stdout bytes,
    steal s during it)."""
    with open(err_path, "wb") as err:
        steal = steal_s()
        start = time.perf_counter()
        child = Child(args, poll=poll, stdout=subprocess.PIPE, stderr=err)
        out = child.proc.stdout.read()
        child.proc.stdout.close()
        rc, rss = child.reap()
        wall = time.perf_counter() - start
        return wall, rss, rc, out, steal_s() - steal


def harness(exe, sub, **flags):
    args = [exe, sub]
    for k, v in flags.items():
        args += ["--" + k.replace("_", "-"), str(v)]
    out = subprocess.run(args, stdout=subprocess.PIPE, check=True, timeout=TIMEOUT_S).stdout
    return json.loads(out)


class Tally:
    """Operations attempted and failed, for the result line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")


def all_k_row(table, k):
    """The communities column of row `k` of an --all-k table."""
    for line in table.decode().splitlines():
        cells = line.split()
        if len(cells) == 3 and cells[0] == str(k):
            return int(cells[1])
    return None


def batch_pass(cli, work, threads, gen, tally):
    """The batch stages once, in order, each checked; returns per-stage
    lists of (wall s, peak RSS MB, steal s). A stage shorter than
    MIN_STAGE_S runs again until it has filled that time."""
    edges, gmap, clog = (os.path.join(work, n) for n in ("graph.edges", "graph.map", "g.cliquelog"))
    t = ["--threads", str(threads)]
    argv = {
        "ingest": [cli, "ingest", "--input", os.path.join(work, "caida.aslinks"),
                   "--input", os.path.join(work, "dimes.csv"),
                   "--input", os.path.join(work, "extra.edges"),
                   "--largest-cc", "--out", edges, "--map", gmap],
        "exact_all_k": [cli, "communities", "--input", edges, "--all-k", "--mode", "exact"] + t,
        "almost_all_k": [cli, "communities", "--input", edges, "--all-k", "--mode", "almost"] + t,
        "exact_k4": [cli, "communities", "--input", edges, "--k", "4"] + t,
        "clique_log": [cli, "clique-log", "build", "--input", edges, "--out", clog],
    }
    got, out = {s: [] for s in STAGES}, {}
    for stage in STAGES:
        while sum(x[0] for x in got[stage]) < MIN_STAGE_S:
            wall, rss, rc, out[stage], steal = run_stage(
                argv[stage], os.path.join(work, stage + ".err"), poll=stage in RSS_STAGES)
            tally.check(rc == 0, f"{stage} exited {rc}")
            got[stage].append((wall, rss, steal))

    def same(a, b):
        with open(os.path.join(work, a), "rb") as x, open(os.path.join(work, b), "rb") as y:
            return x.read() == y.read()
    tally.check(same("graph.edges", "truth.edges") and same("graph.map", "truth.map"),
                "ingest output differs from the generated graph")
    tally.check(out["exact_all_k"] == out["almost_all_k"],
                "exact and almost --all-k tables differ")
    head = out["exact_k4"].split(b"\n", 1)[0].split()
    k4 = int(head[1]) if len(head) > 1 and head[1].isdigit() else None
    tally.check(k4 is not None and k4 == all_k_row(out["exact_all_k"], 4),
                f"--k 4 found {k4} communities, the all-k table another count")
    _, _, rc, info, _ = run_stage([cli, "clique-log", "info", "--log", clog],
                                  os.path.join(work, "info.err"))
    cliques = None
    for line in info.decode().splitlines():
        cells = line.split()
        if len(cells) == 2 and cells[0] == "cliques":
            cliques = int(cells[1])
    tally.check(rc == 0 and cliques == gen["max_cliques"],
                f"clique-log info reports {cliques} cliques, expected {gen['max_cliques']}")
    return got


def http_status(addr, path):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode())
        head = s.recv(64).split(b" ")
    return int(head[1]) if len(head) > 1 and head[1].isdigit() else None


def start_serve(cli, snapshot, tally):
    """Spawns the daemon; returns (process, address, (seconds from spawn
    to the first 200 on /healthz, steal s meanwhile))."""
    steal = steal_s()
    start = time.perf_counter()
    child = Child([cli, "serve", "--snapshot", snapshot, "--addr", "127.0.0.1:0",
                   "--threads", str(SERVE_THREADS)],
                  poll=False, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    ready, _, _ = select.select([child.proc.stdout], [], [], TIMEOUT_S)
    line = child.proc.stdout.readline().decode() if ready else ""
    if "http://" not in line:
        child.proc.kill()
        child.reap()
        raise RuntimeError(f"serve did not start: {line!r}")
    addr = line.split("http://", 1)[1].split()[0]
    status = http_status(addr, "/healthz")
    setup = time.perf_counter() - start
    tally.check(status == 200, f"/healthz answered {status}")
    return child, addr, (setup, steal_s() - steal)


def stop_serve(child, tally):
    child.sample()
    child.proc.send_signal(signal.SIGINT)
    rc, rss = child.reap(30)
    child.proc.stdout.close()
    tally.check(rc == 0, f"serve exited {rc} after SIGINT")
    return rss


def net_median(samples):
    """The wall time of (wall s, steal s) samples net of the host's
    steal: each wall less its steal spread over the machine's vCPUs,
    and the median taken over the samples the host took the least from
    (those whose steal is at most that of the quietest half, rounded
    up; ties kept). The host's steal comes in stretches and slows the
    guest beyond the time it takes, so it is both taken out and
    avoided. With no steal this is the plain median wall time."""
    cut = sorted(s for _, s in samples)[(len(samples) - 1) // 2]
    return statistics.median(w - s / VCPUS for w, s in samples if s <= cut)


def steal_s():
    """CPU time the hypervisor has taken from this machine so far,
    summed over its vCPUs: when it grows during a run, the run shared
    its cores with other guests."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


with open("/proc/stat") as _f:
    # The machine's vCPUs, whose steal the first line of /proc/stat sums.
    VCPUS = sum(1 for line in _f if line[:3] == "cpu" and line[3].isdigit())


def fingerprint():
    def first(path, key):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def cmd(args):
        try:
            return subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"
    return {
        "commit": cmd(["git", "rev-parse", "HEAD"]),
        "nproc": nproc(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "rustc": cmd(["rustc", "--version"]),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "peak_rss_method": "VmHWM from /proc/<pid>/status: the exact and almost stages "
                           "sampled every 5 ms until exit, the daemon read before it is stopped",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--preset", help="override the workload's preset (the smoke test uses tiny)")
    args = ap.parse_args()
    # A terminated run still stops the daemon it started (the finally
    # blocks below run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = dict(WORKLOADS[args.workload])
    if args.preset:
        w["preset"] = w["serve_preset"] = args.preset
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        log("run from the repository root: Cargo.toml and crates/ are not here")
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cli, exe = build(target)
    work = os.path.abspath(os.path.join(".bench_work", args.workload))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    steal_at_start = steal_s()
    threads = nproc()
    tally = Tally()
    gen = harness(exe, "gen", preset=w["preset"], seed=args.seed, out=work)
    # The daemon serves the batch stages' clique log, or, with a preset
    # of its own, a log built here once, untimed.
    clog = os.path.join(work, "g.cliquelog")
    serve_edges = os.path.join(work, "truth.edges")
    if w["serve_preset"] != w["preset"]:
        serve_work = os.path.join(work, "serve")
        harness(exe, "gen", preset=w["serve_preset"], seed=args.seed, out=serve_work)
        serve_edges = os.path.join(serve_work, "truth.edges")
        clog = os.path.join(serve_work, "g.cliquelog")
        rc = run_stage([cli, "clique-log", "build", "--input", serve_edges, "--out", clog],
                       os.path.join(serve_work, "clique_log.err"))[2]
        tally.check(rc == 0, f"clique-log build for the daemon exited {rc}")

    # The batch passes run in blocks spread over the whole run, one
    # before each daemon start-up and one after the load: the machine's
    # speed drifts over tens of seconds, and the medians should sample
    # the whole run, not its first seconds.
    samples = {s: [] for s in STAGES}
    blocks = w["serve_starts"] + 1
    passes = 0

    def batch_block():
        nonlocal passes
        end = time.monotonic() + w["batch_share"] * args.seconds / blocks
        block_passes = 0
        while block_passes == 0 or time.monotonic() < end:
            for stage, got in batch_pass(cli, work, threads, gen, tally).items():
                samples[stage] += got
            block_passes += 1
        passes += block_passes

    startups, server = [], None
    try:
        for i in range(w["serve_starts"]):
            batch_block()
            server, addr, setup = start_serve(cli, clog, tally)
            startups.append(setup)
            if i + 1 < w["serve_starts"]:
                stop_serve(server, tally)
                server = None
        load = harness(exe, "load", addr=addr, server_pid=server.proc.pid, log=clog,
                       edges=serve_edges, seed=args.seed,
                       open_secs=OPEN_SHARE * args.seconds,
                       closed_secs=CLOSED_SHARE * args.seconds)
        serve_rss = stop_serve(server, tally)
        server = None
    finally:
        if server is not None:
            server.proc.kill()
            server.reap()
    batch_block()
    tally.attempted += load["attempted"]
    tally.failed += load["failed"]

    wall = {s: net_median([(x[0], x[2]) for x in samples[s]]) for s in STAGES}
    rss = {s: statistics.median(x[1] for x in samples[s]) for s in STAGES}
    values = {
        "setup_s": wall["ingest"] if w["setup"] == "ingest" else net_median(startups),
        "exact_all_k_s": wall["exact_all_k"],
        "almost_all_k_s": wall["almost_all_k"],
        "exact_k4_s": wall["exact_k4"],
        "clique_log_s": wall["clique_log"],
        "exact_peak_rss_mb": rss["exact_all_k"],
        "almost_peak_rss_mb": rss["almost_all_k"],
        "query_p50_us": load["query_p50_us"],
        # Requests per second of the daemon's CPU time (see load.rs).
        "query_qps": load["closed_requests"] * os.sysconf("SC_CLK_TCK")
                     / max(load["closed_cpu_ticks"], 1),
        "reload_s": net_median([(r, t / os.sysconf("SC_CLK_TCK")) for r, t in
                                zip(load["reload_s"], load["reload_steal_ticks"])]),
        "serve_peak_rss_mb": serve_rss,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    trace = None
    if args.trace:
        trace = harness(exe, "trace", dir=work, threads=threads, seed=args.seed)
        layer = dict(trace["metrics"])
        layer["serve.rtt_us"] = load["rtt_us"]
        for stage in STAGES:
            untraced_ms = wall[stage] * 1e3
            traced = trace["stages"][stage]
            layer[f"cli.{stage}.unaccounted_ms"] = untraced_ms - traced["layer_ms"]
            layer[f"trace.{stage}.overhead_ms"] = traced["traced_ms"] - untraced_ms
        with open(os.path.join(work, "spans.json"), "w") as f:
            json.dump(trace["spans"], f)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layer.items())}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "preset": w["preset"], "serve_preset": w["serve_preset"], "generated": gen,
        "fingerprint": fingerprint(), "batch_passes": passes,
        "stage_wall_s": {s: [x[0] for x in samples[s]] for s in STAGES},
        "stage_steal_s": {s: [x[2] for x in samples[s]] for s in STAGES},
        "stage_peak_rss_mb": {s: [x[1] for x in samples[s]] for s in STAGES},
        "serve_startups_s": [x[0] for x in startups],
        "serve_startup_steal_s": [x[1] for x in startups], "load": load,
        "failed_ratio": tally.failed / tally.attempted,
        "steal_s": steal_s() - steal_at_start,
    }
    if trace:
        report["trace_stages"] = trace["stages"]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def layer_unit(name):
    for suffix, unit in (("_ms", "ms"), ("_ns", "ns"), ("_us", "us"), ("_mb", "MB"),
                         ("_bytes", "bytes"), ("_ratio", "ratio"), ("_per_s", "MB/s"),
                         ("_speedup", "x")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
