#!/usr/bin/env python3
"""The repository benchmark: closed-loop workloads over `cqa serve --pipe`,
with per-layer numbers from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The script builds `cqa` and the benchmark's OCaml helper
(perfbench/ocaml/pb.exe) from source, generates the workload's inputs and
their verdict oracles from the seed, drives the binary from this one client
with one request in flight, checks every answer, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. perfbench/NOTES.md explains the workloads,
the metrics and the recorded defects.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".perfbench_build"
WORK_DIR = ".perfbench_work"
CQA = os.path.join(BUILD_DIR, "default", "bin", "cqa_cli.exe")
PB = os.path.join(BUILD_DIR, "default", "perfbench", "ocaml", "pb.exe")
WORKLOADS = ("serve-ptime", "serve-conp", "serve-update")
# Set-ups per end-to-end run; setup_s is their median.
SETUPS = 3
# The daemon's admission bucket is sized so one closed-loop client is never
# shed or downgraded; the final stats frame must confirm it.
DAEMON_FLAGS = ["--admission-capacity", "1e9", "--admission-refill", "1e9"]
# Decades, so that run-to-run changes in the sample count rarely move the
# tail to another rung.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def child_env():
    # One GC regime: children run with the runtime's defaults.
    env = dict(os.environ)
    env.pop("OCAMLRUNPARAM", None)
    env.pop("CAMLRUNPARAM", None)
    return env


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise BenchError("not the root of a cqa checkout: dune-project, lib/ or bin/ missing")
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    env = child_env()
    env["DUNE_CACHE"] = "disabled"  # keep every build output inside the checkout
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--display", "quiet", "bin/cqa_cli.exe", "perfbench/ocaml/pb.exe"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout[-4000:])


def quantile(xs, p):
    """Linear-interpolation quantile, p in [0, 1]."""
    s = sorted(xs)
    if not s:
        raise BenchError("no samples")
    pos = p * (len(s) - 1)
    i = int(pos)
    if i + 1 >= len(s):
        return s[-1]
    return s[i] + (pos - i) * (s[i + 1] - s[i])


def tail_percentile(n):
    """The highest ladder percentile leaving at least ten samples beyond it
    (p50 when fewer than 20 samples leave no rung that qualifies)."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1 - p / 100.0) >= 10:
            best = p
    return best


def wait_rusage(proc):
    """Reap [proc]; return (exit code, peak RSS in MB)."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_maxrss / 1024.0


class Tally:
    """Timed requests: latencies plus failure and oracle bookkeeping."""

    def __init__(self):
        self.lat_ms = []
        self.pos = []  # cycle position of each latency
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.wall_s = 0.0

    def record(self, ms, outcome, pos=0):
        self.attempted += 1
        self.lat_ms.append(ms)
        self.pos.append(pos)
        if outcome != "ok":
            self.failed += 1
        if outcome == "mismatch":
            self.mismatches += 1

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches


def judge(resp, expect):
    """'ok', 'mismatch' (a decided answer that differs from the oracle) or
    'failed' (any other code: shed, downgraded, timeout, error)."""
    code = resp.get("code")
    if code == expect:
        if resp.get("op") == "certain" and resp.get("answer") != (expect == "ok"):
            return "mismatch"
        return "ok"
    if code in ("ok", "not-certain"):
        return "mismatch"
    return "failed"


class Daemon:
    def __init__(self, trace_capacity):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [CQA, "serve", "--pipe", "--trace-capacity", str(trace_capacity)] + DAEMON_FLAGS,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env())

    def send(self, frame):
        """One request; returns (latency in ms, decoded response)."""
        t0 = time.perf_counter()
        self.proc.stdin.write(frame.encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        ms = (time.perf_counter() - t0) * 1000.0
        if not line:
            raise BenchError("daemon closed its output")
        return ms, json.loads(line)

    def must(self, frame, code="ok"):
        _, resp = self.send(frame)
        if resp.get("code") != code:
            raise BenchError("set-up frame answered %s: %s" % (resp.get("code"), resp.get("error")))
        return resp

    def close(self):
        """Shut down (EOF), reap, return the daemon's peak RSS in MB."""
        self.proc.stdin.close()
        _, rss = wait_rusage(self.proc)
        self.proc.stdout.close()
        return rss

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def serve_setup(inputs, trace_capacity):
    """Spawn, load + classify, one untimed pass over the cycle. Returns the
    daemon, ready for its first timed request, and the set-up seconds."""
    d = Daemon(trace_capacity)
    try:
        for frame in inputs["setup"]:
            d.must(frame)
        for step in inputs["cycle"]:
            _, resp = d.send(step["frame"])
            if judge(resp, step["expect"]) != "ok":
                raise BenchError("warm-up request answered %s, oracle %s" % (resp.get("code"), step["expect"]))
        return d, time.perf_counter() - d.t_spawn
    except BaseException:
        d.kill()
        raise


def serve_loop(d, inputs, seconds, tally, on_request=None):
    cycle = inputs["cycle"]
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        step = cycle[i % len(cycle)]
        ms, resp = d.send(step["frame"])
        tally.record(ms, judge(resp, step["expect"]), i % len(cycle))
        i += 1
        if on_request is not None:
            on_request(i, resp, ms)
    tally.wall_s += time.perf_counter() - start


def final_stats(d):
    """The stats frame; admission must never have shed or downgraded."""
    stats = d.must('{"op": "stats"}')
    adm = stats["admission"]
    if adm["shed"] != 0 or adm["downgraded"] != 0:
        raise BenchError("admission interfered: shed %d, downgraded %d" % (adm["shed"], adm["downgraded"]))
    return stats


def serve_pass(d, inputs, seconds, on_request=None):
    """The timed loop on a set-up daemon, the final stats check, shutdown.
    Returns the tally, the final stats frame and the daemon's peak RSS."""
    tally = Tally()
    try:
        serve_loop(d, inputs, seconds, tally, on_request)
        stats = final_stats(d)
    except BaseException:
        d.kill()
        raise
    return tally, stats, d.close()


def serve_e2e(inputs, seconds):
    setups = []
    for _ in range(SETUPS - 1):
        d, s = serve_setup(inputs, 0)
        setups.append(s)
        d.close()
    d, s = serve_setup(inputs, 0)
    setups.append(s)
    tally, stats, rss = serve_pass(d, inputs, seconds)
    counters = stats["counters"]
    # Known defect, recorded not fixed (NOTES.md): Plane_cache.find does not
    # bump its hit count, so planes.hits lags the serve.plane.hit counter.
    log("plane cache: stats planes.hits=%d, counter serve.plane.hit=%d, serve.plane.miss=%d"
        % (stats["planes"]["hits"], counters.get("serve.plane.hit", 0), counters.get("serve.plane.miss", 0)))
    return tally, statistics.median(setups), rss


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(inputs, seconds):
    tally, setup_s, rss = serve_e2e(inputs, seconds)
    n = len(tally.lat_ms)
    p = tail_percentile(n)
    log("timed requests: %d in %.2f s; tail = p%g (%d samples beyond it)"
        % (n, tally.wall_s, p, int(n * (1 - p / 100.0))))
    metrics = {
        "latency_p50_ms": metric(quantile(tally.lat_ms, 0.5), "ms"),
        "latency_tail_ms": metric(quantile(tally.lat_ms, p / 100.0), "ms"),
        "throughput_rps": metric(n / tally.wall_s, "1/s"),
        "success_rate": metric(1.0 - tally.failed / tally.attempted, "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    log("error_rate = %d/%d" % (tally.failed, tally.attempted))
    return tally, metrics


# ---------------------------------------------------------------- traced run

SPAN_METRICS = ("request", "admission", "cache", "solve", "tier", "compile_graph")


def self_times(doc):
    """Per span name, the self time (ms) of one request trace document."""
    spans = doc["spans"]
    child_s = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["duration_s"]
    out = {}
    for s in spans:
        name = s["name"]
        if name == "compile":
            name = "compile_" + str(s["attrs"].get("phase", "other"))
        self_ms = (s["duration_s"] - child_s.get(s["id"], 0.0)) * 1000.0
        out[name] = out.get(name, 0.0) + self_ms
    return out


def traced_pass(inputs, seconds):
    """A daemon with its request-trace ring on; the request traces are
    fetched (untimed) every 32 requests and at the end. Returns the timed
    requests, per-span-name self times, per-request pipe times (client
    latency minus the daemon's own request span) and the plane-cache hit
    ratio of the timed part."""
    d, _ = serve_setup(inputs, 4096)
    latency = {}
    per_name = {}
    pipe_ms = []

    def fetch():
        for doc in d.must('{"op": "trace", "last": 48}')["traces"]:
            root = [s for s in doc["spans"] if s["parent"] is None][0]
            ms = latency.pop(root["attrs"].get("trace_id"), None)
            if ms is None:
                continue  # already read, or not a timed request
            pipe_ms.append(ms - root["duration_s"] * 1000.0)
            for name, self_ms in self_times(doc).items():
                per_name.setdefault(name, []).append(self_ms)

    def on_request(i, resp, ms):
        latency[resp["trace_id"]] = ms
        if i % 32 == 0:
            fetch()

    tally = Tally()
    try:
        before = d.must('{"op": "stats"}')["counters"]
        serve_loop(d, inputs, seconds, tally, on_request)
        fetch()
        after = final_stats(d)["counters"]
    except BaseException:
        d.kill()
        raise
    d.close()
    hits = after.get("serve.plane.hit", 0) - before.get("serve.plane.hit", 0)
    misses = after.get("serve.plane.miss", 0) - before.get("serve.plane.miss", 0)
    ratio = hits / (hits + misses) if hits + misses else 0.0
    return tally, per_name, pipe_ms, ratio


def overhead_pct(base, traced):
    """Median over cycle positions of the traced/untraced latency ratio, so
    the two passes' different request mixes do not enter it."""
    def by_pos(t):
        out = {}
        for pos, ms in zip(t.pos, t.lat_ms):
            out.setdefault(pos, []).append(ms)
        return {p: statistics.median(xs) for p, xs in out.items()}
    b, t = by_pos(base), by_pos(traced)
    ratios = [t[p] / b[p] for p in b if p in t]
    if not ratios:
        raise BenchError("traced and untraced passes share no cycle position")
    return 100.0 * (statistics.median(ratios) - 1.0)


def per_layer(workload, seed, seconds, tiny, inputs):
    cmd = [PB, "layers", "--workload", workload, "--seed", str(seed), "--seconds", str(0.4 * seconds)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("in-process layer pass failed:\n" + proc.stderr[-4000:])
    sys.stdout.write(proc.stderr)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    log("GC settings of the in-process pass: %s" % json.dumps(doc["gc"]))
    metrics = doc["metrics"]
    base, _, _ = serve_pass(serve_setup(inputs, 0)[0], inputs, 0.25 * seconds)
    traced, per_name, pipe_ms, hit_ratio = traced_pass(inputs, 0.25 * seconds)
    tally = Tally()
    tally.add(base)
    tally.add(traced)
    metrics["compile.cache_hit_ratio"] = metric(hit_ratio, "ratio")
    metrics["respond.pipe.ms"] = metric(statistics.median(pipe_ms), "ms")
    for name in SPAN_METRICS:
        xs = per_name.get(name)
        if not xs:
            raise BenchError("no %s spans recorded" % name)
        metrics["trace.%s.self_ms" % name] = metric(statistics.median(xs), "ms")
    metrics["trace.overhead_pct"] = metric(overhead_pct(base, traced), "%")
    log("traced run: untraced p50 %.3f ms over %d, traced p50 %.3f ms over %d, %d request traces"
        % (quantile(base.lat_ms, 0.5), len(base.lat_ms), quantile(traced.lat_ms, 0.5),
           len(traced.lat_ms), len(pipe_ms)))
    return tally, metrics


# ---------------------------------------------------------------------- main

def load_spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        return json.load(f)


def generate(workload, seed, tiny):
    out = os.path.join(WORK_DIR, "%s-%d%s" % (workload, seed, "-tiny" if tiny else ""))
    os.makedirs(out, exist_ok=True)
    cmd = [PB, "gen", "--workload", workload, "--seed", str(seed), "--out", out]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("input generation failed:\n" + proc.stderr[-4000:])
    with open(os.path.join(out, "inputs.json")) as f:
        inputs = json.load(f)
    log("inputs (%s, seed %d): %s" % (workload, seed, json.dumps(inputs["summary"])))
    return inputs


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (the self-check)")
    args = ap.parse_args(argv)
    spec = load_spec()
    try:
        build()
        inputs = generate(args.workload, args.seed, args.tiny)
        if args.trace:
            tally, metrics = per_layer(args.workload, args.seed, args.seconds, args.tiny, inputs)
            wanted = spec["per_layer"]
        else:
            tally, metrics = end_to_end(inputs, args.seconds)
            wanted = spec["end_to_end"]
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            print("perfbench: metric %s was not measured" % m["name"], file=sys.stderr)
            return 2
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            print("perfbench: %s measured in %s, declared in %s" % (m["name"], got["unit"], m["unit"]), file=sys.stderr)
            return 2
        out[m["name"]] = got
    print(json.dumps({
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
