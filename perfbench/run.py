#!/usr/bin/env python3
"""End-to-end certification benchmark for GenProve.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-cells --seed 1 --seconds 45 --trace 0

The first run in a checkout builds the library, genprove_serve and
perfbench_driver under .bench_build/ and trains the model zoo into
.bench_build/data/ (minutes; never timed). Later runs rebuild
incrementally and load the cached zoo. The repository's models/ and
results/ are never read or written.

Workloads (perfbench/workloads.json says why each was chosen and which
layers it loads or bypasses):

  paper-cells        {CelebA*, Zappos*} x {ConvSmall, ConvMed, ConvLarge} x
                     {GenProve^0, GenProve^0.02_100, Box, HybridZono} in
                     round-to-nearest, in process
  paper-cells-sound  the same cells and segments under directed rounding
  serve-mixed        open-loop traffic against genprove_serve

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. A
traced run also writes a Chrome trace of bench-side spans and a self-time
table to .bench_build/traces/. Every valid run is recorded with host
facts in .bench_build/results/; a run is invalid (reported, not
recorded) when the build is not Release or the load average exceeds the
core count. The exit code is 1 when a certification failed or a
correctness check did not hold, 2 on a setup error.

    python3 perfbench/run.py --workload serve-mixed --measure-capacity

measures the daemon's closed-loop capacity over the workload's
connections; serve-mixed's fixed arrival rate is about 55% of that figure.

The driver and the daemon run with a pool of two threads
(workloads.json pool_threads), which leaves room on a small shared host.
Every cell or request is certified several times in a run, and latency
and throughput use each one's fastest repeat: on a shared host other
tenants slow some repeats and not others.
"""

import argparse
import json
import os
import queue
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Paths below are relative to ROOT, which main() makes the working directory.
WORK = ".bench_build"
BUILD = os.path.join(WORK, "perfbench")
DATA = os.path.join(WORK, "data")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SERVE = os.path.join(BUILD, "genprove", "tools", "genprove_serve")

with open(os.path.join(HERE, "workloads.json")) as _f:
    CONFIG = json.load(_f)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def step(cmd, timeout):
    """Run a build or prepare step with its output on stderr."""
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if r.returncode != 0:
        fail(f"exit {r.returncode}: " + " ".join(cmd))


def build():
    """Build (incrementally) and prepare the zoo once per checkout."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(need):
            fail(f"{need} is missing: run from the root of a GenProve checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", "perfbench", "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"] + generator, 300)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD, "--parallel", jobs,
          "--target", "perfbench_driver", "genprove_serve"], 900)
    if not os.path.isfile(os.path.join(DATA, "zoo", "READY")):
        step([DRIVER, "prepare", "--dir", DATA], 900)


def driver(args, timeout):
    """Run one driver subcommand and return its JSON result line."""
    try:
        r = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: perfbench_driver " + " ".join(args))
    if r.returncode != 0 or not r.stdout.strip():
        fail(f"perfbench_driver {args[0]} exited {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Linear-interpolation quantile, as the driver computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    h = q * (len(v) - 1)
    lo = int(h)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def mean(values):
    return sum(values) / len(values) if values else 0.0


#
# Library workloads: the driver does the work and computes the metrics.
#

def run_cells(name, args, trace_out):
    wl = CONFIG["workloads"][name]
    cmd = ["cells", "--dir", DATA, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--limit-s", str(wl["latency_limit_s"])]
    if wl["sound"]:
        cmd.append("--sound")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    res = driver(cmd, timeout=args.seconds + 140)
    if trace_out:
        res["layer"]["cert_samples"] = res["e2e"]["cert_samples"]
    return (res["attempted"], res["failed"],
            res["layer"] if trace_out else res["e2e"], res["info"])


#
# serve-mixed: genprove_serve under open-loop load.
#

class Conn:
    """One client connection speaking the daemon's newline-JSON protocol."""

    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = b""

    def request(self, msg):
        self.sock.sendall(json.dumps(msg).encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def close(self):
        self.sock.close()


class Daemon:
    """genprove_serve listening on a Unix socket under .bench_build/."""

    def __init__(self, nets, cache_mb):
        self.path = os.path.join(WORK, f"serve-{os.getpid()}.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        cmd = [SERVE, "--socket", self.path, "--cache-mb", str(cache_mb)]
        for name, files in nets.items():
            cmd += ["--net", name + "=" + "+".join(files)]
        self.log = open(os.path.join(WORK, "serve.log"), "ab")
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=self.log)

    def wait_ready(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                fail(f"genprove_serve exited {self.proc.returncode} during "
                     f"start-up (see {WORK}/serve.log)")
            try:
                conn = Conn(self.path, 10)
            except OSError:
                time.sleep(0.002)
                continue
            try:
                if conn.request({"type": "ping"}).get("type") == "pong":
                    return
            finally:
                conn.close()
        fail("genprove_serve did not answer a ping")

    def call(self, msg):
        conn = Conn(self.path, 30)
        try:
            return conn.request(msg)
        finally:
            conn.close()

    def counters(self):
        """/stats fields plus every unlabeled Prometheus series."""
        stats = self.call({"type": "stats"})
        prom = {}
        for line in stats.get("prometheus", "").splitlines():
            parts = line.split()
            if len(parts) == 2 and not line.startswith("#") and "{" not in line:
                try:
                    prom[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        stats["prom"] = prom
        return stats

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


def verify_msg(pool, seg, net, rid, deadline_ms):
    msg = {"type": "verify", "id": rid, "net": net,
           "input_shape": seg["input_shape"], "start": seg["start"],
           "end": seg["end"], "specs": seg["specs"], "p": pool["p"],
           "k": pool["k"], "threshold": pool["threshold"]}
    if deadline_ms:
        msg["deadline_ms"] = deadline_ms
    return msg


def make_plan(pool, wl, seed, seconds):
    """Open-loop schedule from the seed: arrivals evenly spaced at the fixed
    rate, so every run offers the same load without bursts (Poisson arrival
    times moved p50 and p90 by 50-70% between seeds). The requests are the
    same multiset in every run: nets in a fixed rotation, each net's
    segments in exact Zipf proportions over its dataset pool (so hot
    segments repeat exactly, and shoes segments reach both shoes pipelines,
    which share the decoder), and a fixed share with a deadline. The seed
    orders them. The run is `laps` such schedules back to back, each in its
    own order, so every request repeats at least `laps` times, behind
    different neighbours (see run_serve)."""
    laps = wl["laps"]
    return [(k * seconds / laps + t, seg, net, deadline)
            for k in range(laps)
            for t, seg, net, deadline in lap_plan(pool, wl, seed, k,
                                                  seconds / laps)]


def lap_plan(pool, wl, seed, lap, seconds):
    rng = random.Random(seed + 1000003 * lap)
    by_net = {}
    for seg in pool["segments"]:
        for net in seg["nets"]:
            by_net.setdefault(net, []).append(seg["id"])
    ranked = {net: sorted(ids) for net, ids in by_net.items()}
    count = round(wl["rate_per_s"] * seconds)
    times = [(i + 0.5) * seconds / count for i in range(count)]
    rotation = wl["net_rotation"]
    nets = [rotation[i % len(rotation)] for i in range(count)]
    segs = {}
    for net in sorted(set(nets)):
        ids = ranked[net]
        weights = [1.0 / (r + 1) ** wl["zipf_s"] for r in range(len(ids))]
        segs[net] = zipf_multiset(ids, weights, nets.count(net))
        rng.shuffle(segs[net])
    late = set(rng.sample(range(count), round(count * wl["deadline_share"])))
    return [(t, segs[net].pop(), net, wl["deadline_ms"] if i in late else 0)
            for i, (t, net) in enumerate(zip(times, nets))]


def zipf_multiset(ids, weights, n):
    """n draws in exact proportion to weights (largest remainder)."""
    quotas = [n * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(ids)), key=lambda r: counts[r] - quotas[r])
    for r in by_remainder[:n - sum(counts)]:
        counts[r] += 1
    return [ids[r] for r, c in enumerate(counts) for _ in range(c)]


def open_loop(daemon, pool, plan, conns):
    """Send each request at its due time; requests wait in one FIFO for
    the next free connection of at most `conns`."""
    segs = {s["id"]: s for s in pool["segments"]}
    jobs = queue.Queue()
    done = [None] * len(plan)
    clients = [Conn(daemon.path, 60) for _ in range(conns)]

    def worker(slot, conn):
        while True:
            job = jobs.get()
            if job is None:
                return
            i, due, dispatched = job
            _, seg, net, deadline = plan[i]
            sent = time.monotonic()
            try:
                resp = conn.request(verify_msg(pool, segs[seg], net, f"r{i}",
                                               deadline))
            except (OSError, ValueError) as e:
                resp = {"status": "unanswered", "error": str(e)}
            done[i] = {"key": (seg, net), "due": due, "dispatched": dispatched,
                       "sent": sent, "answered": time.monotonic(),
                       "slot": slot, "resp": resp}

    threads = [threading.Thread(target=worker, args=(k, c))
               for k, c in enumerate(clients)]
    for th in threads:
        th.start()
    start = time.monotonic() + 0.01
    try:
        for i, (offset, _, _, _) in enumerate(plan):
            delay = start + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            jobs.put((i, start + offset, time.monotonic()))
    finally:
        for _ in threads:
            jobs.put(None)
        for th in threads:
            th.join()
        for c in clients:
            c.close()
    return done, start


def bits(x):
    return struct.pack("<d", x)


def check_served(done, refs):
    """Mark each answer ok or not; return the failure messages."""
    failures = []
    for i, d in enumerate(done):
        if d is None:
            failures.append(f"r{i}: never sent")
            continue
        resp = d["resp"]
        d["ok"] = False
        if resp.get("status") != "ok" or resp.get("rung") != "configured":
            failures.append(f"r{i}: status {resp.get('status')} rung "
                            f"{resp.get('rung')} {resp.get('error', '')}")
            continue
        ref = refs[d["key"]]
        specs = resp.get("specs", [])
        if ref["degraded"] or ref["oom"] or len(specs) != len(ref["bounds"]):
            failures.append(f"r{i}: library reference unusable")
            continue
        for s, (lo, up) in zip(specs, ref["bounds"]):
            if not 0.0 <= s["lower"] <= s["upper"] <= 1.0:
                failures.append(f"r{i}: bound not in [0,1] with l <= u")
                break
            if bits(s["lower"]) != bits(lo) or bits(s["upper"]) != bits(up):
                failures.append(f"r{i}: served bounds differ from the library's")
                break
        else:
            d["ok"] = True
    return failures


def serve_trace(path, done, start, end, ref_span):
    """Chrome trace of bench-side spans per request (request > loadgen lag,
    connection wait, round trip > daemon-reported queue and run time) and
    the per-span self-time table."""
    events, self_time = [], {}

    def span(name, tid, t0, t1, args, children=0.0):
        events.append({"name": name, "cat": "perfbench", "ph": "X",
                       "ts": (t0 - start) * 1e6, "dur": (t1 - t0) * 1e6,
                       "pid": 1, "tid": tid, "args": args})
        calls, secs = self_time.get(name, (0, 0.0))
        self_time[name] = (calls + 1, secs + (t1 - t0) - children)

    for i, d in enumerate(done):
        if d is None:
            continue
        tid = d["slot"] + 2
        q = d["resp"].get("queue_ms", 0.0) / 1000.0
        r = d["resp"].get("run_ms", 0.0) / 1000.0
        cert = {"cert": i}
        span("serve.queue", tid, d["sent"], d["sent"] + q, cert)
        span("serve.run", tid, d["sent"] + q, d["sent"] + q + r, cert)
        span("serve.roundtrip", tid, d["sent"], d["answered"], cert,
             children=q + r)
        span("loadgen.lag", tid, d["due"], d["dispatched"], cert)
        span("loadgen.conn_wait", tid, d["dispatched"], d["sent"], cert)
        span("request", tid, d["due"], d["answered"],
             {"cert": i, "net": d["key"][1], "segment": d["key"][0],
              "status": d["resp"].get("status")},
             children=d["answered"] - d["due"])
    events.append({"name": "workload", "cat": "perfbench", "ph": "X",
                   "ts": 0.0, "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
                   "args": {"workload": "serve-mixed"}})
    events.append({"name": "check.serve-ref", "cat": "perfbench", "ph": "X",
                   "ts": (ref_span[0] - start) * 1e6,
                   "dur": (ref_span[1] - ref_span[0]) * 1e6, "pid": 1,
                   "tid": 1, "args": {}})
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)
    total = sum(s for _, s in self_time.values()) or 1.0
    lines = [f"{'span':36s} {'calls':>8s} {'self_s':>12s} {'share':>7s}"]
    for name, (calls, secs) in sorted(self_time.items(),
                                      key=lambda kv: -kv[1][1]):
        lines.append(f"{name:36s} {calls:8d} {secs:12.6f} "
                     f"{100 * secs / total:6.1f}%")
    table = "\n".join(lines) + "\n"
    sys.stderr.write(table)
    with open(path + ".selftime.txt", "w") as f:
        f.write(table)


def start_daemon(pool, wl, reps):
    """Spawn the daemon `reps` times, timing spawn to first pong; keep the
    last one running."""
    setups, daemon = [], None
    for _ in range(reps):
        if daemon:
            daemon.stop()
        t0 = time.monotonic()
        daemon = Daemon(pool["nets"], wl["cache_mb"])
        try:
            daemon.wait_ready()
        except BaseException:
            daemon.stop()
            raise
        setups.append(time.monotonic() - t0)
    return daemon, setups


def warm_up(daemon, pool):
    """One request per pipeline on a short piece of a pool segment, so the
    measured phase starts warm without putting its own keys in the cache."""
    warmed = set()
    for seg in pool["segments"]:
        piece = dict(seg, end=[a + 0.25 * (b - a)
                               for a, b in zip(seg["start"], seg["end"])])
        for net in seg["nets"]:
            if net not in warmed:
                warmed.add(net)
                daemon.call(verify_msg(pool, piece, net, "warm", 0))


def run_serve(args, trace_out):
    wl = CONFIG["workloads"]["serve-mixed"]
    pool = driver(["serve-pool", "--dir", DATA, "--seed", str(args.seed)], 60)
    plan = make_plan(pool, wl, args.seed, args.seconds)
    daemon, setups = start_daemon(pool, wl, CONFIG["setup_reps"])
    try:
        warm_up(daemon, pool)
        before = daemon.counters()
        done, start = open_loop(daemon, pool, plan, wl["connections"])
        end = max(d["answered"] for d in done if d)
        after = daemon.counters()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    # Library bounds for every distinct answered (segment, net), compared
    # bit for bit with the served ones.
    ref_start = time.monotonic()
    items = sorted({d["key"] for d in done
                    if d and d["resp"].get("status") == "ok"})
    items_path = os.path.join(WORK, f"serve-items-{os.getpid()}.txt")
    with open(items_path, "w") as f:
        f.writelines(f"{seg} {net}\n" for seg, net in items)
    try:
        ref = driver(["serve-ref", "--dir", DATA, "--seed", str(args.seed),
                      "--items", items_path], 120)
    finally:
        os.unlink(items_path)
    ref_span = (ref_start, time.monotonic())
    refs = {(it["seg"], it["net"]): it for it in ref["items"]}
    failures = check_served(done, refs)
    for msg in failures[:10]:
        log("FAILED " + msg)

    ok = [d for d in done if d and d["ok"]]
    wall = end - start
    lat = [d["answered"] - d["due"] for d in ok]
    # The order of a run's requests, and other tenants of a shared host,
    # delay some repeats of a request and not others: the latency quantiles
    # are over the distinct (segment, net) requests, each at its fastest.
    best = {}
    for d, x in zip(ok, lat):
        best[d["key"]] = min(best.get(d["key"], x), x)
    best = list(best.values())
    bounds = [s for d in ok for s in d["resp"]["specs"]]
    e2e = {
        "setup_s": statistics.median(setups),
        "cert_p50_s": quantile(best, 0.5),
        "cert_p90_s": quantile(best, 0.9),
        "cert_samples": len(lat),
        "certs_per_s": len(ok) / wall,
        "goodput_per_s": sum(x <= wl["latency_limit_s"] for x in lat) / wall,
        "width_mean": mean([s["upper"] - s["lower"] for s in bounds]),
        "nontrivial_frac": mean([s["lower"] > 0.0 or s["upper"] < 1.0
                                 for s in bounds]),
        "peak_device_mb": max([it["peak_bytes"] for it in ref["items"]]
                              or [0]) / 2.0 ** 20,
        "rss_mb": rss,
    }

    def delta(name):
        return after["prom"].get(name, 0.0) - before["prom"].get(name, 0.0)

    answered = [d for d in done if d and "queue_ms" in d["resp"]]
    queue_ms = [d["resp"]["queue_ms"] for d in answered]
    run_ms = [d["resp"]["run_ms"] for d in answered]
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    busy = delta("genprove_pool_busy_seconds")
    idle = delta("genprove_pool_idle_seconds")
    # core/propagate/tensor come from the library re-run of the served
    # items (engine-reported); everything else from the daemon and client.
    layer = dict(ref["layer"])
    layer.update({
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.warm_layers": delta("genprove_cache_warm_layers"),
        "cache.evictions": after["cache_evictions"] - before["cache_evictions"],
        "cache.bytes": after["cache_bytes"],
        "pool.tasks": delta("genprove_pool_tasks"),
        "pool.steals": delta("genprove_pool_steals"),
        "pool.busy_ratio": busy / (busy + idle) if busy + idle else 0.0,
        "serve.queue_ms_p50": quantile(queue_ms, 0.5),
        "serve.queue_ms_p90": quantile(queue_ms, 0.9),
        "serve.run_ms_p50": quantile(run_ms, 0.5),
        "serve.run_ms_p90": quantile(run_ms, 0.9),
        "serve.overhead_ms": quantile(
            [1000.0 * (d["answered"] - d["sent"]) - d["resp"]["queue_ms"]
             - d["resp"]["run_ms"] for d in answered], 0.5),
        "serve.shed": after["shed"] - before["shed"],
        "serve.degraded": sum(d["resp"].get("status") == "degraded"
                              for d in done if d),
        "shard.retries": delta("genprove_shard_retries"),
        "shard.fallbacks": delta("genprove_shard_fallbacks"),
        "loadgen.lag_p99_ms": 1000.0 * quantile(
            [d["dispatched"] - d["due"] for d in done if d], 0.99),
        "loadgen.conn_wait_ms": 1000.0 * mean(
            [d["sent"] - d["dispatched"] for d in done if d]),
        # Spans are assembled after the run from timestamps the untraced
        # run records too, so tracing adds no work here.
        "trace.overhead_frac": 0.0,
        "cert_samples": len(lat),
    })
    if trace_out:
        serve_trace(trace_out, done, start, end, ref_span)
    return len(plan), len(failures), layer if trace_out else e2e, pool["info"]


def measure_capacity(args):
    """Closed loop: each connection sends its next request as soon as the
    previous answer arrives; prints completed requests per second."""
    wl = CONFIG["workloads"]["serve-mixed"]
    pool = driver(["serve-pool", "--dir", DATA, "--seed", str(args.seed)], 60)
    plan = make_plan(pool, dict(wl, rate_per_s=1.0), args.seed, 10000.0)
    segs = {s["id"]: s for s in pool["segments"]}
    conns = wl["connections"]
    counts = [0] * conns
    daemon, _ = start_daemon(pool, wl, 1)
    try:
        warm_up(daemon, pool)
        stop = time.monotonic() + args.seconds

        def client(k):
            conn = Conn(daemon.path, 60)
            i = k
            while time.monotonic() < stop:
                _, seg, net, _ = plan[i % len(plan)]
                conn.request(verify_msg(pool, segs[seg], net, f"c{i}", 0))
                counts[k] += 1
                i += conns
            conn.close()

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(conns)]
        t0 = time.monotonic()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.monotonic() - t0
    finally:
        daemon.stop()
    print(json.dumps({"capacity_per_s": sum(counts) / wall,
                      "connections": conns}))


#
# Host facts and the result line.
#

def commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() or "unknown"


def record(args, result, info, load_before):
    cores = os.cpu_count() or 1
    facts = {"cores": cores, "load_before": load_before,
             "load_after": os.getloadavg()[0],
             "pool_threads": info.get("pool_threads"),
             "build_type": info.get("build_type"),
             "compiler": info.get("compiler"), "commit": commit()}
    log("host " + json.dumps(facts))
    problems = []
    if facts["build_type"] != "Release":
        problems.append(f"build type is {facts['build_type']}")
    load = max(facts["load_before"], facts["load_after"])
    if load > cores:
        problems.append(f"load average {load:.2f} exceeds {cores} cores")
    if problems:
        log("run invalid, not recorded: " + "; ".join(problems))
        return
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "host": facts, "result": result}, f, indent=1)


def main():
    ap = argparse.ArgumentParser(
        description="GenProve end-to-end certification benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(CONFIG["workloads"]))
    ap.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--measure-capacity", action="store_true",
                    help="serve-mixed only: measure closed-loop capacity")
    args = ap.parse_args()

    os.chdir(ROOT)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(WORK, "tmp"))
    # The driver and the daemon size their pools from this.
    os.environ["GENPROVE_THREADS"] = str(CONFIG["pool_threads"])
    build()
    if args.measure_capacity:
        measure_capacity(args)
        return 0

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_out = os.path.join(WORK, "traces", f"{args.workload}-seed"
                                 f"{args.seed}.trace.json")
    load_before = os.getloadavg()[0]
    if args.workload == "serve-mixed":
        attempted, failed, metrics, info = run_serve(args, trace_out)
    else:
        attempted, failed, metrics, info = run_cells(args.workload, args,
                                                     trace_out)

    metrics["failed_frac"] = failed / attempted if attempted else 1.0
    idle = tuple(CONFIG["workloads"][args.workload]["idle_layers"])
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in names:
        if m["name"] not in metrics and m["name"].startswith(idle):
            metrics[m["name"]] = 0.0
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    result = {"correct": attempted > 0 and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                      "unit": m["unit"]} for m in names}}
    record(args, result, info, load_before)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
