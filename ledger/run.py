#!/usr/bin/env python3
"""The layer ledger: this repository's benchmark (see ledger/LEDGER.md).

    python3 ledger/run.py --workload adj6_1w --seed 42 --seconds 25 --trace 0

Run from the root of a source checkout. The first run configures and builds
gen_cli, serve_cli and the ledger's own per-layer replay program
(ledger/layers.cc) into .bench_build/ with the repository's CMake project;
later runs reuse it.

--trace 0 runs the workload untraced for --seconds and prints every
end-to-end metric; --trace 1 replays the workload through each layer's public
call and prints every per-layer metric. Either way the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it give the context (machine, build, trials, quartiles).
"""

import argparse
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 42

# Each workload's program and why it exists: ledger/LEDGER.md.
WORKLOADS = {
    "adj6_1w": {
        "kind": "gen",
        "scale": 22,
        "args": ["--edge_factor", "16", "--workers", "1", "--format", "adj6"],
        "workers": 1,
        "format": "adj6",
        "report": False,
    },
    "tsv_2w_report": {
        "kind": "gen",
        "scale": 22,
        "args": ["--workers", "2", "--format", "tsv"],
        "workers": 2,
        "format": "tsv",
        "report": True,
    },
    "serve_mix": {
        "kind": "serve",
        "scale": 16,
        "workers": 2,
        "format": "adj6",
    },
}
SMOKE_SCALE = {"gen": 14, "serve": 10}

# serve_mix requests per second of --seconds: sized on a 4-core VM so a run
# lasts about --seconds; the count is fixed per --seconds, so the sample
# composition (1 cold : 3 cached) never depends on the program's speed.
SERVE_REQUESTS_PER_SECOND = 56
# Daemon spawns per serve run; setup_s is their median.
SERVE_SPAWNS = 5
MIN_GEN_TRIALS = 3


class Fail(Exception):
    """A setup step failed: the benchmark cannot measure anything."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# --------------------------------------------------------------------------
# Build


def build(root, bdir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        raise Fail("no repository sources here: run from a checkout root")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", root, "-B", bdir,
            "-DCMAKE_PROJECT_trilliong_INCLUDE=" +
            os.path.join(HERE, "hook.cmake"),
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise Fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    make = ["cmake", "--build", bdir, "-j", jobs, "--target", "gen_cli",
            "serve_cli", "ledger_layers"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        raise Fail("build failed")
    return {
        "gen_cli": os.path.join(bdir, "examples", "gen_cli"),
        "serve_cli": os.path.join(bdir, "examples", "serve_cli"),
        "layers": os.path.join(bdir, "ledger_layers"),
    }


# --------------------------------------------------------------------------
# Context: every number is quoted with the machine and build it came from.


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    path = os.path.realpath(path)
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, fs = mnt, parts[2]
    except OSError:
        pass
    return fs


def build_context(bins, work):
    """Runs gen_cli once at a tiny scale (which also pages the binary in)
    and reads the build.* meta and kernel.simd_lanes from its report."""
    report = os.path.join(work, "context.json")
    run = subprocess.run(
        [bins["gen_cli"], "--scale", "10", "--workers", "1", "--out",
         os.path.join(work, "context"), "--metrics_json", report],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    meta, gauges = {}, {}
    if run.returncode == 0:
        with open(report) as f:
            doc = json.load(f)
        meta, gauges = doc.get("meta", {}), doc.get("gauges", {})
    remove_prefix(os.path.join(work, "context"))
    if os.path.exists(report):
        os.remove(report)
    flags = meta.get("build.flags", "")
    ctx = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": meta.get("build.type", "unknown"),
        "build_flags": flags,
        "compiler": meta.get("build.compiler", "unknown"),
        "simd_build": meta.get("build.simd", "unknown"),
        "simd_lanes": gauges.get("kernel.simd_lanes", "unknown"),
        "io_transport": meta.get("io", "unknown"),
        "output_fs": filesystem_of(work),
    }
    if "-O2" not in flags and "-O3" not in flags:
        log("WARNING: the program is not built optimized (flags: %r); "
            "its numbers are not comparable" % flags)
    return ctx


def print_context(ctx, trials, samples, units):
    for key, value in ctx.items():
        print("context.%s: %s" % (key, value))
    print("trials: %d" % trials)
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        print("%s: median %.6g %s, q1 %.6g, q3 %.6g, min %.6g, max %.6g, "
              "n %d" % (name, median(values), units.get(name, ""), q1, q3,
                        min(values) if values else 0,
                        max(values) if values else 0, len(values)))


# --------------------------------------------------------------------------
# Output checks


def remove_prefix(prefix):
    d, base = os.path.split(prefix)
    for name in os.listdir(d or "."):
        if name.startswith(os.path.basename(base) + "."):
            os.remove(os.path.join(d, name))


def shard_paths(prefix, wl):
    return ["%s.w%d.%s" % (prefix, w, wl["format"])
            for w in range(wl["workers"])]


def digest_shards(bins, wl, scale, paths, parse):
    """ledger_layers' digest of the shards in worker order, with their
    bytes and newlines; `parse` adds a record-by-record structural check.
    None when a shard is missing or unreadable."""
    if not all(os.path.isfile(p) for p in paths):
        return None
    run = subprocess.run([bins["layers"], "digest", wl["format"], str(scale),
                          "1" if parse else "0"] + paths,
                         stdout=subprocess.PIPE)
    if run.returncode != 0:
        return None
    return json.loads(run.stdout.decode().strip().splitlines()[-1])


def expected_digests():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def check_gen_output(wl, edges, scopes, shards, reference):
    """Returns None when one gen trial's shards are right, else why not.
    `reference` is the digest every trial of this seed must reproduce."""
    if shards is None:
        return "a shard is missing or unreadable"
    if wl["format"] == "adj6":
        if shards["bytes"] != 12 * scopes + 6 * edges:
            return "ADJ6 size %d != 12*%d scopes + 6*%d edges" % (
                shards["bytes"], scopes, edges)
    elif shards["lines"] != edges:
        return "TSV has %d lines for %d edges" % (shards["lines"], edges)
    if shards["parsed"] and (not shards["parse_ok"] or
                             shards["edges"] != edges):
        return "record-by-record parse failed (%d edges parsed)" % (
            shards["edges"])
    if reference is not None and shards["digest"] != reference:
        return "shard bytes differ from the reference (%s != %s)" % (
            shards["digest"], reference)
    return None


def same_bytes(path, parts):
    """True when `path` holds exactly the concatenation of `parts`."""
    with open(path, "rb") as f:
        whole = f.read()
    at = 0
    for part in parts:
        with open(part, "rb") as f:
            data = f.read()
        if whole[at:at + len(data)] != data:
            return False
        at += len(data)
    return at == len(whole)


# --------------------------------------------------------------------------
# Processes


def run_timed(cmd, log_path):
    """Runs cmd to completion; returns (exit code, wall s, rusage, stdout)."""
    with open(log_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        _, status, rusage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "rb") as f:
        text = f.read().decode(errors="replace")
    return proc.returncode, wall, rusage, text


def parse_done(text):
    """(edges, scopes, generate seconds) from gen_cli's done: line."""
    for line in text.splitlines():
        if line.startswith("done: "):
            words = line.split()
            edges = int(words[1])
            scopes = int(words[3])
            gen = float(line.split("generate ")[1].split(" s")[0])
            return edges, scopes, gen
    return None


class GenTrial:
    def __init__(self, ok, why, wall, cpu, rss_kb, gen_s, edges, digest,
                 report):
        self.ok, self.why = ok, why
        self.wall, self.cpu, self.rss_kb = wall, cpu, rss_kb
        self.gen_s, self.edges, self.digest = gen_s, edges, digest
        self.report = report


def gen_trial(bins, wl, scale, seed, work, reference, extra=(), parse=False):
    """One gen_cli run of the workload, its output checked; leaves the
    shards in place for the caller to remove."""
    prefix = os.path.join(work, "gen")
    report_path = prefix + ".report.json"
    cmd = [bins["gen_cli"], "--scale", str(scale)] + wl["args"] + [
        "--seed", str(seed), "--out", prefix] + list(extra)
    if wl["report"]:
        cmd += ["--metrics_json", report_path]
    rc, wall, ru, text = run_timed(cmd, os.path.join(work, "gen.log"))
    cpu = ru.ru_utime + ru.ru_stime
    done = parse_done(text)
    if rc != 0 or done is None:
        return GenTrial(False, "gen_cli exited %d" % rc, wall, cpu,
                        ru.ru_maxrss, 0.0, 0, None, None)
    edges, scopes, gen_s = done
    report = None
    if os.path.exists(report_path):
        with open(report_path) as f:
            report = json.load(f)
    shards = digest_shards(bins, wl, scale, shard_paths(prefix, wl), parse)
    why = check_gen_output(wl, edges, scopes, shards, reference)
    return GenTrial(why is None, why, wall, cpu, ru.ru_maxrss, gen_s, edges,
                    shards["digest"] if shards else None, report)


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode(errors="replace")
    finally:
        conn.close()


class Daemon:
    """serve_cli with the serve_mix flags; setup_s is spawn -> /healthz 200."""

    def __init__(self, bins, work):
        self.log_path = os.path.join(work, "serve.log")
        spool = os.path.join(work, "serve-spool")
        os.makedirs(spool, exist_ok=True)
        self.log = open(self.log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["serve_cli"], "--port", "0", "--worker_threads", "2",
             "--max_concurrent", "2", "--work_dir", spool],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None
        deadline = t0 + 30
        while time.perf_counter() < deadline and self.proc.poll() is None:
            if self.port is None:
                with open(self.log_path, "rb") as f:
                    text = f.read().decode(errors="replace")
                if "127.0.0.1:" in text:
                    self.port = int(text.split("127.0.0.1:")[1].split("/")[0])
            if self.port is not None:
                try:
                    if http_get(self.port, "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - t0
        if self.port is None or self.proc.poll() is not None:
            self.stop()
            raise Fail("serve_cli did not come up")

    def vm_hwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def request_ms_p50(port):
    """p50 of the daemon's serve.request_ms histogram from /metrics (the
    upper bound of the log2 bucket holding the median)."""
    status, text = http_get(port, "/metrics")
    if status != 200:
        return 0.0
    buckets, count = [], 0
    for line in text.splitlines():
        if line.startswith("tg_serve_request_ms_bucket"):
            le = line.split('le="')[1].split('"')[0]
            buckets.append((float("inf") if le == "+Inf" else float(le),
                            float(line.split()[-1])))
        elif line.startswith("tg_serve_request_ms_count"):
            count = float(line.split()[-1])
    for le, cum in sorted(buckets):
        if count > 0 and cum >= 0.5 * count:
            return le
    return 0.0


def serve_session(bins, wl, scale, seed, work, requests, healthz=0,
                  trace=None):
    """Spawns the daemon SERVE_SPAWNS times (setup_s), drives the last one
    with the load client, and checks one payload against offline gen_cli."""
    setups = []
    for _ in range(SERVE_SPAWNS - 1):
        d = Daemon(bins, work)
        setups.append(d.setup_s)
        d.stop()
    daemon = Daemon(bins, work)
    setups.append(daemon.setup_s)
    payload = os.path.join(work, "payload.adj6")
    try:
        cmd = [bins["layers"], "client", "--port", str(daemon.port),
               "--daemon_pid", str(daemon.proc.pid), "--seed", str(seed),
               "--scale", str(scale), "--requests", str(requests),
               "--healthz", str(healthz), "--save", payload]
        if trace:
            cmd += ["--trace", trace]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=150)
        client = json.loads(run.stdout.decode().strip().splitlines()[-1])
        client["vm_hwm_kb"] = daemon.vm_hwm_kb()
        client["request_ms_p50"] = request_ms_p50(daemon.port)
        status, text = http_get(daemon.port, "/report.json")
        client["report"] = json.loads(text) if status == 200 else {}
    finally:
        rc = daemon.stop()
    client["setups"] = setups
    client["drain_ok"] = rc == 0
    # One payload per run must equal gen_cli's offline output, byte for byte.
    prefix = os.path.join(work, "offline")
    offline = subprocess.run(
        [bins["gen_cli"], "--scale", str(scale), "--edge_factor", "16",
         "--workers", str(wl["workers"]), "--format", "adj6", "--seed",
         str(int(client["saved_seed"])), "--out", prefix],
        stdout=subprocess.DEVNULL)
    client["offline_ok"] = offline.returncode == 0 and os.path.isfile(
        payload) and same_bytes(payload, shard_paths(prefix, wl))
    remove_prefix(prefix)
    if os.path.exists(payload):
        os.remove(payload)
    return client


# --------------------------------------------------------------------------
# Untraced runs: the end-to-end metrics.

def measure_gen(bins, wl, name, scale, seed, seconds, work, smoke, ctx,
                units):
    expected = None if smoke or seed != DEFAULT_SEED else \
        expected_digests().get(name)
    trials = []
    t_end = time.perf_counter() + seconds
    min_trials = 2 if smoke else MIN_GEN_TRIALS
    while len(trials) < min_trials or time.perf_counter() < t_end:
        reference = expected if expected else (
            trials[0].digest if trials and trials[0].ok else None)
        t = gen_trial(bins, wl, scale, seed, work, reference,
                      parse=not trials)
        if not t.ok:
            log("%s trial %d failed: %s" % (name, len(trials), t.why))
        trials.append(t)
        remove_prefix(os.path.join(work, "gen"))
    good = [t for t in trials if t.ok]
    samples = {
        "edges_per_s": [t.edges / t.wall for t in good],
        "cpu_ns_per_edge": [t.cpu / t.edges * 1e9 for t in good],
        "peak_rss_mb": [t.rss_kb / 1024.0 for t in good],
        "setup_s": [t.wall - t.gen_s for t in good],
        "cold_p50_ms": [t.wall * 1e3 for t in good],
    }
    failed = len(trials) - len(good)
    print_context(ctx, len(trials), samples, units)
    if good:
        print("output digest (seed %d): %s" % (seed, good[0].digest))
    return len(trials), failed, {k: median(v) for k, v in samples.items()}


def measure_serve(bins, wl, scale, seed, seconds, work, smoke, ctx, units):
    requests = 16 if smoke else max(
        8, int(round(seconds * SERVE_REQUESTS_PER_SECOND / 8.0)) * 8)
    c = serve_session(bins, wl, scale, seed, work, requests)
    attempted = int(c["attempted"]) + 2  # + the offline compare and drain
    failed = int(c["failed"]) + (not c["offline_ok"]) + (not c["drain_ok"])
    if c["first_failure"]:
        log("serve_mix: first failure: %s" % c["first_failure"])
    if not c["offline_ok"]:
        log("serve_mix: payload differs from gen_cli's offline output")
    if not c["warmup_ok"]:
        failed += 1
        log("serve_mix: warm-up request failed")
    # Medians over the window's 2-second intervals; the whole-window means
    # are printed beside them.
    metrics = {
        "edges_per_s": c["interval_edges_per_s_p50"],
        "cpu_ns_per_edge": c["interval_cpu_ns_per_edge_p50"],
        "peak_rss_mb": c["vm_hwm_kb"] / 1024.0,
        "setup_s": median(c["setups"]),
        "cold_p50_ms": c["cold_p50_ms"],
    }
    print_context(ctx, 1, {"setup_s": c["setups"]}, units)
    print("requests: %d attempted, %d failed, %d cold, %d cached in %.1f s"
          " (%d intervals)" % (c["attempted"], c["failed"], c["cold_n"],
                               c["cached_n"], c["wall_s"], c["intervals"]))
    delivered = max(c["edges_delivered"], 1)
    print("window means: %.6g edges/s, %.4g daemon CPU ns/edge" % (
        c["edges_delivered"] / c["wall_s"], c["daemon_cpu_s"] / delivered * 1e9))
    print("cold_p50_ms: %.3f, cached_p50_ms: %.3f, cached_p90_ms: %.3f" % (
        c["cold_p50_ms"], c["cached_p50_ms"], c["cached_p90_ms"]))
    return attempted, failed, metrics


# --------------------------------------------------------------------------
# Traced runs: the per-layer metrics.

def obs_overheads(bins, scale, seed, work):
    """adj6_1w's config plain, with --metrics_json, and with the admin
    server plus profiler, one run each. Returns the CPU-time overhead
    fractions, the failures, the report run's report and the plain run."""
    wl = WORKLOADS["adj6_1w"]
    prefix = os.path.join(work, "gen")
    modes = {
        "plain": [],
        "report": ["--metrics_json", prefix + ".report.json"],
        "admin_prof": ["--admin_port", "0", "--profile", prefix + ".folded"],
    }
    runs = {}
    for mode, extra in modes.items():
        runs[mode] = gen_trial(bins, wl, scale, seed, work, None, extra)
        remove_prefix(prefix)
    base = max(runs["plain"].cpu, 1e-9)
    overheads = {
        "obs.report_overhead_frac": runs["report"].cpu / base - 1.0,
        "obs.admin_prof_overhead_frac": runs["admin_prof"].cpu / base - 1.0,
    }
    failed = sum(not t.ok for t in runs.values())
    return overheads, failed, runs["report"].report, runs["plain"]


def measure_layers(bins, wl, name, scale, seed, work, smoke, ctx):
    attempted, failed = 0, 0
    spans = os.path.join(work, "spans.%s.json" % name)
    serve = wl["kind"] == "serve"
    cmd = [bins["layers"], "layers", "--workload", name, "--scale",
           str(scale), "--workers", str(wl["workers"]), "--format",
           wl["format"], "--report", str(int(serve or wl["report"])),
           "--journal", str(int(serve)), "--seed", str(seed), "--work", work,
           "--trace", spans]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    attempted += 1
    try:
        layers = json.loads(run.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise Fail("ledger_layers produced no result")
    if run.returncode != 0 or layers.get("bitcheck_ok") != 1:
        failed += 1
        log("%s: the hand replay does not reproduce GenerateScope "
            "(%d scopes differ)" % (name, layers.get("mismatched_scopes", -1)))
    metrics = {k: v for k, v in layers.items() if isinstance(v, float) or
               isinstance(v, int)}

    adj6_scale = SMOKE_SCALE["gen"] if smoke else WORKLOADS["adj6_1w"]["scale"]
    overheads, f, adj6_report, adj6_plain = obs_overheads(
        bins, adj6_scale, seed, work)
    metrics.update(overheads)
    attempted += 3  # the plain, report and admin+profiler runs
    failed += f

    if wl["kind"] == "gen":
        # The workload's own program run: its report and reference CPU.
        if wl["report"]:
            t = gen_trial(bins, wl, scale, seed, work, None)
            remove_prefix(os.path.join(work, "gen"))
            doc = t.report or {}
            ref_cpu, ref_edges = t.cpu, t.edges
            attempted += 1
            failed += not t.ok
        else:
            doc = adj6_report or {}
            ref_cpu, ref_edges = adj6_plain.cpu, adj6_plain.edges
        ref_ns = ref_cpu / max(ref_edges, 1) * 1e9
        # A short daemon session for the serve-side layers.
        c = serve_session(bins, WORKLOADS["serve_mix"],
                          SMOKE_SCALE["serve"] if smoke else 16, seed, work,
                          8, healthz=200)
    else:
        c = serve_session(bins, wl, scale, seed, work, 16 if smoke else 64,
                          healthz=200,
                          trace=os.path.join(work, "spans.client.json"))
        doc = c["report"]
        ref_ns = c["daemon_cpu_s"] / max(c["edges_generated"], 1) * 1e9
    counters, gauges = doc.get("counters", {}), doc.get("gauges", {})
    metrics["kernel.draws_per_edge"] = counters.get(
        "avs.cdf_evaluations", 0) / max(counters.get("avs.edges_generated", 1), 1)
    metrics["sched.imbalance"] = gauges.get("sched.imbalance", 1.0)
    metrics["io.writer_stall_ms"] = counters.get("io.writer_stall_ms", 0)
    attempted += int(c["attempted"]) + 1
    failed += int(c["failed"]) + (not c["offline_ok"])
    metrics["net.healthz_rtt_us"] = c["healthz_rtt_us"]
    metrics["serve.request_ms_p50"] = c["request_ms_p50"]

    # Layer-sum reconciliation: what share of the program's CPU per edge the
    # replayed layers do not explain.
    metrics["ledger.unattributed_frac"] = 1.0 - \
        layers["layer_sum_ns_per_edge"] / max(ref_ns, 1e-9)
    for key, value in ctx.items():
        print("context.%s: %s" % (key, value))
    print("reconciliation: layers %.1f ns/edge of %.1f program CPU ns/edge; "
          "unattributed %.3f; kernel.attributed_frac %.3f" % (
              layers["layer_sum_ns_per_edge"], ref_ns,
              metrics["ledger.unattributed_frac"],
              layers["kernel.attributed_frac"]))
    print("replayed %d scopes, %d edges; bit-check %s" % (
        layers["replay_scopes"], layers["replay_edges"],
        "ok" if layers.get("bitcheck_ok") == 1 else "FAILED"))
    print("spans: %s" % spans)
    return attempted, failed, metrics


# --------------------------------------------------------------------------


def metric_names():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for ledger/selftest.py only")
    args = ap.parse_args(argv)

    root = os.getcwd()
    bdir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "cmake")
    work = os.path.join(os.path.dirname(bdir), "ledger-work")
    try:
        bins = build(root, bdir)
        os.makedirs(work, exist_ok=True)
        wl = WORKLOADS[args.workload]
        scale = SMOKE_SCALE[wl["kind"]] if args.smoke else wl["scale"]
        ctx = build_context(bins, work)
        e2e_units, layer_units = metric_names()
        if args.trace:
            attempted, failed, values = measure_layers(
                bins, wl, args.workload, scale, args.seed, work, args.smoke,
                ctx)
            units = layer_units
        else:
            if wl["kind"] == "gen":
                attempted, failed, values = measure_gen(
                    bins, wl, args.workload, scale, args.seed, args.seconds,
                    work, args.smoke, ctx, e2e_units)
            else:
                attempted, failed, values = measure_serve(
                    bins, wl, scale, args.seed, args.seconds, work,
                    args.smoke, ctx, e2e_units)
            values["success_rate"] = (attempted - failed) / attempted
            units = e2e_units
    except Fail as e:
        log("ledger: %s" % e)
        return 2
    missing = sorted(set(units) - set(values))
    if missing:
        log("ledger: not measured: %s" % ", ".join(missing))
        return 2
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
