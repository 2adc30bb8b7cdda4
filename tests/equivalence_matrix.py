#!/usr/bin/env python3
"""The equivalence matrix: the output bytes do not depend on how they are made.

Algorithm 4 forks every scope's RNG stream from (seed, u) alone, so gen_cli's
shards are a function of the configuration only: worker schedule, injected
faults, a kill plus --resume, the admin server, the profiler and the serving
daemon (which writes its shards inline, where gen_cli hands them to writer
threads) must all leave the bytes alone. Each row
of the table in build_rows() runs its reference processes, then its variant
processes, then its checks: `cmp` of the outputs plus the row's own asserts.

CMake registers every row as the CTest equivalence.<row> (label
`equivalence`). By hand, every row or the named ones (--list names them):

    python3 tests/equivalence_matrix.py --gen_cli build/examples/gen_cli \\
        --serve_cli build/examples/serve_cli --work_dir /tmp/eq [ROW ...]

Stdlib only. A failing row keeps its files in <work_dir>/<row>/.
"""

import argparse
import collections
import concurrent.futures
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

# A finished run that takes longer than this is hung.
RUN_TIMEOUT_S = 240
# The serving daemon must drain and exit this soon after SIGTERM.
DRAIN_TIMEOUT_S = 10
KILLED_EXIT_CODE = 86  # fault::kKilledExitCode
WRITE_FAILED_EXIT_CODE = 3  # gen_cli: a shard writer latched a write error

# Startup lines: gen_cli prints "generating scale ..." once its admin server
# and profiler are up; serve_cli prints "tg::serve on http://...".
READY_RE = re.compile(r"^(generating scale|tg::serve on)", re.M)
PORT_RE = re.compile(r"http://127\.0\.0\.1:(\d+)/")

# No proxy: every request goes to a local child process.
OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class Fail(Exception):
    pass


def check(cond, message):
    if not cond:
        raise Fail(message)


# One process: the argv after the binary, where {ref}, {var} and {dir} stand
# for the row's reference prefix, variant prefix and directory. `during(ctx,
# port, proc)` runs once the process prints its startup line; the `after(ctx)`
# checks run once it exited with `exit_code` (None: any exit code).
Run = collections.namedtuple("Run", "args env tool exit_code during after",
                             defaults=(None, "gen_cli", 0, None, ()))
Row = collections.namedtuple("Row", "name reference variant checks")


class Context:
    def __init__(self, directory):
        self.dir = directory
        self.scraped = {}  # what `during` fetched for the row's checks

    def path(self, template):
        return template.format(dir=self.dir, ref=os.path.join(self.dir, "ref"),
                               var=os.path.join(self.dir, "var"))

    def json(self, template):
        with open(self.path(template)) as f:
            return json.load(f)


# Running processes and talking HTTP.

def http(port, path, body=None):
    """GET, or POST `body` as JSON: (headers, payload). Non-2xx raises."""
    request = urllib.request.Request(
        "http://127.0.0.1:%d%s" % (port, path), data=body,
        headers={"Content-Type": "application/json"} if body else {})
    with OPENER.open(request, timeout=RUN_TIMEOUT_S) as response:
        return response.headers, response.read()


def log_tail(path, lines=20):
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def wait_ready(proc, log_path):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    while time.monotonic() < deadline and proc.poll() is None:
        with open(log_path, errors="replace") as f:
            text = f.read()
        port = PORT_RE.search(text)
        if port and READY_RE.search(text):
            return int(port.group(1))
        time.sleep(0.01)
    raise Fail("no startup line from %s:\n%s" % (proc.args[0],
                                                 log_tail(log_path)))


def execute(run, label, bins, ctx):
    argv = [bins[run.tool]] + [ctx.path(a) for a in run.args]
    # The inherited TG_* knobs (TG_FAULT_PLAN, ...) would change what
    # a row compares; each run sets exactly the ones it names.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TG_")}
    env.update(run.env or {})
    log_path = os.path.join(ctx.dir, label + ".log")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
    try:
        if run.during is not None:
            run.during(ctx, wait_ready(proc, log_path), proc)
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Fail("%s timed out: %s" % (label, " ".join(argv)))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    check(run.exit_code is None or code == run.exit_code,
          "%s exited %d, expected %s: %s\n%s" % (
              label, code, run.exit_code, " ".join(argv), log_tail(log_path)))
    for after in run.after:
        after(ctx)


def run_row(row, bins, work_dir):
    ctx = Context(os.path.join(work_dir, row.name))
    shutil.rmtree(ctx.dir, ignore_errors=True)
    os.makedirs(ctx.dir)
    for i, run in enumerate(row.reference):
        execute(run, "ref%d" % i, bins, ctx)
    for i, run in enumerate(row.variant):
        execute(run, "var%d" % i, bins, ctx)
    for row_check in row.checks:
        row_check(ctx)
    shutil.rmtree(ctx.dir)


# Checks.

def same_bytes(ctx, a, b):
    """`cmp`: fails with the first differing offset."""
    a, b = ctx.path(a), ctx.path(b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        x, y = fa.read(), fb.read()
    if x != y:
        first = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q),
                     min(len(x), len(y)))
        raise Fail("%s and %s differ at byte %d" % (a, b, first))


def same_shards(fmt, workers):
    def same(ctx):
        for w in range(workers):
            shard = ".w%d.%s" % (w, fmt)
            same_bytes(ctx, "{ref}" + shard, "{var}" + shard)
    return same


def check_crash_report(ctx):
    r = ctx.json("{var}.json")
    c = r["counters"]
    check(c["fault.injected_crashes"] == 2, c)
    check(c["fault.machines_lost"] == 2, c)
    check(c["fault.recovered_chunks"] > 0, c)
    crashes = [e for e in r["fault"] if e["kind"] == "fault.crash"]
    check({e["machine"] for e in crashes} == {1, 3}, r["fault"])


def check_journal_and_tear_shard(ctx):
    """The killed run left a journal. A kill mid-write also leaves bytes past
    the last journaled commit, which --resume must truncate away; die@chunk
    fires between chunks, so append such a torn tail by hand."""
    path = ctx.path("{var}.journal")
    check(os.path.exists(path) and os.path.getsize(path) > 0,
          "killed run left no journal at " + path)
    with open(ctx.path("{var}.w0.adj6"), "ab") as f:
        f.write(b"\xff" * 4096)


def check_prometheus(text, where):
    """Every line is a TYPE comment or a well-formed sample of an announced
    family; no blank lines, no duplicate TYPE."""
    typed, names = set(), []
    for line in text.splitlines():
        check(line, "blank line in " + where)
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            check(len(parts) == 4, line)
            check(parts[3] in ("counter", "gauge", "histogram"), line)
            check(parts[2] not in typed, "duplicate TYPE " + line)
            typed.add(parts[2])
            continue
        check(not line.startswith("#"), line)
        m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$", line)
        check(m, "malformed sample in %s: %s" % (where, line))
        names.append(m.group(1))
        float(m.group(3).replace("+Inf", "inf"))
    for n in names:
        check(n in typed or re.sub(r"_(bucket|sum|count)$", "", n) in typed,
              "sample of an unannounced family in %s: %s" % (where, n))


def prom_value(text, name):
    m = re.search(r"^%s (\S+)$" % re.escape(name), text, re.M)
    check(m, "no %s sample" % name)
    return float(m.group(1))


def scrape_admin(ctx, port, proc):
    healthz = http(port, "/healthz")[1].decode()
    ctx.scraped["metrics"] = http(port, "/metrics")[1].decode()
    meta = json.loads(http(port, "/report.json")[1])["meta"]
    check(proc.poll() is None, "the admin scrapes did not land mid-run")
    check(healthz.startswith("ok phase="), healthz)
    check(meta["live"] == "1", meta)
    check_prometheus(ctx.scraped["metrics"], "mid-run /metrics")


def check_admin(ctx):
    mid = ctx.scraped["metrics"]
    with open(ctx.path("{var}.prom")) as f:
        final_prom = f.read()
    check_prometheus(final_prom, "--metrics_prom")
    edges = ctx.json("{var}.json")["counters"]["avs.edges_generated"]
    # The one-shot exposition agrees with the JSON report, and the mid-run
    # scrape does not exceed the final count.
    check(prom_value(final_prom, "tg_avs_edges_generated") == edges,
          "final exposition disagrees with the report's %d edges" % edges)
    check(0 <= prom_value(mid, "tg_avs_edges_generated") <= edges,
          "mid-run edge counter above the final %d" % edges)


def scrape_pprof(ctx, port, proc):
    status = json.loads(http(port, "/pprof/status")[1])
    http(port, "/pprof/profile")
    check(proc.poll() is None, "the /pprof scrapes did not land mid-run")
    check(status["running"] is True and status["hz"] == 199, status)


def check_prof(ctx):
    with open(ctx.path("{var}.folded")) as f:
        lines = f.read().splitlines()
    check(lines, "empty folded profile")
    line_re = re.compile(r"^(?:[^; ]+;)*[^; ]+ [1-9][0-9]*$")
    for line in lines:
        check(line_re.match(line), "malformed folded line: " + line)
    check(lines == sorted(lines), "folded lines not sorted")
    # The run's CPU time lands in resolved tg:: frames.
    check(any("tg::" in line for line in lines), lines[:5])
    r = ctx.json("{var}.json")
    prof = r["prof"]
    check(prof["hz"] == 199, prof["hz"])
    check(prof["samples"] > 0, prof)
    check(prof["frames"], "prof section has no frames")
    for f in prof["frames"]:
        check(f["total"] >= f["self"] >= 0, f)
    check(r["meta"]["profile"] == ctx.path("{var}.folded"), r["meta"])


SERVE_FORMATS = ("tsv", "adj6", "csr6")
SERVE_WORKERS = 3


def serve_body(fmt):
    return json.dumps({"tenant": "ci-" + fmt, "scale": 14, "edge_factor": 8,
                       "workers": SERVE_WORKERS, "seed": 7,
                       "format": fmt}).encode()


def drive_daemon(ctx, port, proc):
    """Three tenants fetch the three formats concurrently, each request is
    repeated for a cache hit, then SIGTERM drains the daemon."""
    http(port, "/healthz")
    with concurrent.futures.ThreadPoolExecutor(len(SERVE_FORMATS)) as pool:
        payloads = pool.map(
            lambda fmt: http(port, "/generate", serve_body(fmt))[1],
            SERVE_FORMATS)
        got = dict(zip(SERVE_FORMATS, payloads))
    for fmt in SERVE_FORMATS:
        headers, got["hit." + fmt] = http(port, "/generate", serve_body(fmt))
        check(headers.get("X-TG-Cache") == "hit",
              "repeat %s request X-TG-Cache: %s"
              % (fmt, headers.get("X-TG-Cache")))
    for name, payload in got.items():
        with open(ctx.path("{var}.") + name, "wb") as f:
            f.write(payload)
    hits = prom_value(http(port, "/metrics")[1].decode(),
                      "tg_serve_cache_hits")
    check(hits >= len(SERVE_FORMATS), "tg_serve_cache_hits = %g" % hits)
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=DRAIN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Fail("serve_cli did not drain within %d s of SIGTERM"
                   % DRAIN_TIMEOUT_S)


def check_serve(ctx):
    # The payload is exactly the offline shards concatenated in worker order.
    for fmt in SERVE_FORMATS:
        with open(ctx.path("{ref}.") + fmt, "wb") as out:
            for w in range(SERVE_WORKERS):
                with open(ctx.path("{ref}_%s.w%d.%s" % (fmt, w, fmt)),
                          "rb") as shard:
                    shutil.copyfileobj(shard, out)
        same_bytes(ctx, "{ref}." + fmt, "{var}." + fmt)
        same_bytes(ctx, "{ref}." + fmt, "{var}.hit." + fmt)
    # The drained daemon's final report still carries the counters.
    c = ctx.json("{var}.json")["counters"]
    check(c["serve.requests"] >= 2 * len(SERVE_FORMATS), c["serve.requests"])
    check(c["serve.cache_hits"] >= len(SERVE_FORMATS), c["serve.cache_hits"])


def check_metrics_report(ctx):
    r = ctx.json("{var}.json")
    c = r["counters"]
    check(c["avs.edges_generated"] > 0, c)
    check(any(s["path"] == "avs.generate" for s in r["spans"]), r["spans"])
    check("cluster.shuffled_bytes" in c, c)
    check("net.simulated_seconds" in r["gauges"], r["gauges"])
    check(r["machines"], "expected per-machine stats")
    check(any(len(s["t"]) >= 5 for s in r["series"].values()),
          "expected a sampled series with >= 5 points")
    t = ctx.json("{var}.trace.json")
    names = {e["args"]["name"] for e in t["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"}
    check("simulated network" in names, names)
    check(sum(n.startswith("machine ") for n in names) >= 2, names)
    # io.* counts the graph bytes the transports move and nothing else: the
    # report, the exposition and the shards agree although the trace and
    # the report were written before the exposition.
    shards = sum(os.path.getsize(ctx.path("{var}.w%d.adj6" % w))
                 for w in range(4))
    with open(ctx.path("{var}.prom")) as f:
        prom = prom_value(f.read(), "tg_io_bytes_written")
    check(c["io.bytes_written"] == shards == prom,
          "io.bytes_written %d, shards %d, prometheus %d"
          % (c["io.bytes_written"], shards, prom))


def check_journal_not_done(ctx):
    """A run whose writer latched an error is not complete: its journal
    holds only the chunks whose bytes reached the file, and no `done`."""
    with open(ctx.path("{var}.journal")) as f:
        records = f.read().splitlines()
    check(len(records) > 1, "no chunk commits in %r" % records)
    check("done" not in records, "journal records completion: %r" % records)


def write_error_names(shard):
    """The failed run's error line names the shard whose disk died."""
    def names(ctx):
        with open(os.path.join(ctx.dir, "var0.log"), errors="replace") as f:
            errors = [line for line in f if line.startswith("write failed")]
        check(errors and shard in errors[0],
              "no write error naming %s: %r" % (shard, errors))
    return names


def check_iofail_report(ctx):
    """An injected disk fault on the host's simulated machine still leaves
    a complete report and trace: obs files bypass the fault hook."""
    r = ctx.json("{var}.json")
    check(r["meta"].get("fault_plan"), r["meta"])
    check(r["counters"]["fault.injected_io_failures"] >= 1, r["counters"])
    ctx.json("{var}.trace.json")


def check_oom(ctx):
    o = ctx.json("{var}.oom.json")
    check(o["tag"] == "core.scope_dedup", o["tag"])
    check(o["limit_bytes"] == 65536, o["limit_bytes"])
    check(any(b["tag"] == "core.scope_dedup" for b in o["breakdown"]),
          o["breakdown"])
    r = ctx.json("{var}.json")
    check(r["mem.oom"]["tag"] == "core.scope_dedup", r["mem.oom"])
    check(r["counters"]["mem.oom_events"] == 1, r["counters"])
    check(any(k.startswith("mem.tag.") for k in r["gauges"]),
          "expected per-tag peak gauges")


# The table.

S18 = ["--scale", "18", "--workers", "4"]
# Stretches a scale-18 run to seconds so the mid-run scrapes land while
# workers still produce edges; slowdowns do not change output bytes.
SLOW = "m0:slow@32x,m1:slow@32x,m2:slow@32x,m3:slow@32x"


def build_rows():
    rows = []
    # crash@chunk=1 fires at the doomed machines' first chunk boundary, so
    # two of four machines die before doing any work and every one of their
    # chunks rides the recovery queue.
    for prec in ("double", "dd"):
        rows.append(Row(
            "chaos.crash." + prec,
            [Run(S18 + ["--precision", prec, "--out", "{ref}"])],
            [Run(S18 + ["--precision", prec,
                        "--fault_plan=m1:crash@chunk=1,m3:crash@chunk=1",
                        "--metrics_json={var}.json", "--out", "{var}"])],
            [same_shards("adj6", 4), check_crash_report]))
    # gen_cli writes its shards through async writer threads; the rows
    # below keep that suffix in their names. The same kill, resume and
    # disk-fault paths under inline (sync) writers are gtests: fault_test's
    # ResumeDeathTest and WriterShortCircuitTest cases.
    #
    # One worker takes its own chunks in order, so die@chunk=3 always lands
    # after exactly two journaled commits; the resumed run must reproduce
    # the uninterrupted bytes, torn tail and all.
    one = ["--scale", "18", "--workers", "1"]
    rows.append(Row(
        "chaos.resume.async",
        [Run(one + ["--out", "{ref}"])],
        [Run(one + ["--fault_plan=m0:die@chunk=3", "--journal",
                    "--out", "{var}"],
             exit_code=KILLED_EXIT_CODE,
             after=[check_journal_and_tear_shard]),
         Run(one + ["--resume", "--out", "{var}"])],
        [same_shards("adj6", 1)]))
    # Machine k's disk dies at its second chunk boundary. The run must fail
    # rather than pass truncated shards off as a graph, the error must name
    # k's own shard whichever thread wrote it, and a --resume without the
    # fault must then finish the bytes of a clean run.
    two = ["--scale", "18", "--workers", "2", "--format", "adj6"]
    for machine, name in ((0, "chaos.iofail.async"),
                          (1, "chaos.iofail_m1.async")):
        rows.append(Row(
            name,
            [Run(two + ["--out", "{ref}"])],
            [Run(two + ["--fault_plan=m%d:iofail@chunk=2" % machine,
                        "--journal", "--out", "{var}"],
                 exit_code=WRITE_FAILED_EXIT_CODE,
                 after=[check_journal_not_done,
                        write_error_names(".w%d." % machine)]),
             Run(two + ["--resume", "--out", "{var}"])],
            [same_shards("adj6", 2)]))
    rows.append(Row(
        "admin",
        [Run(S18 + ["--out", "{ref}"])],
        [Run(S18 + ["--admin_port", "0", "--sample_interval_ms", "25",
                    "--fault_plan=" + SLOW, "--metrics_json={var}.json",
                    "--metrics_prom={var}.prom", "--out", "{var}"],
             during=scrape_admin)],
        [same_shards("adj6", 4), check_admin]))
    # 199 Hz (double the default, off the 10 ms beat) shortens the CPU time
    # a non-empty profile needs; CPU-time sampling skips injected sleeps.
    rows.append(Row(
        "prof",
        [Run(S18 + ["--out", "{ref}"])],
        [Run(S18 + ["--admin_port", "0", "--fault_plan=" + SLOW,
                    "--profile={var}.folded", "--profile_hz=199",
                    "--metrics_json={var}.json", "--out", "{var}"],
             during=scrape_pprof)],
        [same_shards("adj6", 4), check_prof]))
    # The daemon writes its spool inline (sync) and gen_cli through writer
    # threads (async): this row is also the two transports' byte check, in
    # all three formats.
    rows.append(Row(
        "serve",
        [Run(["--scale", "14", "--edge_factor", "8",
              "--workers", str(SERVE_WORKERS), "--chunks_per_worker", "16",
              "--seed", "7", "--format", fmt, "--out", "{ref}_" + fmt])
         for fmt in SERVE_FORMATS],
        [Run(["--port", "0", "--max_concurrent", "3",
              "--work_dir", "{dir}", "--metrics_json={var}.json"],
             tool="serve_cli", during=drive_daemon)],
        [check_serve]))
    # A 5 ms sampler gives a scale-16 run a series of >= 5 points.
    rows.append(Row(
        "smoke.metrics",
        [Run(["--scale", "16", "--out", "{ref}"])],
        [Run(["--scale", "16", "--sample_interval_ms", "5",
              "--metrics_json={var}.json", "--trace_json={var}.trace.json",
              "--metrics_prom={var}.prom", "--out", "{var}"])],
        [same_shards("adj6", 4), check_metrics_report]))
    # gen_cli's own thread counts as simulated machine 0, so m0's disk fault
    # is live while the reports are written. Shard w0 belongs to machine 0,
    # so its writes fail and so does the run.
    rows.append(Row(
        "smoke.iofail_report",
        [],
        [Run(["--scale", "14", "--workers", "2",
              "--fault_plan=m0:iofail@chunk=2", "--metrics_json={var}.json",
              "--trace_json={var}.trace.json", "--out", "{var}"],
             exit_code=WRITE_FAILED_EXIT_CODE)],
        [check_iofail_report]))
    # A 64 KiB budget cannot hold a scale-16 scope dedup set: the run dies
    # with a structured OOM report naming the failing tag. The descent
    # kernel charges no prefix tables (2.6 MB), so the dedup set is what
    # overflows first.
    rows.append(Row(
        "smoke.oom",
        [],
        [Run(["--scale", "16", "--no_prefix_tables", "--mem_budget=64k",
              "--oom_report={var}.oom.json", "--metrics_json={var}.json",
              "--out", "{var}"], exit_code=1)],
        [check_oom]))
    return {row.name: row for row in rows}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--list", action="store_true",
                        help="print the row names and exit")
    parser.add_argument("--gen_cli", help="path to the gen_cli binary")
    parser.add_argument("--serve_cli", help="path to the serve_cli binary")
    parser.add_argument("--work_dir", help="where the rows write their files")
    parser.add_argument("rows", nargs="*", help="rows to run (default: all)")
    args = parser.parse_args()
    rows = build_rows()
    if args.list:
        print("\n".join(rows))
        return 0
    if not (args.gen_cli and args.serve_cli and args.work_dir and
            set(args.rows) <= set(rows)):
        parser.error("need --gen_cli, --serve_cli, --work_dir and known rows")
    bins = {"gen_cli": os.path.abspath(args.gen_cli),
            "serve_cli": os.path.abspath(args.serve_cli)}
    failed = 0
    for name in args.rows or rows:
        t0 = time.monotonic()
        try:
            run_row(rows[name], bins, args.work_dir)
            print("equivalence.%s: ok (%.1f s)" % (name,
                                                   time.monotonic() - t0))
        except Exception as e:
            failed += 1
            kind = "" if isinstance(e, Fail) else type(e).__name__ + ": "
            print("equivalence.%s: FAIL: %s%s" % (name, kind, e))
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
