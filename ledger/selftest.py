#!/usr/bin/env python3
"""Self-tests of the layer ledger. Run from the checkout root:

    python3 ledger/selftest.py

They check that every workload completes at a smoke size in both modes,
that the metric names printed are exactly those in BENCHMARK.json, that a
flipped byte in a shard or a payload is counted as a failure, and that the
benchmark refuses to run without the repository's sources.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SPEC = importlib.util.spec_from_file_location("ledger_run",
                                              os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)

BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
SCRATCH = os.path.join(BUILD, "ledger-selftest")


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--smoke", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr.decode()


def test_workloads_complete_and_print_the_declared_metrics():
    e2e, layers = run.metric_names()
    for workload in sorted(run.WORKLOADS):
        for trace, declared in ((0, e2e), (1, layers)):
            rc, last, err = bench(workload, trace)
            assert rc == 0, "%s --trace %d exited %d: %s" % (
                workload, trace, rc, err[-2000:])
            result = json.loads(last)
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], result.keys()
            assert result["correct"] is True and result["failed"] == 0, last
            assert result["attempted"] >= 1, last
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, (
                "%s --trace %d printed %s, BENCHMARK.json declares %s" % (
                    workload, trace, sorted(printed), sorted(declared)))


def flip_byte(path, offset):
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0x01]))


def test_flipped_shard_byte_is_a_failure():
    bins = run.build(ROOT, os.path.join(BUILD, "cmake"))
    wl = run.WORKLOADS["tsv_2w_report"]
    good = run.gen_trial(bins, wl, 12, 7, SCRATCH, None)
    assert good.ok, good.why
    paths = run.shard_paths(os.path.join(SCRATCH, "gen"), wl)
    flip_byte(paths[1], os.path.getsize(paths[1]) // 2)
    shards = run.digest_shards(bins, wl, 12, paths, parse=True)
    why = run.check_gen_output(wl, good.edges, 0, shards, good.digest)
    assert why is not None, "a flipped shard byte passed the check"
    # The same corruption fails a later trial's reference comparison.
    again = run.gen_trial(bins, wl, 12, 7, SCRATCH, shards["digest"])
    assert not again.ok, "a trial matching a corrupt reference passed"
    run.remove_prefix(os.path.join(SCRATCH, "gen"))


def test_flipped_payload_byte_is_a_failure():
    parts = []
    for i, data in enumerate((b"\x01" * 24, b"\x02" * 18)):
        parts.append(os.path.join(SCRATCH, "part%d" % i))
        with open(parts[-1], "wb") as f:
            f.write(data)
    payload = os.path.join(SCRATCH, "payload")
    with open(payload, "wb") as f:
        f.write(b"\x01" * 24 + b"\x02" * 18)
    assert run.same_bytes(payload, parts)
    flip_byte(payload, 30)
    assert not run.same_bytes(payload, parts), \
        "a flipped payload byte passed the check"
    for path in parts + [payload]:
        os.remove(path)


def test_refuses_to_run_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, last, _ = bench("adj6_1w", 0, cwd=bare)
    assert rc != 0, "ran without the repository's sources"
    assert not last.startswith("{"), "printed a result: " + last
    shutil.rmtree(bare)


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
            print("PASS %s" % test.__name__, flush=True)
        except AssertionError as e:
            failures += 1
            print("FAIL %s: %s" % (test.__name__, e), flush=True)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d/%d self-tests passed" % (len(tests) - failures, len(tests)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
