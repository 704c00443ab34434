#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json is within the benchmark contract's limits,
that a seed fully determines the simulated outputs (same seed twice gives
the same exact metrics and sim_digest, another seed another digest), that
every metric the driver emits is declared in BENCHMARK.json and matches
the name grammar, that a tampered conservation input fails the check,
that the host-speed probe does the same work every time, and that the
driver fails cleanly in a directory holding only the benchmark. Takes about a minute. Exits non-zero on the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SECOND_SEED = 7


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def ok(msg):
    print("selftest: ok: " + msg)


def check_spec(bench):
    if set(bench) != {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}:
        fail("BENCHMARK.json keys: %s" % sorted(bench))
    if not 1 <= len(bench["paths"]) <= 16:
        fail("paths count")
    for p in bench["paths"]:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            fail("bad path %r" % p)
    cmd = bench["command"]
    if not (1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd)):
        fail("command shape")
    if not (isinstance(bench["run_seconds"], int)
            and 1 <= bench["run_seconds"] <= 60):
        fail("run_seconds")
    names = set()
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("workload count")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail("workload entry %r" % w)
        if w["name"] not in run.WORKLOADS:
            fail("workload %s unknown to run.py" % w["name"])
    for key, lo, hi, fields in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        if not lo <= len(bench[key]) <= hi:
            fail("%s count" % key)
        for m in bench[key]:
            if set(m) != fields:
                fail("%s entry %r" % (key, m))
            if not NAME.match(m["name"]) or m["name"] in names:
                fail("metric name %r" % m["name"])
            names.add(m["name"])
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower",
                                                                "higher"):
                fail("metric %r" % m)
            if key == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail("bound of %s" % m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not (setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
            and setup[0]["bound"] == max(m["bound"]
                                         for m in bench["end_to_end"])):
        fail("setup_s must be present, in s, lower-better, largest bound")
    if len(json.dumps(bench)) > 64 * 1024:
        fail("BENCHMARK.json too large")
    ok("BENCHMARK.json within the contract's limits")


def check_determinism():
    for w in run.WORKLOADS:
        a = run.runner("run", "--workload", w, "--seed", "1")
        b = run.runner("run", "--workload", w, "--seed", "1")
        c = run.runner("run", "--workload", w, "--seed", str(SECOND_SEED))
        for rep in (a, b, c):
            bad = run.failed_checks(rep)
            if bad:
                fail("%s: checks failed: %s" % (w, bad))
        if a["digest"] != b["digest"] or a["exact"] != b["exact"]:
            fail("%s: seed 1 twice gave different outputs" % w)
        if a["digest"] == c["digest"]:
            fail("%s: seeds 1 and %d gave the same digest" % (w, SECOND_SEED))
        ok("%s: seed 1 repeats exactly (%s), seed %d differs"
           % (w, a["digest"], SECOND_SEED))


def driver(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_names(bench):
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in ("flows", "fig3"):
        for trace in (0, 1):
            p = driver(run.ROOT, w, trace)
            if p.returncode != 0:
                fail("%s trace %d exited %d:\n%s" % (w, trace, p.returncode,
                                                     p.stderr))
            d = json.loads(p.stdout.strip().splitlines()[-1])
            if set(d) != {"correct", "attempted", "failed", "metrics"}:
                fail("result keys %s" % sorted(d))
            if not (d["correct"] is True and d["attempted"] >= 1
                    and isinstance(d["failed"], int)):
                fail("%s trace %d result %r" % (w, trace, d))
            got = {k: m["unit"] for k, m in d["metrics"].items()}
            if got != want[trace]:
                fail("%s trace %d metrics differ from BENCHMARK.json: %s"
                     % (w, trace, sorted(set(got) ^ set(want[trace]))))
            for k, m in d["metrics"].items():
                if not NAME.match(k) or set(m) != {"value", "unit"}:
                    fail("metric %r" % k)
                if not isinstance(m["value"], (int, float)):
                    fail("metric %s value %r" % (k, m["value"]))
            ok("%s trace %d: %d metrics, all declared" % (w, trace,
                                                          len(got)))


def check_tamper():
    rep = run.runner("run", "--workload", "fig3", "--seed", "1", "--tamper")
    bad = [c["name"] for c in run.failed_checks(rep)]
    if "request_conservation" not in bad:
        fail("a tampered conservation input passed the check")
    ok("tampered conservation input fails the check")


def check_probe():
    outs = [subprocess.run([run.PROBE], capture_output=True, text=True,
                           timeout=60).stdout.split() for _ in range(2)]
    if any(len(o) != 2 or float(o[0]) <= 0 for o in outs):
        fail("probe output %r" % outs)
    if outs[0][1] != outs[1][1]:
        fail("probe checksums differ: %s" % [o[1] for o in outs])
    ok("probe: same work twice (checksum %s), %s s and %s s"
       % (outs[0][1], outs[0][0], outs[1][0]))


def check_bare(bench):
    bare = os.path.join(run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(run.ROOT, p), os.path.join(bare, p))
    p = driver(bare, "fig3", 0)
    shutil.rmtree(bare)
    last = p.stdout.strip().splitlines()[-1:] or [""]
    if p.returncode == 0 or last[0].startswith("{"):
        fail("the driver printed a result in a bare directory")
    ok("bare directory: exit %d, no result" % p.returncode)


def main():
    bench = run.spec()
    check_spec(bench)
    run.build()
    check_tamper()
    check_probe()
    check_determinism()
    check_names(bench)
    check_bare(bench)
    print("selftest: all passed")


if __name__ == "__main__":
    main()
