#!/usr/bin/env python3
"""Repository benchmark driver.

Builds the OCaml runner (perfbench/perfbench.exe, release profile) from
the source tree it is run in, runs one workload at one seed for about
--seconds, checks the outputs, appends a record with its manifest to
_perfbench/records.jsonl and prints, as the last line of stdout, one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json (median over
repetitions, each a fresh process, in CPU time rescaled to a reference host
speed that a fixed probe measures next to every repetition); --trace 1 runs
once untraced and once traced and reports the per-layer metrics. Run it
from the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe.exe")
OUT_DIR = os.path.join(ROOT, "_perfbench")
WORKLOADS = ("fig3", "flows", "faults")
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# The probe CPU time that timed metrics are rescaled to. A fixed scale,
# about the probe's time on an unloaded 2-vCPU x86-64 VM; it cancels in
# any comparison of two runs.
PROBE_REF_S = 0.25


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project here: run from the repository root")
    # The shared dune cache lives outside the tree: keep it out.
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--cache=disabled", "./perfbench/perfbench.exe",
           "./perfbench/probe.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=840)
    except FileNotFoundError:
        raise BenchError("dune not found on PATH")
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stdout + p.stderr)


def runner(*args):
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    p = subprocess.run([EXE, *args], cwd=ROOT, capture_output=True,
                       text=True, timeout=CHILD_TIMEOUT_S, env=env)
    if p.returncode != 0:
        raise BenchError("runner %s failed (%d):\n%s%s"
                         % (" ".join(args), p.returncode, p.stdout, p.stderr))
    return json.loads(p.stdout.strip().splitlines()[-1])


def probe():
    """CPU seconds the host took for the fixed reference workload."""
    p = subprocess.run([PROBE], cwd=ROOT, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError("probe failed (%d):\n%s%s"
                         % (p.returncode, p.stdout, p.stderr))
    return float(p.stdout.split()[0])


def sh(cmd):
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=20)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def manifest(args):
    # Only a repository rooted here describes this tree.
    top = sh(["git", "rev-parse", "--show-toplevel"])
    here = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    commit = sh(["git", "rev-parse", "HEAD"]) if here else None
    status = sh(["git", "status", "--porcelain"]) if commit else None
    return {
        "commit": commit or "unknown",
        "dirty": (bool(status) if status is not None else "unknown"),
        "nproc": os.cpu_count(),
        "ocaml": sh(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
        "profile": "release",
        "argv": sys.argv,
        "seed": args.seed,
        "workload": args.workload,
        "machine": platform.machine(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def append_record(record):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")


def failed_checks(rep):
    return [c for c in rep["checks"] if not c["ok"]]


def base_args(args):
    return ["--workload", args.workload, "--seed", str(args.seed)]


def run_reps(args):
    """Fresh-process repetitions until --seconds have been measured. Each
    is preceded by a probe and by a process that times a batch of
    set-ups (the runner fixes how many), so host speed and set-up time
    are sampled across the whole run, as the run itself is."""
    reps, setups, probes = [], [], []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        probes.append(probe())
        setups += runner("setup", *base_args(args))["samples"]
        reps.append(runner("run", *base_args(args)))
    probes.append(probe())
    return reps, setups, probes


def consistency_problems(reps):
    problems = []
    for r in reps:
        problems += ["%s: %s" % (c["name"], c["detail"])
                     for c in failed_checks(r)]
    if len({r["digest"] for r in reps}) != 1:
        problems.append("sim_digest differs between repetitions of one seed")
    if len({json.dumps(r["exact"], sort_keys=True) for r in reps}) != 1:
        problems.append("exact outcomes differ between repetitions")
    return problems


def end_to_end(args, bench):
    reps, setups, probes = run_reps(args)
    problems = consistency_problems(reps)
    # How much slower than the reference the host ran during this run.
    slowdown = statistics.median(probes) / PROBE_REF_S
    raw_rps = statistics.median(r["sim_rps"] for r in reps)
    raw_setup = statistics.median(setups)
    values = {
        "sim_rps": raw_rps * slowdown,
        "setup_s": raw_setup / slowdown,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    first = reps[0]
    print("workload %s seed %d: %d repetitions" % (args.workload, args.seed,
                                                   len(reps)))
    for name, unit in units.items():
        print("  %-22s %14.6g %s (host)" % (name, values[name], unit))
    print("  host slowdown %.4f (median probe %.4f s over %d probes); as "
          "measured: sim_rps %.6g responses/cpu-s, setup_s %.6g cpu-s"
          % (slowdown, statistics.median(probes), len(probes), raw_rps,
             raw_setup))
    print("  sim_rps per repetition, as measured: %s" % " ".join(
        "%.0f" % r["sim_rps"] for r in reps))
    print("  sim_digest %s" % first["digest"])
    for k, v in first["exact"].items():
        print("  %-28s %s (exact for the seed)" % (k, v))
    for c in first["checks"]:
        print("  check %-28s %s  %s" % (c["name"], "ok" if c["ok"] else "FAIL",
                                         c["detail"]))
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    record = {
        "manifest": manifest(args), "trace": 0, "metrics": metrics,
        "reps": [{k: r[k] for k in ("wall_s", "cpu_s", "sim_rps",
                                    "peak_rss_mb")}
                 for r in reps],
        "setup_samples": setups, "probes": probes,
        "raw": {"sim_rps": raw_rps, "setup_s": raw_setup},
        "digest": first["digest"],
        "exact": first["exact"], "problems": problems,
    }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return metrics, record, problems, attempted, failed


def per_layer(args, bench):
    run_id = "%s-%d-%d" % (args.workload, args.seed, int(time.time() * 1e3))
    spans = os.path.join(OUT_DIR, "spans-%s.jsonl" % run_id)
    os.makedirs(OUT_DIR, exist_ok=True)
    plain = runner("run", *base_args(args))
    traced = runner("trace", *base_args(args), "--run-id", run_id,
                    "--spans", spans)
    problems = consistency_problems([plain])
    problems += ["%s: %s" % (c["name"], c["detail"])
                 for c in failed_checks(traced)]
    if traced["digest"] != plain["digest"]:
        problems.append("traced sim_digest %s != untraced %s"
                        % (traced["digest"], plain["digest"]))
    layers = dict(plain["layers"])
    layers.update(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    unknown = sorted(set(layers) - set(units))
    if unknown:
        problems.append("runner emitted metrics not in BENCHMARK.json: %s"
                        % ", ".join(unknown))
    # A layer this workload does not exercise did no work: 0. An
    # undefined value (NaN, null in JSON) comes with a failed check.
    metrics = {n: {"value": float(layers.get(n) or 0.0), "unit": u}
               for n, u in units.items()}
    self_s = dict(traced["self_s"])
    self_s["rest"] = plain["wall_s"] - sum(
        v for k, v in self_s.items() if not k.startswith("gc."))
    print("workload %s seed %d: untraced %.3fs, traced %.3fs, spans in %s"
          % (args.workload, args.seed, plain["wall_s"], traced["wall_s"],
             os.path.relpath(spans, ROOT)))
    print("  per-layer self time in the untraced run (replayed cost x live "
          "count; gc.* overlaps the others):")
    for k, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print("    %-26s %10.6f s" % (k, v))
    print("  span self time of the traced run:")
    for k, v in sorted(traced["span_self_s"].items(), key=lambda kv: -kv[1]):
        print("    %-26s %10.6f s" % (k, v))
    for n, m in metrics.items():
        print("  %-34s %16.6g %s" % (n, m["value"], m["unit"]))
    record = {"manifest": manifest(args), "trace": 1, "metrics": metrics,
              "self_s": self_s, "span_self_s": traced["span_self_s"],
              "digest": plain["digest"], "spans": os.path.relpath(spans, ROOT),
              "problems": problems}
    return metrics, record, problems, plain["attempted"], plain["failed"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        bench = spec()
        build()
        measure = per_layer if args.trace else end_to_end
        metrics, record, problems, attempted, failed = measure(args, bench)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    append_record(record)
    for p in problems:
        print("perfbench: check failed: %s" % p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
