#!/usr/bin/env python3
"""Build the benchmark from this checkout and run it.

Run from the root of the checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One benchmark run.  The last line of standard output is one JSON
      object: correct, attempted, failed and the metrics (end-to-end ones
      with --trace 0, per-layer ones with --trace 1).

  python3 perfbench/run.py --steadiness --workload W [--runs N] [--trace T]
      N runs on seeds 1..N; prints each metric's median, quartiles,
      quartile spread (as a share of the median) and max/min ratio.

  python3 perfbench/run.py --selftest [--workloads a,b]
      The benchmark's own tests: unit tests, the reference outputs
      regenerated with the interpreter, and determinism of the
      deterministic metrics across seeds and between traced and untraced
      runs.

  python3 perfbench/run.py --calibrate
      Prints this host's calibration (how calib_ref, the --calib-ref
      argument in BENCHMARK.json's command, was chosen).

The program is built with dune into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; nothing is written outside it.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
REFS = os.path.join(HERE, "ref_outputs")
RUN_TIMEOUT = 175
DETERMINISTIC_E2E = ["alat_cycles_gmean", "baseline_cycles_gmean", "code_kslots"]
DETERMINISTIC_LAYER = ["profile.interp_mwords", "core.promote_mwords", "target.mwords"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def scratch_dir():
    d = os.path.join(build_dir(), "perfbench")
    os.makedirs(d, exist_ok=True)
    return d


def spec():
    with open(BENCHMARK) as f:
        return json.load(f)


def default_calib_ref():
    cmd = spec()["command"]
    return cmd[cmd.index("--calib-ref") + 1]


def build():
    if not (os.path.exists("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./" + HERE + "/perfbench.exe"
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir(),
           "--profile", "release", target]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found")
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir(), "default", HERE, "perfbench.exe")


def run_child(cmd, timeout=RUN_TIMEOUT):
    """Run cmd to completion, killing it if we are interrupted; returns
    (exit code, stdout lines)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run exceeded %d s" % timeout)
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    return child.returncode, out.splitlines()


def bench_run(exe, workload, seed, seconds, trace, calib_ref):
    cmd = [exe, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--calib-ref", str(calib_ref), "--refs", REFS,
           "--tmp", scratch_dir()]
    if trace:
        cmd += ["--spans", os.path.join(
            scratch_dir(), "spans-%s-%s.json" % (workload, seed))]
    code, lines = run_child(cmd)
    if not lines:
        fail("no result from %s" % workload)
    return code, lines


def check_result(lines, trace):
    """The last line must carry exactly the declared metrics, with their
    declared units."""
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    declared = spec()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail("emitted metrics differ from BENCHMARK.json: %s" %
             sorted(set(want.items()) ^ set(got.items())))
    return result


def cmd_run(a):
    if a.workload is None or a.seed is None:
        fail("--workload and --seed are required")
    exe = build()
    code, lines = bench_run(exe, a.workload, a.seed, a.seconds, a.trace,
                            a.calib_ref or default_calib_ref())
    check_result(lines, a.trace)
    print("\n".join(lines), flush=True)
    sys.exit(code)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def cmd_steadiness(a):
    exe = build()
    calib_ref = a.calib_ref or default_calib_ref()
    runs = []
    for seed in range(a.first_seed, a.first_seed + a.runs):
        t0 = time.monotonic()
        code, lines = bench_run(exe, a.workload, seed, a.seconds, a.trace,
                                calib_ref)
        took = time.monotonic() - t0
        result = check_result(lines, a.trace)
        if code != 0 or not result["correct"]:
            fail("seed %d failed" % seed, 1)
        runs.append(result["metrics"])
        print("seed %d (%.1f s): %s" % (seed, took, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
            file=sys.stderr, flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    print("%-30s %12s %12s %12s %8s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "max/min", "bound"))
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med, q1, q3, sp = spread(values)
        lo = min(values)
        ratio = max(values) / lo if lo else float("nan")
        b = bounds.get(name)
        print("%-30s %12.6g %12.6g %12.6g %8.4f %8.4f %6s" %
              (name, med, q1, q3, sp, ratio, "" if b is None else b))


def cmd_calibrate(_a):
    exe = build()
    code, lines = run_child([exe, "calibrate"])
    print("\n".join(lines))
    sys.exit(code)


def cmd_selftest(a):
    exe = build()
    failures = []
    tmp = scratch_dir()
    for mode in (["unit", "--benchmark", BENCHMARK, "--tmp", tmp],
                 ["check-refs", "--refs", REFS]):
        code, lines = run_child([exe] + mode, timeout=600)
        print("\n".join(lines), flush=True)
        if code != 0:
            failures.append(mode[0])
    workloads = a.workloads.split(",") if a.workloads else \
        [w["name"] for w in spec()["workloads"]]
    calib_ref = a.calib_ref or default_calib_ref()
    # Cycles, code size and heap words must not depend on the seed, and
    # cycles and code size must not depend on tracing.
    for w in workloads:
        e2e, layers = [], []
        for trace, seed in ((0, 1), (0, 2), (1, 1), (1, 2)):
            code, lines = bench_run(exe, w, seed, 1, trace, calib_ref)
            result = check_result(lines, trace)
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append("%s seed %d trace %d failed" % (w, seed, trace))
                continue
            if trace:
                full = json.loads(lines[-2])
                e2e.append(full["end_to_end"])
                layers.append(full["per_layer"])
            else:
                e2e.append(result["metrics"])
        for name in DETERMINISTIC_E2E:
            vals = [m[name]["value"] for m in e2e]
            ok = len(set(vals)) == 1
            print("%-16s %-28s %s %s" % (w, name, "ok" if ok else "DIFFERS", vals))
            if not ok:
                failures.append("%s %s" % (w, name))
        for name in DETERMINISTIC_LAYER:
            vals = [m[name]["value"] for m in layers]
            ok = len(set(vals)) == 1
            print("%-16s %-28s %s %s" % (w, name, "ok" if ok else "DIFFERS", vals))
            if not ok:
                failures.append("%s %s" % (w, name))
        if layers:
            m = layers[-1]
            wall = e2e[-1]["wall_s"]["value"]
            print("%-16s machine.run_s share of wall_s: %.3f; "
                  "obs.ns_per_instr_overhead: %.2f; residue: %.3f s" %
                  (w, m["machine.run_s"]["value"] / wall,
                   m["obs.ns_per_instr_overhead"]["value"],
                   m["bench.residue_s"]["value"]), flush=True)
    if failures:
        fail("self-test failed: " + "; ".join(failures), 1)
    print("self-test passed")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--calib-ref")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--workloads")
    p.add_argument("--calibrate", action="store_true")
    a = p.parse_args()
    if a.selftest:
        cmd_selftest(a)
    elif a.steadiness:
        cmd_steadiness(a)
    elif a.calibrate:
        cmd_calibrate(a)
    else:
        cmd_run(a)


if __name__ == "__main__":
    main()
