#!/usr/bin/env python3
"""Host-performance benchmark of the COBRA simulator.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]
    python3 perfbench/run.py --bless

Builds perfbench_worker (perfbench/CMakeLists.txt) into .bench_build/, then
runs one worker process per pass of the workload until --seconds have been
spent, so every pass starts cold and its peak RSS is its own. Each pass is
gated: paper_quick must match tests/golden/bench_quick_metrics.json, the
single-machine workloads must verify and reproduce the fingerprint and
simulated cycles pinned in perfbench/expected.json. A pass that fails the
gate counts all its rows as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (traced passes, alternating with untraced passes so the
tracing overhead is measured in the same run). Metrics are medians over the
passes; the end-to-end host times are scaled to a reference host speed
measured by a probe next to each pass (see at_reference_speed). The last
line of stdout is the JSON result.

The workloads' inputs are fixed by the program, not drawn from --seed: the
simulation is deterministic and its results are gated against pinned
values, so every seed runs the same inputs. The seed is recorded.

--bless re-pins perfbench/expected.json from the current build. Do that only
for a deliberate model change, and say so.
"""

import argparse
import json
import os
import statistics
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKER = BUILD_DIR / "perfbench_worker"
SPANS_DIR = BUILD_DIR / "spans"
GOLDEN = ROOT / "tests" / "golden" / "bench_quick_metrics.json"
EXPECTED = BENCH_DIR / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("paper_quick", "smp_mg_cobra", "numa_daxpy_share")

# Every COBRA_* knob the simulator reads, pinned to its default or cleared,
# so an ambient setting cannot change what is measured.
PINNED_ENV = {
    "COBRA_ENGINE": "serial",
    "COBRA_TJIT": "on",
    "COBRA_PROTOCOL": "mesi",
    "COBRA_PLANNER": "heuristic",
    "COBRA_VERIFY": "0",
}
CLEARED_ENV = ("COBRA_TJIT_THRESHOLD", "COBRA_TJIT_CACHE", "COBRA_SAMPLE",
               "COBRA_TRACE")

# A worker pass must end well inside the run's 180 s limit.
PASS_TIMEOUT_S = 150
SPAN_LAYERS = ("bench", "kgen", "machine", "engine", "cobra", "verify",
               "snapshot")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the worker; build output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT}")
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_worker", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env, cwd=ROOT).returncode != 0:
                fail(f"build failed, see {log_path}")


def worker_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("COBRA_")}
    env.update(PINNED_ENV)
    return env


def run_pass(workload, trace, smoke, tag, extra=()):
    cmd = [str(WORKER), workload, f"--golden={GOLDEN}", *extra]
    if smoke:
        cmd.append("--smoke")
    if trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", f"--spans={SPANS_DIR / f'{workload}.{tag}.jsonl'}"]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    p = json.loads(proc.stdout)
    if p["probe_slices"] == 0:
        fail(f"{workload}: the host probe took no slice during the pass")
    return p


def gate(p, expected, smoke):
    """Rows of pass `p` that failed the correctness gate, and why."""
    reasons = list(p["diffs"])
    if not p["verified"]:
        reasons.append("functional verification failed")
    if p["workload"] != "paper_quick":
        want = expected[p["workload"]]["smoke" if smoke else "full"]
        if p["fingerprint"] != want["fingerprint"]:
            reasons.append(f"fingerprint {p['fingerprint']} != pinned "
                           f"{want['fingerprint']}")
        if p["sim_cycles"] != want["sim_cycles"]:
            reasons.append(f"sim_cycles {p['sim_cycles']} != pinned "
                           f"{want['sim_cycles']}")
    elif p["compare_diffs"]:
        reasons.append(f"{p['compare_diffs']} difference(s) vs {GOLDEN.name}")
    return (p["rows"] if reasons else 0), reasons


def tally(passes, expected, smoke):
    """(rows attempted, rows failed, reasons) over all passes of a run."""
    attempted, failed, reasons = 0, 0, []
    for p in passes:
        rows, why = gate(p, expected, smoke)
        attempted += p["rows"]
        failed += rows
        reasons += why
    return attempted, failed, reasons


def cobra_speedup(p, expected, smoke):
    """Simulated COBRA speedup over the un-optimized run (the paper's
    Figure 5 metric). paper_quick: the mean npb_smp/npb_numa noprefetch
    speedup. smp_mg_cobra: pinned no-COBRA cycles over this run's cycles.
    numa_daxpy_share runs without COBRA, so it is its own baseline: 1."""
    if p["workload"] == "paper_quick":
        return p["cobra_speedup"]
    if p["workload"] == "smp_mg_cobra":
        want = expected[p["workload"]]["smoke" if smoke else "full"]
        return want["baseline_cycles"] / p["sim_cycles"]
    return 1.0


def run_passes(args):
    """Runs passes until --seconds are spent; --trace 1 alternates untraced
    and traced passes. Returns (untraced, traced) pass lists."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        untraced.append(run_pass(args.workload, False, args.smoke,
                                 len(untraced)))
        if args.trace:
            traced.append(run_pass(args.workload, True, args.smoke,
                                   len(traced)))
        step = time.monotonic() - t0
        if time.monotonic() - start + step > args.seconds:
            return untraced, traced


# HostProbe's slice time (probe.cpp) on an undisturbed host of the reference
# hardware (4-vCPU Intel Xeon KVM guest, gcc 12.2, RelWithDebInfo): about the
# mean slice time of the quietest passes seen there (280-310 us).
PROBE_REFERENCE_S = 290e-6
# How much more than the probe the simulator slows down under load: the
# slope of log pass time on log probe time, measured on that host at
# 1.2-2.2 over the three workloads and several loaded stretches.
PROBE_SENSITIVITY = 1.5


def at_reference_speed(p, seconds):
    """Host `seconds` of pass `p` scaled to the reference host speed.

    Other tenants of a shared host slow a pass down by up to 2x, for tens
    of seconds at a time. The probe's slices run on the same core in the
    same moments and slow down with it, so scaling by the probe's slow-down
    (raised to PROBE_SENSITIVITY) keeps the pass time steady while the
    host's load changes. At the reference speed the scaling is 1. The
    probe's code does not change with the simulator's, so a real slow-down
    of the simulator shows in full; it can reach the probe only through the
    caches they share."""
    return seconds * (PROBE_REFERENCE_S / p["probe_s"]) ** PROBE_SENSITIVITY


def end_to_end(passes, expected, smoke):
    return {
        "wall_s": median([at_reference_speed(p, p["wall_s"]) for p in passes]),
        "setup_s": median([at_reference_speed(p, p["setup_s"])
                           for p in passes]),
        "sim_mips": median([p["retired"] / 1e6
                            / at_reference_speed(p, p["wall_s"])
                            for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "cobra_speedup": median([cobra_speedup(p, expected, smoke)
                                 for p in passes]),
    }


def per_layer(traced, untraced, names):
    """Per-layer medians over the traced passes; metrics a workload does not
    reach from outside are reported as 0 and listed in `unreached`."""
    values = {}
    for name in names:
        if all(name in p["metrics"] for p in traced):
            values[name] = median([p["metrics"][name] for p in traced])
    for layer in SPAN_LAYERS:
        layers = [p["layers"].get(layer, {"self_s": 0.0, "count": 0})
                  for p in traced]
        values[f"layer.{layer}.self_s"] = median([l["self_s"] for l in layers])
        values[f"layer.{layer}.spans"] = median([l["count"] for l in layers])
    # Share of the row's wall time spent inside calls into a layer other
    # than the benchmark itself (snapshot spans lie outside the row).
    values["trace.attributed_share"] = median([
        sum(p["layers"].get(l, {"self_s": 0.0})["self_s"]
            for l in SPAN_LAYERS if l not in ("bench", "snapshot"))
        / p["wall_s"] for p in traced])
    values["host.probe_us"] = median([p["probe_s"] * 1e6 for p in traced])
    values["trace.untraced_wall_s"] = median([p["wall_s"] for p in untraced])
    values["trace.traced_wall_s"] = median([p["wall_s"] for p in traced])
    values["trace.overhead_s"] = (values["trace.traced_wall_s"]
                                  - values["trace.untraced_wall_s"])
    unreached = [n for n in names if n not in values]
    for name in unreached:
        values[name] = 0.0
    return values, unreached


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bless():
    build()
    expected = {}
    for workload in ("smp_mg_cobra", "numa_daxpy_share"):
        expected[workload] = {}
        for size, smoke in (("full", False), ("smoke", True)):
            p = run_pass(workload, False, smoke, "bless")
            if not p["verified"] or p["diffs"]:
                fail(f"{workload}/{size} does not verify: {p['diffs']}")
            entry = {"fingerprint": p["fingerprint"],
                     "sim_cycles": p["sim_cycles"]}
            if workload == "smp_mg_cobra":
                base = run_pass(workload, False, smoke, "bless",
                                extra=("--baseline",))
                entry["baseline_cycles"] = base["sim_cycles"]
            expected[workload][size] = entry
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2)
        f.write("\n")
    print(f"perfbench: wrote {EXPECTED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    ap.add_argument("--bless", action="store_true",
                    help="re-pin expected.json from the current build")
    args = ap.parse_args()
    if args.bless:
        bless()
        return
    if args.workload is None:
        ap.error("--workload is required")

    with open(SPEC) as f:
        spec = json.load(f)
    with open(EXPECTED) as f:
        expected = json.load(f)
    build()
    untraced, traced = run_passes(args)
    attempted, failed, reasons = tally(untraced + traced, expected, args.smoke)

    first = untraced[0]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}"
          f" passes={len(untraced)} untraced, {len(traced)} traced")
    print("perfbench: env " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items())
          + " cleared=" + ",".join(CLEARED_ENV))
    print(f"perfbench: build {first['build_type']}, compiler {first['compiler']}, "
          f"nproc {os.cpu_count()}")
    print(f"perfbench: host probe median "
          f"{median([p['probe_s'] for p in untraced]) * 1e6:.1f} us per slice "
          f"(reference {PROBE_REFERENCE_S * 1e6:.0f} us), unscaled wall_s "
          f"median {median([p['wall_s'] for p in untraced]):.4g} s")
    print(f"perfbench: gate attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:g}")
    for reason in sorted(set(reasons)):
        print(f"perfbench:   FAIL {reason}")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, unreached = per_layer(traced, untraced, names)
        for name in names:
            note = "  (not reached from outside)" if name in unreached else ""
            print(f"  {name:36s} {values[name]:14.6g} {units[name]}{note}")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(untraced, expected, args.smoke)
        for name in names:
            series = [end_to_end([p], expected, args.smoke)[name]
                      for p in untraced]
            q1, q3 = quartiles(series)
            print(f"  {name:16s} {values[name]:12.6g} {units[name]:8s} "
                  f"median of {len(series)}, q1 {q1:.6g}, q3 {q3:.6g}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
