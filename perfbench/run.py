"""Outside-in benchmark of stringflow: time to t_end on three flow workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh single-threaded child process
(perfbench/child.py) with a wall-clock timeout; repetitions run one after
another (closed loop, one client) until --seconds is used up.  A repetition
that fails the correctness gate, crashes or times out counts as failed and
gives no timing.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the passing repetitions.  --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics from the traced ones; it also
checks that the traced final map is bit-identical to the untraced one and
that the layers' self times add up to the traced run time.

The last line of standard output is the result object; the line before it
holds the run metadata, the per-repetition samples and each end-to-end
metric's interquartile range over median within this run.  Every end-to-end
metric of every workload, by name and unit:

    for w in bfield_128 gap_decay_48 bubble_probe_64; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 \
            --trace 0 | tail -1
    done
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

from tracer import SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REP_TIMEOUT_S = 60.0          # catches the NaN -> dt_min stall of run()
UNACCOUNTED_MAX = 0.10        # "layers add up" within 10% of run_s


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(workload: str, seed: int, trace: bool = False,
              inject_nan: bool = False, timeout: float = REP_TIMEOUT_S) -> dict:
    """One repetition in a fresh process; a crash or timeout is a failure."""
    out_dir = os.path.join(WORK, f"{os.getpid()}-{time.monotonic_ns()}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--out", out_dir]
    if trace:
        cmd.append("--trace")
    if inject_nan:
        cmd.append("--inject-nan")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"exit {proc.returncode}: "
                f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def repeat(seconds: float, one_round) -> list:
    """Call one_round() until another round, as slow as the slowest so far,
    would overrun `seconds`; at least one round."""
    start = time.perf_counter()
    rounds, durations = [], []
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + max(durations) > seconds:
            return rounds


def median_or_none(values):
    return statistics.median(values) if values else None


def spread(values: list) -> float | None:
    """Interquartile range over median, as statistics.quantiles gives it."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def end_to_end(reps: list) -> dict:
    passed = [r for r in reps if r["ok"]]
    return {
        "setup_s": (median_or_none([r["setup_s"] for r in passed]), "s"),
        "run_s": (median_or_none([r["run_s"] for r in passed]), "s"),
        "wall_s": (median_or_none([r["wall_s"] for r in passed]), "s"),
        "peak_rss_mb": (median_or_none([r["peak_rss_mb"] for r in passed]),
                        "MB"),
    }


# every traced layer except run() itself, whose self time is the
# unaccounted remainder
SELF_TIME_LAYERS = [name for name in SPANS if name != "action.run"]


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    calls, self_s = trace["calls"], trace["self"]
    window = trace["run_window"]
    steps = window["steps"]
    step_projects = sum(n for p, c, n in trace["edges"]
                        if p == "action.step" and c == "targets.project")
    m = {f"{name}.self_s": (self_s.get(name, 0.0), "s")
         for name in SELF_TIME_LAYERS}
    m.update({
        "grid.roll_calls_per_step": (window["roll_calls"] / steps, "count"),
        "targets.project.calls": (calls.get("targets.project", 0), "count"),
        "action.bfield_force.calls": (calls.get("action.bfield_force", 0),
                                      "count"),
        "action.step.calls": (steps, "count"),
        "action.accept_ratio": (steps / step_projects, "ratio"),
        "action.record.calls": (calls.get("action.record", 0), "count"),
        "action.snapshot_bytes": (trace["snapshot_bytes"], "B"),
        "action.step_alloc_peak_mb": (trace["step_alloc_peak_mb"], "MB"),
        "action.t_overshoot": (trace["t_overshoot"], "sim_t"),
        "io.bytes_written": (trace["bytes_written"], "B"),
        "trace.unaccounted_ratio": (
            1.0 - window["children_self_s"] / window["run_total_s"], "ratio"),
    })
    return m


def traced(pairs: list) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced repetitions) and their checks."""
    ok_pairs = [(u, t) for u, t in pairs if u["ok"] and t["ok"]]
    checks = {
        "check.bit_identical": bool(ok_pairs) and all(
            u["final_sha256"] == t["final_sha256"] for u, t in ok_pairs),
    }
    if not ok_pairs:
        return {}, checks
    per_rep = [layer_metrics(t["trace"]) for _, t in ok_pairs]
    # median_low picks a measured value, so counts stay whole numbers
    metrics = {name: (statistics.median_low(r[name][0] for r in per_rep),
                      unit)
               for name, (_, unit) in per_rep[0].items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["trace"]["run_window"]["run_total_s"]
                          for _, t in ok_pairs)
        / statistics.median(u["run_s"] for u, _ in ok_pairs) - 1.0, "ratio")
    checks["check.unaccounted_within_10pct"] = all(
        r["trace.unaccounted_ratio"][0] <= UNACCOUNTED_MAX for r in per_rep)
    return metrics, checks


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(args, reps: list) -> dict:
    first = next((r for r in reps if r["ok"]), {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_env": {v: child_env()[v] for v in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "grid": first.get("grid"),
        "t_end": first.get("t_end"),
        "steps": first.get("steps"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stringflow",
                                       "__init__.py")):
        print(f"no stringflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    # warm the bytecode and file caches so the first repetition's setup_s
    # measures what every later run pays, not a one-off compile
    warm = subprocess.run([sys.executable, "-c", "import stringflow"],
                          cwd=ROOT, env=dict(child_env(), PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print(warm.stderr, file=sys.stderr)
        return 2

    if args.trace:
        pairs = repeat(args.seconds, lambda: (
            run_child(args.workload, args.seed),
            run_child(args.workload, args.seed, trace=True)))
        reps = [r for pair in pairs for r in pair]
        metrics, trace_checks = traced(pairs)
    else:
        reps = repeat(args.seconds,
                      lambda: run_child(args.workload, args.seed))
        metrics, trace_checks = end_to_end(reps), {}
    try:
        os.rmdir(WORK)
    except OSError:   # not empty: another benchmark process is using it
        pass

    failed = sum(not r["ok"] for r in reps)
    result = {
        "correct": failed == 0 and all(trace_checks.values()),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    samples = [{k: r.get(k) for k in ("ok", "setup_s", "run_s", "wall_s",
                                      "peak_rss_mb", "run_cpu_s", "steps",
                                      "t", "identity_defect", "checks",
                                      "values", "error")} for r in reps]
    # the spread of each end-to-end metric within this run, so a comparison
    # against a bound can tell a change from noise
    passed = [r for r in reps if r["ok"] and "trace" not in r]
    spreads = {name: spread([r[name] for r in passed])
               for name in ("setup_s", "run_s", "wall_s", "peak_rss_mb",
                            "run_cpu_s")}
    meta = {"meta": metadata(args, reps), "trace_checks": trace_checks,
            "iqr_over_median": spreads, "samples": samples}
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
