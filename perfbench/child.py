"""One benchmark repetition, run in a fresh single-threaded process.

Drives stringflow through its public API in the order `stringflow run`
uses it: validate_config -> build_objects -> sup_norms / delta_constants /
smallness_report -> run -> write_run_outputs -> monotonicity_check, then the
workload's post-run analysis.  Prints one JSON object with the timings, the
correctness gate and, with --trace, the span totals.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace]
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def repetition(workload, seed: int, out_dir: str, trace: bool,
               inject_nan: bool) -> dict:
    import numpy as np
    import stringflow as sf

    tracer = None
    if trace:
        from tracer import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)

    cfg = sf.validate_config(workload.config(seed))
    objects = sf.build_objects(cfg)
    grid, target, fields, u0, flow_cfg = objects
    if workload.initial_map is not None:
        u0 = workload.initial_map(sf, grid, target, seed)
        objects = (grid, target, fields, u0, flow_cfg)
    norms = sf.sup_norms(fields.b, fields.V, target)
    delta2, _ = sf.delta_constants(norms.B_inf)
    sf.smallness_report(u0.values, grid, fields, flow_cfg.delta1, norms.B_inf)
    # run() projects u0 and records t = 0 before its first step; that part
    # cannot be separated from outside and counts in run_s
    t_setup = time.perf_counter()

    before = tracer.snapshot() if tracer else None
    cpu_setup = _cpu_s()
    state = sf.run(u0, grid, target, fields, flow_cfg)
    t_run = time.perf_counter()
    cpu_run = _cpu_s()
    after = tracer.snapshot() if tracer else None
    if inject_nan:
        # negative control for the gate: a corrupted final map
        state.u.values[0, 0, 0] = np.nan

    sf.write_run_outputs(state, out_dir)
    mono = sf.monotonicity_check(state.ledger, delta2, state.S0)
    analysis = workload.analysis(sf, state, objects, out_dir) \
        if workload.analysis else {}
    t_end = time.perf_counter()

    vals = state.u.values
    defect = abs(state.S_current + state.cum_dissipation - state.S0)
    checks = {
        "check.finite": bool(np.all(np.isfinite(vals))),
        "check.constraint": bool(state.u.constraint_defect()
                                 <= sf.CONSTRAINT_TOL),
        # run() treats t >= t_end - 1e-15 as done; the gate uses the same
        "check.reached_t_end": bool(state.t >= flow_cfg.t_end - 1e-15),
        "check.monotone": mono["monotone_ok"],
        "check.energy_bound": mono["energy_bound_ok"],
        "check.identity": bool(defect <= workload.identity_rel
                               * abs(state.S0)),
    }
    checks.update({k: v for k, v in analysis.items() if k.startswith("check.")})
    out = {
        "ok": all(checks.values()),
        "checks": checks,
        "values": {k: v for k, v in analysis.items()
                   if k.startswith("value.")},
        "setup_s": t_setup - T_START,
        "run_s": t_run - t_setup,
        "wall_s": t_end - T_START,
        "run_cpu_s": cpu_run - cpu_setup,
        "steps": state.steps,
        "t": state.t,
        "t_end": flow_cfg.t_end,
        "grid": [grid.nx, grid.ny],
        "identity_defect": defect,
        "S0": state.S0,
        "final_sha256": hashlib.sha256(vals.tobytes()).hexdigest(),
        "numpy": np.__version__,
    }
    if tracer:
        out["trace"] = _trace_report(tracer, before, after, state, out_dir)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _trace_report(tracer, before, after, state, out_dir) -> dict:
    """Span totals for the whole repetition plus the run() window."""
    import tracemalloc
    import stringflow as sf

    def window(key, name):
        return after[key].get(name, 0) - before[key].get(name, 0)

    run_self = sum(window("self", name) for name in after["self"]
                   if name != "action.run")
    report = tracer.snapshot()
    report["edges"] = [[p, c, n] for (p, c), n in report["edges"].items()]
    report["run_window"] = {
        "run_total_s": window("total", "action.run"),
        "children_self_s": run_self,
        "roll_calls": window("counts", "numpy.roll"),
        "steps": window("calls", "action.step"),
    }
    report["snapshot_bytes"] = sum(v.nbytes for _, v in state.snapshots)
    report["bytes_written"] = _dir_bytes(out_dir)
    report["t_overshoot"] = state.t - state.config.t_end
    # allocation peak of one more step from the final state, measured after
    # the totals above were taken so it changes none of them
    tracemalloc.start()
    sf.step(state)
    report["step_alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for run outputs")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--inject-nan", action="store_true",
                   help="corrupt the final map (self-test negative control)")
    args = p.parse_args(argv)
    try:
        out = repetition(WORKLOADS[args.workload], args.seed, args.out,
                         args.trace, args.inject_nan)
    except Exception:  # a crash is a failed repetition, reported as such
        out = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
