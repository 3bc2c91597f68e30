"""Resident memory after each phase of one benchmark repetition.

For each perfbench workload, runs the sequence of `perfbench/child.py` in a
fresh single-threaded process and prints one JSON line with the process's
VmRSS (now) and ru_maxrss (peak so far), in MB, after each phase:

    imports   numpy and stringflow
    build     validate_config, build_objects and the workload's initial map
    norms     sup_norms, delta_constants and smallness_report
    run       run
    outputs   write_run_outputs, monotonicity_check and the analysis

    python bench/rss_phases.py [--seed N] [--workload NAME]...

Repeat --workload for each workload to probe (--workload A --workload B);
with none given, every workload is probed.

The workloads and the child environment come from perfbench/workloads.py
and perfbench/run.py, which this script only reads.  VmRSS is read from
/proc/self/status and is null where that file does not exist.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import WORKLOADS  # noqa: E402


def _vmrss_mb():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def phases(name: str, seed: int) -> dict:
    """The memory marks of one workload, in this process."""
    marks = {}

    def mark(phase):
        marks[phase] = {"vmrss_mb": _vmrss_mb(),
                        "maxrss_mb": resource.getrusage(
                            resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    import numpy  # noqa: F401
    import stringflow as sf
    mark("imports")

    workload = WORKLOADS[name]
    cfg = sf.validate_config(workload.config(seed))
    grid, target, fields, u0, flow_cfg = sf.build_objects(cfg)
    if workload.initial_map is not None:
        u0 = workload.initial_map(sf, grid, target, seed)
    objects = (grid, target, fields, u0, flow_cfg)
    mark("build")

    norms = sf.sup_norms(fields.b, fields.V, target)
    delta2, _ = sf.delta_constants(norms.B_inf)
    sf.smallness_report(u0.values, grid, fields, flow_cfg.delta1, norms.B_inf)
    mark("norms")

    state = sf.run(u0, grid, target, fields, flow_cfg)
    mark("run")

    with tempfile.TemporaryDirectory() as out:
        sf.write_run_outputs(state, out)
        sf.monotonicity_check(state.ledger, delta2, state.S0)
        if workload.analysis:
            workload.analysis(sf, state, objects, out)
    mark("outputs")
    return {"workload": name, "seed": seed, "phases": marks}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="a workload to probe (repeatable; default: all)")
    p.add_argument("--in-process", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.in_process:
        for name in names:
            print(json.dumps(phases(name, args.seed)))
        return 0
    from run import child_env   # perfbench's single-threaded environment
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--in-process",
               "--seed", str(args.seed), "--workload", name]
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            status = 1
        sys.stdout.write(done.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
