"""Command-line entry point.

Subcommands: run, check, scan, rescale, compare.  Exit codes: 0 success,
1 bad configuration (a bad key, value or argument, or a missing or corrupt
input file), 2 hypothesis warning, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .action import energies, monotonicity_check, run
from .config import (PRESETS, load_config, preset_config, save_config,
                     validate_config)
from .errors import (ConfigError, GridError, HypothesisError, SnapshotError,
                     StringFlowError)
from .fields import delta_constants, smallness_report, sup_norms
from .grid import build_grid
from .io import (read_ledger_csv, read_snapshot, write_events_jsonl,
                 write_run_outputs, write_snapshot)
from .singular import (SingularEvent, concentration_scan, k_bound,
                       parabolic_rescale, rescale_out_grid)

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERIC = 3


def _load_cfg(args) -> dict:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        return preset_config(args.preset)
    if args.config:
        return load_config(args.config)
    return validate_config({})


def _hypothesis_report(grid, target, fields, u0, flow_cfg) -> dict:
    norms = sup_norms(fields.b, fields.V, target)
    report = {"B_inf": norms.B_inf, "Z_inf": norms.Z_inf,
              "hessV_inf": norms.hessV_inf, "shift": fields.V.shift}
    try:
        d2, d3 = delta_constants(norms.B_inf)
        report["delta2"] = d2
        report["delta3"] = d3
        small = smallness_report(u0.values, grid, fields, flow_cfg.delta1,
                                 norms.B_inf)
        report["smallness"] = small.to_dict()
        report["smallness_ok"] = small.passes
        terms = energies(u0, grid, fields)
        report["S0"] = terms.S_tilde
        # a non-finite u0 has no bound; the run then fails at its first step
        finite = math.isfinite(terms.S_tilde)
        report["k_bound"] = (k_bound(terms.S_tilde, flow_cfg.delta1, d2)
                             if finite else None)
        report["ok"] = bool(small.passes) and finite
    except HypothesisError as e:
        report["ok"] = False
        report["error"] = str(e)
    return report


def _build(args):
    """The config that run and check load, the objects built from it and
    their hypothesis report."""
    cfg = _load_cfg(args)
    from .config import build_objects
    objects = build_objects(cfg)
    return cfg, objects, _hypothesis_report(*objects)


def cmd_run(args) -> int:
    cfg, (grid, target, fields, u0, flow_cfg), report = _build(args)

    state = run(u0, grid, target, fields, flow_cfg)

    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    save_config(cfg, os.path.join(out, "config.json"))
    write_run_outputs(state, out)
    with open(os.path.join(out, "hypothesis.json"), "w") as f:
        json.dump(report, f, indent=2)

    if not np.all(np.isfinite(state.u.values)):
        print("run: FAILED (non-finite map values)")
        return EXIT_NUMERIC
    if "delta2" in report:
        mono = monotonicity_check(state.ledger, report["delta2"], state.S0)
        with open(os.path.join(out, "monotonicity.json"), "w") as f:
            json.dump(mono, f, indent=2)
        if not (mono["monotone_ok"] and mono["energy_bound_ok"]):
            print("run: FAILED (energy monotonicity violated)")
            return EXIT_NUMERIC
    print(f"run: t={state.t:.6g} steps={state.steps} "
          f"S_tilde={state.S_current:.6g} events={len(state.events)} -> {out}")
    if not report.get("ok", False):
        print("run: WARNING (hypotheses not satisfied; see hypothesis.json)")
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_check(args) -> int:
    report = _build(args)[2]
    text = json.dumps(report, indent=2)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "hypothesis.json"), "w") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK if report.get("ok", False) else EXIT_HYPOTHESIS


def _read_snapshot_grid(args):
    """The snapshot's values and header, and the grid of its node counts
    and the --Lx, --Ly periods; periods it rules out are a ConfigError."""
    values, header = read_snapshot(args.snapshot)
    try:
        grid = build_grid(header["nx"], header["ny"], Lx=args.Lx, Ly=args.Ly)
    except GridError as e:
        raise ConfigError(str(e)) from e
    return values, header, grid


def cmd_scan(args) -> int:
    values, header, grid = _read_snapshot_grid(args)
    if not 0.0 < args.radius < grid.inj_radius:
        raise ConfigError(f"--radius {args.radius} outside "
                          f"(0, {grid.inj_radius})")
    if not args.delta1 > 0.0:
        raise ConfigError(f"--delta1 {args.delta1} is not positive")
    hits = concentration_scan(values, grid, args.delta1, args.radius)
    events = [SingularEvent(t=header["t"], ix=ix, iy=iy, R=args.radius,
                            local_energy=e, kind="concentration")
              for (ix, iy), e in hits]
    for ev in events:
        print(json.dumps(ev.to_dict()))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_events_jsonl(events, os.path.join(args.out, "scan_events.jsonl"))
    print(f"scan: {len(events)} concentration site(s) at threshold {args.delta1}")
    return EXIT_OK


def cmd_rescale(args) -> int:
    values, header, grid = _read_snapshot_grid(args)
    if not args.r >= 2.0 * max(grid.dx, grid.dy):
        raise ConfigError(f"--r {args.r} below 2*dx")
    if not (0 <= args.ix < grid.nx and 0 <= args.iy < grid.ny):
        raise ConfigError(f"node ({args.ix}, {args.iy}) not on the grid")
    t0 = float(header["t"])
    snaps = [(t0 - args.r ** 2, values), (t0, values)]
    out_grid = rescale_out_grid(grid, args.r)
    res = parabolic_rescale(snaps, ((args.ix, args.iy), t0), args.r,
                            grid, out_grid)
    v_t0 = res["sequence"][-1][1]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_snapshot(os.path.join(args.out, "rescaled.snap"), v_t0,
                       0.0, header.get("target", "target"))
    print(f"rescale: r={args.r} center=({args.ix},{args.iy}) "
          f"gradV_factor={res['gradV_factor']:.6g} "
          f"out_grid={out_grid.nx}x{out_grid.ny} "
          f"periods=({out_grid.Lx:.6g},{out_grid.Ly:.6g})")
    return EXIT_OK


def _separation_series(dir_a: str, dir_b: str):
    la = read_ledger_csv(os.path.join(dir_a, "run_ledger.csv"))
    lb = read_ledger_csv(os.path.join(dir_b, "run_ledger.csv"))
    n = min(len(la), len(lb))
    t = la.column("t")[:n]
    sep = np.abs(la.column("E")[:n] - lb.column("E")[:n])
    return t, sep


def compare_runs(dir_a: str, dir_b: str) -> dict:
    """Bitwise diff of final snapshots plus the ledger separation series."""
    va, _ = read_snapshot(os.path.join(dir_a, "run_final.snap"))
    vb, _ = read_snapshot(os.path.join(dir_b, "run_final.snap"))
    if va.shape != vb.shape:
        raise ConfigError(f"incompatible snapshot shapes {va.shape} vs {vb.shape}")
    bitwise = bool(va.tobytes() == vb.tobytes())
    max_diff = float(np.max(np.abs(va - vb)))
    t, sep = _separation_series(dir_a, dir_b)
    gamma = None
    pos = sep > 0
    if np.count_nonzero(pos) >= 3:
        # least-squares exponential rate of the energy separation
        gamma = float(np.polyfit(t[pos], np.log(sep[pos]), 1)[0])
    return {"bitwise_identical": bitwise, "max_abs_diff": max_diff,
            "final_separation": float(sep[-1]) if len(sep) else 0.0,
            "separation_rate": gamma,
            "t": t.tolist(), "separation": sep.tolist()}


def cmd_compare(args) -> int:
    out = compare_runs(args.dir_a, args.dir_b)
    bitwise, max_diff = out["bitwise_identical"], out["max_abs_diff"]
    gamma = out["separation_rate"]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "compare.json"), "w") as f:
            json.dump(out, f, indent=2)
    print(f"compare: bitwise={bitwise} max_abs_diff={max_diff:.3e} "
          + (f"rate={gamma:.4g}" if gamma is not None else "rate=n/a"))
    return EXIT_OK


def run_scenario(name_or_path: str, out: str | None = None) -> int:
    """Run a preset name or config file path; returns the process exit code."""
    flag = "--preset" if name_or_path in PRESETS else "--config"
    argv = ["run", flag, name_or_path]
    if out:
        argv += ["--out", out]
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stringflow",
                                description="Geometric flow simulator for "
                                "maps of a flat torus with two-form and "
                                "potential backgrounds.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--preset", help="named preset configuration")
        sp.add_argument("--out", help="output directory")

    sp = sub.add_parser("run", help="advance the flow and write outputs")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("check", help="evaluate hypothesis constants only")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("scan", help="concentration scan of a snapshot")
    sp.add_argument("snapshot")
    sp.add_argument("--delta1", type=float, default=0.5)
    sp.add_argument("--radius", type=float, default=0.5)
    sp.add_argument("--Lx", type=float, default=2.0 * np.pi)
    sp.add_argument("--Ly", type=float, default=2.0 * np.pi)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("rescale", help="parabolic zoom about a node")
    sp.add_argument("snapshot")
    sp.add_argument("--ix", type=int, required=True)
    sp.add_argument("--iy", type=int, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--Lx", type=float, default=2.0 * np.pi)
    sp.add_argument("--Ly", type=float, default=2.0 * np.pi)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_rescale)

    sp = sub.add_parser("compare", help="diff two run output directories")
    sp.add_argument("dir_a")
    sp.add_argument("dir_b")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, SnapshotError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except HypothesisError as e:
        print(f"hypothesis warning: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (StringFlowError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
