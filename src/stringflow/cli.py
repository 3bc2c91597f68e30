"""Command-line entry point.

Subcommands: run, check, scan, rescale, compare.  Exit codes: 0 success,
1 bad configuration (a bad key, value or argument, a missing, unreadable or
corrupt input file, or a path of the wrong kind), 2 hypothesis warning,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .action import energies, monotonicity_check, run
from .config import load_config, preset_config, save_config, validate_config
from .errors import ConfigError, GridError, HypothesisError, StringFlowError
from .fields import delta_constants, smallness_report, sup_norms
from .grid import build_grid
from .io import (read_ledger_csv, read_snapshot, write_events_jsonl,
                 write_run_outputs, write_snapshot)
from .singular import (SingularEvent, concentration_scan, k_bound,
                       rescale_out_grid, zoom_map)

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


def _write_report(out: str, name: str, report: dict):
    """Write a JSON report into out/name, indented and ending in a newline:
    the one writer of every report the commands write."""
    with open(os.path.join(out, name), "w") as f:
        f.write(json.dumps(report, indent=2) + "\n")


def _hypothesis_report(grid, target, fields, vals, flow_cfg) -> dict:
    """The hypothesis constants of a run from the initial map's array."""
    norms = sup_norms(fields.b, fields.V, target)
    report = {"B_inf": norms.B_inf, "Z_inf": norms.Z_inf,
              "hessV_inf": norms.hessV_inf, "shift": fields.V.shift}
    try:
        d2, d3 = delta_constants(norms.B_inf)
        report["delta2"] = d2
        report["delta3"] = d3
        small = smallness_report(vals, grid, fields, flow_cfg.delta1,
                                 norms.B_inf)
        report["smallness"] = asdict(small)
        report["smallness_ok"] = small.passes
        terms = energies(vals, grid, fields)
        report["S0"] = terms.S_tilde
        report["k_bound"] = k_bound(terms.S_tilde, flow_cfg.delta1, d2)
        # a non-finite u0 fails the run at its first step
        report["ok"] = bool(small.passes) and math.isfinite(terms.S_tilde)
    except HypothesisError as e:
        report["ok"] = False
        report["error"] = str(e)
    return report


def _build(args):
    """The config that run and check load, the objects built from it and
    their hypothesis report.  The report reads the projected initial map,
    the map init_state starts from, so its S0 is the run's bit for bit."""
    cfg = _load_cfg(args)
    from .config import build_objects
    grid, target, fields, u0, flow_cfg = objects = build_objects(cfg)
    return cfg, objects, _hypothesis_report(grid, target, fields,
                                            target.project(u0.values),
                                            flow_cfg)


def cmd_run(args) -> int:
    cfg, (grid, target, fields, u0, flow_cfg), report = _build(args)

    state = run(u0, grid, target, fields, flow_cfg)

    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    save_config(cfg, os.path.join(out, "config.json"))
    write_run_outputs(state, out)
    _write_report(out, "hypothesis.json", report)

    if "delta2" in report:
        mono = monotonicity_check(state.ledger, report["delta2"], state.S0)
        _write_report(out, "monotonicity.json", mono)
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
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_report(args.out, "hypothesis.json", report)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report.get("ok", False) else EXIT_HYPOTHESIS


def _on_snapshot(command):
    """A scan or rescale subcommand: `command(args, values, header, grid)`
    on the snapshot's values and header and the grid of its node counts
    and the --Lx, --Ly periods.  The library checks the arguments; a
    GridError, for periods, a radius, an r or a node that it rules out, is
    a ConfigError."""
    def cmd(args) -> int:
        values, header = read_snapshot(args.snapshot)
        try:
            grid = build_grid(header["nx"], header["ny"], Lx=args.Lx,
                              Ly=args.Ly)
            return command(args, values, header, grid)
        except GridError as e:
            raise ConfigError(str(e)) from e
    return cmd


@_on_snapshot
def cmd_scan(args, values, header, grid) -> int:
    if not args.delta1 > 0.0:
        raise ConfigError(f"--delta1 {args.delta1} is not positive")
    hits = concentration_scan(values, grid, args.delta1, args.radius)
    events = [SingularEvent(t=header["t"], ix=ix, iy=iy, R=args.radius,
                            local_energy=e, kind="concentration")
              for (ix, iy), e in hits]
    for ev in events:
        print(json.dumps(asdict(ev)))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_events_jsonl(events, os.path.join(args.out, "scan_events.jsonl"))
    print(f"scan: {len(events)} concentration site(s) at threshold {args.delta1}")
    return EXIT_OK


@_on_snapshot
def cmd_rescale(args, values, header, grid) -> int:
    out_grid = rescale_out_grid(grid, args.r)
    v_t0 = zoom_map(values, grid, (args.ix, args.iy))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_snapshot(os.path.join(args.out, "rescaled.snap"), v_t0,
                       0.0, header.get("target", "target"))
    print(f"rescale: r={args.r} center=({args.ix},{args.iy}) "
          f"gradV_factor={1.0 / args.r ** 2:.6g} "
          f"out_grid={out_grid.nx}x{out_grid.ny} "
          f"periods=({out_grid.Lx:.6g},{out_grid.Ly:.6g})")
    return EXIT_OK


def _separation_series(dir_a: str, dir_b: str):
    """(t, |E_a - E_b|) over the ledger rows the two runs share; a
    ConfigError, naming the CSV line of the first such row and both its
    times, unless the two ledgers were recorded at the same times."""
    la = read_ledger_csv(os.path.join(dir_a, "run_ledger.csv"))
    lb = read_ledger_csv(os.path.join(dir_b, "run_ledger.csv"))
    n = min(len(la), len(lb))
    t, tb = la.column("t")[:n], lb.column("t")[:n]
    differ = np.flatnonzero(t != tb)
    if differ.size:
        k = int(differ[0])
        raise ConfigError(f"ledgers recorded at different times: line "
                          f"{k + 2} has t={float(t[k])!r} in {dir_a} and "
                          f"t={float(tb[k])!r} in {dir_b}")
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
        _write_report(args.out, "compare.json", out)
    print(f"compare: bitwise={bitwise} max_abs_diff={max_diff:.3e} "
          + (f"rate={gamma:.4g}" if gamma is not None else "rate=n/a"))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argparse parser, subcommand parsers too, whose usage errors (an
    unknown flag, a value of the wrong type, a missing argument) are
    ConfigErrors, exit 1: argparse's own exit 2 is the code of a
    hypothesis warning.  --help still exits 0."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # argparse would set an unknown flag before the subcommand aside
        # and read its value as the subcommand's name
        if args and args[0].startswith("-") \
                and args[0] not in ("-h", "--help"):
            self.error(f"unrecognized argument {args[0]} before the "
                       f"subcommand; options go after it")
        return super().parse_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="stringflow",
                description="Geometric flow simulator for maps of a flat "
                "torus with two-form and potential backgrounds.")
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
    try:
        args = parser.parse_args(argv)
        # every hostile value has its own check and exit code below, which
        # numpy's RuntimeWarnings would only precede; library callers keep
        # numpy's default
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, OSError) as e:      # a SnapshotError is an OSError
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (StringFlowError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
