"""Benchmark workloads: stringflow inputs made from a seed, the workload's
post-run analysis, and the workload's own acceptance checks.  Why each
workload was chosen is recorded in BENCHMARK.json.

This module imports stringflow only inside functions, so the parent
process can read the workload table without importing numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]   # seed -> raw stringflow config
    # The dissipation identity S + D = S0 holds up to O(dt) for projected
    # explicit Euler; the gate allows |S + D - S0| <= identity_rel * |S0|.
    # bfield_128 uses A1's 1e-3 (measured 2.3e-5 at seed 1); the others sit
    # about 3-5x above the defect measured at seed 1 (gap 2.2e-3, bubble
    # 1.0e-2, smoke 3.6e-2), so a broken ledger fails while a change of
    # accuracy within first order does not.
    identity_rel: float
    # (sf, grid, target, seed) -> replacement initial map, or None to keep
    # the one build_objects made from the config
    initial_map: Callable | None = None
    # (sf, state, objects, out_dir) -> {check name: bool, value name: float}
    analysis: Callable | None = None


def _bfield_config(seed: int) -> dict:
    return {
        "grid": {"nx": 128, "ny": 128},
        "target": {"kind": "sphere", "q": 4},
        "fields": {"b_kind": "y4", "beta": 0.2, "v_kind": "height",
                   "epsilon": 5e-3},
        "initial": {"kind": "noisy_wrap", "m": 1, "n": 0, "seed": seed,
                    "amplitude": 0.1},
        "flow": {"t_end": 0.02, "record_every": 20},
    }


def _gap_config(seed: int) -> dict:
    # the gap_smallness preset, with the initial-data seed taken from the
    # benchmark seed
    return {
        "grid": {"nx": 48, "ny": 48},
        "initial": {"kind": "small_energy", "energy": 0.01, "seed": seed,
                    "max_mode": 2},
        "flow": {"t_end": 5.0, "record_every": 50},
    }


def _bubble_config(seed: int) -> dict:
    return {
        "grid": {"nx": 64, "ny": 64},
        "initial": {"kind": "bump", "scale": 0.3},
        "flow": {"t_end": 0.6, "record_every": 2, "ball_radius": 0.4},
    }


def _seeded_centre(grid, seed: int):
    import numpy as np
    rng = np.random.default_rng(seed)
    return (float(rng.uniform(0.0, grid.Lx)), float(rng.uniform(0.0, grid.Ly)))


def _bubble_initial(sf, grid, target, seed: int):
    return sf.bump_map(grid, target, center=_seeded_centre(grid, seed),
                       scale=0.3)


def _gap_analysis(sf, state, objects, out_dir: str) -> dict:
    grid, target, fields, _, _ = objects
    E_end = sf.dirichlet_energy(state.u.values, grid)
    gap = sf.gap_check(state.u.values, grid, target, fields, 1e-3)
    # the A5 small-energy triviality criterion
    return {"check.E_end_small": bool(E_end <= 1e-6),
            "check.expect_constant": bool(gap["expect_constant"]),
            "value.E_end": float(E_end)}


# The default out-grid is commensurate, so the resampling only relabels
# grid nodes and the Dirichlet energy is invariant up to round-off.
RESCALE_TOL = 1e-9


def _bubble_analysis(sf, state, objects, out_dir: str) -> dict:
    import numpy as np
    grid, target, fields, _, flow_cfg = objects
    vals = state.u.values
    dens = sf.grad_sq_density(vals, grid) * grid.w
    ix, iy = np.unravel_index(int(np.argmax(dens)), dens.shape)
    # every snapshot is taken right after a ledger record at the same t, so
    # the ledger's E(t) is an independent reference for each ring entry
    ledger_t = state.ledger.column("t")
    ledger_E = state.ledger.column("E")
    t0, t_first = state.t, state.snapshots[0][0]
    # every radius k*dx (k >= 2, the rescale minimum) whose parabolic
    # window [t0 - r^2, t0] the snapshot ring covers
    radii = [k * grid.dx for k in range(2, grid.nx // 2)
             if t0 - (k * grid.dx) ** 2 >= t_first]
    rels, entries, times_ok = [], 0, True
    for r in radii:
        og = sf.rescale_out_grid(grid, r)
        res = sf.parabolic_rescale(state.snapshots, ((ix, iy), t0), r,
                                   grid, og)
        for s, v in res["sequence"]:
            t = t0 + s * r * r
            i = int(np.argmin(np.abs(ledger_t - t)))
            times_ok &= bool(abs(ledger_t[i] - t) <= 1e-12 * max(1.0, t0))
            E = float(ledger_E[i])
            Ev = sf.dirichlet_energy(v, og)
            rels.append(abs(Ev - E) / max(E, 1e-300))
            entries += 1
    hits = sf.concentration_scan(vals, grid, flow_cfg.delta1,
                                 flow_cfg.ball_radius)
    A = sf.assemble_A(vals, grid, target, fields)
    residual = sf.rewrite_residual(vals, A, grid, target, fields)
    back, _ = sf.read_snapshot(f"{out_dir}/run_final.snap")
    return {"check.rescale_radii": bool(radii),
            "check.rescale_times_on_ledger": times_ok,
            "check.rescale_invariance": bool(rels) and max(rels) <= RESCALE_TOL,
            "check.snapshot_roundtrip": back.tobytes() == vals.tobytes(),
            "check.rewrite_residual_finite": bool(np.isfinite(residual)),
            "value.rescale_max_rel": max(rels) if rels else float("nan"),
            "value.rescale_radii": len(radii),
            "value.rescale_entries": entries,
            "value.concentration_sites": len(hits),
            "value.rewrite_residual": float(residual)}


def _smoke_config(seed: int) -> dict:
    return {
        "grid": {"nx": 16, "ny": 16},
        "initial": {"kind": "random_smooth", "seed": seed, "amplitude": 0.3},
        "flow": {"t_end": 0.02, "record_every": 2, "ball_radius": 0.5},
    }


WORKLOADS = {w.name: w for w in (
    Workload(name="bfield_128", config=_bfield_config, identity_rel=1e-3),
    Workload(name="gap_decay_48", config=_gap_config, identity_rel=1e-2,
             analysis=_gap_analysis),
    Workload(name="bubble_probe_64", config=_bubble_config, identity_rel=5e-2,
             initial_map=_bubble_initial, analysis=_bubble_analysis),
    # a sub-second run on a tiny grid for the harness self-test
    # (test_bench.py); not a BENCHMARK.json workload
    Workload(name="smoke", config=_smoke_config, identity_rel=0.1),
)}
