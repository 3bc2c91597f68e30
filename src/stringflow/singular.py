"""Energy-concentration detection, the finite-singularity bound, convergence
probing and parabolic rescaling.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .grid import (Stencil, SurfaceGrid, ball_sum_map, build_grid,
                   periodic_delta)


@dataclass
class SingularEvent:
    t: float
    ix: int
    iy: int
    R: float
    local_energy: float
    kind: str   # "concentration" | "stiffness"


def _torus_dist2(grid: SurfaceGrid, a, bx, by) -> np.ndarray:
    """Squared flat periodic distances from node a to the nodes (bx, by)."""
    dx = periodic_delta(grid.x[a[0]], grid.x[bx], grid.Lx)
    dy = periodic_delta(grid.y[a[1]], grid.y[by], grid.Ly)
    return dx * dx + dy * dy


def concentration_scan(u_values: np.ndarray, grid: SurfaceGrid,
                       delta1: float, R: float):
    """Nodes whose ball energy meets delta1, one representative per cluster.

    Candidates are clustered greedily by descending energy with exclusion
    radius 2R (overlapping balls belong to one cluster).  Returns a list of
    ((ix, iy), local_energy) pairs.  The ball energies are those of the
    ledger's sup_local_energy and the dt_min event (Stencil.energy_density).
    GridError for a NaN delta1, which no energy meets; any other delta1
    is a threshold, and one <= 0 takes every node.
    """
    if math.isnan(delta1):
        raise GridError(f"delta1 must be a number, got {delta1}")
    S = ball_sum_map(Stencil(grid, u_values).energy_density(), grid, R)
    hits = np.argwhere(S >= delta1)
    if hits.size == 0:
        return []
    order = np.lexsort((hits[:, 1], hits[:, 0], -S[hits[:, 0], hits[:, 1]]))
    reps, rx, ry = [], [], []
    for k in order:
        ix, iy = int(hits[k, 0]), int(hits[k, 1])
        if np.all(_torus_dist2(grid, (ix, iy), rx, ry) > (2.0 * R) ** 2):
            reps.append(((ix, iy), float(S[ix, iy])))
            rx.append(ix)
            ry.append(iy)
    return reps


def k_bound(S0: float, delta1: float, delta2: float) -> int | None:
    """floor(2 * delta2 * S0 / delta1), the singularity-count bound, or
    None where that is not finite (a non-finite S0, or an overflow)."""
    if delta1 <= 0:
        raise GridError(f"delta1 must be positive, got {delta1}")
    if S0 <= 0:
        return 0
    bound = 2.0 * delta2 * S0 / delta1
    return int(math.floor(bound)) if math.isfinite(bound) else None


def convergence_probe(kinetic: float, tangent_rhs_l2: float,
                      conv_tol: float) -> bool:
    """Converged when int |du/dt|^2 <= conv_tol^2 and the L2 norm of the
    rhs's tangent part, P(u) rhs, is <= 10 conv_tol.  The tangent part
    vanishes at a critical point; the whole rhs (action.el_residual) keeps
    an O(dx^2) normal truncation part there."""
    return bool(kinetic <= conv_tol ** 2 and tangent_rhs_l2 <= 10.0 * conv_tol)


# -- parabolic rescaling -----------------------------------------------------------

def _check_radius(grid: SurfaceGrid, r: float):
    """GridError, naming r, unless r >= 2 dx and r^2 is finite (a NaN r
    fails too)."""
    # r ** 2 raises OverflowError where r * r is inf
    if not (r >= 2.0 * max(grid.dx, grid.dy) and math.isfinite(r * r)):
        raise GridError(f"rescale radius r={r} below 2*dx or its square "
                        f"not finite (dx = max(Lx/nx, Ly/ny) = "
                        f"{max(grid.dx, grid.dy)})")


def rescale_out_grid(grid: SurfaceGrid, r: float) -> SurfaceGrid:
    """Flat grid covering the zoomed window: the commensurate choice (same
    node count, periods L/r) for which the resampling is exact.  The
    radius must be one that parabolic_rescale takes, and one whose
    out-grid build_grid takes (a GridError naming r otherwise)."""
    _check_radius(grid, r)
    try:
        return build_grid(grid.nx, grid.ny, grid.Lx / r, grid.Ly / r)
    except GridError as e:
        raise GridError(f"rescale radius r={r!r} gives no out-grid: {e}") \
            from e


def _check_node(grid: SurfaceGrid, node):
    """The node (ix, iy) as two ints; GridError, naming it, unless both are
    integers (operator.index) and it is a node of grid: a roll would wrap
    an integer node off the grid, and take a fractional one for another
    node, silently."""
    ix, iy = node
    try:
        ix, iy = operator.index(ix), operator.index(iy)
    except TypeError:
        raise GridError(f"zoom node (ix, iy) = ({ix}, {iy}) is not a "
                        f"pair of integers") from None
    if not (0 <= ix < grid.nx and 0 <= iy < grid.ny):
        raise GridError(f"zoom node (ix, iy) = ({ix}, {iy}) not on the "
                        f"{grid.nx}x{grid.ny} grid")
    return ix, iy


def zoom_map(vals: np.ndarray, grid: SurfaceGrid, node) -> np.ndarray:
    """One map's parabolic zoom about node (ix, iy) of grid, onto
    rescale_out_grid(grid, r) for any r: on that out-grid every zoom point
    is a node, so the zoom is vals rolled along the two grid axes to put
    (ix, iy) at the centre node (nx/2, ny/2), a fresh array in the layout
    of vals.  GridError unless node is a node of grid."""
    ix, iy = _check_node(grid, node)
    return np.roll(vals, (grid.nx // 2 - ix, grid.ny // 2 - iy), axis=(0, 1))


class RescaledSequence:
    """The rescaled maps (s, v) of a parabolic window, made on access.

    Holds the window's (t, values) snapshots by reference (a later write to
    one shows in its entry).  v_k is zoom_map of snapshot k; `seq[k]` rolls
    entry k afresh each time it is asked for, so iterating holds one
    rescaled map at a time.  Supports len, integer indices (negative ones
    too) and repeated iteration, which the sequence protocol gives from the
    IndexError past the end; entry k is (s_k, v_k) with
    s_k = (t_k - t0) / r^2.
    """

    def __init__(self, kept, t0: float, r: float, grid: SurfaceGrid, node):
        self._kept = tuple(kept)
        self._t0, self._r2 = t0, r ** 2
        self._grid, self._node = grid, node

    def __len__(self) -> int:
        return len(self._kept)

    def __getitem__(self, k: int):
        t, vals = self._kept[operator.index(k)]
        return (t - self._t0) / self._r2, zoom_map(vals, self._grid,
                                                   self._node)


def parabolic_rescale(snapshots, z0, r: float, grid: SurfaceGrid,
                      out_grid: SurfaceGrid):
    """Zoom v(x, t) = u(x0 + r x, t0 + r^2 t) onto out_grid.

    `snapshots` is a time-sorted list of (t, values); z0 = ((ix, iy), t0)
    with (ix, iy) a node of `grid`.  out_grid must be
    `rescale_out_grid(grid, r)`, on which every zoom point is a node, so
    the zoom is exact: each snapshot's zoom_map, rolled to put node
    (ix, iy) at the out-grid node (nx/2, ny/2).  Requires r >= 2 dx with
    r^2 finite (a NaN r fails too) and snapshot coverage of
    [t0 - r^2, t0].  Returns a dict with the rescaled sequence (a lazy
    `RescaledSequence` over the snapshots in the window), the center node,
    and the 1/r^2 factor multiplying grad V in the rescaled equation (the
    tool does not evolve v).
    """
    _check_radius(grid, r)
    node, t0 = z0
    if not math.isfinite(t0):
        raise GridError(f"zoom time t0={t0} is not finite")
    node = _check_node(grid, node)
    if ((out_grid.nx, out_grid.ny, out_grid.Lx, out_grid.Ly, out_grid.is_flat)
            != (grid.nx, grid.ny, grid.Lx / r, grid.Ly / r, True)):
        raise GridError("out_grid is not the commensurate rescale_out_grid"
                        f"(grid, {r})")
    times = [t for t, _ in snapshots]
    if not times or min(times) > t0 - r * r + 1e-12 * max(1.0, t0) or max(times) < t0 - 1e-12:
        raise GridError("snapshots do not cover [t0 - r^2, t0]")
    kept = [(t, vals) for t, vals in snapshots
            if t0 - r * r - 1e-12 <= t <= t0 + 1e-12]
    seq = RescaledSequence(kept, t0, r, grid, node)
    gradV_factor = 1.0 / r ** 2
    return {"sequence": seq, "center": (out_grid.nx // 2, out_grid.ny // 2),
            "gradV_factor": gradV_factor}
