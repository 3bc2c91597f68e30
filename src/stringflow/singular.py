"""Energy-concentration detection, the finite-singularity bound, local-control
radius/time selection, convergence probing, parabolic rescaling, and the
local Sobolev (Ladyzhenskaya) diagnostic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import GridError, UnsupportedConfigurationError
from .fields import FieldBackground, pullback_density
from .grid import (SurfaceGrid, ball_sum_map, build_grid, component_first,
                   empty_map, energy_density, grad_sq_density,
                   hessian_sq_density, periodic_delta)


@dataclass
class SingularEvent:
    t: float
    ix: int
    iy: int
    R: float
    local_energy: float
    kind: str   # "concentration" | "stiffness"


def _torus_dist2(grid: SurfaceGrid, a, b) -> float:
    dx = periodic_delta(np.array([grid.x[a[0]]]), grid.x[b[0]], grid.Lx)[0]
    dy = periodic_delta(np.array([grid.y[a[1]]]), grid.y[b[1]], grid.Ly)[0]
    return dx * dx + dy * dy


def concentration_scan(u_values: np.ndarray, grid: SurfaceGrid,
                       delta1: float, R: float):
    """Nodes whose ball energy meets delta1, one representative per cluster.

    Candidates are clustered greedily by descending energy with exclusion
    radius 2R (overlapping balls belong to one cluster).  Returns a list of
    ((ix, iy), local_energy) pairs.  The ball energies are those of the
    ledger's sup_local_energy and the dt_min event (grid.energy_density).
    """
    S = ball_sum_map(energy_density(u_values, grid), grid, R)
    hits = np.argwhere(S >= delta1)
    if hits.size == 0:
        return []
    order = np.lexsort((hits[:, 1], hits[:, 0], -S[hits[:, 0], hits[:, 1]]))
    reps = []
    for k in order:
        ix, iy = int(hits[k, 0]), int(hits[k, 1])
        if all(_torus_dist2(grid, (ix, iy), r) > (2.0 * R) ** 2
               for (r, _) in reps):
            reps.append(((ix, iy), float(S[ix, iy])))
    return reps


def k_bound(S0: float, delta1: float, delta2: float) -> int:
    """floor(2 * delta2 * S0 / delta1), the singularity-count bound."""
    if delta1 <= 0:
        raise GridError(f"delta1 must be positive, got {delta1}")
    if S0 <= 0:
        return 0
    return int(math.floor(2.0 * delta2 * S0 / delta1))


def local_action_density(u_values: np.ndarray, grid: SurfaceGrid,
                         fields: FieldBackground) -> np.ndarray:
    """Node weights of the shifted action: ball sums give S_tilde(u, B_R)."""
    dens = 0.5 * energy_density(u_values, grid)
    if not fields.b.is_zero:
        dens = dens + pullback_density(u_values, fields.b, grid) * (grid.dx * grid.dy)
    if not fields.V.is_zero:
        dens = dens + fields.V.shifted(u_values) * grid.w
    return dens


def choose_R1_T1(u0_values: np.ndarray, grid: SurfaceGrid,
                 fields: FieldBackground, delta1: float, delta2: float):
    """Largest radius R1 with sup_x S_tilde(u0, B_{2 R1}(x)) < delta1/(2 delta2),
    and the local-control horizon T1 = delta1 R1^2 / (2 delta2^2 S0)
    (c_hat = 1).

    Tests 24 radii, geometric from 1.5 max(dx, dy) to 0.49 of the injectivity
    radius, and falls back to the smallest (with warned=True) when none is
    admissible.
    """
    dens = local_action_density(u0_values, grid, fields)
    S0 = float(np.sum(dens))
    r_max = 0.49 * grid.inj_radius
    if S0 <= 0:
        return r_max, math.inf, False
    bound = delta1 / (2.0 * delta2)
    r_min = 1.5 * max(grid.dx, grid.dy)
    radii = np.geomspace(r_min, r_max, 24)
    R1 = None
    for R in radii[::-1]:
        if float(np.max(ball_sum_map(dens, grid, 2.0 * R))) < bound:
            R1 = float(R)
            break
    warned = R1 is None
    if warned:
        R1 = float(radii[0])
    T1 = delta1 * R1 ** 2 / (2.0 * delta2 ** 2 * S0)
    return R1, T1, warned


def convergence_probe(kinetic: float, el_residual_l2: float,
                      conv_tol: float) -> bool:
    """Converged when int |du/dt|^2 <= conv_tol^2 and EL residual <= 10 conv_tol."""
    return bool(kinetic <= conv_tol ** 2 and el_residual_l2 <= 10.0 * conv_tol)


# -- parabolic rescaling -----------------------------------------------------------

# a zoom point within this many index units of a node is that node: the
# commensurate out-grid lands on nodes up to the rounding of r * dx'
NODE_SNAP = 1e-9


def _axis_corners(p: np.ndarray, h: float, n: int):
    """The (index, weight) pairs of the two nodes around each coordinate p
    along one axis: (i0, 1 - t) and (i1, t).  A coordinate within NODE_SNAP
    of a node snaps to it (t = 0); when every point does, the lone pair
    (i0, None) stands for a weight of 1."""
    f = (p / h) % n
    near = np.rint(f)
    f = np.where(np.abs(f - near) <= NODE_SNAP, near, f)
    i0 = np.floor(f)
    t = f - i0
    i0 = i0.astype(int) % n
    if not t.any():
        return [(i0, None)]
    return [(i0, 1 - t), ((i0 + 1) % n, t)]


def _bilinear_periodic(grid: SurfaceGrid, px: np.ndarray, py: np.ndarray):
    """Periodic bilinear interpolation at the points (px, py).

    Builds the corner indices and weights once and returns the function
    that applies them to a node field of shape (nx, ny, q).  The result is
    component-major: every plane of the component-first view (a flat
    reshape, no copy, for a component-major snapshot) is gathered at once
    by `np.take` along axis 1, so later stencils read it contiguously.
    Points within NODE_SNAP of a node are that node.  Along an axis where
    every point is a node, the corners of weight 0 are not gathered and the
    weight 1 is not multiplied, so the commensurate zoom, whose points are
    all nodes, is one gather of the node values.
    """
    xs = _axis_corners(px, grid.dx, grid.nx)
    ys = _axis_corners(py, grid.dy, grid.ny)
    # corner (flat node index, weight) pairs in the order (i0, j0), (i1, j0),
    # (i0, j1), (i1, j1); each weight keeps the product order
    # ((1 - tx) * (1 - ty)) * v00 of the plain formula
    corners = [(i * grid.ny + j,
                wy if wx is None else wx if wy is None else wx * wy)
               for j, wy in ys for i, wx in xs]

    def interpolate(vals: np.ndarray) -> np.ndarray:
        V = component_first(vals).reshape(vals.shape[-1], -1)
        out = empty_map(px.shape + vals.shape[-1:])
        O = component_first(out)
        # the indices are in range; "clip" spares the default mode's copy
        (k, w), *rest = corners
        np.take(V, k, axis=1, out=O, mode="clip")
        if w is not None:
            O *= w
        T = np.empty(O.shape) if rest else None
        for k, w in rest:
            np.take(V, k, axis=1, out=T, mode="clip")
            T *= w
            O += T
        return out

    return interpolate


def rescale_out_grid(grid: SurfaceGrid, r: float) -> SurfaceGrid:
    """Flat grid covering the zoomed window: the commensurate choice (same
    node count, periods L/r) for which the resampling is exact."""
    return build_grid(grid.nx, grid.ny, grid.Lx / r, grid.Ly / r)


class RescaledSequence:
    """The rescaled maps (s, v) of a parabolic window, made on access.

    Holds the window's (t, values) snapshots by reference (a later write to
    one shows in its entry) and the interpolation from `_bilinear_periodic`;
    `seq[k]` interpolates entry k afresh each time it is asked for, so
    iterating holds one rescaled map at a time.  Supports len, integer
    indices (negative ones too) and repeated iteration, which the sequence
    protocol gives from the IndexError past the end; entry k is (s_k, v_k)
    with s_k = (t_k - t0) / r^2.
    """

    def __init__(self, kept, t0: float, r: float, interpolate):
        self._kept = tuple(kept)
        self._t0, self._r2 = t0, r ** 2
        self._interpolate = interpolate

    def __len__(self) -> int:
        return len(self._kept)

    def __getitem__(self, k: int):
        t, vals = self._kept[operator.index(k)]
        return (t - self._t0) / self._r2, self._interpolate(vals)


def parabolic_rescale(snapshots, z0, r: float, grid: SurfaceGrid,
                      out_grid: SurfaceGrid):
    """Zoom v(x, t) = u(x0 + r x, t0 + r^2 t) onto out_grid.

    `snapshots` is a time-sorted list of (t, values); z0 = ((ix, iy), t0).
    The zoom center lands on the out-grid node (nx/2, ny/2).  Requires
    r >= 2 dx and snapshot coverage of [t0 - r^2, t0].  Returns a dict with
    the rescaled sequence (a lazy `RescaledSequence` over the snapshots in
    the window), the center node, and the 1/r^2 factor multiplying grad V
    in the rescaled equation (the tool does not evolve v).
    """
    if r < 2.0 * max(grid.dx, grid.dy):
        raise GridError(f"rescale radius {r} below 2*dx")
    (ix, iy), t0 = z0
    times = [t for t, _ in snapshots]
    if not times or min(times) > t0 - r * r + 1e-12 * max(1.0, t0) or max(times) < t0 - 1e-12:
        raise GridError("snapshots do not cover [t0 - r^2, t0]")
    cx, cy = out_grid.nx // 2, out_grid.ny // 2
    dxs = periodic_delta(out_grid.x, out_grid.x[cx], out_grid.Lx)
    dys = periodic_delta(out_grid.y, out_grid.y[cy], out_grid.Ly)
    px = (grid.x[ix] + r * dxs)[:, None] + np.zeros((1, out_grid.ny))
    py = (grid.y[iy] + r * dys)[None, :] + np.zeros((out_grid.nx, 1))
    kept = [(t, vals) for t, vals in snapshots
            if t0 - r * r - 1e-12 <= t <= t0 + 1e-12]
    seq = RescaledSequence(kept, t0, r, _bilinear_periodic(grid, px, py))
    gradV_factor = 1.0 / r ** 2
    return {"sequence": seq, "center": (cx, cy), "r": r,
            "gradV_factor": gradV_factor}


# -- local Sobolev diagnostic -------------------------------------------------------

def ladyzhenskaya_ratio(v_values: np.ndarray, grid: SurfaceGrid,
                        R: float) -> float:
    """int |dv|^4 / [sup_x E(v, B_R(x)) * (int |Hess v|^2 + R^-2 int |dv|^2)].

    Flat grids only; 0 for constant v.  Diagnostic, not asserted against a
    fixed constant.
    """
    if not grid.is_flat:
        raise UnsupportedConfigurationError("ladyzhenskaya_ratio needs lam == 0")
    g2 = grad_sq_density(v_values, grid)
    dens = energy_density(v_values, grid)
    num = float(np.sum(g2 ** 2 * grid.w))
    sup_loc = float(np.max(ball_sum_map(dens, grid, R)))
    h2 = float(np.sum(hessian_sq_density(v_values, grid) * grid.w))
    e2 = float(np.sum(dens))
    denom = sup_loc * (h2 + e2 / R ** 2)
    if denom == 0.0:
        return 0.0
    return num / denom
