"""The action functional, the flow right-hand side, projected time stepping,
and the energy/dissipation ledger.

Discretization notes (the choices here are load-bearing):

* The ledger Dirichlet term uses forward differences,
  E = sum(|D+x u|^2 + |D+y u|^2) dx dy, whose exact gradient in the
  e^{2 lam}-weighted inner product is -laplace_beltrami(u).  Both the
  Dirichlet and B terms carry no conformal weight (conformal invariance).
* The B-field force in flow_rhs is the exact discrete gradient of the
  discrete pullback integral; it equals the Z-operator term
  Z(du(e1) ^ du(e2)) up to O(dx^2).  This makes the discrete flow an exact
  gradient flow of the ledger action, so the dissipation identity defect is
  pure O(dt) and the gradient-consistency check is exact up to O(eps^2).
* flow_rhs, action_value and each ledger record shift u once
  (grid.Stencil) and take every difference from those shifts.  Their
  buffers live in a Workspace that a run allocates once; called on their
  own, flow_rhs and action_value build a fresh one.  Inside a run the map
  is component-major (grid.empty_map), and the rhs of the next step and
  each ledger record reuse the shifts that the accepted trial's
  action_value loaded.  action_value forms the centred differences last,
  so with a two-form the next rhs also reuses those; flow_rhs takes them
  before its Laplacian, which spends the shifts.
* With a two-form, flow_rhs projects the B-force and the potential's force
  (when there is one) once: P(u) is linear, so e^{-2 lam} P(u) g + P(u) a
  = P(u)(e^{-2 lam} g + a).  This moves the rhs by rounding only.
* The ledger's E is pinned bit for bit to the forward differences divided
  by dx and dy.  action_value, which every step's acceptance test
  evaluates, contracts the undivided differences of each direction in one
  einsum and scales each direction's sum once (grid.Stencil.dirichlet):
  the same E up to rounding, at no full-map divide or square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import GridError, NonFiniteStateError
from .fields import (FieldBackground, ScalarPotential, TwoFormField,
                     delta_constants, tangential_grad_V, wedge)
from .grid import (Stencil, SurfaceGrid, ball_mask, ball_sum_map, centred,
                   component_first, empty_map, grad_sq_density, l2_inner,
                   l2_norm)
from .targets import TargetManifold, tangent_project

__all__ = [
    "MapField", "FlowConfig", "FlowState", "Workspace", "EnergyTerms",
    "EnergyRecord", "EnergyLedger", "energies", "action_value",
    "local_energy", "flow_rhs", "gradient_consistency_check", "step", "run",
    "el_residual", "monotonicity_check", "delta_constants", "cfl_bound",
]

CONSTRAINT_TOL = 1e-9

LEDGER_COLUMNS = ["t", "E", "dirichlet", "B_term", "V_term", "S_tilde",
                  "kinetic", "cum_dissipation", "hess_diag",
                  "sup_local_energy", "dt"]


@dataclass
class MapField:
    """Map u: grid -> R^q constrained to the embedded target."""

    values: np.ndarray          # (nx, ny, q)
    target: TargetManifold

    def __post_init__(self):
        if self.values.ndim != 3 or self.values.shape[-1] != self.target.q:
            raise GridError(f"map values shape {self.values.shape} does not "
                            f"end in q={self.target.q}")

    def constraint_defect(self) -> float:
        return float(np.max(self.target.distance(self.values)))

    def check(self, tol: float = CONSTRAINT_TOL):
        self.target.check_on_manifold(self.values, tol)

    def copy(self) -> "MapField":
        return MapField(self.values.copy(), self.target)


# -- energies -------------------------------------------------------------------

@dataclass
class EnergyTerms:
    E: float            # int |du|^2 dvol (forward differences)
    dirichlet: float    # E / 2
    B_term: float
    V_term: float       # int tilde(V)(u) dvol
    S_tilde: float
    S_raw: float        # S_tilde - A1 * vol(M)


def _dirichlet(gx: np.ndarray, gy: np.ndarray, grid: SurfaceGrid) -> float:
    """sum(|gx|^2 + |gy|^2) dx dy of the forward differences; squares them
    in place."""
    gx *= gx
    gy *= gy
    gx += gy
    return float(np.sum(gx) * (grid.dx * grid.dy))


def dirichlet_energy(u: np.ndarray, grid: SurfaceGrid) -> float:
    """int |du|^2 dvol with forward differences; conformally invariant.

    The squares are copied into the layout of u, so the sum runs in u's
    memory order.
    """
    gx, gy = Stencil(grid, u.shape).load(u).forward()
    gx *= gx
    gy *= gy
    gx += gy
    sq = np.empty_like(u)
    sq[...] = gx
    return float(np.sum(sq) * (grid.dx * grid.dy))


def _field_terms(st: Stencil, vals: np.ndarray,
                 fields: FieldBackground) -> tuple:
    """(B_term, V_term) of `vals`, loaded in `st`; the pullback from the
    centred differences."""
    grid = st.grid
    B_term = 0.0
    if not fields.b.is_zero:
        ux, uy = st.centred()
        B_term = float(np.sum(fields.b.pullback(vals, ux, uy))
                       * grid.dx * grid.dy)
    V_term = 0.0
    if not fields.V.is_zero:
        V_term = float(np.sum(fields.V.shifted(vals) * grid.w))
    return B_term, V_term


def _energy_terms(st: Stencil, vals: np.ndarray,
                  fields: FieldBackground) -> EnergyTerms:
    """Energy terms of `vals`, loaded in `st`: E from the forward
    differences, the pullback from the centred ones."""
    grid = st.grid
    E = _dirichlet(*st.forward(), grid)
    B_term, V_term = _field_terms(st, vals, fields)
    S = 0.5 * E + B_term + V_term
    return EnergyTerms(E=E, dirichlet=0.5 * E, B_term=B_term, V_term=V_term,
                       S_tilde=S, S_raw=S - fields.V.shift * grid.total_volume)


def energies(u: MapField, grid: SurfaceGrid, fields: FieldBackground) -> EnergyTerms:
    vals = u.values
    return _energy_terms(Stencil(grid, vals.shape).load(vals), vals, fields)


class Workspace:
    """Buffers reused by the flow_rhs, action_value and ledger-record calls
    of one run, all component-major.

    init_state allocates one per run, and el_residual and the steps of
    the run share it.  flow_rhs and action_value called without one build
    a fresh workspace; either way, the arrays they return are never
    workspace buffers.  flow_rhs writes its II, B-force and potential terms
    into the stencil's scratch `tmp`.  The gradient planes that the B-force
    writes, `force_planes` (those of the two-form, plus the potential's
    when the run has one, since flow_rhs then adds a into g), are zeroed
    per call; the others are zeroed here, once.

    Reuse rule: `shifts(vals, reuse=True)` keeps the stencil's shifts, and
    the centred differences it holds, when they were loaded from this very
    array.  Only run() and its helpers reuse: a run never writes a map in
    place, so an array that is still the stencil's `f` still holds what
    was loaded.  flow_rhs (its Laplacian) and a ledger record (its
    Hessian) spend the shifts, and the next call reloads.
    """

    def __init__(self, grid: SurfaceGrid, shape, fields: FieldBackground):
        self.stencil = Stencil(grid, shape)
        self.trial = empty_map(shape)       # u + dt rhs in step
        b, V = fields.b, fields.V
        if not b.is_zero:
            # B-force: gradient g and the fluxes differenced along x and y
            self.g, self.flux_x, self.flux_y = (empty_map(shape)
                                                for _ in range(3))
            for a in (self.g, self.flux_x, self.flux_y):
                a.fill(0.0)
            self.force_planes = tuple(sorted(
                set(b.force_planes) | {k for k, _ in V.terms}))

    def shifts(self, vals: np.ndarray, reuse: bool = False) -> Stencil:
        """The stencil loaded with vals; with reuse, shifts already loaded
        from this very array are kept (see the reuse rule above)."""
        st = self.stencil
        if not (reuse and st.f is vals):
            st.load(vals)
        return st


def action_value(vals: np.ndarray, grid: SurfaceGrid,
                 fields: FieldBackground, work: Workspace | None = None) -> float:
    """Shifted action S_tilde; one set of shifts gives the forward
    differences (Dirichlet term) and the centred ones (pullback).

    The Dirichlet term comes from `Stencil.dirichlet`, which divides no
    full map; it agrees with the ledger's E (`energies`) to rounding, not
    bit for bit.  Every acceptance test compares values of this function
    only.  It is formed first, so that the centred differences are what
    the stencil holds at the end, for the rhs of the next step.
    """
    if work is None:
        work = Workspace(grid, vals.shape, fields)
    st = work.shifts(vals)
    dirichlet = st.dirichlet()
    B_term, V_term = _field_terms(st, vals, fields)
    return 0.5 * dirichlet + B_term + V_term


def local_energy(u: MapField, grid: SurfaceGrid, x0, R: float) -> float:
    """int_{B_R(x0)} |du|^2 dmu (centered frame derivatives)."""
    mask = ball_mask(grid, x0, R)
    dens = grad_sq_density(u.values, grid)
    return float(np.sum(dens[mask] * grid.w[mask]))


def local_energy_map(u: MapField, grid: SurfaceGrid, R: float) -> np.ndarray:
    """Ball energy around every node at once (FFT convolution)."""
    dens = grad_sq_density(u.values, grid) * grid.w
    return ball_sum_map(dens, grid, R)


# -- flow right-hand side ---------------------------------------------------------

def _bfield_force(work: Workspace, vals: np.ndarray, target: TargetManifold,
                  b: TwoFormField, V: ScalarPotential | None = None) -> np.ndarray:
    """P(u) g, with g the coordinate gradient of the discrete B-term; given
    the run's potential V (zero or not), as flow_rhs gives it,
    P(u)(e^{-2 lam} g + a), both ambient forces in one projection.

    Gradient of sum_n (D0x u)^T b(u) (D0y u), b_ij(u) = u^k C_kij:
        g^k = C_kij ux^i uy^j - D0x(b_kj uy^j) - D0y(ux^i b_ik),
    which converges to Omega_kij ux^i uy^j.  In the flow, e^{-2 lam} P(u) g
    = Z(du(e1) ^ du(e2)) + O(dx^2).  ux, uy are the centred differences
    already in the workspace stencil; its scratch buffer takes the flux
    differences, then the projected force.  Only the planes that the terms
    of b (and V's gradient) write are zeroed (work.force_planes), and only
    the flux planes of b are differenced (b.flux_planes); the workspace
    zeroed the others once.
    """
    st = work.stencil
    grid = st.grid
    ux, uy = st.gx, st.gy
    g, fx, fy = work.g, work.flux_x, work.flux_y
    span = b.flux_planes
    for k in work.force_planes:
        g[..., k].fill(0.0)
    fx[..., span].fill(0.0)
    fy[..., span].fill(0.0)
    for k, i, j, c in b.terms:          # C_kij = c = -C_kji
        g[..., k] += c * wedge(ux, uy, i, j)
        cu = c * vals[..., k]
        fx[..., i] += cu * uy[..., j]
        fx[..., j] -= cu * uy[..., i]
        fy[..., j] += cu * ux[..., i]
        fy[..., i] -= cu * ux[..., j]
    diff = st.tmp[..., span]
    g[..., span] -= centred(fx[..., span], 0, grid.dx, out=diff)
    g[..., span] -= centred(fy[..., span], 1, grid.dy, out=diff)
    if V is not None:
        if not grid.is_flat:
            for k in b.force_planes:
                g[..., k] *= grid.em2l
        for k, a_k in V.terms:
            g[..., k] += a_k
    return tangent_project(target, vals, g, out=st.tmp)


def flow_rhs(u: MapField, grid: SurfaceGrid, target: TargetManifold,
             fields: FieldBackground, work: Workspace | None = None,
             reuse: bool = False) -> np.ndarray:
    """Delta_h u - II(du, du) - Z(du(e1) ^ du(e2)) - P grad V(u).

    The result need not be pointwise tangent: the normal part of Delta_h u
    balances the II term up to truncation error.  All metric weights are
    one factor e^{-2 lam}: with du(e_a) = e^{-lam} D0 u and II bilinear,
    the rhs is e^{-2 lam} (lap u - II(ux, ux) - II(uy, uy) - P g) - P a.
    With a two-form it is formed as e^{-2 lam} (lap u - II) -
    P(e^{-2 lam} g + a), one projection for both forces (P is linear).
    Each term is formed in the stencil's scratch and subtracted, plane by
    plane on the component-first views; the rhs itself is a fresh array in
    the layout of u.  The centred differences come first: they may be the
    ones the stencil already holds, and the Laplacian then spends the
    shifts.  `reuse` follows the Workspace reuse rule.
    """
    vals = u.values
    if work is None:
        work = Workspace(grid, vals.shape, fields)
    st = work.shifts(vals, reuse)
    ux, uy = st.centred()
    rhs = st.laplacian(np.empty_like(vals))
    R = component_first(rhs)
    R -= component_first(target.sff_trace(vals, ux, uy, out=st.tmp))
    if not grid.is_flat:
        R *= grid.em2l
    b, V = fields.b, fields.V
    if not b.is_zero:
        R -= component_first(_bfield_force(work, vals, target, b, V))
    elif not V.is_zero:
        R -= component_first(tangential_grad_V(vals, V, target, out=st.tmp))
    return rhs


def el_residual(u: MapField, grid: SurfaceGrid, target: TargetManifold,
                fields: FieldBackground, work: Workspace | None = None):
    """Euler-Lagrange residual field with its L2 and Linf norms; `work` is
    the run's workspace, or None for a fresh one."""
    r = flow_rhs(u, grid, target, fields, work)
    return r, l2_norm(r, grid), float(np.max(np.abs(r)))


def gradient_consistency_check(u: MapField, v: np.ndarray, grid: SurfaceGrid,
                               target: TargetManifold, fields: FieldBackground,
                               eps_list=(1e-3, 1e-4, 1e-5)) -> dict:
    """Compare central differences of the discrete action against the flow RHS.

    D(eps) = [S(pi(u + eps v)) - S(pi(u - eps v))] / (2 eps) is matched
    against -<flow_rhs(u), v> for tangent v.
    """
    v = tangent_project(target, u.values, v)
    work = Workspace(grid, u.values.shape, fields)
    inner = -l2_inner(flow_rhs(u, grid, target, fields, work), v, grid)
    rows = []
    for eps in eps_list:
        up = target.project(u.values + eps * v)
        um = target.project(u.values - eps * v)
        fd = (action_value(up, grid, fields, work)
              - action_value(um, grid, fields, work)) / (2 * eps)
        rel = abs(fd - inner) / max(abs(inner), 1e-300)
        rows.append({"eps": eps, "fd": fd, "inner": inner, "rel_err": rel})
    return {"rows": rows, "min_rel_err": min(r["rel_err"] for r in rows),
            "inner": inner}


# -- ledger ------------------------------------------------------------------------

@dataclass
class EnergyRecord:
    t: float
    E: float
    dirichlet: float
    B_term: float
    V_term: float
    S_tilde: float
    kinetic: float
    cum_dissipation: float
    hess_diag: float
    sup_local_energy: float
    dt: float

    def row(self):
        return [getattr(self, c) for c in LEDGER_COLUMNS]


@dataclass
class EnergyLedger:
    records: list = dc_field(default_factory=list)

    def append(self, rec: EnergyRecord):
        if self.records and rec.t <= self.records[-1].t:
            raise GridError("ledger timestamps must be strictly increasing")
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def as_array(self) -> np.ndarray:
        return np.array([r.row() for r in self.records])


def monotonicity_check(ledger: EnergyLedger, delta2: float, S0: float,
                       identity_tol: float | None = None) -> dict:
    """E(u_t) <= delta2 * S0 at every record, plus the dissipation identity."""
    E = ledger.column("E")
    S = ledger.column("S_tilde")
    diss = ledger.column("cum_dissipation")
    bound = delta2 * S0 * (1.0 + 1e-9)
    violations = E - bound
    defect = abs(S[-1] + diss[-1] - S0)
    steps_ok = bool(np.all(np.diff(S) <= 1e-10 * (1.0 + S0)))
    report = {
        "energy_bound_ok": bool(np.all(violations <= 0.0)),
        "max_energy_excess": float(np.max(violations)),
        "monotone_ok": steps_ok,
        "identity_defect": float(defect),
        "delta2": delta2,
        "S0": S0,
    }
    if identity_tol is not None:
        report["identity_ok"] = bool(defect <= identity_tol)
    return report


# -- time stepping -----------------------------------------------------------------

def cfl_bound(grid: SurfaceGrid, cfl: float) -> float:
    return cfl * min(grid.dx, grid.dy) ** 2 * math.exp(2.0 * grid.lam_min) / 4.0


@dataclass
class FlowConfig:
    t_end: float = 1.0
    cfl: float = 0.2
    dt_init: float | None = None    # defaults to the CFL bound
    dt_min: float = 1e-9
    delta1: float = 0.5
    ball_radius: float = 0.5
    conv_tol: float = 0.0           # 0 disables the convergence probe
    record_every: int = 10
    tol_up: float = 1e-10           # relative slack for per-step S increase
    grow_after: int = 50            # stable steps before dt growth
    monitor: bool = False           # concentration scan at record times
    snapshot_cap: int = 32          # dyadic ring size

    def validate(self, grid: SurfaceGrid):
        if not (0.0 < self.cfl <= 1.0):
            raise GridError(f"cfl must be in (0, 1], got {self.cfl}")
        bound = cfl_bound(grid, self.cfl)
        if self.dt_init is not None and self.dt_init > bound * (1 + 1e-12):
            raise GridError(f"dt_init {self.dt_init} exceeds CFL bound {bound}")
        dt0 = self.dt_init if self.dt_init is not None else bound
        if self.dt_min >= dt0:
            raise GridError("dt_min must be smaller than the initial dt")
        if not (0.0 < self.ball_radius < grid.inj_radius):
            raise GridError(f"ball_radius {self.ball_radius} outside "
                            f"(0, {grid.inj_radius})")


@dataclass
class FlowState:
    t: float
    u: MapField
    dt: float
    grid: SurfaceGrid
    target: TargetManifold
    fields: FieldBackground
    config: FlowConfig
    ledger: EnergyLedger = dc_field(default_factory=EnergyLedger)
    events: list = dc_field(default_factory=list)
    snapshots: list = dc_field(default_factory=list)   # (t, values) ring
    steps: int = 0
    stable_steps: int = 0
    cum_dissipation: float = 0.0
    last_kinetic: float = 0.0
    S_current: float = 0.0
    S0: float = 0.0
    converged: bool = False
    work: Workspace | None = dc_field(default=None, repr=False)


def init_state(u0: MapField, grid: SurfaceGrid, target: TargetManifold,
               fields: FieldBackground, config: FlowConfig) -> FlowState:
    config.validate(grid)
    vals = empty_map(u0.values.shape)
    vals[...] = u0.values
    u = MapField(target.project(vals), target)
    work = Workspace(grid, vals.shape, fields)
    S0 = action_value(u.values, grid, fields, work)
    dt = config.dt_init if config.dt_init is not None else cfl_bound(grid, config.cfl)
    state = FlowState(t=0.0, u=u, dt=dt, grid=grid, target=target,
                      fields=fields, config=config, S_current=S0, S0=S0,
                      work=work)
    _record(state)
    _snapshot(state)
    return state


def _record(state: FlowState):
    """Append a ledger row; every column comes from one load of the
    workspace stencil, reused from the last action_value when it holds u.
    The ball map sums |du|^2 dvol, which is conformally invariant:
    grad_sq * dx dy."""
    grid, vals = state.grid, state.u.values
    st = state.work.shifts(vals, reuse=True)
    terms = _energy_terms(st, vals, state.fields)
    dens = st.grad_sq()
    dens *= grid.dx * grid.dy
    sup_loc = float(np.max(ball_sum_map(dens, grid, state.config.ball_radius)))
    hd = float(np.sum(st.hessian_sq() * grid.w))
    state.ledger.append(EnergyRecord(
        t=state.t, E=terms.E, dirichlet=terms.dirichlet, B_term=terms.B_term,
        V_term=terms.V_term, S_tilde=terms.S_tilde, kinetic=state.last_kinetic,
        cum_dissipation=state.cum_dissipation, hess_diag=hd,
        sup_local_energy=sup_loc, dt=state.dt))


def _snapshot(state: FlowState):
    state.snapshots.append((state.t, state.u.values.copy(order="K")))
    cap = state.config.snapshot_cap
    if len(state.snapshots) > 2 * cap:
        # dyadic thinning: keep the newest cap entries, halve the older ones
        old = state.snapshots[:-cap]
        state.snapshots = old[::2] + state.snapshots[-cap:]


def _trial(state: FlowState, rhs: np.ndarray, dt: float):
    """Projected Euler candidate pi(u + dt rhs) and its action.

    Raises NonFiniteStateError, naming t, the step and a node, when the
    action is not finite: every acceptance test would fail on a NaN and dt
    would collapse to dt_min without end.
    """
    trial = state.work.trial
    T = component_first(trial)
    np.multiply(component_first(rhs), dt, out=T)
    T += component_first(state.u.values)
    new_vals = state.target.project(trial)
    S_new = action_value(new_vals, state.grid, state.fields, state.work)
    if not math.isfinite(S_new):
        where = "no non-finite node"
        for name, a in (("u", state.u.values), ("rhs", rhs),
                        ("trial map", new_vals)):
            bad = np.argwhere(~np.isfinite(a))
            if len(bad):
                ix, iy = (int(v) for v in bad[0][:2])
                where = f"first non-finite {name} value at node ({ix}, {iy})"
                break
        raise NonFiniteStateError(
            f"non-finite action S={S_new} in step {state.steps + 1} from "
            f"t={state.t:.9g} (dt={dt:.3g}); {where}")
    return new_vals, S_new


def step(state: FlowState) -> FlowState:
    """One projected explicit Euler step with adaptive dt.

    Halves dt (and retries) when S_tilde increases beyond tolerance; grows dt
    1.1x after `grow_after` stable steps, capped by the CFL bound.  A dt
    collapse below dt_min raises a stiffness event and the step is accepted,
    matching the restart-past-singular-time semantics.  A step that would
    pass t_end is shortened to end exactly there; that is not a halving,
    so state.dt and the stable-step count are left as they were.  The rhs
    reuses the shifts that the previous step's accepted trial loaded.
    """
    cfg = state.config
    vals = state.u.values
    rhs = flow_rhs(state.u, state.grid, state.target, state.fields, state.work,
                   reuse=True)
    tol_up = cfg.tol_up * (1.0 + state.S0)
    remaining = cfg.t_end - state.t
    dt0 = min(state.dt, remaining) if remaining > 0.0 else state.dt
    dt = dt0
    collapsed = False
    while True:
        new_vals, S_new = _trial(state, rhs, dt)
        if S_new <= state.S_current + tol_up:
            break
        dt *= 0.5
        if dt < cfg.dt_min:
            collapsed = True
            dt = min(cfg.dt_min, dt0)
            new_vals, S_new = _trial(state, rhs, dt)
            break

    diff = state.work.trial
    np.subtract(component_first(new_vals), component_first(vals),
                out=component_first(diff))
    kinetic = l2_inner(diff, diff, state.grid) / dt**2
    state.cum_dissipation += kinetic * dt
    state.last_kinetic = kinetic
    state.u = MapField(new_vals, state.target)
    state.t = cfg.t_end if dt == remaining else state.t + dt
    state.S_current = S_new
    state.steps += 1

    if collapsed:
        from .singular import SingularEvent  # avoid a module cycle
        loc = local_energy_map(state.u, state.grid, cfg.ball_radius)
        ix, iy = np.unravel_index(int(np.argmax(loc)), loc.shape)
        le = local_energy(state.u, state.grid, (ix, iy), cfg.ball_radius)
        kind = "concentration" if le >= cfg.delta1 else "stiffness"
        state.events.append(SingularEvent(t=state.t, ix=int(ix), iy=int(iy),
                                          R=cfg.ball_radius, local_energy=le,
                                          kind=kind))
        state.stable_steps = 0
        state.dt = dt
        return state

    if dt < dt0:
        state.stable_steps = 0
        state.dt = dt
    elif dt0 == state.dt:
        state.stable_steps += 1
        if state.stable_steps >= cfg.grow_after:
            state.dt = min(state.dt * 1.1, cfl_bound(state.grid, cfg.cfl))
            state.stable_steps = 0
    return state


def run(u0: MapField, grid: SurfaceGrid, target: TargetManifold,
        fields: FieldBackground, config: FlowConfig) -> FlowState:
    """Advance the flow to exactly t_end (or convergence).  Deterministic."""
    from .singular import convergence_probe

    state = init_state(u0, grid, target, fields, config)
    while state.t < config.t_end and not state.converged:
        step(state)
        if state.steps % config.record_every == 0 or state.t >= config.t_end:
            _record(state)
            _snapshot(state)
            if config.conv_tol > 0.0:
                _, res_l2, _ = el_residual(state.u, grid, target, fields,
                                           state.work)
                probe = convergence_probe(state.last_kinetic, res_l2,
                                          config.conv_tol)
                state.converged = probe["converged"]
    if state.ledger.records[-1].t < state.t:
        _record(state)
        _snapshot(state)
    return state
