"""The action functional, the flow right-hand side, projected time stepping,
and the energy/dissipation ledger.

Discretization notes (the choices here are load-bearing):

* The Dirichlet term is E = sum(|D+x u|^2 + |D+y u|^2) dx dy with forward
  differences, whose exact gradient in the e^{2 lam}-weighted inner product
  is -laplace_beltrami(u).  Both the Dirichlet and B terms carry no
  conformal weight (conformal invariance).
* The B-field force in flow_rhs is the exact discrete gradient of the
  discrete pullback integral; it equals the Z-operator term
  Z(du(e1) ^ du(e2)) up to O(dx^2).  This makes the discrete flow an exact
  gradient flow of the ledger action, so the dissipation identity defect is
  pure O(dt) and the gradient-consistency check is exact up to O(eps^2).
* flow_rhs and action_value load u into one grid.Stencil and take every
  difference from it.  Their buffers live in a Workspace that a run
  allocates once and drops when it returns; called on their own,
  flow_rhs and action_value build a fresh one.  Inside a run the map is
  component-major (grid.empty_map).
  A run never writes a map in place, so values are carried forward, not
  re-derived: a step forms the rhs of its new map from the stencil that
  the accepted trial's action_value loaded, and keeps it in
  FlowState.rhs for the next step and the convergence probe; init_state
  forms the first one with flow_rhs, which loads u0 itself.
  action_value forms the centred differences last, so with a two-form
  that rhs also uses those.  A ledger record loads nothing: it reads the
  action terms that the accepted trial's action_value kept on the
  workspace, the centred differences of the rhs, and the second
  differences that the rhs's Laplacian left in the stencil, so a run
  loads each map once.
  The snapshot ring keeps the run's maps by reference.
* With a two-form, flow_rhs projects the B-force and the potential's force
  (when there is one) once: P(u) is linear, so e^{-2 lam} P(u) g + P(u) a
  = P(u)(e^{-2 lam} g + a).  This moves the rhs by rounding only.
* The action has one formula, _action_terms: E from grid.Stencil.dirichlet
  and S_tilde = 0.5*E + B + V, in that order.  action_value, which every
  step's acceptance test evaluates, keeps its terms, and the ledger record
  reads them, so a ledger row's S_tilde is the S_current that the step
  accepted, bit for bit.  The ledger's ball map sums
  grid.Stencil.energy_density, |du|^2 dvol from the contraction that the
  rhs's II term uses; the dt_min event (from the workspace stencil, as the
  record) and singular.concentration_scan sum the same density, so all
  three agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import GridError, NonFiniteStateError
from .fields import (FieldBackground, ScalarPotential, TwoFormField,
                     tangential_grad_V, wedge)
from .grid import (Stencil, SurfaceGrid, ball_sum_map, centred,
                   component_first, empty_map, l2_inner, l2_norm)
from .singular import SingularEvent, convergence_probe
from .targets import TargetManifold, tangent_project

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

    def check(self):
        self.target.check_on_manifold(self.values, CONSTRAINT_TOL)


# -- energies -------------------------------------------------------------------

@dataclass
class EnergyTerms:
    E: float            # int |du|^2 dvol (forward differences)
    dirichlet: float    # E / 2
    B_term: float
    V_term: float       # int tilde(V)(u) dvol
    S_tilde: float


def dirichlet_energy(u: np.ndarray, grid: SurfaceGrid) -> float:
    """int |du|^2 dvol with forward differences; conformally invariant, and
    the same bits for either layout of u (grid.Stencil.dirichlet)."""
    return Stencil.once(grid, u).dirichlet()


def _action_terms(st: Stencil, vals: np.ndarray,
                  fields: FieldBackground) -> tuple:
    """(E, B_term, V_term, S_tilde) of `vals`, loaded in `st`: E from the
    forward differences, the pullback from the centred ones.  The one
    formula of the action: action_value sums it here, and the ledger
    reads what action_value kept.
    The centred differences are formed last, for the rhs that a step forms
    from the accepted trial."""
    grid = st.grid
    E = st.dirichlet()
    B_term = 0.0
    if not fields.b.is_zero:
        ux, uy = st.centred()
        B_term = float(np.sum(fields.b.pullback(vals, ux, uy))
                       * grid.dx * grid.dy)
    V_term = 0.0
    if not fields.V.is_zero:
        V_term = float(np.sum(fields.V.shifted(vals) * grid.w))
    return E, B_term, V_term, 0.5 * E + B_term + V_term


def energies(u: MapField, grid: SurfaceGrid, fields: FieldBackground) -> EnergyTerms:
    vals = u.values
    E, B_term, V_term, S = _action_terms(Stencil.once(grid, vals),
                                         vals, fields)
    return EnergyTerms(E=E, dirichlet=0.5 * E, B_term=B_term, V_term=V_term,
                       S_tilde=S)


class Workspace:
    """Buffers reused by the flow_rhs, action_value and ledger-record calls
    of one run, all component-major: the stencil, the trial map of a step
    and, with a two-form, the B-force's gradient g.

    init_state allocates one per run, the steps and records of the run
    share it, and run drops it when it returns.  flow_rhs and action_value
    called without one build a fresh workspace; either way, the arrays
    they return are never workspace buffers.  flow_rhs writes its II,
    B-force and potential terms into the stencil's scratch `tmp`.

    flow_rhs and action_value load the stencil themselves; the rhs that a
    step forms and the ledger record after it do not.  The rhs reads the
    stencil its accepted trial's action_value loaded, and the record reads
    what the rhs left: the centred differences and the second differences.
    action_value keeps its map's `_action_terms` in `terms`, and that map
    in `terms_of`, for the record.
    """

    def __init__(self, grid: SurfaceGrid, shape, fields: FieldBackground):
        # a run uses every stencil buffer at each step, so they are
        # allocated here, before the first step's temporaries: allocated
        # on first use, between those, they raised bfield_128's peak RSS
        # by 0.14 MB (2-core VM, numpy 2.4.6)
        self.stencil = Stencil(grid, shape).allocate()
        self.trial = empty_map(shape)       # u + dt rhs in step
        self.terms = self.terms_of = None   # (E, B, V, S) of map terms_of
        if not fields.b.is_zero:
            self.g = empty_map(shape)


def action_value(vals: np.ndarray, grid: SurfaceGrid,
                 fields: FieldBackground, work: Workspace | None = None) -> float:
    """Shifted action S_tilde, the S_tilde of the ledger bit for bit
    (_action_terms).  Every acceptance test compares values of this
    function; it leaves the stencil holding the centred differences when
    there is a two-form, for the rhs that a step forms from the accepted
    trial, and keeps the terms on the workspace for the ledger record.
    """
    if work is None:
        work = Workspace(grid, vals.shape, fields)
    work.terms = _action_terms(work.stencil.load(vals), vals, fields)
    work.terms_of = vals
    return work.terms[3]


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
    already in the workspace stencil.  Each term (k, i, j, c) of b adds its
    wedge to g^k and differences its four fluxes straight into g:
        g^i -= D0x(c u^k uy^j),  g^j += D0x(c u^k uy^i),
        g^j -= D0y(c u^k ux^i),  g^i += D0y(c u^k ux^j),
    each flux and its difference formed in two planes of the stencil's
    scratch, which then takes the projected force.  g is zeroed whole per
    call, so a plane that no term writes is 0 and may be scaled by
    e^{-2 lam} with the rest.  When no k of b is another term's i or j, as
    for y4, each plane gets the operations of summing the fluxes over the
    terms and differencing the sums, bit for bit.
    """
    st = work.stencil
    grid = st.grid
    ux, uy = st.gx, st.gy
    g = work.g
    flux, diff = st.tmp[..., 0], st.tmp[..., 1]
    g.fill(0.0)
    for k, i, j, c in b.terms:          # C_kij = c = -C_kji
        g[..., k] += c * wedge(ux, uy, i, j)
        cu = c * vals[..., k]
        g[..., i] -= centred(np.multiply(cu, uy[..., j], out=flux), 0,
                             grid.dx, out=diff)
        g[..., j] += centred(np.multiply(cu, uy[..., i], out=flux), 0,
                             grid.dx, out=diff)
        g[..., j] -= centred(np.multiply(cu, ux[..., i], out=flux), 1,
                             grid.dy, out=diff)
        g[..., i] += centred(np.multiply(cu, ux[..., j], out=flux), 1,
                             grid.dy, out=diff)
    if V is not None:
        if not grid.is_flat:
            g *= grid.em2l[..., None]
        for k, a_k in V.terms:
            g[..., k] += a_k
    return tangent_project(target, vals, g, out=st.tmp)


def flow_rhs(u: MapField, grid: SurfaceGrid, target: TargetManifold,
             fields: FieldBackground, work: Workspace | None = None) -> np.ndarray:
    """Delta_h u - II(du, du) - Z(du(e1) ^ du(e2)) - P grad V(u).

    The result need not be pointwise tangent: the normal part of Delta_h u
    balances the II term up to truncation error.  All metric weights are
    one factor e^{-2 lam}: with du(e_a) = e^{-lam} D0 u and II bilinear,
    the rhs is e^{-2 lam} (lap u - II(ux, ux) - II(uy, uy) - P g) - P a.
    With a two-form it is formed as e^{-2 lam} (lap u - II) -
    P(e^{-2 lam} g + a), one projection for both forces (P is linear).
    Each term is formed in the stencil's scratch and subtracted, plane by
    plane on the component-first views; the rhs itself is a fresh array in
    the layout of u.
    """
    vals = u.values
    if work is None:
        work = Workspace(grid, vals.shape, fields)
    work.stencil.load(vals)
    return _rhs(work, vals, target, fields)


def _rhs(work: Workspace, vals: np.ndarray, target: TargetManifold,
         fields: FieldBackground) -> np.ndarray:
    """flow_rhs of vals, which the workspace stencil holds; the centred
    differences may be the ones the stencil already holds."""
    st = work.stencil
    grid = st.grid
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
                fields: FieldBackground):
    """Euler-Lagrange residual field with its L2 and Linf norms."""
    r = flow_rhs(u, grid, target, fields)
    return r, l2_norm(r, grid), float(np.max(np.abs(r)))


def gradient_consistency_check(u: MapField, v: np.ndarray, grid: SurfaceGrid,
                               target: TargetManifold,
                               fields: FieldBackground) -> dict:
    """Compare central differences of the discrete action against the flow RHS.

    D(eps) = [S(pi(u + eps v)) - S(pi(u - eps v))] / (2 eps) is matched
    against -<flow_rhs(u), v> for tangent v, at eps = 1e-3, 1e-4, 1e-5.
    """
    v = tangent_project(target, u.values, v)
    work = Workspace(grid, u.values.shape, fields)
    inner = -l2_inner(flow_rhs(u, grid, target, fields, work), v, grid)
    rows = []
    for eps in (1e-3, 1e-4, 1e-5):
        up = target.project(u.values + eps * v)
        um = target.project(u.values - eps * v)
        fd = (action_value(up, grid, fields, work)
              - action_value(um, grid, fields, work)) / (2 * eps)
        rel = abs(fd - inner) / max(abs(inner), 1e-300)
        rows.append({"eps": eps, "fd": fd, "inner": inner, "rel_err": rel})
    return {"rows": rows, "min_rel_err": min(r["rel_err"] for r in rows),
            "inner": inner}


# -- ledger ------------------------------------------------------------------------

@dataclass(slots=True)
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
    snapshot_cap: int = 32          # dyadic ring size

    def validate(self, grid: SurfaceGrid):
        if not 0.0 < self.t_end < math.inf:
            raise GridError(f"t_end must be finite and > 0, got {self.t_end}")
        if self.record_every < 1:
            raise GridError(f"record_every must be at least 1, got "
                            f"{self.record_every}")
        if not (0.0 < self.cfl <= 1.0):
            raise GridError(f"cfl must be in (0, 1], got {self.cfl}")
        if not 0.0 < self.delta1 < math.inf:
            raise GridError(f"delta1 must be finite and > 0, got {self.delta1}")
        if not 0.0 < self.dt_min < math.inf:
            raise GridError(f"dt_min must be finite and > 0, got {self.dt_min}")
        if not 0.0 <= self.conv_tol < math.inf:
            raise GridError(f"conv_tol must be finite and >= 0, got {self.conv_tol}")
        if not 0.0 <= self.tol_up < math.inf:
            raise GridError(f"tol_up must be finite and >= 0, got {self.tol_up}")
        if self.snapshot_cap < 1:
            raise GridError(f"snapshot_cap must be at least 1, got "
                            f"{self.snapshot_cap}")
        bound = cfl_bound(grid, self.cfl)
        if self.dt_init is not None and not self.dt_init <= bound * (1 + 1e-12):
            raise GridError(f"dt_init must be <= CFL bound {bound}, got {self.dt_init}")
        dt0 = self.dt_init if self.dt_init is not None else bound
        if self.dt_min >= dt0:
            raise GridError("dt_min must be smaller than the initial dt")
        if not (0.0 < self.ball_radius < grid.inj_radius):
            raise GridError(f"ball_radius {self.ball_radius} outside "
                            f"(0, {grid.inj_radius})")


@dataclass
class FlowState:
    """The state of a run between steps.

    A run never writes a map in place, and neither may its caller: u.values
    is the newest entry of the snapshot ring, which holds the run's maps by
    reference, and rhs is flow_rhs(u), which the next step starts from.  A
    caller that wants to alter a map writes to a copy and, to go on, starts
    a new run from it.  `work` is the run's Workspace while it steps; the
    state that `run` returns has none, and `step` builds one on demand.
    """
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
    rhs: np.ndarray | None = dc_field(default=None, repr=False)   # flow_rhs(u)


def init_state(u0: MapField, grid: SurfaceGrid, target: TargetManifold,
               fields: FieldBackground, config: FlowConfig) -> FlowState:
    config.validate(grid)
    vals = empty_map(u0.values.shape)
    vals[...] = u0.values
    u = MapField(target.project(vals), target)
    work = Workspace(grid, vals.shape, fields)
    S0 = action_value(u.values, grid, fields, work)
    rhs = flow_rhs(u, grid, target, fields, work)
    dt = config.dt_init if config.dt_init is not None else cfl_bound(grid, config.cfl)
    state = FlowState(t=0.0, u=u, dt=dt, grid=grid, target=target,
                      fields=fields, config=config, S_current=S0, S0=S0,
                      work=work, rhs=rhs)
    _record(state)
    _snapshot(state)
    return state


def _record(state: FlowState):
    """Append a ledger row from the stencil work of the step just taken
    (or of init_state), without a load: E, B, V and S_tilde are the terms
    action_value kept, the ball map sums Stencil.energy_density from the
    rhs's centred differences, and the Hessian reads the second
    differences of the rhs's Laplacian.  GridError unless the workspace
    stencil and terms belong to the state's map."""
    grid, vals, work = state.grid, state.u.values, state.work
    st = work.stencil
    if st.source is not vals or work.terms_of is not vals:
        raise GridError("the workspace holds another map's stencil or terms")
    E, B_term, V_term, S = work.terms
    sup_loc = float(np.max(ball_sum_map(st.energy_density(), grid,
                                        state.config.ball_radius)))
    hd = float(np.sum(st.hessian_sq() * grid.w))
    state.ledger.append(EnergyRecord(
        t=state.t, E=E, dirichlet=0.5 * E, B_term=B_term, V_term=V_term,
        S_tilde=S, kinetic=state.last_kinetic,
        cum_dissipation=state.cum_dissipation, hess_diag=hd,
        sup_local_energy=sup_loc, dt=state.dt))


def _snapshot(state: FlowState):
    """Keep the map by reference: a run never writes a map in place."""
    state.snapshots.append((state.t, state.u.values))
    cap = state.config.snapshot_cap
    if len(state.snapshots) > 2 * cap:
        # dyadic thinning: keep the newest cap entries, halve the older ones
        old = state.snapshots[:-cap]
        state.snapshots = old[::2] + state.snapshots[-cap:]


def _trial(state: FlowState, rhs: np.ndarray, dt: float):
    """Projected Euler candidate pi(u + dt rhs) and its action; the
    workspace stencil is left holding the candidate, from which step
    forms the rhs of the trial it accepts.

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
    so state.dt and the stable-step count are left as they were.  The step
    starts from state.rhs, and replaces it with a fresh array, the rhs of
    the new map, formed from the stencil the accepted trial loaded.  A
    state without a workspace (one that `run` returned) gets a fresh one:
    every trial loads its own map, so no step reads what an earlier one
    left there.
    """
    cfg = state.config
    vals, rhs = state.u.values, state.rhs
    if state.work is None:
        state.work = Workspace(state.grid, vals.shape, state.fields)
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
    # free the old rhs first, so that the new one can take its memory
    state.rhs = rhs = None
    state.rhs = _rhs(state.work, new_vals, state.target, state.fields)

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
        loc = ball_sum_map(state.work.stencil.energy_density(), state.grid,
                           cfg.ball_radius)
        ix, iy = np.unravel_index(int(np.argmax(loc)), loc.shape)
        le = float(loc[ix, iy])
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
    """Advance the flow to exactly t_end (or convergence).  Deterministic.

    The returned state keeps what a caller reads (u, rhs, the ledger, the
    events and the snapshot ring) and drops the workspace; a `step` from it
    builds a fresh one and gives the bits it would have given without the
    return."""
    state = init_state(u0, grid, target, fields, config)
    while state.t < config.t_end and not state.converged:
        step(state)
        if state.steps % config.record_every == 0 or state.t >= config.t_end:
            _record(state)
            _snapshot(state)
            if config.conv_tol > 0.0:
                state.converged = convergence_probe(state.last_kinetic,
                                                    l2_norm(state.rhs, grid),
                                                    config.conv_tol)
    state.work = None
    return state
