"""The action functional, the flow right-hand side, projected time stepping,
and the energy/dissipation ledger.

Discretization notes (the choices here are load-bearing):

* The Dirichlet term is E = sum(|D+x u|^2 + |D+y u|^2) dx dy with forward
  differences, whose exact gradient in the e^{2 lam}-weighted inner product
  is -laplace_beltrami(u); grid.Stencil.dirichlet takes it from the
  centred and second differences by summation by parts.  Both the
  Dirichlet and B terms carry no conformal weight (conformal invariance).
* The B-field force in flow_rhs is the exact discrete gradient of the
  discrete pullback integral; it equals the Z-operator term
  Z(du(e1) ^ du(e2)) up to O(dx^2).  Both live on the two-form, beside
  each other: TwoFormField.integral is the sum and
  TwoFormField.add_gradient its gradient.  This makes the discrete flow an
  exact gradient flow of the ledger action, so the dissipation identity
  defect is pure O(dt) and the gradient-consistency check is exact up to
  O(eps^2).
* action_value and flow_rhs take a map and nothing else: each builds a
  fresh grid.Stencil from the array it is given and takes every
  difference from it.  A run owns its load instead: the run's stencil,
  FlowState.work, which init_state builds from u0 and run drops when it
  returns.  Inside a run the map is component-major (grid.empty_map).
  A step builds each candidate in a fresh map, u + dt rhs projected in
  place, loads it into the run's stencil, and reads its action terms from
  that load (_trial); it keeps the candidate it accepts, so the run holds
  no trial buffer.  The rhs of the accepted map comes from the same load
  (_loaded_rhs, which flow_rhs calls on a fresh stencil), and the
  kinetic difference u_new - u goes into the stencil scratch, which is
  free once that rhs is formed.  A map that a state holds is never
  written again, so values are carried forward, not re-derived:
  FlowState.rhs and FlowState.terms are the rhs and action terms of u,
  which the next step, the convergence probe and the ledger record read.
  init_state takes them for u0 from the public energies and flow_rhs,
  which the benchmark's tracer times, and then builds the run's stencil
  from u0, whose load the first record reads: three loads of u0, once
  per run.
  A load forms the centred and the second differences, and the action
  terms, the rhs and the ledger record all read them.  A ledger record
  loads nothing: it reads FlowState.terms and the two stacks of the run's
  stencil, which no operator writes, so a step loads each candidate once.
  The snapshot ring keeps the run's maps by reference, within a byte
  budget, SNAPSHOT_BYTES = 4 MiB: it keeps the newest
  cap = max(1, SNAPSHOT_BYTES // (2 * map bytes)) maps at full density and
  halves the older ones past 2 * cap, always keeping t = 0.  At q = 4 that
  is cap 28 at 48^2, 16 at 64^2, 4 at 128^2 and 1 from 256^2 up, where
  the ring is t = 0 and the newest map; it holds at most 4 MiB, or those
  two maps where one pair of maps is larger.
* The background fields have one force, _bfield_force: flow_rhs projects
  the B-force and the potential's force once.  P(u) is linear, so
  e^{-2 lam} P(u) g + P(u) a = P(u)(e^{-2 lam} g + a); this moves the rhs
  by rounding only, and not at all for a zero form (g = 0).  g comes from
  TwoFormField.add_gradient and a from ScalarPotential.add_gradient;
  _bfield_force only zeroes g, a buffer of its own call, weights it and
  projects the sum.
* A flat grid is the conformal grid with lam = 0, whose weight e^{-2 lam}
  is exactly 1.0, and a zero two-form or potential is an ordinary input,
  whose terms are exact zeros, so one formula serves every case.  Only
  the step keeps shortcuts, each commented with its measured saving:
  _loaded_rhs and _bfield_force skip the weight on a flat grid, and
  where both fields are zero _loaded_rhs skips the force (as the fields'
  `integral` methods skip their sums).
* The action has one formula, _action_terms: E from grid.Stencil.dirichlet,
  B from TwoFormField.integral, V from ScalarPotential.integral, and
  S_tilde = 0.5*E + B + V, in that order.  energies and action_value
  return it, every step's acceptance test compares its S_tilde, and the
  ledger record reads the terms the step kept, so a ledger row's S_tilde
  is the S_current that the step accepted, bit for bit.  The ledger's
  ball map sums grid.Stencil.energy_density, |du|^2 dvol from the
  contraction that the rhs's II term uses; the dt_min event (from the
  run's stencil, as the record) and singular.concentration_scan sum the
  same density, so all three agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields as dc_fields

import numpy as np

from .errors import GridError, NonFiniteStateError
from .fields import FieldBackground
from .grid import (Stencil, SurfaceGrid, ball_sum_map, component_first,
                   empty_map, l2_inner, l2_norm)
from .singular import SingularEvent, convergence_probe
from .targets import TargetManifold, tangent_project

CONSTRAINT_TOL = 1e-9

# Constants of the stepper, which no config sets: the relative slack of the
# per-step acceptance test S_new <= S + TOL_UP (1 + S0), the stable steps
# before dt grows 1.1x, and the snapshot ring's byte budget (_snapshot).
TOL_UP = 1e-10
GROW_AFTER = 50
SNAPSHOT_BYTES = 4 << 20


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
    B_term: float
    V_term: float       # int tilde(V)(u) dvol
    S_tilde: float


def dirichlet_energy(u: np.ndarray, grid: SurfaceGrid) -> float:
    """int |du|^2 dvol with forward differences; conformally invariant, and
    the same bits for either layout of u (grid.Stencil.dirichlet)."""
    return Stencil(grid, u).dirichlet()


def _action_terms(st: Stencil, fields: FieldBackground) -> EnergyTerms:
    """The action terms of the map that `st` last loaded (its `source`): E
    from the centred and second differences (Stencil.dirichlet), B and V
    from the fields' own terms (TwoFormField.integral, the pullback of the
    centred differences, and ScalarPotential.integral).  The one formula
    of the action: energies and action_value return it, and a step keeps
    its accepted candidate's for the ledger."""
    E = st.dirichlet()
    B_term = fields.b.integral(st)
    V_term = fields.V.integral(st.source, st.grid)
    return EnergyTerms(E=E, B_term=B_term, V_term=V_term,
                       S_tilde=0.5 * E + B_term + V_term)


def energies(vals: np.ndarray, grid: SurfaceGrid,
             fields: FieldBackground) -> EnergyTerms:
    return _action_terms(Stencil(grid, vals), fields)


def action_value(vals: np.ndarray, grid: SurfaceGrid,
                 fields: FieldBackground) -> float:
    """Shifted action S_tilde of vals, from a load of its own: the S_tilde
    of energies and of the ledger, bit for bit (_action_terms)."""
    return energies(vals, grid, fields).S_tilde


# -- flow right-hand side ---------------------------------------------------------

def _bfield_force(st: Stencil, target: TargetManifold,
                  fields: FieldBackground) -> np.ndarray:
    """P(u)(e^{-2 lam} g + a), the one force of the background fields, at
    the map u that st last loaded: g the coordinate gradient of the
    discrete B-term, a the potential's gradient, both ambient forces in
    one projection.  In order: g, a fresh component-major map, is zeroed,
    takes the two-form's wedges and flux differences
    (TwoFormField.add_gradient, nothing for a zero form), is scaled by
    e^{-2 lam} on a conformal grid, takes a (ScalarPotential.add_gradient),
    and is projected once into the stencil's scratch.  For a zero form g
    is exactly a, since 0 * e^{-2 lam} = 0.  g is zeroed whole, so a plane
    that no term writes is 0 and is scaled with the rest.
    """
    g = empty_map(st.shape)
    g.fill(0.0)
    fields.b.add_gradient(g, st)
    # flat-grid fast path: the weight is 16 us of a 1.7 ms step at 128^2
    if not st.grid.is_flat:
        g *= st.grid.em2l[..., None]
    fields.V.add_gradient(g)
    return tangent_project(target, st.source, g, out=st.tmp)


def flow_rhs(vals: np.ndarray, grid: SurfaceGrid, target: TargetManifold,
             fields: FieldBackground) -> np.ndarray:
    """Delta_h u - II(du, du) - Z(du(e1) ^ du(e2)) - P grad V(u), from a
    fresh load of vals (_loaded_rhs).

    The result need not be pointwise tangent: the normal part of Delta_h u
    balances the II term up to truncation error.  All metric weights are
    one factor e^{-2 lam}: with du(e_a) = e^{-lam} D0 u and II bilinear,
    the rhs is e^{-2 lam} (lap u - II(ux, ux) - II(uy, uy) - P g) - P a.
    It is formed as e^{-2 lam} (lap u - II) - P(e^{-2 lam} g + a), one
    projection for both forces (P is linear), _bfield_force, which runs
    whenever either field acts.
    """
    return _loaded_rhs(Stencil(grid, vals), target, fields)


def _loaded_rhs(st: Stencil, target: TargetManifold,
                fields: FieldBackground) -> np.ndarray:
    """flow_rhs of the map that st last loaded (its `source`), read from
    that load.  Each term is formed in the stencil's scratch and
    subtracted, plane by plane on the component-first views; the rhs
    itself is a fresh array in the layout of the map."""
    grid = st.grid
    ux, uy = st.centred()
    vals = st.source
    rhs = st.laplacian(np.empty_like(vals))
    R = component_first(rhs)
    R -= component_first(target.sff_trace(vals, ux, uy, out=st.tmp))
    # flat-grid fast path: the weight is 7 us of a 156 us step at 48^2
    if not grid.is_flat:
        R *= grid.em2l
    # zero-field fast path: that force is 32 us of a 156 us step at 48^2
    if not (fields.b.is_zero and fields.V.is_zero):
        R -= component_first(_bfield_force(st, target, fields))
    return rhs


def el_residual(vals: np.ndarray, grid: SurfaceGrid, target: TargetManifold,
                fields: FieldBackground):
    """Euler-Lagrange residual field with its L2 and Linf norms: flow_rhs
    whole, normal truncation part included, the continuum consistency
    residual that A4 bounds by 5 dx^2 on the geodesic wrap.  The run's
    convergence probe reads the rhs's tangent part instead."""
    r = flow_rhs(vals, grid, target, fields)
    return r, l2_norm(r, grid), float(np.max(np.abs(r)))


def gradient_consistency_check(vals: np.ndarray, v: np.ndarray,
                               grid: SurfaceGrid, target: TargetManifold,
                               fields: FieldBackground) -> dict:
    """Compare central differences of the discrete action against the flow RHS.

    D(eps) = [S(pi(u + eps v)) - S(pi(u - eps v))] / (2 eps) is matched
    against -<flow_rhs(u), v> for tangent v, at eps = 1e-3, 1e-4, 1e-5.
    """
    v = tangent_project(target, vals, v)
    inner = -l2_inner(flow_rhs(vals, grid, target, fields), v, grid)
    rows = []
    for eps in (1e-3, 1e-4, 1e-5):
        up = target.project(vals + eps * v)
        um = target.project(vals - eps * v)
        fd = (action_value(up, grid, fields)
              - action_value(um, grid, fields)) / (2 * eps)
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


# the run_ledger.csv header: EnergyRecord's fields, in order
LEDGER_COLUMNS = [f.name for f in dc_fields(EnergyRecord)]


@dataclass
class EnergyLedger:
    records: list = dc_field(default_factory=list)

    def append(self, rec: EnergyRecord):
        """GridError, naming both times, unless rec.t is finite and above
        the last record's t (NaN fails every comparison, so it is refused
        too)."""
        last = self.records[-1].t if self.records else -math.inf
        if not last < rec.t < math.inf:
            raise GridError(f"t={rec.t!r} must be finite and above the last "
                            f"row's t={last!r}")
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def as_array(self) -> np.ndarray:
        return np.array([r.row() for r in self.records])


def monotonicity_check(ledger: EnergyLedger, delta2: float, S0: float) -> dict:
    """E(u_t) <= delta2 * S0 at every record, plus the dissipation identity
    and monotone S_tilde within the stepper's slack TOL_UP (1 + S0)."""
    E = ledger.column("E")
    S = ledger.column("S_tilde")
    diss = ledger.column("cum_dissipation")
    bound = delta2 * S0 * (1.0 + 1e-9)
    violations = E - bound
    defect = abs(S[-1] + diss[-1] - S0)
    steps_ok = bool(np.all(np.diff(S) <= TOL_UP * (1.0 + S0)))
    return {
        "energy_bound_ok": bool(np.all(violations <= 0.0)),
        "max_energy_excess": float(np.max(violations)),
        "monotone_ok": steps_ok,
        "identity_defect": float(defect),
        "delta2": delta2,
        "S0": S0,
    }


# -- time stepping -----------------------------------------------------------------

def cfl_bound(grid: SurfaceGrid, cfl: float) -> float:
    return (cfl * min(grid.dx, grid.dy) ** 2
            * math.exp(2.0 * float(grid.lam.min())) / 4.0)


@dataclass
class FlowConfig:
    """The `flow` section of a run config, key for key.  The stepper's
    TOL_UP, GROW_AFTER and SNAPSHOT_BYTES are constants, not settings."""

    t_end: float = 1.0
    cfl: float = 0.2
    dt_init: float | None = None    # defaults to the CFL bound
    dt_min: float = 1e-9
    delta1: float = 0.5
    ball_radius: float = 0.5
    conv_tol: float = 0.0           # 0 disables the convergence probe
    record_every: int = 10

    def validate(self, grid: SurfaceGrid) -> float:
        """GridError naming the first setting that this grid rules out;
        else the initial dt, dt_init or the CFL bound."""
        if not 0.0 < self.t_end < math.inf:
            raise GridError(f"t_end must be finite and > 0, got {self.t_end}")
        # a step count: bool is an int subclass, but True is not a count
        if (isinstance(self.record_every, bool)
                or not isinstance(self.record_every, (int, np.integer))
                or self.record_every < 1):
            raise GridError(f"record_every must be an int of at least 1, got "
                            f"{self.record_every!r}")
        if not (0.0 < self.cfl <= 1.0):
            raise GridError(f"cfl must be in (0, 1], got {self.cfl}")
        if not 0.0 < self.delta1 < math.inf:
            raise GridError(f"delta1 must be finite and > 0, got {self.delta1}")
        if not 0.0 < self.dt_min < math.inf:
            raise GridError(f"dt_min must be finite and > 0, got {self.dt_min}")
        # convergence_probe forms conv_tol ** 2, which raises OverflowError
        # where conv_tol * conv_tol is inf
        if not (self.conv_tol >= 0.0
                and math.isfinite(self.conv_tol * self.conv_tol)):
            raise GridError(f"conv_tol must be >= 0 with a finite square, "
                            f"got {self.conv_tol}")
        bound = cfl_bound(grid, self.cfl)
        if self.dt_init is not None and not 0.0 < self.dt_init <= bound * (1 + 1e-12):
            raise GridError(f"dt_init must be in (0, CFL bound {bound}], got "
                            f"{self.dt_init}")
        dt0 = self.dt_init if self.dt_init is not None else bound
        if self.dt_min >= dt0:
            raise GridError(f"dt_min {self.dt_min} must be smaller than the "
                            f"initial dt {dt0}: dt_init, or the CFL bound of "
                            "cfl, lam and the spacings Lx/nx, Ly/ny")
        if not (0.0 < self.ball_radius < grid.inj_radius):
            raise GridError(f"ball_radius {self.ball_radius} outside "
                            f"(0, {grid.inj_radius})")
        return dt0


@dataclass
class FlowState:
    """The state of a run between steps.

    A run never writes a map that a state holds, and neither may its
    caller: u.values is the newest entry of the snapshot ring, which holds
    the run's maps by reference, rhs is flow_rhs(u), which the next step
    starts from, and terms are energies(u), which the ledger record reads
    and whose S_tilde is S_current.  A step takes both from its load of
    u; init_state calls energies and flow_rhs.  A caller that wants to
    alter a map writes to a copy and, to go on, starts a new run from it.
    `work` is the run's Stencil while it steps, loaded with u.values or
    with the candidate last tried; the state that `run` returns has none,
    and `step` builds one from u.values.
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
    S0: float = 0.0
    converged: bool = False
    work: Stencil | None = dc_field(default=None, repr=False)
    rhs: np.ndarray | None = dc_field(default=None, repr=False)   # flow_rhs(u)
    terms: EnergyTerms | None = None                              # energies(u)

    @property
    def S_current(self) -> float:
        return self.terms.S_tilde


def init_state(u0: MapField, grid: SurfaceGrid, target: TargetManifold,
               fields: FieldBackground, config: FlowConfig) -> FlowState:
    dt = config.validate(grid)
    vals = empty_map(u0.values.shape)
    vals[...] = u0.values
    u = MapField(target.project(vals, out=vals), target)
    # u0's terms and rhs from the public operators, so that the benchmark's
    # tracer times this work as it times a step's; the record at t = 0
    # reads the load of the run's stencil.  The order is measured: built
    # last, the run's stencil reuses the pages of flow_rhs's, and the smoke
    # workload's unaccounted share reads 0.094 (median of 10 alternating
    # traced runs, 2-core VM), against 0.095 built between energies and
    # flow_rhs; peak RSS is the same either way (bench/rss_phases.py, 4
    # runs each: bubble_probe_64 44.19-44.32 against 44.20-44.31 MB)
    terms = energies(vals, grid, fields)
    rhs = flow_rhs(vals, grid, target, fields)
    work = Stencil(grid, vals)
    state = FlowState(t=0.0, u=u, dt=dt, grid=grid, target=target,
                      fields=fields, config=config, S0=terms.S_tilde,
                      work=work, rhs=rhs, terms=terms)
    _record(state)
    _snapshot(state)
    return state


def _record(state: FlowState):
    """Append a ledger row from the load of the step just taken (or of
    init_state), without a load of its own: E, B, V and S_tilde are
    state.terms; the ball map sums Stencil.energy_density, and the Hessian
    reads the stencil's stacks, those of the load that the rhs read.
    GridError unless the run's stencil last loaded the state's map."""
    grid, st, T = state.grid, state.work, state.terms
    if st.source is not state.u.values:
        raise GridError("the run's stencil holds another map's load")
    sup_loc = float(np.max(ball_sum_map(st.energy_density(), grid,
                                        state.config.ball_radius)))
    hd = float(np.sum(st.hessian_sq() * grid.w))
    state.ledger.append(EnergyRecord(
        t=state.t, E=T.E, dirichlet=0.5 * T.E, B_term=T.B_term,
        V_term=T.V_term, S_tilde=T.S_tilde, kinetic=state.last_kinetic,
        cum_dissipation=state.cum_dissipation, hess_diag=hd,
        sup_local_energy=sup_loc, dt=state.dt))


def _snapshot(state: FlowState):
    """Keep the map by reference: a run never writes a map it holds.

    The ring holds at most 2 * cap maps, cap = max(1, SNAPSHOT_BYTES //
    (2 * map bytes)), so at most SNAPSHOT_BYTES, or t = 0 and the newest
    map where those two are larger.  Past 2 * cap entries it keeps the
    newest cap and halves the older ones (old[::2] keeps t = 0)."""
    vals = state.u.values
    state.snapshots.append((state.t, vals))
    cap = max(1, SNAPSHOT_BYTES // (2 * vals.nbytes))
    if len(state.snapshots) > 2 * cap:
        old = state.snapshots[:-cap]
        state.snapshots = old[::2] + state.snapshots[-cap:]


def _trial(state: FlowState, rhs: np.ndarray, dt: float):
    """Projected Euler candidate pi(u + dt rhs) and its action terms.  The
    candidate is a fresh map: u + dt rhs is written into it and projected
    in place, so the map a step accepts is the one it built.  It is loaded
    into the run's stencil, which is left holding it, so step forms the
    rhs of the candidate it accepts from this load.

    Raises NonFiniteStateError, naming t, the step and a node, when the
    action is not finite: every acceptance test would fail on a NaN and dt
    would collapse to dt_min without end.  Where no node of u, rhs or the
    candidate is non-finite (a term overflowed), it names the candidate's
    E, B_term and V_term instead.
    """
    new_vals = empty_map(rhs.shape)
    T = component_first(new_vals)
    np.multiply(component_first(rhs), dt, out=T)
    T += component_first(state.u.values)
    state.target.project(new_vals, out=new_vals)
    terms = _action_terms(state.work.load(new_vals), state.fields)
    S_new = terms.S_tilde
    if not math.isfinite(S_new):
        where = (f"no non-finite node; E={terms.E:.9g}, "
                 f"B_term={terms.B_term:.9g}, V_term={terms.V_term:.9g}")
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
    return new_vals, terms


def step(state: FlowState) -> FlowState:
    """One projected explicit Euler step with adaptive dt.

    Halves dt (and retries) when S_tilde increases beyond TOL_UP (1 + S0);
    grows dt 1.1x after GROW_AFTER stable steps, capped by the CFL bound.
    A halving below dt_min collapses dt: the last pass of the loop tries
    min(dt_min, dt0) and accepts that trial whatever its action, matching
    the restart-past-singular-time semantics, and appends a singular event
    (stiffness, or concentration where the largest ball energy reaches
    delta1).  The collapse then shares the halving's bookkeeping: the
    stable-step count is reset and state.dt takes the dt taken, also when
    that dt is dt0.  A step that would pass t_end is shortened to end
    exactly there; that is not a halving, so state.dt and the stable-step
    count are left as they were.
    The step starts from state.rhs, and replaces it with a fresh array, the
    rhs of the new map, formed from the stencil the accepted trial loaded,
    and keeps that trial's action terms in state.terms; the kinetic
    difference u_new - u is then formed in the stencil's scratch `tmp`,
    which that rhs no longer needs.  A state without a stencil (one that
    `run` returned) gets a fresh one built from its map: every trial loads
    its own map, so no step reads what an earlier one left there.
    """
    cfg = state.config
    vals, rhs = state.u.values, state.rhs
    if state.work is None:
        state.work = Stencil(state.grid, vals)
    tol_up = TOL_UP * (1.0 + state.S0)
    remaining = cfg.t_end - state.t
    dt = dt0 = min(state.dt, remaining) if remaining > 0.0 else state.dt
    collapsed = False
    while True:
        new_vals, terms = _trial(state, rhs, dt)
        if collapsed or terms.S_tilde <= state.S_current + tol_up:
            break
        dt *= 0.5
        if dt < cfg.dt_min:
            collapsed = True
            dt = min(cfg.dt_min, dt0)
    # free the old rhs first, so that the new one can take its memory
    state.rhs = rhs = None
    state.rhs = _loaded_rhs(state.work, state.target, state.fields)

    diff = state.work.tmp
    np.subtract(component_first(new_vals), component_first(vals),
                out=component_first(diff))
    dt2 = dt**2
    if dt2 == 0.0:
        raise NonFiniteStateError(f"step {state.steps + 1} from "
                                  f"t={state.t:.9g}: dt={dt:.3g} squares to 0")
    kinetic = l2_inner(diff, diff, state.grid) / dt2
    state.cum_dissipation += kinetic * dt
    state.last_kinetic = kinetic
    state.u = MapField(new_vals, state.target)
    state.t = cfg.t_end if dt == remaining else state.t + dt
    state.terms = terms
    state.steps += 1

    if collapsed:
        loc = ball_sum_map(state.work.energy_density(), state.grid,
                           cfg.ball_radius)
        ix, iy = np.unravel_index(int(np.argmax(loc)), loc.shape)
        le = float(loc[ix, iy])
        kind = "concentration" if le >= cfg.delta1 else "stiffness"
        state.events.append(SingularEvent(t=state.t, ix=int(ix), iy=int(iy),
                                          R=cfg.ball_radius, local_energy=le,
                                          kind=kind))
    if collapsed or dt < dt0:
        state.stable_steps = 0
        state.dt = dt
    elif dt0 == state.dt:
        state.stable_steps += 1
        if state.stable_steps >= GROW_AFTER:
            state.dt = min(state.dt * 1.1, cfl_bound(state.grid, cfg.cfl))
            state.stable_steps = 0
    return state


def run(u0: MapField, grid: SurfaceGrid, target: TargetManifold,
        fields: FieldBackground, config: FlowConfig) -> FlowState:
    """Advance the flow to exactly t_end (or convergence).  Deterministic.

    With conv_tol > 0, each record probes convergence from the kinetic
    energy and the L2 norm of P(u) rhs: the rhs's normal part is O(dx^2)
    truncation, which does not vanish at a critical point.
    The returned state keeps what a caller reads (u, rhs, terms, the
    ledger, the events and the snapshot ring) and drops its stencil; a
    `step` from it builds a fresh one and gives the bits it would have
    given without the return."""
    state = init_state(u0, grid, target, fields, config)
    while state.t < config.t_end and not state.converged:
        step(state)
        if state.steps % config.record_every == 0 or state.t >= config.t_end:
            _record(state)
            _snapshot(state)
            if config.conv_tol > 0.0:
                tangent = tangent_project(target, state.u.values, state.rhs)
                state.converged = convergence_probe(state.last_kinetic,
                                                    l2_norm(tangent, grid),
                                                    config.conv_tol)
    state.work = None
    return state
