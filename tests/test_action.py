import numpy as np
import pytest

import stringflow as sf
from stringflow.action import _bfield_force, _record
from stringflow.errors import GridError
from stringflow.grid import ball_mask


@pytest.fixture
def sphere():
    return sf.make_target("sphere", 4)


@pytest.fixture
def grid():
    return sf.build_grid(32, 32)


def test_dirichlet_energy_of_wrap_matches_closed_form(grid, sphere):
    # forward differences of (cos x, sin x): |D+ u|^2 = (2 - 2 cos dx)/dx^2
    u = sf.geodesic_wrap(grid, sphere, m=1, n=0)
    c = (2.0 - 2.0 * np.cos(grid.dx)) / grid.dx ** 2
    expected = c * grid.Lx * grid.Ly
    assert sf.dirichlet_energy(u.values, grid) == pytest.approx(expected, rel=1e-12)


def test_energies_terms_consistent(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u = sf.random_smooth_map(grid, sphere, seed=0, amplitude=0.3)
    terms = sf.energies(u, grid, fields)
    assert terms.dirichlet == pytest.approx(terms.E / 2.0, rel=1e-14)
    assert terms.S_tilde == pytest.approx(
        terms.dirichlet + terms.B_term + terms.V_term, rel=1e-12)
    assert terms.V_term >= 0.0  # shifted potential is nonnegative


def test_mapfield_constraint_enforced(grid, sphere):
    vals = np.ones((32, 32, 4))
    with pytest.raises(sf.OffManifoldError):
        sf.MapField(vals, sphere).check()


def test_flow_rhs_is_tangent_up_to_truncation(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u = sf.random_smooth_map(grid, sphere, seed=1, amplitude=0.3)
    rhs = sf.flow_rhs(u, grid, sphere, fields)
    normal = np.sum(rhs * u.values, axis=-1)
    # the B and V forces are projected; the remaining normal part is the
    # O(dx^2)-consistent radial residue of the discrete tension field
    assert np.max(np.abs(normal)) < 0.5


def test_gradient_consistency_all_terms(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u = sf.random_smooth_map(grid, sphere, seed=2, amplitude=0.3)
    v = np.random.default_rng(3).standard_normal(u.values.shape)
    out = sf.gradient_consistency_check(u, v, grid, sphere, fields)
    assert out["min_rel_err"] < 1e-6


def test_el_residual_small_on_wrap(grid, sphere):
    u = sf.geodesic_wrap(grid, sphere, m=1, n=0)
    _, l2, linf = sf.el_residual(u, grid, sphere, sf.zero_background(4))
    assert linf <= 5.0 * grid.dx ** 2


def test_flow_conserves_constraint_and_decreases_action(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.zero_potential(4))
    u0 = sf.random_smooth_map(grid, sphere, seed=4, amplitude=0.3)
    st = sf.run(u0, grid, sphere, fields, sf.FlowConfig(t_end=0.05, record_every=10))
    assert st.u.constraint_defect() < 1e-12
    s = st.ledger.column("S_tilde")
    assert np.all(np.diff(s) <= 1e-10 * (1 + abs(st.S0)))
    assert st.cum_dissipation > 0.0


def test_ledger_columns_and_monotonicity_check(grid, sphere):
    u0 = sf.random_smooth_map(grid, sphere, seed=5, amplitude=0.2)
    st = sf.run(u0, grid, sphere, sf.zero_background(4),
                sf.FlowConfig(t_end=0.02, record_every=5))
    arr = st.ledger.as_array()
    assert arr.shape[1] == len(sf.LEDGER_COLUMNS)
    assert list(sf.LEDGER_COLUMNS[:3]) == ["t", "E", "dirichlet"]
    mono = sf.monotonicity_check(st.ledger, 2.0, st.S0)
    assert mono["monotone_ok"] and mono["energy_bound_ok"]


def test_flow_config_validation(grid):
    with pytest.raises(GridError):
        sf.FlowConfig(cfl=2.0).validate(grid)
    with pytest.raises(GridError):
        sf.FlowConfig(dt_init=1.0).validate(grid)
    with pytest.raises(GridError):
        sf.FlowConfig(ball_radius=10.0).validate(grid)


def test_cfl_bound_scales_with_grid():
    g1, g2 = sf.build_grid(32, 32), sf.build_grid(64, 64)
    assert sf.cfl_bound(g1, 0.2) == pytest.approx(4 * sf.cfl_bound(g2, 0.2), rel=1e-12)


def test_local_energy_map_matches_direct(grid, sphere):
    u = sf.bump_map(grid, sphere, scale=0.4)
    R = 0.6
    m = sf.local_energy_map(u, grid, R)
    direct = sf.local_energy(u, grid, (16, 16), R)
    assert m[16, 16] == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_run_convergence_probe_stops_early(grid, sphere):
    u0 = sf.small_energy_map(grid, sphere, energy=1e-4, seed=6)
    cfg = sf.FlowConfig(t_end=50.0, record_every=20, conv_tol=1e-8)
    st = sf.run(u0, grid, sphere, sf.zero_background(4), cfg)
    assert st.converged and st.t < 50.0


def test_flow_rhs_result_is_not_a_workspace_buffer(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u1 = sf.random_smooth_map(grid, sphere, seed=7, amplitude=0.3)
    u2 = sf.random_smooth_map(grid, sphere, seed=8, amplitude=0.3)
    work = sf.Workspace(grid, u1.values.shape, fields)
    for w in (None, work):
        r1 = sf.flow_rhs(u1, grid, sphere, fields, w)
        kept = r1.copy()
        sf.action_value(u2.values, grid, fields, w)
        r2 = sf.flow_rhs(u2, grid, sphere, fields, w)
        assert np.array_equal(r1, kept)
        assert not np.array_equal(r1, r2)
    # a shared workspace gives the same numbers as a fresh one
    assert np.array_equal(sf.flow_rhs(u1, grid, sphere, fields, work), kept)
    assert sf.action_value(u1.values, grid, fields, work) == \
        sf.action_value(u1.values, grid, fields)


def test_run_stops_exactly_at_t_end(grid, sphere):
    u0 = sf.random_smooth_map(grid, sphere, seed=5, amplitude=0.2)
    cfg = sf.FlowConfig(t_end=0.0105, record_every=5)
    dt = sf.cfl_bound(grid, cfg.cfl)
    assert (cfg.t_end / dt) % 1.0 > 0.1      # not a multiple of dt
    st = sf.run(u0, grid, sphere, sf.zero_background(4), cfg)
    assert st.t == cfg.t_end
    assert st.ledger.records[-1].t == cfg.t_end
    # the shortened last step is neither a dt halving nor a stable step
    st = sf.init_state(u0, grid, sphere, sf.zero_background(4), cfg)
    while st.t + st.dt < cfg.t_end:
        sf.step(st)
    before = (st.dt, st.stable_steps)
    sf.step(st)
    assert st.t == cfg.t_end
    assert (st.dt, st.stable_steps) == before == (dt, st.steps - 1)


def test_non_finite_map_raises_within_one_step(grid, sphere):
    vals = sf.random_smooth_map(grid, sphere, seed=9, amplitude=0.2).values
    vals[5, 7, 1] = np.nan
    u0 = sf.MapField(vals, sphere)
    state = sf.init_state(u0, grid, sphere, sf.zero_background(4),
                          sf.FlowConfig(t_end=1.0))
    with pytest.raises(sf.NonFiniteStateError) as err:
        sf.step(state)
    msg = str(err.value)
    assert "step 1" in msg and "t=0" in msg and "(5, 7)" in msg
    assert state.steps == 0
    with pytest.raises(sf.NonFiniteStateError):
        sf.run(u0, grid, sphere, sf.zero_background(4),
               sf.FlowConfig(t_end=1.0))


def _shift(f, sx, sy):
    """f[i + sx, j + sy], periodic."""
    return np.roll(np.roll(f, -sx, axis=0), -sy, axis=1)


@pytest.mark.parametrize("lam", [None, lambda x, y: 0.2 * np.sin(x) * np.cos(2 * y)])
def test_record_matches_separate_formulas(sphere, lam):
    # each ledger column against its own formula, with every difference
    # taken by np.roll and a freshly built ball kernel
    g = sf.build_grid(32, 32, lam=lam)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u0 = sf.random_smooth_map(g, sphere, seed=4, amplitude=0.3)
    cfg = sf.FlowConfig(t_end=1.0, ball_radius=0.5)
    st = sf.init_state(u0, g, sphere, fields, cfg)
    for _ in range(3):
        sf.step(st)
    _record(st)
    rec, v = st.ledger.records[-1], st.u.values

    gx = (_shift(v, 1, 0) - v) / g.dx
    gy = (_shift(v, 0, 1) - v) / g.dy
    E = float(np.sum(gx * gx + gy * gy) * (g.dx * g.dy))
    B = sf.pullback_integral(v, fields.b, g)
    V = float(np.sum(fields.V.shifted(v) * g.w))
    assert (rec.E, rec.dirichlet, rec.B_term, rec.V_term, rec.S_tilde) == \
        (E, 0.5 * E, B, V, 0.5 * E + B + V)

    hxx = (_shift(v, 1, 0) + _shift(v, -1, 0) - 2.0 * v) / g.dx ** 2
    hyy = (_shift(v, 0, 1) + _shift(v, 0, -1) - 2.0 * v) / g.dy ** 2
    hxy = (_shift(v, 1, 1) - _shift(v, 1, -1) - _shift(v, -1, 1)
           + _shift(v, -1, -1)) / (4.0 * g.dx * g.dy)
    hess = float(np.sum(np.sum(hxx ** 2 + 2.0 * hxy ** 2 + hyy ** 2, axis=-1)
                        * g.w))
    assert rec.hess_diag == pytest.approx(hess, rel=1e-13)

    e = g.eml[..., None]
    du1 = e * (_shift(v, 1, 0) - _shift(v, -1, 0)) / (2.0 * g.dx)
    du2 = e * (_shift(v, 0, 1) - _shift(v, 0, -1)) / (2.0 * g.dy)
    dens = np.sum(du1 ** 2 + du2 ** 2, axis=-1) * g.w
    K = ball_mask(g, (0, 0), cfg.ball_radius).astype(float)
    balls = np.fft.irfft2(np.fft.rfft2(dens) * np.fft.rfft2(K), s=dens.shape)
    assert rec.sup_local_energy == pytest.approx(float(np.max(balls)),
                                                 rel=1e-13)


def _component_major(v):
    cm = sf.empty_map(v.shape)
    cm[...] = v
    return cm


def _is_component_major(v):
    nx, ny, q = v.shape
    return v.strides == (8 * ny, 8, 8 * nx * ny)


@pytest.mark.parametrize("lam", [None, lambda x, y: 0.2 * np.sin(x) * np.cos(2 * y)])
def test_results_do_not_depend_on_the_map_layout(sphere, lam, tmp_path):
    g = sf.build_grid(32, 24, lam=lam)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    c = sf.random_smooth_map(g, sphere, seed=11, amplitude=0.3).values
    cm = _component_major(c)
    assert c.flags.c_contiguous and _is_component_major(cm)
    rc = sf.flow_rhs(sf.MapField(c, sphere), g, sphere, fields)
    rcm = sf.flow_rhs(sf.MapField(cm, sphere), g, sphere, fields)
    assert np.array_equal(rc, rcm)
    assert _is_component_major(rcm)          # the rhs keeps the layout of u
    assert _is_component_major(sphere.project(cm))
    ec = sf.energies(sf.MapField(c, sphere), g, fields)
    ecm = sf.energies(sf.MapField(cm, sphere), g, fields)
    for name in ("E", "B_term", "V_term", "S_tilde"):
        a, b = getattr(ec, name), getattr(ecm, name)
        assert abs(a - b) <= 1e-15 * abs(a), name
    a, b = sf.action_value(c, g, fields), sf.action_value(cm, g, fields)
    assert abs(a - b) <= 1e-15 * abs(a)
    # snapshots are row-major, node before component, in either layout
    sf.write_snapshot(str(tmp_path / "c.snap"), c, 0.5, "sphere")
    sf.write_snapshot(str(tmp_path / "cm.snap"), cm, 0.5, "sphere")
    assert (tmp_path / "c.snap").read_bytes() == \
        (tmp_path / "cm.snap").read_bytes()


def test_run_from_either_layout_is_bit_identical(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    c = sf.random_smooth_map(grid, sphere, seed=12, amplitude=0.3).values
    cfg = sf.FlowConfig(t_end=0.01, record_every=4)
    st_c = sf.run(sf.MapField(c, sphere), grid, sphere, fields, cfg)
    st_cm = sf.run(sf.MapField(_component_major(c), sphere), grid, sphere,
                   fields, cfg)
    assert st_c.steps == st_cm.steps > 4
    assert np.array_equal(st_c.u.values, st_cm.u.values)
    assert np.array_equal(st_c.ledger.as_array(), st_cm.ledger.as_array())
    # inside the run every map and snapshot is component-major
    assert _is_component_major(st_c.u.values)
    assert all(_is_component_major(v) for _, v in st_c.snapshots)


def test_step_reuses_only_shifts_it_may_reuse(grid, sphere):
    # step takes the rhs from the shifts (and, with a two-form, the centred
    # differences) the accepted trial loaded; after a ledger record has
    # spent them it reloads.  Either way it must match a step that starts
    # from a fresh workspace, on a flat and on a conformal grid.
    from dataclasses import replace
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    for g in (grid, _conformal(grid)):
        u0 = sf.random_smooth_map(g, sphere, seed=13, amplitude=0.3)
        st = sf.init_state(u0, g, sphere, fields, sf.FlowConfig(t_end=1.0))
        for spend in (False, True):
            sf.step(st)
            assert st.work.stencil.f is st.u.values
            if spend:
                _record(st)
                assert st.work.stencil.f is None
            fresh = replace(st, work=sf.Workspace(g, st.u.values.shape,
                                                  fields))
            sf.step(st)
            sf.step(fresh)
            assert np.array_equal(st.u.values, fresh.u.values)
            assert st.S_current == fresh.S_current


def test_el_residual_in_the_run_workspace_matches_a_fresh_one(grid, sphere):
    # run() passes its workspace to el_residual at each record; the
    # residual and the step after it must not depend on that
    from dataclasses import replace
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u0 = sf.random_smooth_map(grid, sphere, seed=14, amplitude=0.3)
    st = sf.init_state(u0, grid, sphere, fields, sf.FlowConfig(t_end=1.0))
    for spend in (False, True):
        sf.step(st)
        if spend:
            _record(st)
        shared = sf.el_residual(st.u, grid, sphere, fields, st.work)
        fresh = sf.el_residual(st.u, grid, sphere, fields)
        assert np.array_equal(shared[0], fresh[0])
        assert shared[1:] == fresh[1:]
        other = replace(st, work=sf.Workspace(grid, st.u.values.shape, fields))
        sf.step(st)
        sf.step(other)
        assert np.array_equal(st.u.values, other.u.values)
        assert st.S_current == other.S_current


def _conformal(grid):
    return sf.build_grid(grid.nx, grid.ny,
                         lam=lambda x, y: 0.2 * np.sin(x) * np.cos(y))


def _two_projection_rhs(u, g, target, fields):
    """e^{-2 lam} (lap u - II - P g) - P a, each force projected on its
    own, in flow_rhs's order of operations."""
    b_only = sf.FieldBackground(fields.b, sf.zero_potential(4))
    work = sf.Workspace(g, u.shape, b_only)
    st = work.stencil.load(u)
    ux, uy = st.centred()
    rhs = st.laplacian(np.empty_like(u))
    rhs -= target.sff_trace(u, ux, uy)
    if not fields.b.is_zero:
        rhs -= _bfield_force(work, u, target, fields.b)
    if not g.is_flat:
        rhs *= g.em2l[..., None]
    if not fields.V.is_zero:
        rhs -= target.tangent_project(u, fields.V.grad(u))
    return rhs


@pytest.mark.parametrize("kinds", ["both", "two-form", "potential"])
def test_flow_rhs_projects_both_ambient_forces_at_once(grid, sphere, kinds):
    # with a two-form, P(e^{-2 lam} g + a) in one projection equals the
    # two-projection formula up to rounding; on a flat grid a two-form
    # alone has no factor to move, and a potential alone keeps the
    # formula's arithmetic, so those match bit for bit
    b = sf.make_two_form("y4", 4, beta=0.2 if kinds != "potential" else 0.0)
    V = sf.make_potential("height", 4,
                          epsilon=0.1 if kinds != "two-form" else 0.0)
    fields = sf.FieldBackground(b=b, V=V)
    for g in (grid, _conformal(grid)):
        for seed in (16, 17):
            u = sf.random_smooth_map(g, sphere, seed=seed, amplitude=0.3)
            rhs = sf.flow_rhs(u, g, sphere, fields)
            ref = _two_projection_rhs(u.values, g, sphere, fields)
            if kinds == "potential" or (kinds == "two-form" and g.is_flat):
                assert np.array_equal(rhs, ref)
            else:
                err = np.max(np.abs(rhs - ref))
                assert err <= 1e-14 * np.max(np.abs(ref))
