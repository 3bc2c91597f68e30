import math
import re
import types

import numpy as np
import pytest

import stringflow as sf
from stringflow import action, initial_data
from stringflow.action import _bfield_force, _loaded_rhs, _record, _snapshot
from stringflow.errors import GridError
from stringflow.grid import Stencil, ball_mask


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
    u = sf.perturb(sf.constant_map(grid, sphere), seed=0, amplitude=0.3)
    terms = sf.energies(u.values, grid, fields)
    assert terms.S_tilde == pytest.approx(
        0.5 * terms.E + terms.B_term + terms.V_term, rel=1e-12)
    assert terms.V_term >= 0.0  # shifted potential is nonnegative


@pytest.mark.parametrize("shape", [(32, 32, 3), (32, 32, 5), (32, 32),
                                   (4, 32, 32)],
                         ids=["q3", "q5", "no-component-axis", "leading-q"])
def test_mapfield_refuses_values_whose_last_axis_is_not_q(sphere, shape):
    # a map's values end in the target's q: a map of another q (or a
    # component-first stack) would reach the stencil and the projection
    with pytest.raises(GridError, match=re.escape(
            f"map values shape {shape} does not end in q=4")):
        sf.MapField(np.ones(shape), sphere)


def test_mapfield_constraint_enforced(grid, sphere):
    vals = np.ones((32, 32, 4))
    with pytest.raises(sf.OffManifoldError):
        sf.MapField(vals, sphere).check()
    # one NaN value in an otherwise constant map
    u = sf.constant_map(sf.build_grid(16, 16), sphere)
    u.values[5, 9, 2] = np.nan
    with pytest.raises(sf.OffManifoldError):
        u.check()


def test_flow_rhs_is_tangent_up_to_truncation(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u = sf.perturb(sf.constant_map(grid, sphere), seed=1, amplitude=0.3)
    rhs = sf.flow_rhs(u.values, grid, sphere, fields)
    normal = np.sum(rhs * u.values, axis=-1)
    # the B and V forces are projected; the remaining normal part is the
    # O(dx^2)-consistent radial residue of the discrete tension field
    assert np.max(np.abs(normal)) < 0.5


def test_gradient_consistency_all_terms(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u = sf.perturb(sf.constant_map(grid, sphere), seed=2, amplitude=0.3)
    v = np.random.default_rng(3).standard_normal(u.values.shape)
    out = sf.gradient_consistency_check(u.values, v, grid, sphere, fields)
    assert out["min_rel_err"] < 1e-6


def test_el_residual_small_on_wrap(grid, sphere):
    u = sf.geodesic_wrap(grid, sphere, m=1, n=0)
    _, l2, linf = sf.el_residual(u.values, grid, sphere, sf.zero_background(4))
    assert linf <= 5.0 * grid.dx ** 2


def test_flow_conserves_constraint_and_decreases_action(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.zero_potential(4))
    u0 = sf.perturb(sf.constant_map(grid, sphere), seed=4, amplitude=0.3)
    st = sf.run(u0, grid, sphere, fields, sf.FlowConfig(t_end=0.05, record_every=10))
    assert st.u.constraint_defect() < 1e-12
    s = st.ledger.column("S_tilde")
    assert np.all(np.diff(s) <= 1e-10 * (1 + abs(st.S0)))
    assert st.cum_dissipation > 0.0


def test_ledger_columns_and_monotonicity_check(grid, sphere, tmp_path):
    u0 = sf.perturb(sf.constant_map(grid, sphere), seed=5, amplitude=0.2)
    st = sf.run(u0, grid, sphere, sf.zero_background(4),
                sf.FlowConfig(t_end=0.02, record_every=5))
    arr = st.ledger.as_array()
    assert arr.shape[1] == len(sf.LEDGER_COLUMNS)
    # the header is a file-format contract
    path = tmp_path / "run_ledger.csv"
    sf.write_ledger_csv(st.ledger, str(path))
    assert path.read_text().splitlines()[0] == (
        "t,E,dirichlet,B_term,V_term,S_tilde,kinetic,cum_dissipation,"
        "hess_diag,sup_local_energy,dt")
    mono = sf.monotonicity_check(st.ledger, 2.0, st.S0)
    assert mono["monotone_ok"] and mono["energy_bound_ok"]


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1.0, 0.5],
                         ids=["nan", "inf", "-inf", "equal", "decreasing"])
def test_ledger_refuses_a_time_not_above_the_last(t):
    # the one time-order check of a ledger, in memory as on read: a NaN
    # fails every comparison, so neither it nor any t after it gets in
    def rec(t):
        return sf.EnergyRecord(t, *range(10))
    ledger = sf.EnergyLedger()
    ledger.append(rec(1.0))
    with pytest.raises(GridError, match=re.escape(f"t={t!r} must be finite")):
        ledger.append(rec(t))
    ledger.append(rec(2.0))
    assert ledger.column("t").tolist() == [1.0, 2.0]
    if not math.isfinite(t):
        with pytest.raises(GridError):
            sf.EnergyLedger().append(rec(t))


def test_flow_config_validation(grid):
    # an infinite t_end never stops, a NaN dt_init fails at the first step
    # and an infinite conv_tol "converges" at the first record.  Each
    # message names the key at fault
    for bad in ({"cfl": 2.0}, {"dt_init": 1.0}, {"ball_radius": 10.0},
                {"t_end": math.inf}, {"t_end": math.nan},
                {"dt_init": math.nan}, {"dt_init": -1e-3}, {"dt_init": 0.0},
                {"dt_min": math.inf}, {"dt_min": math.nan},
                {"conv_tol": math.inf}, {"conv_tol": math.nan}):
        (key,) = bad
        with pytest.raises(GridError, match=key):
            sf.FlowConfig(**bad).validate(grid)
    # a valid config gives the run's initial dt
    assert sf.FlowConfig().validate(grid) == sf.cfl_bound(grid, 0.2)
    assert sf.FlowConfig(dt_init=1e-4).validate(grid) == 1e-4


@pytest.mark.parametrize("every", [2.5, 2.0, True], ids=str)
def test_flow_config_refuses_a_record_every_that_is_not_an_int(grid, every):
    # 2.5 recorded only t = 0 and t_end, True every step; the config schema
    # already refuses both
    with pytest.raises(GridError, match="record_every must be an int"):
        sf.FlowConfig(record_every=every).validate(grid)
    sf.FlowConfig(record_every=np.int64(3)).validate(grid)


def test_cfl_bound_scales_with_grid():
    g1, g2 = sf.build_grid(32, 32), sf.build_grid(64, 64)
    assert sf.cfl_bound(g1, 0.2) == pytest.approx(4 * sf.cfl_bound(g2, 0.2), rel=1e-12)


def test_local_energy_map_matches_direct(grid, sphere):
    # the FFT ball map against a masked sum of the same |du|^2 dvol density
    u = sf.bump_map(grid, sphere, scale=0.4)
    R = 0.6
    dens = Stencil(grid, u.values).energy_density()
    m = sf.ball_sum_map(dens, grid, R)
    direct = float(np.sum(dens[ball_mask(grid, (16, 16), R)]))
    assert m[16, 16] == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_run_convergence_probe_stops_early(grid, sphere, monkeypatch):
    # the probe reads the rhs the step carries, so a run evaluates one rhs
    # per step plus the initial one (each ends in a Laplacian)
    laplacians = []
    laplacian = Stencil.laplacian

    def counted(self, out):
        laplacians.append(1)
        return laplacian(self, out)

    monkeypatch.setattr(Stencil, "laplacian", counted)
    u0 = sf.small_energy_map(grid, sphere, energy=1e-4, seed=6,
                             max_mode=2)
    cfg = sf.FlowConfig(t_end=50.0, record_every=20, conv_tol=1e-8)
    st = sf.run(u0, grid, sphere, sf.zero_background(4), cfg)
    assert st.converged and st.t < 50.0
    assert st.steps == 6440
    assert len(laplacians) == st.steps + 1


def test_convergence_probe_reads_the_tangent_part_of_the_rhs(grid, sphere):
    # the exact wrap is a critical point: P(u) rhs is rounding (7e-14 at
    # 32^2), while the rhs's normal truncation part reads 0.06 in L2, so a
    # probe of the whole rhs never converges and runs to t_end
    u0 = sf.geodesic_wrap(grid, sphere)
    fields = sf.zero_background(4)
    rhs = sf.flow_rhs(u0.values, grid, sphere, fields)
    assert sf.l2_norm(rhs, grid) > 0.05
    tangent = sf.tangent_project(sphere, u0.values, rhs)
    assert sf.l2_norm(tangent, grid) < 1e-12
    cfg = sf.FlowConfig(t_end=1.0, record_every=5, conv_tol=1e-6)
    st = sf.run(u0, grid, sphere, fields, cfg)
    assert st.converged and st.steps == 5 and len(st.ledger) == 2


@pytest.mark.parametrize("exit_by", ["t_end", "conv_tol"])
def test_run_ends_on_a_ledger_row_and_a_snapshot(grid, sphere, exit_by):
    # the loop records when t reaches t_end, and probes convergence only
    # right after a record, so either exit leaves the final state recorded
    if exit_by == "t_end":
        u0 = sf.perturb(sf.constant_map(grid, sphere), seed=3, amplitude=0.3)
        cfg = sf.FlowConfig(t_end=0.01, record_every=7)
    else:
        u0 = sf.geodesic_wrap(grid, sphere)
        cfg = sf.FlowConfig(t_end=1.0, record_every=7, conv_tol=1e-2)
    st = sf.run(u0, grid, sphere, sf.zero_background(4), cfg)
    if exit_by == "t_end":
        assert st.t == cfg.t_end and st.steps % cfg.record_every != 0
    else:
        assert st.converged and st.t < cfg.t_end
    assert st.ledger.records[-1].t == st.t
    assert st.snapshots[-1][0] == st.t and st.snapshots[-1][1] is st.u.values


def test_flow_rhs_result_is_not_a_workspace_buffer(grid, sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u1 = sf.perturb(sf.constant_map(grid, sphere), seed=7, amplitude=0.3)
    u2 = sf.perturb(sf.constant_map(grid, sphere), seed=8, amplitude=0.3)
    r1 = sf.flow_rhs(u1.values, grid, sphere, fields)
    kept = r1.copy()
    sf.action_value(u2.values, grid, fields)
    r2 = sf.flow_rhs(u2.values, grid, sphere, fields)
    assert np.array_equal(r1, kept)
    assert not np.array_equal(r1, r2)


def test_run_stops_exactly_at_t_end(grid, sphere):
    u0 = sf.perturb(sf.constant_map(grid, sphere), seed=5, amplitude=0.2)
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
    vals = sf.perturb(sf.constant_map(grid, sphere), seed=9,
                      amplitude=0.2).values
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
    u0 = sf.perturb(sf.constant_map(g, sphere), seed=4, amplitude=0.3)
    cfg = sf.FlowConfig(t_end=1.0, ball_radius=0.5)
    st = sf.init_state(u0, g, sphere, fields, cfg)
    for _ in range(3):
        sf.step(st)
    _record(st)
    rec, v = st.ledger.records[-1], st.u.values

    # E by summation by parts: the centred and the undivided second
    # differences, component-first, each stack contracted by one einsum
    # and each sum scaled once
    G = np.stack([(_shift(v, 1, 0) - _shift(v, -1, 0)) * (0.5 / g.dx),
                  (_shift(v, 0, 1) - _shift(v, 0, -1)) * (0.5 / g.dy)])
    P = np.stack([_shift(v, 1, 0) + _shift(v, -1, 0) - 2.0 * v,
                  _shift(v, 0, 1) + _shift(v, 0, -1) - 2.0 * v])
    G = np.ascontiguousarray(np.moveaxis(G, -1, 1)).reshape(2, -1)
    P = np.ascontiguousarray(np.moveaxis(P, -1, 1)).reshape(2, -1)
    cx, cy = np.einsum("dk,dk->d", G, G)
    sx, sy = np.einsum("dk,dk->d", P, P)
    E = float((cx + cy) * (g.dx * g.dy)
              + 0.25 * (sx * (g.dy / g.dx) + sy * (g.dx / g.dy)))
    B = sf.pullback_integral(v, fields.b, g)
    V = float(np.sum(fields.V.shifted(v) * g.w))
    assert (rec.E, rec.dirichlet, rec.B_term, rec.V_term, rec.S_tilde) == \
        (E, 0.5 * E, B, V, 0.5 * E + B + V)
    # the textbook form, (u[i+1] - u[i]) / dx squared and summed
    gx = (_shift(v, 1, 0) - v) / g.dx
    gy = (_shift(v, 0, 1) - v) / g.dy
    assert abs(rec.E - float(np.sum(gx * gx + gy * gy) * (g.dx * g.dy))) \
        <= 1e-14 * rec.E

    hxx = (_shift(v, 1, 0) + _shift(v, -1, 0) - 2.0 * v) / g.dx ** 2
    hyy = (_shift(v, 0, 1) + _shift(v, 0, -1) - 2.0 * v) / g.dy ** 2
    hxy = (_shift(v, 1, 1) - _shift(v, 1, -1) - _shift(v, -1, 1)
           + _shift(v, -1, -1)) / (4.0 * g.dx * g.dy)
    hess = float(np.sum(np.sum(hxx ** 2 + 2.0 * hxy ** 2 + hyy ** 2, axis=-1)
                        * g.w))
    assert rec.hess_diag == pytest.approx(hess, rel=1e-13)

    e = np.exp(-g.lam)[..., None]
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
    c = np.ascontiguousarray(
        sf.perturb(sf.constant_map(g, sphere), seed=11, amplitude=0.3).values)
    cm = _component_major(c)
    assert c.flags.c_contiguous and _is_component_major(cm)
    rc = sf.flow_rhs(c, g, sphere, fields)
    rcm = sf.flow_rhs(cm, g, sphere, fields)
    assert np.array_equal(rc, rcm)
    assert _is_component_major(rcm)          # the rhs keeps the layout of u
    assert _is_component_major(sphere.project(cm))
    ec = sf.energies(c, g, fields)
    ecm = sf.energies(cm, g, fields)
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
    c = np.ascontiguousarray(
        sf.perturb(sf.constant_map(grid, sphere), seed=12,
                   amplitude=0.3).values)
    assert c.flags.c_contiguous
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


def test_initial_maps_are_component_major_with_row_major_values(monkeypatch):
    # every builder fills an empty_map; built into row-major buffers instead,
    # each gives the same value at every node, bit for bit
    g = sf.build_grid(24, 20, Lx=5.0, Ly=3.0)
    s5 = sf.make_target("sphere", 5)
    builds = {
        "constant": lambda: sf.constant_map(g, s5, point=[1, 2, 3, 4, 5]),
        "geodesic_wrap": lambda: sf.geodesic_wrap(g, s5, m=2, n=1),
        "clifford": lambda: sf.clifford_map(g, s5, m=2, n=1),
        "bump": lambda: sf.bump_map(g, s5, scale=0.3),
        "random_smooth": lambda: sf.perturb(sf.constant_map(g, s5), seed=3),
        "noisy_wrap": lambda: sf.perturb(sf.geodesic_wrap(g, s5), seed=3,
                                          amplitude=0.1),
        "small_energy": lambda: sf.small_energy_map(g, s5, 0.01, seed=2,
                                                    max_mode=2),
    }
    built = {kind: b().values for kind, b in builds.items()}
    monkeypatch.setattr(initial_data, "empty_map", np.empty)
    for kind, b in builds.items():
        row_major = b().values
        assert _is_component_major(built[kind]), kind
        assert row_major.flags.c_contiguous, kind
        assert np.array_equal(built[kind], row_major), kind


def test_clifford_map_is_a_harmonic_torus_of_the_three_sphere():
    # (cos mx, sin mx, cos ny, sin ny) / sqrt 2 on the periods, zero above
    # the fourth component; at m = n = 1 on the square torus it is
    # harmonic, so its Euler-Lagrange residual is a truncation error
    g = sf.build_grid(24, 20, Lx=5.0, Ly=3.0)
    u = sf.clifford_map(g, sf.make_target("sphere", 5), m=2, n=1).values
    tx = 2 * 2 * np.pi / g.Lx * g.x[:, None]
    ty = 2 * np.pi / g.Ly * g.y[None, :]
    for c, ref in enumerate((np.cos(tx), np.sin(tx), np.cos(ty), np.sin(ty))):
        assert np.allclose(u[..., c], ref / np.sqrt(2), rtol=0, atol=1e-15)
    assert np.all(u[..., 4] == 0.0)
    with pytest.raises(GridError, match="q >= 4, got q = 3"):
        sf.clifford_map(g, sf.make_target("sphere", 3))
    g = sf.build_grid(32, 32)
    sphere = sf.make_target("sphere", 4)
    u = sf.clifford_map(g, sphere, m=1, n=1)
    u.check()
    _, _, linf = sf.el_residual(u.values, g, sphere, sf.zero_background(4))
    assert linf <= g.dx ** 2


def _per_plane_noise(grid, q, seed, max_mode):
    """Low-pass noise one component at a time: a draw and a transform each
    way per plane."""
    rng = np.random.default_rng(seed)
    kx = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx)
    ky = np.fft.rfftfreq(grid.ny, d=1.0 / grid.ny)
    mask = (np.abs(kx)[:, None] <= max_mode) & (np.abs(ky)[None, :] <= max_mode)
    out = sf.empty_map((grid.nx, grid.ny, q))
    for c in range(q):
        spec = np.fft.rfft2(rng.standard_normal((grid.nx, grid.ny))) * mask
        out[..., c] = np.fft.irfft2(spec, s=(grid.nx, grid.ny))
    return out / np.max(np.abs(out))


def _fresh_stencil_small_energy(grid, target, energy, seed, max_mode=2,
                                tol=1e-12):
    """small_energy_map's bisection on per-plane noise, each trial energy
    from dirichlet_energy, which loads a fresh stencil."""
    p = np.zeros(target.q)
    p[0] = 1.0
    noise = _per_plane_noise(grid, target.q, seed, max_mode)

    def e_of(a):
        return sf.dirichlet_energy(target.project(p + a * noise), grid)

    lo, hi = 0.0, 1e-3
    while e_of(hi) < energy:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if e_of(mid) < energy:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, hi):
            break
    return target.project(p + 0.5 * (lo + hi) * noise)


@pytest.mark.parametrize("n, q", [(48, 4), (64, 5), (128, 4)])
def test_initial_noise_and_bisection_match_the_per_plane_build(n, q):
    # one draw and one batched transform for the q planes, and one stencil
    # for every energy of the bisection, give the maps of the per-plane,
    # stencil-per-energy build bit for bit
    g = sf.build_grid(n, n, Lx=5.0)
    target = sf.make_target("sphere", q)
    for seed, max_mode in ((3, 2), (7, 4)):
        assert np.array_equal(initial_data._lowpass_noise(n, n, q, seed,
                                                          max_mode),
                              _per_plane_noise(g, q, seed, max_mode))
    assert np.array_equal(sf.small_energy_map(g, target, 0.05, seed=3,
                                              max_mode=2).values,
                          _fresh_stencil_small_energy(g, target, 0.05, 3))


@pytest.mark.parametrize("lam", [None, lambda x, y: 0.2 * np.sin(x) * np.cos(2 * y)],
                         ids=["flat", "conformal"])
def test_ledger_action_is_the_accepted_action_bitwise(sphere, lam, monkeypatch):
    # the step's acceptance test and the ledger evaluate the action with one
    # formula, so every row holds the S_current that the step accepted
    g = sf.build_grid(32, 32, lam=lam)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u0 = sf.perturb(sf.constant_map(g, sphere), seed=16, amplitude=0.3)
    accepted = {}
    step = action.step

    def step_and_keep(state):
        step(state)
        accepted[state.t] = state.S_current
        return state

    monkeypatch.setattr(action, "step", step_and_keep)
    st = sf.run(u0, g, sphere, fields, sf.FlowConfig(t_end=0.05,
                                                     record_every=3))
    rows = st.ledger.records
    assert len(rows) > 5 and rows[0].t == 0.0
    assert rows[0].S_tilde == st.S0
    for rec in rows[1:]:
        assert rec.S_tilde == accepted[rec.t], rec.t


def test_step_reuses_only_shifts_it_may_reuse(grid, sphere):
    # step forms the next rhs from the second differences (and, with a
    # two-form, the centred differences) the accepted trial loaded; a
    # ledger record reads what the rhs left and spends it.  Either way the
    # next step must match one that starts from a fresh stencil and a
    # fresh rhs, on a flat and on a conformal grid.
    from dataclasses import replace
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    for g in (grid, _conformal(grid)):
        u0 = sf.perturb(sf.constant_map(g, sphere), seed=13, amplitude=0.3)
        st = sf.init_state(u0, g, sphere, fields, sf.FlowConfig(t_end=1.0))
        for spend in (False, True):
            sf.step(st)
            if spend:
                _record(st)
            fresh = replace(st, work=Stencil(g, st.u.values),
                            rhs=sf.flow_rhs(st.u.values, g, sphere, fields))
            sf.step(st)
            sf.step(fresh)
            assert np.array_equal(st.u.values, fresh.u.values)
            assert np.array_equal(st.rhs, fresh.rhs)
            assert st.S_current == fresh.S_current


def test_el_residual_in_the_run_workspace_matches_a_fresh_one(grid, sphere):
    # the convergence probe reads the rhs that the run's stencil formed;
    # it must be el_residual's field from a fresh one.  The next step must
    # not write the carried array in place: a copy of the state shares it
    from dataclasses import replace
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u0 = sf.perturb(sf.constant_map(grid, sphere), seed=14, amplitude=0.3)
    st = sf.init_state(u0, grid, sphere, fields, sf.FlowConfig(t_end=1.0))
    for spend in (False, True):
        sf.step(st)
        if spend:
            _record(st)
        fresh, l2, _ = sf.el_residual(st.u.values, grid, sphere, fields)
        assert np.array_equal(st.rhs, fresh)
        assert sf.l2_norm(st.rhs, grid) == l2
        other = replace(st, work=Stencil(grid, st.u.values))
        sf.step(st)
        assert np.array_equal(other.rhs, fresh)
        sf.step(other)
        assert np.array_equal(st.u.values, other.u.values)
        assert st.S_current == other.S_current


def _counted_forces(monkeypatch):
    """A list to which each later call of action._bfield_force appends its
    arguments."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _bfield_force(*args)

    monkeypatch.setattr(action, "_bfield_force", counted)
    return calls


@pytest.mark.parametrize("lam", [None, lambda x, y: 0.2 * np.sin(x) * np.cos(y)],
                         ids=["flat", "conformal"])
@pytest.mark.parametrize("with_fields", [False, True],
                         ids=["zero_fields", "y4_height"])
def test_carried_rhs_is_the_rhs_of_the_map(sphere, lam, with_fields,
                                           monkeypatch):
    # after a plain step, a record, a halved step and a dt_min collapse the
    # carried rhs equals a fresh flow_rhs of the state's map, bit for bit,
    # and so does _loaded_rhs of a stencil built from that map, which forms
    # the fields' force exactly when a field acts
    g = sf.build_grid(24, 24, lam=lam)
    fields = sf.zero_background(4)
    if with_fields:
        fields = sf.FieldBackground(
            b=sf.make_two_form("y4", 4, beta=0.2),
            V=sf.make_potential("height", 4, epsilon=0.1))
    u0 = sf.perturb(sf.constant_map(g, sphere), seed=15, amplitude=0.3)
    cfg = sf.FlowConfig(t_end=1.0)
    st = sf.init_state(u0, g, sphere, fields, cfg)
    forces = _counted_forces(monkeypatch)

    def check():
        rhs = sf.flow_rhs(st.u.values, g, sphere, fields)
        assert np.array_equal(st.rhs, rhs)
        forces.clear()
        loaded = _loaded_rhs(Stencil(g, st.u.values), sphere, fields)
        assert len(forces) == with_fields
        assert np.array_equal(loaded, rhs)

    check()
    sf.step(st)
    check()
    _record(st)
    check()
    # far above the CFL bound the action rises, so the step halves dt
    dt0 = st.dt = 64 * sf.cfl_bound(g, cfg.cfl)
    sf.step(st)
    assert st.dt < dt0 and not st.events
    check()
    # no trial can lower the action by this margin, so dt collapses
    monkeypatch.setattr(action, "TOL_UP", -1e3)
    sf.step(st)
    assert st.dt == cfg.dt_min and len(st.events) == 1
    check()


def _fresh_record(st):
    """The ledger row of st from freshly loaded stencils: energies, the
    ball map of Stencil.energy_density and hessian_sq_density."""
    g, v = st.grid, st.u.values
    e = sf.energies(v, g, st.fields)
    loc = sf.ball_sum_map(Stencil(g, v).energy_density(), g,
                          st.config.ball_radius)
    return action.EnergyRecord(
        t=st.t, E=e.E, dirichlet=0.5 * e.E, B_term=e.B_term,
        V_term=e.V_term, S_tilde=e.S_tilde, kinetic=st.last_kinetic,
        cum_dissipation=st.cum_dissipation,
        hess_diag=float(np.sum(sf.hessian_sq_density(v, g) * g.w)),
        sup_local_energy=float(np.max(loc)), dt=st.dt)


@pytest.mark.parametrize("lam, n", [
    pytest.param(lam, n, id=name + ("-96" if n == 96 else ""))
    for n in (24, 96)
    for name, lam in (("flat", None),
                      ("conformal", lambda x, y: 0.2 * np.sin(x) * np.cos(y)))])
@pytest.mark.parametrize("with_fields", [False, True],
                         ids=["zero_fields", "y4_height"])
def test_record_matches_a_record_from_a_fresh_load(sphere, lam, n,
                                                   with_fields, monkeypatch):
    # a record reads the terms and the two stacks of the load of the
    # step's accepted trial; after init_state, a plain step, a halved step
    # and a dt_min collapse every column equals the one from a fresh load
    # bit for bit, on a small and a large map (the large cases' ids end in
    # "-96").  Each trial loads its candidate once, and neither the rhs nor
    # the record loads
    loads, stencils, trials = [], [], []
    load, trial = Stencil.load, action._trial

    def counted_load(self, f):
        loads.append(f)
        stencils.append(self)
        return load(self, f)

    def counted_trial(state, rhs, dt):
        new_vals, terms = trial(state, rhs, dt)
        trials.append(new_vals)
        return new_vals, terms

    monkeypatch.setattr(Stencil, "load", counted_load)
    monkeypatch.setattr(action, "_trial", counted_trial)
    g = sf.build_grid(n, n, lam=lam)
    fields = sf.zero_background(4)
    if with_fields:
        fields = sf.FieldBackground(
            b=sf.make_two_form("y4", 4, beta=0.2),
            V=sf.make_potential("height", 4, epsilon=0.1))
    u0 = sf.perturb(sf.constant_map(g, sphere), seed=17, amplitude=0.3)
    cfg = sf.FlowConfig(t_end=1.0)
    st = sf.init_state(u0, g, sphere, fields, cfg)
    # energies and flow_rhs load u0 into stencils of their own, and
    # init_state loads it into the run's stencil once, for the record
    assert all(f is st.u.values for f in loads)
    assert [s for s in stencils if s is st.work] == [st.work]

    def step_and_record():
        loads.clear()
        trials.clear()
        sf.step(st)
        _record(st)
        assert len(loads) == len(trials)
        assert all(f is t for f, t in zip(loads, trials))
        return len(trials)

    def check():
        rec, ref = st.ledger.records[-1], _fresh_record(st)
        assert rec.t == st.t
        for c in sf.LEDGER_COLUMNS:
            assert getattr(rec, c) == getattr(ref, c), c

    check()
    assert step_and_record() == 1
    check()
    # far above the CFL bound the action rises, so the step halves dt (the
    # bound scales as dx^2, so this is the same dt on either grid)
    dt0 = st.dt = 64 * (n / 24) ** 2 * sf.cfl_bound(g, cfg.cfl)
    assert step_and_record() > 1
    assert st.dt < dt0 and not st.events
    check()
    # no trial can lower the action by this margin, so dt collapses
    monkeypatch.setattr(action, "TOL_UP", -1e3)
    assert step_and_record() > 1
    assert st.dt == cfg.dt_min and len(st.events) == 1
    check()


def test_record_of_another_map_in_the_workspace_raises(grid, sphere):
    # the record reads the run's stencil, so it refuses one that last
    # loaded a map other than the state's
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u0 = sf.perturb(sf.constant_map(grid, sphere), seed=18, amplitude=0.3)
    other = sf.perturb(sf.constant_map(grid, sphere), seed=19, amplitude=0.3)
    st = sf.init_state(u0, grid, sphere, fields, sf.FlowConfig(t_end=1.0))
    sf.step(st)
    st.work.load(other.values)
    with pytest.raises(GridError, match="another map"):
        _record(st)
    # an equal copy of the map is another map
    sf.step(st)
    st.u = sf.MapField(st.u.values.copy(), sphere)
    with pytest.raises(GridError, match="another map"):
        _record(st)
    assert len(st.ledger) == 1


def _stencil_buffers(st):
    """Every array a stencil owns, not the map that it last loaded."""
    return [a for a in vars(st).values() if isinstance(a, np.ndarray)
            and not np.may_share_memory(a, st.source)]


def test_snapshot_ring_keeps_the_run_maps_by_reference(grid, sphere):
    # a run never writes a map it holds, so the ring holds the maps
    # themselves, and a later step leaves every earlier entry as it was.
    # Each step builds its map in memory of its own, shared with no ring
    # entry and no stencil buffer: plain steps at 32^2, then a step whose
    # first trial is rejected, and steps at 96^2 with a two-form
    y4_height = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                   V=sf.make_potential("height", 4,
                                                       epsilon=0.1))
    for g, fields, steps in ((grid, sf.zero_background(4), 4),
                             (sf.build_grid(96, 96), y4_height, 3)):
        u0 = sf.perturb(sf.constant_map(g, sphere), seed=16, amplitude=0.3)
        st = sf.init_state(u0, g, sphere, fields, sf.FlowConfig(t_end=1.0))
        assert st.snapshots[-1][1] is st.u.values
        kept = [(t, v.copy()) for t, v in st.snapshots]
        for k in range(steps):
            if k == 3:
                # far above the CFL bound the action rises, so the step
                # rejects its first trial and halves dt
                dt0 = st.dt = 64 * sf.cfl_bound(g, st.config.cfl)
            prev = st.u.values
            sf.step(st)
            if k == 3:
                assert st.dt < dt0 and not st.events
            new = st.u.values
            assert new is not prev
            for (t, v), (t_kept, v_kept) in zip(st.snapshots, kept):
                assert t == t_kept and np.array_equal(v, v_kept)
                assert not np.may_share_memory(new, v)
            assert np.array_equal(prev, kept[-1][1])
            assert not any(np.may_share_memory(new, a)
                           for a in _stencil_buffers(st.work))
            _snapshot(st)
            assert st.snapshots[-1][1] is new
            kept = [(t, v.copy()) for t, v in st.snapshots]
        assert len(st.snapshots) == steps + 1


def _rings(shape, records):
    """The snapshot ring after each of `records` snapshots of fresh maps of
    `shape` at t = 0, 1, 2, ..., taken as a run takes them."""
    st = types.SimpleNamespace(t=0.0, u=None, snapshots=[])
    for k in range(records):
        st.t = float(k)
        st.u = types.SimpleNamespace(values=np.zeros(shape))
        _snapshot(st)
        yield st.snapshots


def _ring_ok(ring, newest_t):
    """t = 0 and the newest map are kept, and the times strictly increase."""
    times = [t for t, _ in ring]
    return times[0] == 0.0 and times[-1] == newest_t and all(
        a < b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("n, cap", [(64, 16), (128, 4), (48, 28), (45, 32)])
def test_snapshot_ring_stays_within_its_byte_budget(n, cap):
    # the ring keeps the newest cap = budget // (2 map bytes) maps and
    # halves the older ones past 2 cap, so it never holds more than the
    # budget; at q = 4 the caps are those of the action module's docstring
    map_bytes = n * n * 4 * 8
    assert max(1, action.SNAPSHOT_BYTES // (2 * map_bytes)) == cap
    lengths = []
    for k, ring in enumerate(_rings((n, n, 4), 6 * cap + 5)):
        assert _ring_ok(ring, float(k))
        assert sum(v.nbytes for _, v in ring) <= action.SNAPSHOT_BYTES
        lengths.append(len(ring))
    assert max(lengths) == 2 * cap
    # the newest cap entries are at full density
    assert [t for t, _ in ring[-cap:]] == [float(6 * cap + 4 - j)
                                          for j in range(cap - 1, -1, -1)]


def test_small_maps_fill_the_byte_budget_with_more_entries():
    # at 32^2 a map is 32 KiB: the ring holds up to 128 of them, 4 MiB
    counts = []
    for k, ring in enumerate(_rings((32, 32, 4), 300)):
        assert _ring_ok(ring, float(k))
        assert sum(v.nbytes for _, v in ring) <= action.SNAPSHOT_BYTES
        counts.append(len(ring))
    assert max(counts) == 128 and counts[-1] > 64


def test_a_map_over_half_the_budget_leaves_the_first_and_newest():
    # the two-map floor: one pair of maps is larger than the budget
    shape = (300, 300, 4)
    assert 2 * np.zeros(shape).nbytes > action.SNAPSHOT_BYTES
    for k, ring in enumerate(_rings(shape, 7)):
        assert [t for t, _ in ring] == ([0.0, float(k)] if k else [0.0])


def test_a_bounded_ring_covers_every_rescale_window(sphere):
    # a 64^2 run keeps its newest 16 maps at full density, halves the
    # older ones and keeps t = 0, so every window [t0 - r^2, t0] with
    # r >= 2 dx and r^2 <= t0 is covered
    g = sf.build_grid(64, 64)
    cfg = sf.FlowConfig(t_end=0.2, record_every=8, ball_radius=0.4)
    st = sf.run(sf.bump_map(g, sphere, scale=0.3), g, sphere,
                sf.zero_background(4), cfg)
    ring = st.snapshots
    assert len(st.ledger) > 2 * 16 and len(ring) <= 2 * 16
    assert _ring_ok(ring, st.t)
    assert sum(v.nbytes for _, v in ring) <= action.SNAPSHOT_BYTES
    t0 = st.t
    radii = [k * g.dx for k in range(2, g.nx // 2) if (k * g.dx) ** 2 <= t0]
    assert len(radii) == 3
    for r in radii:
        seq = sf.parabolic_rescale(ring, ((20, 40), t0), r, g,
                                   sf.rescale_out_grid(g, r))["sequence"]
        assert len(seq) >= 2 and seq[-1][0] == 0.0
        assert np.array_equal(seq[-1][1], np.roll(
            st.u.values, (32 - 20, 32 - 40), axis=(0, 1)))


@pytest.mark.parametrize("preset", ["rescale_probe", "concentration"])
def test_a_bubble_on_the_two_sphere_is_the_three_sphere_run_bitwise(preset):
    # the bump has u^4 = +0.0, which the flow on S^3 keeps, so S^2 gives
    # its ledger and maps bit for bit.  The rings need not match in length,
    # since SNAPSHOT_BYTES sets a ring's cap from the map's bytes
    runs = {}
    for q in (3, 4):
        cfg = sf.preset_config(preset)
        cfg["target"]["q"] = q
        grid, target, fields, u0, fc = sf.build_objects(cfg)
        runs[q] = sf.run(u0, grid, target, fields, fc)
    s2, s3 = runs[3], runs[4]
    assert s2.ledger.as_array().tobytes() == s3.ledger.as_array().tobytes()

    def same_map(v2, v3):
        return (v2.tobytes() == v3[..., :3].tobytes()
                and v3[..., 3].tobytes() == bytes(v3[..., 3].nbytes))
    assert same_map(s2.u.values, s3.u.values)
    ring = dict(s2.snapshots)
    shared = [(t, v) for t, v in s3.snapshots if t in ring]
    assert shared[0][0] == 0.0 and shared[-1][0] == s3.t
    assert all(same_map(ring[t], v) for t, v in shared)


@pytest.mark.parametrize("n", [24, 96], ids=["24", "96"])
@pytest.mark.parametrize("with_fields", [False, True],
                         ids=["zero_fields", "y4_height"])
def test_steps_after_run_match_steps_in_the_run_workspace(sphere, n,
                                                          with_fields,
                                                          monkeypatch):
    # run() returns without its stencil; a step from the returned state
    # builds a fresh one and gives the map, rhs and ledger rows that the
    # run's own stencil would have given, bit for bit
    from dataclasses import replace
    kept = {}
    init_state = action.init_state

    def keep_work(*args):
        st = init_state(*args)
        kept["work"] = st.work
        return st

    monkeypatch.setattr(action, "init_state", keep_work)
    g = sf.build_grid(n, n)
    fields = sf.zero_background(4)
    if with_fields:
        fields = sf.FieldBackground(
            b=sf.make_two_form("y4", 4, beta=0.2),
            V=sf.make_potential("height", 4, epsilon=0.1))
    u0 = sf.perturb(sf.constant_map(g, sphere), seed=21, amplitude=0.3)
    st = sf.run(u0, g, sphere, fields,
                sf.FlowConfig(t_end=5e-3, record_every=3))
    assert st.work is None and kept["work"] is not None
    ref = replace(st, work=kept["work"],
                  ledger=sf.EnergyLedger(list(st.ledger.records)))
    for _ in range(3):
        sf.step(st)
        sf.step(ref)
        _record(st)
        _record(ref)
        assert np.array_equal(st.u.values, ref.u.values)
        assert np.array_equal(st.rhs, ref.rhs)
        assert (st.t, st.dt, st.S_current) == (ref.t, ref.dt, ref.S_current)
    assert st.work is not kept["work"]
    assert np.array_equal(st.ledger.as_array(), ref.ledger.as_array())


def _conformal(grid):
    return sf.build_grid(grid.nx, grid.ny,
                         lam=lambda x, y: 0.2 * np.sin(x) * np.cos(y))


def _two_projection_rhs(u, g, target, fields):
    """e^{-2 lam} (lap u - II - P g) - P a, each force projected on its
    own, in flow_rhs's order of operations.  P g is the two-form's force
    on the flat grid of g's size and periods, which _bfield_force does not
    scale by e^{-2 lam}."""
    b_only = sf.FieldBackground(fields.b, sf.zero_potential(4))
    st = Stencil(sf.build_grid(g.nx, g.ny, g.Lx, g.Ly), u)
    ux, uy = st.centred()
    rhs = st.laplacian(np.empty_like(u))
    rhs -= target.sff_trace(u, ux, uy)
    if not fields.b.is_zero:
        rhs -= _bfield_force(st, target, b_only)
    if not g.is_flat:
        rhs *= g.em2l[..., None]
    if not fields.V.is_zero:
        rhs -= target.tangent_project(u, fields.V.grad(u))
    return rhs


@pytest.mark.parametrize("kinds", ["both", "two-form", "potential"])
def test_flow_rhs_projects_both_ambient_forces_at_once(grid, sphere, kinds,
                                                      monkeypatch):
    # with a two-form, P(e^{-2 lam} g + a) in one projection equals the
    # two-projection formula up to rounding; on a flat grid a two-form
    # alone has no factor to move, and for a potential alone g is exactly
    # a, whose projection has the bits of the formula's P a
    # (grid.component_dot), so those match bit for bit
    b = sf.make_two_form("y4", 4, beta=0.2 if kinds != "potential" else 0.0)
    V = sf.make_potential("height", 4,
                          epsilon=0.1 if kinds != "two-form" else 0.0)
    fields = sf.FieldBackground(b=b, V=V)
    forces = _counted_forces(monkeypatch)
    for g in (grid, _conformal(grid)):
        for seed in (16, 17):
            u = sf.perturb(sf.constant_map(g, sphere), seed=seed,
                           amplitude=0.3)
            forces.clear()
            rhs = sf.flow_rhs(u.values, g, sphere, fields)
            # one field acting is enough for the force sum
            assert len(forces) == 1
            ref = _two_projection_rhs(u.values, g, sphere, fields)
            if kinds == "potential" or (kinds == "two-form" and g.is_flat):
                assert np.array_equal(rhs, ref)
            else:
                err = np.max(np.abs(rhs - ref))
                assert err <= 1e-14 * np.max(np.abs(ref))
