"""End-to-end acceptance checks, one per numbered criterion (A1-A12).

Each test prints a single PASS/FAIL line with the measured quantity so the
whole battery reads as a checklist under `pytest -v -s`.
"""

import numpy as np
import pytest

import stringflow as sf
from stringflow.cli import compare_runs
from stringflow.config import build_objects, preset_config
from stringflow.targets import tangent_project


def report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


@pytest.fixture(scope="module")
def sphere():
    return sf.make_target("sphere", 4)


@pytest.fixture(scope="module")
def s2():
    """S^2, where every two-form is closed (Omega = 0), so its B term does
    not act; the tests on it run with the two-form off."""
    return sf.make_target("sphere", 3)


def _full_and_half(cfg):
    """The run of cfg at full and half the CFL time step, dt fixed."""
    grid, target, fields, u0, _ = build_objects(cfg)
    out = {}
    for label, scale in (("full", 1.0), ("half", 0.5)):
        # dt starts at the CFL bound and never grows past it
        fc = sf.FlowConfig(t_end=1.0, cfl=0.2 * scale, record_every=20)
        out[label] = sf.run(u0, grid, target, fields, fc)
    out["grid"], out["target"], out["fields"] = grid, target, fields
    return out


@pytest.fixture(scope="module")
def bfield_run():
    """The two-form + potential scenario run at full and half time step."""
    return _full_and_half(preset_config("bfield_s3"))


@pytest.fixture(scope="module")
def clifford_run():
    """bfield_s3's fields from the Clifford torus, on which the two-form
    acts (bfield_clifford at 32^2), at full and half time step."""
    cfg = preset_config("bfield_clifford")
    cfg["grid"].update(nx=32, ny=32)
    return _full_and_half(cfg)


@pytest.fixture(scope="module")
def s2_run():
    """bfield_s3's potential and noisy wrap on S^2 at 32^2, two-form off,
    at full and half time step."""
    cfg = preset_config("bfield_s3")
    cfg["grid"].update(nx=32, ny=32)
    cfg["target"]["q"] = 3
    cfg["fields"].update(b_kind="zero", beta=0.0)
    return _full_and_half(cfg)


def test_A1_dissipation_identity(bfield_run):
    defects = {}
    for label in ("full", "half"):
        st = bfield_run[label]
        defects[label] = abs(st.S_current + st.cum_dissipation - st.S0)
    S0 = bfield_run["full"].S0
    ratio = defects["half"] / defects["full"]
    ok = defects["full"] <= 1e-3 * abs(S0) and 0.35 <= ratio <= 0.65
    report("A1 dissipation identity", ok,
           f"defect={defects['full']:.3e} <= {1e-3 * abs(S0):.3e}, "
           f"half-dt ratio={ratio:.3f}")


def test_A2_monotone_decrease_and_energy_bound(bfield_run):
    st = bfield_run["full"]
    norms = sf.sup_norms(bfield_run["fields"].b, bfield_run["fields"].V,
                         bfield_run["target"])
    delta2, _ = sf.delta_constants(norms.B_inf)
    mono = sf.monotonicity_check(st.ledger, delta2, st.S0)
    ok = mono["monotone_ok"] and mono["energy_bound_ok"]
    report("A2 monotonicity + delta2 bound", ok,
           f"|B|={norms.B_inf:.4f}, delta2={delta2:.3f}, "
           f"max E excess={mono['max_energy_excess']:.3e}")


def test_A1_dissipation_identity_clifford(clifford_run):
    # A1's gate and window on data whose wedge force moves the map: with
    # the sign of that force flipped, the half-dt ratio reads about 1.0
    test_A1_dissipation_identity(clifford_run)


def test_A2_monotone_decrease_and_energy_bound_clifford(clifford_run):
    test_A2_monotone_decrease_and_energy_bound(clifford_run)


def test_A1_dissipation_identity_s2(s2_run):
    test_A1_dissipation_identity(s2_run)


def test_A3_gradient_consistency(sphere, b_kind="y4"):
    grid = sf.build_grid(64, 64)
    q = sphere.q
    b = sf.make_two_form(b_kind, q, beta=0.2 if b_kind == "y4" else 0.0)
    fields = sf.FieldBackground(b=b,
                                V=sf.make_potential("height", q, epsilon=0.1))
    worst = 0.0
    for seed in (0, 1, 2):
        u = sf.perturb(sf.constant_map(grid, sphere), seed=seed, amplitude=0.3)
        v = np.random.default_rng(100 + seed).standard_normal(u.values.shape)
        out = sf.gradient_consistency_check(u.values, v, grid, sphere, fields)
        worst = max(worst, out["min_rel_err"])
    report("A3 gradient consistency", worst <= 1e-3,
           f"worst min-over-eps rel err={worst:.3e}")


def test_A3_gradient_consistency_s2(s2):
    test_A3_gradient_consistency(s2, "zero")


def test_A4_stationary_geodesic_wrap(sphere):
    grid = sf.build_grid(64, 64)
    u0 = sf.geodesic_wrap(grid, sphere, m=1, n=0)
    fields = sf.zero_background(4)
    state = sf.init_state(u0, grid, sphere, fields, sf.FlowConfig(t_end=1e9))
    for _ in range(1000):
        sf.step(state)
    drift = float(np.max(np.abs(state.u.values - u0.values)))
    _, _, linf = sf.el_residual(u0.values, grid, sphere, fields)
    ok = drift <= 1e-6 and linf <= 5 * grid.dx ** 2
    report("A4 stationary wrap", ok,
           f"drift={drift:.3e} <= 1e-6, EL Linf={linf:.3e} <= "
           f"{5 * grid.dx ** 2:.3e}")


def test_A5_small_energy_triviality(sphere, b_kind="y4", n=64):
    grid = sf.build_grid(n, n)
    b = sf.make_two_form(b_kind, sphere.q,
                         beta=0.1 if b_kind == "y4" else 0.0)
    fields = sf.FieldBackground(b=b, V=sf.zero_potential(sphere.q))
    u0 = sf.small_energy_map(grid, sphere, energy=0.01, seed=4, max_mode=2)
    e0 = sf.dirichlet_energy(u0.values, grid)
    st = sf.run(u0, grid, sphere, fields, sf.FlowConfig(t_end=5.0,
                                                        record_every=500))
    e_end = sf.dirichlet_energy(st.u.values, grid)
    gap = sf.gap_check(st.u.values, grid, sphere, fields, 1e-3)
    ok = abs(e0 - 0.01) < 1e-9 and e_end <= 1e-6 and gap["expect_constant"]
    report("A5 small-data triviality", ok,
           f"E(0)={e0:.4f}, E(5)={e_end:.3e} <= 1e-6")


def test_A5_small_energy_triviality_s2(s2):
    # at 32^2, which takes 0.3 s against 2.1 s at 64^2; E(5) reads 2.6e-8
    # there and 2.2e-8 at 64^2
    test_A5_small_energy_triviality(s2, "zero", 32)


def test_A6_antisymmetric_structure(sphere):
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.3),
                                V=sf.zero_potential(4))
    grid = sf.build_grid(64, 64)
    skew = max(sf.assemble_A(
        sf.perturb(sf.constant_map(grid, sphere), seed=s,
                   amplitude=0.4).values,
        grid, sphere, fields).skew_defect() for s in range(10))
    res = []
    for n in (32, 64, 128):
        g = sf.build_grid(n, n)
        u = sf.geodesic_wrap(g, sphere, m=1, n=1)
        A = sf.assemble_A(u.values, g, sphere, sf.zero_background(4))
        res.append(sf.rewrite_residual(u.values, A, g, sphere,
                                       sf.zero_background(4)))
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    g32 = sf.build_grid(32, 32)
    u32 = sf.geodesic_wrap(g32, sphere, m=1, n=1)
    A32 = sf.assemble_A(u32.values, g32, sphere, sf.zero_background(4))
    no_F = sf.AntisymmetricPotential(F=np.zeros_like(A32.F), G=A32.G)
    ablated = sf.rewrite_residual(u32.values, no_F, g32, sphere,
                                  sf.zero_background(4))
    ok = skew <= 1e-12 and min(orders) >= 1.8 and ablated > 10 * res[0]
    report("A6 antisymmetric structure", ok,
           f"skew={skew:.2e}, orders={[f'{o:.2f}' for o in orders]}, "
           f"ablated residual={ablated:.2f} vs {res[0]:.3f}")


def test_A7_z_operator_algebra(sphere):
    beta = 0.4
    b = sf.make_two_form("y4", 4, beta=beta)
    rng = np.random.default_rng(7)
    u = sphere.project(rng.standard_normal((100, 4)))
    xi1 = tangent_project(sphere, u, rng.standard_normal((100, 4)))
    xi2 = tangent_project(sphere, u, rng.standard_normal((100, 4)))
    eta = tangent_project(sphere, u, rng.standard_normal((100, 4)))
    z = sf.z_operator(u, xi1, xi2, b, sphere)
    pairing = np.einsum("...kij,...k,...i,...j->...", b.Omega, eta, xi1, xi2)
    d_pair = float(np.max(np.abs(np.sum(z * eta, axis=-1) - pairing)))
    d_skew = float(np.max(np.abs(z + sf.z_operator(u, xi2, xi1, b, sphere))))
    d_ann = float(np.max(np.abs(sf.z_operator(u, xi1, xi1, b, sphere))))

    def wedge(i, j):
        return xi1[:, i] * xi2[:, j] - xi1[:, j] * xi2[:, i]
    w = np.zeros_like(u)
    w[:, 3] = beta * wedge(0, 1)
    w[:, 0] = beta * wedge(1, 3)
    w[:, 1] = beta * wedge(3, 0)
    d_closed = float(np.max(np.abs(z - tangent_project(sphere, u, w))))
    ok = max(d_pair, d_skew, d_ann) <= 1e-9 and d_closed <= 1e-12
    report("A7 Z-operator algebra", ok,
           f"pairing={d_pair:.1e}, skew={d_skew:.1e}, annihilation={d_ann:.1e}, "
           f"closed form={d_closed:.1e}")


def test_A8_conformal_rescaling(sphere):
    grid = sf.build_grid(64, 64)
    grid4 = sf.conformal_rescale(grid, 4.0)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u = sf.perturb(sf.constant_map(grid, sphere), seed=8, amplitude=0.3)
    t1 = sf.energies(u.values, grid, fields)
    t4 = sf.energies(u.values, grid4, fields)
    bitwise = t1.E == t4.E and t1.B_term == t4.B_term
    v_defect = abs(t4.V_term - 4.0 * t1.V_term) / abs(t1.V_term)
    ok = bitwise and v_defect <= 1e-12
    report("A8 conformal rescaling", ok,
           f"E,B bitwise={bitwise}, V volume-scaling defect={v_defect:.2e}")


def test_A9_ricci_identity():
    cases = [
        lambda x, y: 0.2 * np.sin(x) * np.sin(y),
        lambda x, y: 0.1 * np.cos(x) * np.sin(y) + 0.05 * np.sin(x),
        lambda x, y: 0.05 * np.sin(2 * x) * np.cos(y),
    ]
    worst_fine, worst_order = 0.0, np.inf
    for fn in cases:
        ds = []
        for n in (32, 64, 128):
            g = sf.build_grid(n, n)
            v = fn(g.x[:, None], g.y[None, :]) + 0.0 * g.y[None, :]
            lap2, hess2 = sf.ricci_identity_check(v, g)
            ds.append(abs(lap2 - hess2))
        worst_fine = max(worst_fine, ds[-1])
        worst_order = min(worst_order,
                          min(np.log2(ds[i] / ds[i + 1]) for i in range(2)))
    ok = worst_fine <= 1e-3 and worst_order >= 1.8
    report("A9 Ricci identity", ok,
           f"worst 128^2 defect={worst_fine:.3e} <= 1e-3, "
           f"worst order={worst_order:.2f}")


def test_A10_concentration_and_k_bound(sphere):
    grid = sf.build_grid(64, 64)
    u = sf.bump_map(grid, sphere, scale=6 * grid.dx)
    assert float(np.max(np.abs(u.values[..., 3]))) == 0.0  # equatorial S^2
    S0 = sf.energies(u.values, grid, sf.zero_background(4)).S_tilde
    hits = sf.concentration_scan(u.values, grid, 0.5, 0.5)
    kb = sf.k_bound(S0, 0.5, 2.0)
    ok = len(hits) >= 1 and len(hits) <= kb
    report("A10 concentration + K bound", ok,
           f"clusters={len(hits)} in [1, {kb}], peak energy={hits[0][1]:.2f}")


def test_A11_parabolic_rescale_invariance(sphere):
    grid = sf.build_grid(64, 64)
    u0 = sf.bump_map(grid, sphere, scale=0.3)
    cfg = sf.FlowConfig(t_end=2.6, record_every=20, ball_radius=0.4)
    st = sf.run(u0, grid, sphere, sf.zero_background(sphere.q), cfg)
    dens = sf.grad_sq_density(st.u.values, grid) * grid.w
    ix, iy = np.unravel_index(int(np.argmax(dens)), dens.shape)
    Eu = sf.dirichlet_energy(st.u.values, grid)
    rels = []
    for k in (4, 8, 16):
        r = k * grid.dx
        og = sf.rescale_out_grid(grid, r)
        res = sf.parabolic_rescale(st.snapshots, ((ix, iy), st.t), r, grid, og)
        Ev = sf.dirichlet_energy(res["sequence"][-1][1], og)
        rels.append(abs(Ev - Eu) / max(Eu, 1e-300))
    ok = max(rels) <= 0.01
    report("A11 parabolic rescale", ok,
           f"energy rel diffs={[f'{r:.2e}' for r in rels]} <= 1e-2")


def test_A11_parabolic_rescale_invariance_s2(s2):
    test_A11_parabolic_rescale_invariance(s2)


def test_A12_determinism_and_separation(sphere, tmp_path):
    grid = sf.build_grid(32, 32)
    fields = sf.zero_background(4)
    cfg = dict(t_end=1.0, record_every=20)
    u0 = sf.perturb(sf.constant_map(grid, sphere), seed=12, amplitude=0.3)
    pert = sf.perturb(u0, seed=99, amplitude=1e-6, max_mode=3)
    dirs = {}
    for name, start in (("a", u0), ("b", u0), ("c", pert)):
        st = sf.run(start, grid, sphere, fields, sf.FlowConfig(**cfg))
        d = tmp_path / name
        sf.write_run_outputs(st, str(d))
        dirs[name] = str(d)
    same = compare_runs(dirs["a"], dirs["b"])
    diff = compare_runs(dirs["a"], dirs["c"])
    sep = diff["max_abs_diff"]
    gamma = diff["separation_rate"]
    ok = (same["bitwise_identical"] and sep <= 1e-2
          and gamma is not None and np.isfinite(gamma))
    report("A12 determinism + separation", ok,
           f"bitwise={same['bitwise_identical']}, perturbed sep={sep:.2e} "
           f"<= 1e-2, fitted rate={gamma if gamma is None else f'{gamma:.3g}'}")
