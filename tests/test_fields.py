import itertools
import re

import numpy as np
import pytest

import stringflow as sf
from stringflow.action import Workspace, _bfield_force
from stringflow.errors import GridError, HypothesisError
from stringflow.fields import height_potential, y4_two_form
from stringflow.grid import Stencil
from stringflow.targets import tangent_project


@pytest.fixture
def sphere():
    return sf.make_target("sphere", 4)


def tangent_pair(sphere, n=100, seed=0):
    rng = np.random.default_rng(seed)
    u = sphere.project(rng.standard_normal((n, 4)))
    xi1 = tangent_project(sphere, u, rng.standard_normal((n, 4)))
    xi2 = tangent_project(sphere, u, rng.standard_normal((n, 4)))
    eta = tangent_project(sphere, u, rng.standard_normal((n, 4)))
    return u, xi1, xi2, eta


@pytest.mark.parametrize("build, name", [
    (lambda g, s: sf.small_energy_map(g, s, energy=np.nan), "energy"),
    (lambda g, s: sf.small_energy_map(g, s, energy=0.01, max_mode=-1),
     "max_mode"),
    (lambda g, s: sf.bump_map(g, s, scale=np.nan), "scale"),
    # (X / scale)^2 overflowed into a non-finite map; at 2.7e-154 only the
    # corner node, half the period diagonal away, overflowed
    (lambda g, s: sf.bump_map(g, s, scale=1e-155), "scale"),
    (lambda g, s: sf.bump_map(g, s, scale=-1e-300), "scale"),
    (lambda g, s: sf.bump_map(g, s, scale=2.7e-154), "scale"),
    (lambda g, s: sf.bump_map(g, s, center=(np.nan, 1.0)), "center"),
    (lambda g, s: sf.bump_map(g, s, center=(1.0, np.inf)), "center"),
    (lambda g, s: sf.perturb(sf.constant_map(g, s), amplitude=np.inf),
     "amplitude"),
    (lambda g, s: sf.perturb(sf.constant_map(g, s), max_mode=-1), "max_mode"),
    (lambda g, s: sf.perturb(sf.geodesic_wrap(g, s), amplitude=np.nan),
     "amplitude"),
    (lambda g, s: height_potential(np.nan), "epsilon"),
    (lambda g, s: y4_two_form(np.inf), "beta"),
    (lambda g, s: y4_two_form(np.nan), "beta"),
], ids=["energy-nan", "energy-max_mode", "bump-scale", "bump-scale-1e-155",
        "bump-scale-neg-1e-300", "bump-scale-corner", "bump-center-nan",
        "bump-center-inf", "random-amplitude", "random-max_mode",
        "wrap-amplitude", "height-epsilon", "y4-beta-inf", "y4-beta-nan"])
def test_builders_refuse_numbers_they_cannot_use(sphere, build, name):
    # each gave a map, a two-form or a potential, or for a NaN beta a
    # "must be skew" error; now a GridError names the argument
    with pytest.raises(GridError, match=f"^{name} must be"):
        build(sf.build_grid(16, 16), sphere)


def test_omega_fully_antisymmetric():
    om = sf.make_two_form("y4", 4, beta=0.3).Omega
    assert np.max(np.abs(om + np.swapaxes(om, -1, -2))) < 1e-14
    assert np.max(np.abs(om + np.swapaxes(om, -2, -3))) < 1e-14


def test_dcoeff_fd_oracle_matches_analytic():
    b = sf.make_two_form("y4", 4, beta=0.3)
    rng = np.random.default_rng(2)
    y = rng.standard_normal((20, 4))
    assert np.max(np.abs(b.C - b.dcoeff_fd(y))) < 1e-8


def test_z_operator_pairing_and_annihilation(sphere):
    b = sf.make_two_form("y4", 4, beta=0.25)
    u, xi1, xi2, eta = tangent_pair(sphere)
    z = sf.z_operator(u, xi1, xi2, b, sphere)
    om = b.Omega
    pairing = np.einsum("...kij,...k,...i,...j->...", om, eta, xi1, xi2)
    assert np.max(np.abs(np.sum(z * eta, axis=-1) - pairing)) < 1e-12
    z_swap = sf.z_operator(u, xi2, xi1, b, sphere)
    assert np.max(np.abs(z + z_swap)) < 1e-13
    assert np.max(np.abs(sf.z_operator(u, xi1, xi1, b, sphere))) < 1e-13


def test_z_operator_closed_form(sphere):
    beta = 0.4
    b = sf.make_two_form("y4", 4, beta=beta)
    u, xi1, xi2, _ = tangent_pair(sphere, seed=3)
    # Omega = beta (dy4 ^ dy1 ^ dy2 antisymmetrized); w_k = Omega_kij xi1^i xi2^j
    def wedge(i, j):
        return xi1[:, i] * xi2[:, j] - xi1[:, j] * xi2[:, i]
    w = np.zeros_like(u)
    w[:, 3] = beta * wedge(0, 1)
    w[:, 0] = beta * wedge(1, 3)
    w[:, 1] = beta * wedge(3, 0)
    expected = tangent_project(sphere, u, w)
    z = sf.z_operator(u, xi1, xi2, b, sphere)
    assert np.max(np.abs(z - expected)) < 1e-12


def test_pullback_integral_conformally_invariant(sphere):
    g = sf.build_grid(24, 24)
    u = sf.perturb(sf.constant_map(g, sphere), seed=4, amplitude=0.3)
    b = sf.make_two_form("y4", 4, beta=0.2)
    v1 = sf.pullback_integral(u.values, b, g)
    v2 = sf.pullback_integral(u.values, b, sf.conformal_rescale(g, 4.0))
    assert v1 == v2  # no metric weight appears at all


def test_potential_shift_nonnegative(sphere):
    V = sf.make_potential("height", 4, epsilon=0.2)
    rng = np.random.default_rng(5)
    u = sphere.project(rng.standard_normal((50, 4)))
    assert np.min(V.shifted(u)) >= 0.0
    assert np.max(np.abs(V.grad_fd(u) - V.grad(u))) < 1e-8


def test_delta_constants_values_and_hypothesis_error():
    d2, d3 = sf.delta_constants(0.0)
    assert d2 == pytest.approx(2.0) and d3 == pytest.approx(1.0)
    d2, d3 = sf.delta_constants(0.25)
    assert d2 == pytest.approx(4.0) and d3 == pytest.approx(3.0)
    with pytest.raises(HypothesisError):
        sf.delta_constants(0.5)


def test_sup_norms_bounded_by_coefficient():
    # the bounds are attained: |b_12| = beta |y4| at y = e4 with the
    # tangent pair (e1, e2), where Omega = beta dy1 ^ dy2 ^ dy4 also gives
    # |Z| = beta, and |Hess V| = |epsilon <e1, u>| at u = e1.  They are
    # exact at every magnitude: unscaled, the Gram matrix of the unfolding
    # overflows from beta ~ 1e154 and underflows to 0 near 1e-300
    for q in (4, 5, 6):
        target = sf.make_target("sphere", q)
        for beta in (0.2, 0.501, 2.0, 1e308, 1e154, 1e-300, 5e-324):
            for epsilon in (5e-3, -0.1):
                norms = sf.sup_norms(sf.make_two_form("y4", q, beta=beta),
                                     sf.make_potential("height", q,
                                                       epsilon=epsilon),
                                     target)
                assert (norms.B_inf, norms.Z_inf, norms.hessV_inf) == \
                    (beta, beta, abs(epsilon))
        norms = sf.sup_norms(sf.zero_two_form(q), sf.zero_potential(q), target)
        assert (norms.B_inf, norms.Z_inf, norms.hessV_inf) == (0.0, 0.0, 0.0)


def test_sup_norms_of_registered_kinds_call_no_linear_algebra(monkeypatch):
    # every registered two-form has a diagonal Gram matrix, so the values of
    # the test above come without LAPACK (eigvalsh) or BLAS (norm)
    def refuse(*args, **kwargs):
        raise AssertionError("linear-algebra call")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    for q in (4, 5, 6):
        target = sf.make_target("sphere", q)
        for beta in (0.2, 0.501, 2.0, 1e308, 1e154, 1e-300, 5e-324):
            for epsilon in (5e-3, -0.1):
                for b, V in itertools.product(
                        (sf.zero_two_form(q), sf.make_two_form("y4", q,
                                                               beta=beta)),
                        (sf.zero_potential(q),
                         sf.make_potential("height", q, epsilon=epsilon))):
                    norms = sf.sup_norms(b, V, target)
                    B = 0.0 if b.is_zero else beta
                    assert (norms.B_inf, norms.Z_inf, norms.hessV_inf) == \
                        (B, B, 0.0 if V.is_zero else abs(epsilon))


def test_sup_norms_of_a_dense_two_form_reach_eigvalsh(monkeypatch):
    # a random skew C has a Gram matrix that is not diagonal
    q = 4
    target = sf.make_target("sphere", q)
    rng = np.random.default_rng(q)
    C = rng.standard_normal((q, q, q))
    C -= np.swapaxes(C, 1, 2)
    C *= 0.45 / sf.sup_norms(sf.TwoFormField("random", C),
                             sf.zero_potential(q), target).B_inf
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    norms = sf.sup_norms(sf.TwoFormField("random", C), sf.zero_potential(q),
                         target)
    assert calls == [(q, q), (q, q)]
    assert norms.B_inf == pytest.approx(0.45, rel=1e-14)


def _orthonormal_tangent_pair(target, u, rng):
    """One orthonormal tangent pair per sampled point."""
    n = u.shape[0]
    a = tangent_project(target, u, rng.standard_normal((n, target.q)))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    c = tangent_project(target, u, rng.standard_normal((n, target.q)))
    c -= np.sum(c * a, axis=-1, keepdims=True) * a
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    return a, c


def _reference_sup_norms(b, V, target, n_samples, seed, pairs_per_point):
    """Sampled (|B|, |Z|, |Hess V|), lower bounds of the sups, one pair at a
    time: the spectral norm of the restricted matrix P b P by SVD, Z by an
    einsum over the broadcast Omega tensor, and the Hessian's ambient term
    included."""
    rng = np.random.default_rng(seed)
    u = target.project(rng.standard_normal((n_samples, target.q)))
    P = target.tangent_projector(u)
    B_inf = float(np.max(np.linalg.norm(P @ b.coeff(u) @ P, ord=2,
                                        axis=(-2, -1))))
    Z_inf = hessV_inf = 0.0
    for _ in range(pairs_per_point):
        xi1, xi2 = _orthonormal_tangent_pair(target, u, rng)
        w = np.einsum("...kij,...i,...j->...k", b.Omega, xi1, xi2)
        z = tangent_project(target, u, w)
        Z_inf = max(Z_inf, float(np.max(np.linalg.norm(z, axis=-1))))
        h_amb = np.einsum("...i,...ij,...j->...", xi1, V.hess(u), xi1)
        h_ii = np.sum(V.grad(u) * target.sff(u, xi1, xi1), axis=-1)
        hessV_inf = max(hessV_inf, float(np.max(np.abs(h_amb + h_ii))))
    return B_inf, Z_inf, hessV_inf


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("v_kind", ["zero", "height"])
@pytest.mark.parametrize("b_kind", ["zero", "y4"])
@pytest.mark.parametrize("q", [4, 5, 6])
def test_sup_norms_match_the_per_pair_reference(q, b_kind, v_kind, seed):
    # the closed forms bound the sampled sups from above; these kinds
    # attain their bounds, so 4096 points with 4 pairs each come close
    target = sf.make_target("sphere", q)
    b = sf.make_two_form(b_kind, q, beta=0.2 if b_kind == "y4" else 0.0)
    V = sf.make_potential(v_kind, q,
                          epsilon=0.1 if v_kind == "height" else 0.0)
    ref = _reference_sup_norms(b, V, target, 4096, seed, 4)
    norms = sf.sup_norms(b, V, target)
    for g, r in zip((norms.B_inf, norms.Z_inf, norms.hessV_inf), ref):
        assert r <= g <= 1.05 * r
    assert (norms.B_inf > 0) == (b_kind == "y4")
    assert (norms.hessV_inf > 0) == (v_kind == "height")


@pytest.mark.parametrize("q", [4, 5, 6])
def test_sup_norms_bound_a_dense_sample_of_random_two_forms(q):
    # a random skew C scaled so that its |B| bound is 0.45, and a random
    # potential, sampled at 10^5 points with one tangent pair each
    target = sf.make_target("sphere", q)
    rng = np.random.default_rng(q)
    C = rng.standard_normal((q, q, q))
    C -= np.swapaxes(C, 1, 2)
    C *= 0.45 / sf.sup_norms(sf.TwoFormField("random", C),
                             sf.zero_potential(q), target).B_inf
    b = sf.TwoFormField("random", C)
    V = sf.ScalarPotential("random", rng.standard_normal(q), shift=0.0)
    norms = sf.sup_norms(b, V, target)
    assert norms.B_inf == pytest.approx(0.45, rel=1e-14)
    ref = _reference_sup_norms(b, V, target, 100_000, 10 + q, 1)
    for g, r in zip((norms.B_inf, norms.Z_inf, norms.hessV_inf), ref):
        assert 0.0 < r <= g


def test_pullback_density_antisymmetry_zero_for_rank_one(sphere):
    # maps depending on x only pull back any two-form to zero
    g = sf.build_grid(24, 24)
    u = sf.geodesic_wrap(g, sphere, m=2, n=0)
    b = sf.make_two_form("y4", 4, beta=0.3)
    ux, uy = Stencil(g, u.values).centred()
    assert np.max(np.abs(b.pullback(u.values, ux, uy))) < 1e-13


def test_smallness_report(sphere):
    g = sf.build_grid(24, 24)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.1),
                                V=sf.make_potential("height", 4, epsilon=1e-4))
    u = sf.small_energy_map(g, sphere, energy=0.01, seed=6, max_mode=2)
    rep = sf.smallness_report(u.values, g, fields, 0.5, 0.1)
    assert rep.passes
    # shrinking delta1 makes the shifted-potential budget fail
    rep2 = sf.smallness_report(u.values, g, fields, 1e-6, 0.1)
    assert not rep2.passes
    # |B| >= 1/2 fails outright
    rep3 = sf.smallness_report(u.values, g, fields, 0.5, 0.6)
    assert not rep3.passes


def test_linear_two_form_is_a_constant_skew_tensor():
    assert y4_two_form(0.0).is_zero
    assert sf.zero_two_form(4).is_zero
    assert not y4_two_form(0.1).is_zero
    # one term: C[3, 0, 1] = -C[3, 1, 0] = beta
    assert len(y4_two_form(0.1).terms) == 1
    C = np.zeros((4, 4, 4))
    C[3, 0, 1] = 0.2          # no skew partner
    with pytest.raises(ValueError):
        sf.TwoFormField("bad", C)
    with pytest.raises(ValueError):
        sf.TwoFormField("bad", np.zeros((4, 4)))


def _d0(f, axis, h):
    """Centred difference (f[i+1] - f[i-1]) * (0.5/h), by np.roll."""
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) * (0.5 / h)


def _parent_pullback_density(u, b, g):
    """Dense per-node contraction (d_x u)^T b(u) (d_y u)."""
    return np.einsum("...i,...ij,...j->...", _d0(u, 0, g.dx), b.coeff(u),
                     _d0(u, 1, g.dy))


def _parent_bfield_force(u, b, g, target):
    """e^{-2 lam} P(u) g with g^k = d_k b_ij ux^i uy^j - D0x(b_kj uy^j)
    - D0y(ux^i b_ik), from the dense per-node tensors."""
    ux, uy = _d0(u, 0, g.dx), _d0(u, 1, g.dy)
    bu = b.coeff(u)
    # b is linear, so the central difference is exact at any step; a unit
    # step keeps its rounding error at the 1e-16 level
    dcoeff = b.dcoeff_fd(u, step=1.0)
    grad = np.einsum("...kij,...i,...j->...k", dcoeff, ux, uy)
    grad -= _d0(np.einsum("...kj,...j->...k", bu, uy), 0, g.dx)
    grad -= _d0(np.einsum("...ik,...i->...k", bu, ux), 1, g.dy)
    grad *= g.em2l[..., None]
    return tangent_project(target, u, grad)


@pytest.mark.parametrize("lam", [None, lambda x, y: 0.3 * np.sin(x) * np.cos(y)])
def test_bfield_force_and_pullback_match_dense_formulas(sphere, lam):
    g = sf.build_grid(24, 20, lam=lam)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.3),
                                V=sf.zero_potential(4))
    b = fields.b
    for seed in (0, 1, 2):
        u = sf.perturb(sf.constant_map(g, sphere), seed=seed,
                       amplitude=0.4).values
        dens = b.pullback(u, *Stencil(g, u).centred())
        ref = _parent_pullback_density(u, b, g)
        assert np.max(np.abs(dens - ref)) <= 1e-13 * np.max(np.abs(ref))

        work = Workspace(g, u, fields)
        force = _bfield_force(work, sphere, fields)
        ref = _parent_bfield_force(u, b, g, sphere)
        assert np.max(np.abs(force - ref)) <= 1e-13 * np.max(np.abs(ref))


def _flux_sum_bfield_force(u, b, g, target, V):
    """The B-force as fluxes summed over the terms of b, then differenced
    once, by np.roll; e^{-2 lam} g + a is projected."""
    ux, uy = _d0(u, 0, g.dx), _d0(u, 1, g.dy)
    grad, fx, fy = (np.zeros(u.shape) for _ in range(3))
    for k, i, j, c in b.terms:
        grad[..., k] += c * (ux[..., i] * uy[..., j] - ux[..., j] * uy[..., i])
        cu = c * u[..., k]
        fx[..., i] += cu * uy[..., j]
        fx[..., j] -= cu * uy[..., i]
        fy[..., j] += cu * ux[..., i]
        fy[..., i] -= cu * ux[..., j]
    grad -= _d0(fx, 0, g.dx)
    grad -= _d0(fy, 1, g.dy)
    grad *= g.em2l[..., None]
    grad += V.a
    return tangent_project(target, u, grad)


@pytest.mark.parametrize("v_kind", ["zero", "height"])
@pytest.mark.parametrize("lam", [None, lambda x, y: 0.3 * np.sin(x) * np.cos(y)])
def test_bfield_force_of_y4_is_the_flux_sum_bitwise(sphere, lam, v_kind):
    # y4's one term has k = 3, neither i nor j, so differencing each flux
    # into g gives each plane the operations of the summed fluxes, in order
    g = sf.build_grid(24, 20, lam=lam)
    V = sf.make_potential(v_kind, 4,
                          epsilon=0.1 if v_kind == "height" else 0.0)
    b = y4_two_form(0.3)
    fields = sf.FieldBackground(b=b, V=V)
    # component-major, as in a run
    maps = [sf.perturb(sf.constant_map(g, sphere), seed=seed,
                       amplitude=0.4).values for seed in (0, 1)]
    work = Workspace(g, maps[-1], fields)
    for u in maps:
        work.stencil.load(u)
        force = _bfield_force(work, sphere, fields)
        assert np.array_equal(force, _flux_sum_bfield_force(u, b, g, sphere, V))


@pytest.mark.parametrize("layout", ["C", "component-major"])
@pytest.mark.parametrize("lam", [None, lambda x, y: 0.3 * np.sin(x) * np.cos(y)])
def test_bfield_force_of_a_dense_two_form_matches_dense_formula(sphere, lam,
                                                                layout):
    g = sf.build_grid(24, 20, lam=lam)
    rng = np.random.default_rng(22)
    C = rng.standard_normal((4, 4, 4))
    b = sf.TwoFormField("dense", 0.1 * (C - np.swapaxes(C, 1, 2)))
    fields = sf.FieldBackground(b=b, V=sf.zero_potential(4))
    maps = []
    for seed in (3, 4, 5):
        u = sf.perturb(sf.constant_map(g, sphere), seed=seed,
                       amplitude=0.4).values
        if layout != "C":
            cm = sf.empty_map(u.shape)
            cm[...] = u
            u = cm
        maps.append(u)
    # one workspace for several maps: no plane may carry a stale value
    work = Workspace(g, maps[-1], fields)
    for u in maps:
        work.stencil.load(u)
        force = _bfield_force(work, sphere, fields)
        ref = _parent_bfield_force(u, b, g, sphere)
        assert np.max(np.abs(force - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_potential_is_linear_with_constant_gradient(sphere):
    V = sf.make_potential("height", 4, epsilon=0.2)
    rng = np.random.default_rng(14)
    u = sphere.project(rng.standard_normal((6, 5, 4)))
    assert np.array_equal(V.a, [0.2, 0.0, 0.0, 0.0])
    assert np.array_equal(V.value(u), 0.2 * u[..., 0])
    grad = V.grad(u)
    assert grad.shape == u.shape and not grad.flags.writeable
    assert np.max(np.abs(V.grad_fd(u) - grad)) < 1e-9
    assert not np.any(V.hess(u))
    assert V.shift == 0.2 and not V.is_zero


def test_zero_potential_found_by_structure():
    # a height potential with epsilon = 0 costs nothing in the flow
    assert sf.make_potential("height", 4, epsilon=0.0).is_zero
    assert sf.make_potential("zero", 4).is_zero
    assert not sf.make_potential("height", 4, epsilon=-1e-12).is_zero
    assert sf.ScalarPotential("tilted", np.array([0.0, 0.0, 1.0, 0.0]),
                              shift=1.0).q == 4
    with pytest.raises(ValueError):
        sf.ScalarPotential("bad", np.zeros((4, 4)), shift=0.0)


def test_unknown_field_kinds_list_the_kinds():
    with pytest.raises(sf.ConfigError) as err:
        sf.make_two_form("vortex", 4)
    assert str(err.value) == "fields.b_kind must be one of ['y4', 'zero']"
    with pytest.raises(sf.ConfigError) as err:
        sf.make_potential("quadratic", 4)
    assert str(err.value) == "fields.v_kind must be one of ['height', 'zero']"


def test_field_factories_refuse_a_size_their_kind_does_not_take():
    # each returned the zero field; the config's rule holds here too, so a
    # size may be passed only at its default where the kind takes none
    for make, msg in (
            (lambda: sf.make_two_form("zero", 3, beta=0.2),
             "fields.beta = 0.2 does nothing under b_kind 'zero'"),
            (lambda: sf.make_potential("zero", 3, epsilon=0.5),
             "fields.epsilon = 0.5 does nothing under v_kind 'zero'")):
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}"):
            make()
    assert sf.make_two_form("zero", 4).is_zero
    assert sf.make_two_form("zero", 4, beta=0.0).is_zero
    assert not sf.make_two_form("y4", 4, beta=0.2).is_zero
    assert sf.make_potential("zero", 4, epsilon=0.0).is_zero
