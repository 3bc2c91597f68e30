import re
import tracemalloc

import numpy as np
import pytest

import stringflow as sf
from stringflow import structure
from stringflow.errors import ShapeError
from stringflow.grid import Stencil


@pytest.fixture
def sphere():
    return sf.make_target("sphere", 4)


def test_assemble_A_skew(sphere):
    g = sf.build_grid(32, 32)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.3),
                                V=sf.zero_potential(4))
    for seed in range(5):
        u = sf.perturb(sf.constant_map(g, sphere), seed=seed, amplitude=0.4)
        A = sf.assemble_A(u.values, g, sphere, fields)
        assert A.skew_defect() < 1e-12


def test_assemble_A_matches_sphere_closed_form(sphere):
    # frame term for the sphere: F^m_i = u^m du^i - u^i du^m (no two-form)
    g = sf.build_grid(24, 24)
    u = sf.perturb(sf.constant_map(g, sphere), seed=7, amplitude=0.3)
    A = sf.assemble_A(u.values, g, sphere, sf.zero_background(4))
    ux = (np.roll(u.values, -1, 0) - np.roll(u.values, 1, 0)) * (0.5 / g.dx)
    expected = (u.values[..., :, None] * ux[..., None, :]
                - u.values[..., None, :] * ux[..., :, None])
    assert np.max(np.abs(A.F - expected)) < 1e-12



def _assemble_A_rank3(u, grid, target, fields):
    """The rank-3 formula: C[m, i, j] = sum_l dnu[l, i, j] nu[l, m]
    - dnu[l, m, j] nu[l, i] per node, contracted with u_x and u_y, and the
    two-form term from the per-node broadcast of Omega."""
    ux = (np.roll(u, -1, 0) - np.roll(u, 1, 0)) * (0.5 / grid.dx)
    uy = (np.roll(u, -1, 1) - np.roll(u, 1, 1)) * (0.5 / grid.dy)
    nu = target.normal_frame(u)
    dnu = target.frame_jacobian(u)
    t1 = np.einsum("...lij,...lm->...mij", dnu, nu)
    C = t1 - np.swapaxes(t1, -3, -2)
    F = np.einsum("...mij,...j->...mi", C, ux)
    G = np.einsum("...mij,...j->...mi", C, uy)
    if not fields.b.is_zero:
        om = fields.b.Omega
        F = F - 0.5 * np.einsum("...mij,...j->...mi", om, uy)
        G = G + 0.5 * np.einsum("...mij,...j->...mi", om, ux)
    return F, G


@pytest.mark.parametrize("b_kind", ["zero", "y4"])
def test_assemble_A_matches_the_rank3_formula(sphere, b_kind):
    g = sf.build_grid(32, 24)
    b = sf.make_two_form(b_kind, 4, beta=0.3 if b_kind == "y4" else 0.0)
    fields = sf.FieldBackground(b=b, V=sf.zero_potential(4))
    for seed in range(3):
        u = sf.perturb(sf.constant_map(g, sphere), seed=seed,
                       amplitude=0.4).values
        A = sf.assemble_A(u, g, sphere, fields)
        F, G = _assemble_A_rank3(u, g, sphere, fields)
        scale = max(np.max(np.abs(F)), np.max(np.abs(G)))
        assert np.max(np.abs(A.F - F)) <= 1e-15 * scale
        assert np.max(np.abs(A.G - G)) <= 1e-15 * scale
        assert A.skew_defect() == 0.0


def _smooth_map(grid):
    """One smooth map R^2 -> R^4 on every grid: modes |k|, |l| <= 2 with
    seeded coefficients, of size about 1."""
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    rng = np.random.default_rng(0)
    out = np.zeros(X.shape + (4,))
    for k in range(3):
        for l in range(-2, 3):
            a, b = rng.standard_normal((2, 4)) / 10
            out += (np.cos(k * X + l * Y)[..., None] * a
                    + np.sin(k * X + l * Y)[..., None] * b)
    return out


def test_assemble_A_on_a_conformal_grid_rewrites_the_flow(sphere,
                                                          monkeypatch):
    # with F and G scaled by e^{-2 lam}, the rewritten equation's residual
    # e^{-2 lam} Delta_h u + F u_x + G u_y - P grad V matches flow_rhs in
    # its tangent part to second order (the rewriting keeps the normal part
    # of the Omega term, so the normal parts differ by O(1))
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4,
                                                    epsilon=5e-3))
    monkeypatch.setattr(structure, "l2_norm", lambda res, grid: res.copy())
    errs = []
    for n in (32, 64, 128):
        g = sf.build_grid(n, n, lam=lambda x, y: 0.2 * np.sin(x) * np.sin(y))
        u = sphere.project(sf.clifford_map(g, sphere, m=1, n=1).values
                           + 0.3 * _smooth_map(g))
        A = sf.assemble_A(u, g, sphere, fields)
        res = sf.rewrite_residual(u, A, g, sphere, fields)
        rhs = sf.flow_rhs(u, g, sphere, fields)
        errs.append(sf.l2_norm(sf.tangent_project(sphere, u, res - rhs), g))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders >= 1.8), (errs, orders)


def test_assemble_A_memory_is_quadratic_in_q_per_node(sphere):
    # the result is two (nx, ny, q, q) arrays; the rank-3 formula held
    # (nx, ny, q, q, q) tensors on top (1.5-1.8 MB at 32^2, q = 4)
    g = sf.build_grid(32, 32)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.3),
                                V=sf.zero_potential(4))
    u = sf.empty_map((32, 32, 4))
    u[...] = sf.perturb(sf.constant_map(g, sphere), seed=3,
                        amplitude=0.4).values
    tracemalloc.start()
    try:
        sf.assemble_A(u, g, sphere, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.nx * g.ny * 4 ** 2 * 8

def test_rewrite_residual_second_order_and_ablation(sphere):
    fields = sf.zero_background(4)
    res = []
    for n in (32, 64):
        g = sf.build_grid(n, n)
        u = sf.geodesic_wrap(g, sphere, m=1, n=1)
        A = sf.assemble_A(u.values, g, sphere, fields)
        res.append(sf.rewrite_residual(u.values, A, g, sphere, fields))
    order = np.log2(res[0] / res[1])
    assert order > 1.8
    g = sf.build_grid(32, 32)
    u = sf.geodesic_wrap(g, sphere, m=1, n=1)
    A = sf.assemble_A(u.values, g, sphere, fields)
    no_F = sf.AntisymmetricPotential(F=np.zeros_like(A.F), G=A.G)
    ablated = sf.rewrite_residual(u.values, no_F, g, sphere, fields)
    assert ablated > 10 * res[0] and ablated > 1.0



@pytest.mark.parametrize("component_major", [False, True])
def test_rewrite_residual_matches_the_term_by_term_sum(sphere, monkeypatch,
                                                       component_major):
    # the residual field is accumulated in place; it is the plain sum of
    # fresh terms bit for bit, on a conformal grid too.  Its L2 norm hides
    # last-bit differences, so the field itself is taken where the norm is
    fields = sf.FieldBackground(b=sf.zero_two_form(4),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    monkeypatch.setattr(structure, "l2_norm", lambda res, grid: res.copy())
    for lam in (0.0, lambda x, y: 0.2 * np.sin(x) * np.cos(y)):
        g = sf.build_grid(24, 20, lam=lam)
        u = sf.perturb(sf.constant_map(g, sphere), seed=5,
                       amplitude=0.4).values
        if component_major:
            u, row_major = sf.empty_map(u.shape), u
            u[...] = row_major
        rng = np.random.default_rng(1)
        A = sf.AntisymmetricPotential(F=rng.standard_normal(u.shape + (4,)),
                                      G=rng.standard_normal(u.shape + (4,)))
        # einsum's sums depend on the operands' strides, so the terms take
        # the centred differences in the stencil's own layout
        ux, uy = Stencil(g, u).centred()
        Fux = np.einsum("...mi,...i->...m", A.F, ux)
        Guy = np.einsum("...mi,...i->...m", A.G, uy)
        gv = sf.tangential_grad_V(u, fields.V, sphere)
        lap = sf.laplace_beltrami(u, g)
        # a zero F ablates its term bit for bit: adding +0.0 is exact
        no_F = sf.AntisymmetricPotential(F=np.zeros_like(A.F), G=A.G)
        for A_, ref in ((A, lap + Fux + Guy - gv), (no_F, lap + Guy - gv)):
            res = sf.rewrite_residual(u, A_, g, sphere, fields)
            assert np.array_equal(res, ref)

def test_rewrite_residual_refuses_an_A_of_another_grid(sphere):
    # F or G assembled on a 16^2 grid used to give numpy's broadcast error
    # against a 32^2 map
    from dataclasses import replace
    fields = sf.zero_background(4)
    g16, g32 = sf.build_grid(16, 16), sf.build_grid(32, 32)
    u16, u32 = (sf.perturb(sf.constant_map(g, sphere), seed=3,
                           amplitude=0.3).values for g in (g16, g32))
    A16 = sf.assemble_A(u16, g16, sphere, fields)
    A32 = sf.assemble_A(u32, g32, sphere, fields)
    for slot in ("F", "G"):
        A = replace(A32, **{slot: getattr(A16, slot)})
        with pytest.raises(ShapeError,
                           match=re.escape("(16, 16, 4, 4)") + ".* 32 x 32"):
            sf.rewrite_residual(u32, A, g32, sphere, fields)


def test_gap_check_constant_map(sphere):
    g = sf.build_grid(24, 24)
    u = sf.constant_map(g, sphere)
    out = sf.gap_check(u.values, g, sphere, sf.zero_background(4), 1e-3)
    assert out["expect_constant"]
    assert out["du_l2"] == 0.0 and out["w2_43_seminorm"] == 0.0


def test_gap_check_large_map_not_small(sphere):
    g = sf.build_grid(24, 24)
    u = sf.geodesic_wrap(g, sphere)
    out = sf.gap_check(u.values, g, sphere, sf.zero_background(4), 1e-3)
    assert not out["small_energy"]


def test_bochner_density_wrap_truncation(sphere):
    # wrap: |du|^2 is constant, |Hess u|^2 = kappa |du|^4, so the density is
    # O(dx^2) pure truncation error
    errs = []
    for n in (32, 64):
        g = sf.build_grid(n, n)
        u = sf.geodesic_wrap(g, sphere)
        d = sf.bochner_density(u.values, g, sphere, sf.zero_background(4),
                               kappa_N=1.0, Z_inf=0.0, hessV_inf=0.0)
        errs.append(np.max(np.abs(d)))
    assert errs[0] < 0.05
    assert errs[0] / errs[1] > 3.0


def test_w2_seminorm_zero_for_affine_free_constant(sphere):
    g = sf.build_grid(24, 24)
    u = sf.constant_map(g, sphere)
    assert sf.w2_43_seminorm(u.values, g) == 0.0
