import numpy as np
import pytest

import stringflow as sf


@pytest.fixture
def sphere():
    return sf.make_target("sphere", 4)


def test_assemble_A_skew(sphere):
    g = sf.build_grid(32, 32)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.3),
                                V=sf.zero_potential(4))
    for seed in range(5):
        u = sf.random_smooth_map(g, sphere, seed=seed, amplitude=0.4)
        A = sf.assemble_A(u.values, g, sphere, fields)
        assert A.skew_defect() < 1e-12


def test_assemble_A_matches_sphere_closed_form(sphere):
    # frame term for the sphere: F^m_i = u^m du^i - u^i du^m (no two-form)
    g = sf.build_grid(24, 24)
    u = sf.random_smooth_map(g, sphere, seed=7, amplitude=0.3)
    A = sf.assemble_A(u.values, g, sphere, sf.zero_background(4))
    ux = (np.roll(u.values, -1, 0) - np.roll(u.values, 1, 0)) * (0.5 / g.dx)
    expected = (u.values[..., :, None] * ux[..., None, :]
                - u.values[..., None, :] * ux[..., :, None])
    assert np.max(np.abs(A.F - expected)) < 1e-12


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
    ablated = sf.rewrite_residual(u.values, A, g, sphere, fields, drop_F=True)
    assert ablated > 10 * res[0] and ablated > 1.0


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


def test_triviality_condition_flat_zero_fields(sphere):
    # flat torus: Scal = 0, so the margin needs |du| = 0 and Hess V = 0
    g = sf.build_grid(24, 24)
    u = sf.constant_map(g, sphere)
    out = sf.triviality_condition(u.values, g, sf.zero_background(4),
                                  kappa_N=1.0, Z_inf=0.0, hessV_inf=0.0)
    assert out["condition_holds_everywhere"]
    assert out["grad_sq_constant"]
    uw = sf.geodesic_wrap(g, sphere)
    out2 = sf.triviality_condition(uw.values, g, sf.zero_background(4),
                                   kappa_N=1.0, Z_inf=0.0, hessV_inf=0.0)
    assert not out2["condition_holds_everywhere"]


def test_scalar_curvature_constant_lambda_is_flat():
    g = sf.build_grid(24, 24, lam=0.7)
    assert np.max(np.abs(sf.scalar_curvature(g))) < 1e-12


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
