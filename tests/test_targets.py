import numpy as np
import pytest

import stringflow as sf
from stringflow.errors import ProjectionError
from stringflow.targets import SphereTarget, tangent_project


@pytest.fixture
def sphere():
    return SphereTarget(q=4)


def rand_points(sphere, n=50, seed=0):
    rng = np.random.default_rng(seed)
    return sphere.project(rng.standard_normal((n, sphere.q)))


def test_constructor_rejects_low_dimension():
    # S^2 is the smallest target; S^1 is refused
    assert SphereTarget(q=3).n == 2
    with pytest.raises(ValueError, match="q = 2"):
        SphereTarget(q=2)
    with pytest.raises(ValueError):
        sf.make_target("unknown")


def test_projection_normalizes_and_rejects_center(sphere):
    y = np.array([3.0, 4.0, 0.0, 0.0])
    assert np.allclose(sphere.project(y), [0.6, 0.8, 0.0, 0.0])
    with pytest.raises(ProjectionError):
        sphere.project(np.zeros(4))
    # in place (out=y) gives the bits of a fresh projection in either
    # layout, and the centre check comes before the write
    rng = np.random.default_rng(3)
    for y in (rng.standard_normal((12, 10, 4)), sf.empty_map((12, 10, 4))):
        y[...] = rng.standard_normal((12, 10, 4))
        fresh = sphere.project(y)
        assert sphere.project(y, out=y) is y
        assert np.array_equal(y, fresh)
        y[3, 4] = 0.0
        kept = y.copy()
        with pytest.raises(ProjectionError):
            sphere.project(y, out=y)
        assert np.array_equal(y, kept)


def test_tangent_projector_idempotent_and_kills_normal(sphere):
    u = rand_points(sphere)
    P = sphere.tangent_projector(u)
    assert np.allclose(np.einsum("...ij,...jk->...ik", P, P), P, atol=1e-13)
    assert np.allclose(np.einsum("...ij,...j->...i", P, u), 0.0, atol=1e-13)


def test_sff_matches_projection_hessian_oracle(sphere):
    # closed form II(X, Y) = -<X, Y> u vs finite differences of the
    # nearest-point projection (independent route)
    u = rand_points(sphere, n=20, seed=1)
    rng = np.random.default_rng(2)
    X = tangent_project(sphere, u, rng.standard_normal(u.shape))
    Y = tangent_project(sphere, u, rng.standard_normal(u.shape))
    closed = sphere.sff(u, X, Y)
    fd = sphere.second_fundamental_form_fd(u, X, Y)
    assert np.max(np.abs(closed - fd)) < 1e-6


def test_checked_sff_rejects_nontangent_arguments(sphere):
    u = rand_points(sphere, n=5)
    T = tangent_project(sphere, u, np.ones_like(u))
    # np.ones is generically not tangent; u itself is the sphere's normal
    for X in (np.ones_like(u), u.copy()):
        for args in ((X, X), (T, X), (X, T)):
            with pytest.raises(sf.TangencyError):
                sphere.second_fundamental_form(u, *args)
    assert np.array_equal(sphere.second_fundamental_form(u, T, T),
                          sphere.sff(u, T, T))


def test_check_on_manifold(sphere):
    u = rand_points(sphere, n=5)
    sphere.check_on_manifold(u)
    with pytest.raises(sf.OffManifoldError):
        sphere.check_on_manifold(1.5 * u)


def test_nan_fails_the_manifold_and_tangent_checks(sphere):
    # a NaN distance or normal component compares False against any
    # tolerance, so each check must reject rather than pass it
    u = rand_points(sphere, n=5)
    T = tangent_project(sphere, u, np.ones_like(u))
    bad_u = u.copy()
    bad_u[2, 1] = np.nan
    bad_T = T.copy()
    bad_T[3, 0] = np.nan
    with pytest.raises(sf.OffManifoldError):
        sphere.check_on_manifold(bad_u)
    for X in (bad_T, np.full_like(u, np.nan)):
        with pytest.raises(sf.TangencyError):
            sphere.check_tangent(u, X)
    with pytest.raises(sf.OffManifoldError):
        sphere.second_fundamental_form(bad_u, T, T)
    for args in ((bad_T, T), (T, bad_T)):
        with pytest.raises(sf.TangencyError):
            sphere.second_fundamental_form(u, *args)


def test_frame_jacobian_matches_fd_oracle(sphere):
    u = rand_points(sphere, n=10, seed=3)
    closed = sphere.frame_jacobian(u)
    # generic finite-difference route from the base class
    fd = sf.TargetManifold.frame_jacobian(sphere, u)
    assert np.max(np.abs(closed - fd)) < 1e-6


def test_frame_derivative_closed_form_matches_the_jacobian(sphere):
    # the sphere's tangent-part closed form against the base class, which
    # contracts the Jacobian: the sphere's closed-form one, and the
    # finite-difference one
    u = rand_points(sphere, n=10, seed=3)
    X = np.random.default_rng(6).standard_normal(u.shape)
    closed = sphere.frame_derivative(u, X)
    assert closed.shape == u.shape[:-1] + (1, sphere.q)
    assert np.allclose(closed, sf.TargetManifold.frame_derivative(sphere, u, X),
                       rtol=0, atol=1e-14)
    fd = np.einsum("...lij,...j->...li",
                   sf.TargetManifold.frame_jacobian(sphere, u), X)
    assert np.max(np.abs(closed - fd)) < 1e-6


def test_tangent_project_fast_path_matches_projector(sphere):
    u = rand_points(sphere, n=10, seed=4)
    rng = np.random.default_rng(5)
    X = rng.standard_normal(u.shape)
    fast = tangent_project(sphere, u, X)
    P = sphere.tangent_projector(u)
    assert np.allclose(fast, np.einsum("...ij,...j->...i", P, X), atol=1e-14)


def test_tangent_project_dispatches_to_target_method(sphere):
    # the base-class projector path and the sphere's closed form agree, and
    # the module-level function is the target's method
    u = rand_points(sphere, n=10, seed=6)
    X = np.random.default_rng(7).standard_normal(u.shape)
    generic = sf.TargetManifold.tangent_project(sphere, u, X)
    assert np.allclose(sphere.tangent_project(u, X), generic, atol=1e-14)
    assert np.array_equal(tangent_project(sphere, u, X),
                          sphere.tangent_project(u, X))


def test_sff_trace_matches_fd_oracle_on_both_paths(sphere):
    # II(X1, X1) + II(X2, X2): the sphere's closed form and the base-class
    # sum of two sff calls, against second differences of the projection
    u = rand_points(sphere, n=20, seed=8)
    rng = np.random.default_rng(9)
    X1 = tangent_project(sphere, u, rng.standard_normal(u.shape))
    X2 = tangent_project(sphere, u, rng.standard_normal(u.shape))
    fd = (sphere.second_fundamental_form_fd(u, X1, X1)
          + sphere.second_fundamental_form_fd(u, X2, X2))
    closed = sphere.sff_trace(u, X1, X2)
    generic = sf.TargetManifold.sff_trace(sphere, u, X1, X2)
    assert np.max(np.abs(closed - fd)) < 1e-6
    assert np.max(np.abs(generic - fd)) < 1e-6
    for path in (sphere.sff_trace,
                 lambda *a, **k: sf.TargetManifold.sff_trace(sphere, *a, **k)):
        out = np.full_like(u, np.nan)
        assert path(u, X1, X2, out=out) is out
        assert np.array_equal(out, path(u, X1, X2))


def test_tangent_project_out_is_bitwise_the_fresh_result(sphere):
    u = rand_points(sphere, n=30, seed=10)
    X = np.random.default_rng(11).standard_normal(u.shape)
    fresh = tangent_project(sphere, u, X)
    out = np.full_like(u, np.nan)
    assert tangent_project(sphere, u, X, out=out) is out
    assert np.array_equal(out, fresh)
    # the projector path of the base class takes out= as well
    generic = sf.TargetManifold.tangent_project(sphere, u, X)
    out = np.full_like(u, np.nan)
    sf.TargetManifold.tangent_project(sphere, u, X, out=out)
    assert np.array_equal(out, generic)
    # a read-only broadcast argument is accepted
    a = np.array([0.3, 0.0, -0.2, 0.0])
    Xb = np.broadcast_to(a, u.shape)
    assert np.array_equal(tangent_project(sphere, u, Xb),
                          tangent_project(sphere, u, Xb.copy()))


def test_tangent_project_out_may_not_alias_its_inputs(sphere):
    u = rand_points(sphere, n=30, seed=12)
    X = np.random.default_rng(13).standard_normal(u.shape)
    kept_u, kept_X = u.copy(), X.copy()
    for out in (X, X[::-1], u):
        with pytest.raises(ValueError, match="alias"):
            tangent_project(sphere, u, X, out=out)
    # refused before anything was written
    assert np.array_equal(u, kept_u) and np.array_equal(X, kept_X)


def test_make_target_unknown_kind_lists_the_kinds():
    with pytest.raises(sf.ConfigError) as err:
        sf.make_target("torus")
    assert str(err.value) == "target.kind must be one of ['sphere']"
