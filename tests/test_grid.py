import itertools
import re

import numpy as np
import pytest

import stringflow as sf
from stringflow.errors import GridError, ShapeError
from stringflow.grid import (Stencil, _plane_sum, ball_kernel_transform,
                             ball_mask, ball_sum_map, component_dot,
                             component_first, frame_derivatives)

# a small and a large node shape, a node scalar included.  The "-sliced"
# ids that _both_paths gives the large shape are older than the one load
# path; they are kept so that a test id names the same case from one
# version to the next
SMALL, LARGE = (24, 20), (184, 200)


def _both_paths(values):
    """(value, nodes) parameters: each value on the small shape under its
    own id, then on the large one."""
    return ([pytest.param(v, SMALL, id=str(v)) for v in values]
            + [pytest.param(v, LARGE, id=f"{v}-sliced") for v in values])


def test_build_grid_basic():
    g = sf.build_grid(32, 16, Lx=2 * np.pi, Ly=np.pi)
    assert g.x.shape == (32,) and g.y.shape == (16,)
    assert np.isclose(g.dx, 2 * np.pi / 32)
    assert np.isclose(float(np.sum(g.w)), 2 * np.pi ** 2)
    assert g.is_flat
    # the extreme spacings whose squares are normal doubles
    for h in (1.5e-154, 1.3e154):
        assert sf.build_grid(16, 16, Lx=16 * h, Ly=16 * h).dx == h


def test_build_grid_rejects_small_and_bad_lambda():
    with pytest.raises(GridError):
        sf.build_grid(4, 32)
    with pytest.raises(GridError):
        sf.build_grid(32, 32, lam=np.inf)


def _metric_forms(metric, nx, ny, Lx, Ly):
    """Every form of `lam` that describes one metric on an nx x ny grid."""
    X, Y = np.meshgrid(np.arange(nx) * (Lx / nx), np.arange(ny) * (Ly / ny),
                       indexing="ij")
    if metric == "zero":
        return [None, 0.0, np.zeros((nx, ny)), lambda x, y: 0]
    if metric == "constant":
        return [0.3, np.full((nx, ny), 0.3), lambda x, y: 0.3]
    return [lambda x, y: 0.2 * np.sin(x) * np.cos(y),
            0.2 * np.sin(X) * np.cos(Y)]


@pytest.mark.parametrize("metric", ["zero", "constant", "curved"])
def test_every_form_of_lambda_builds_the_same_grid_bytes(metric):
    # None, a scalar, an array and a callable take one path to the same
    # lam, e^{-2 lam} and weights, copied and read-only
    forms = _metric_forms(metric, 24, 20, 5.0, 3.0)
    grids = [sf.build_grid(24, 20, Lx=5.0, Ly=3.0, lam=lam) for lam in forms]
    for g, lam in zip(grids, forms):
        for a, ref in zip((g.lam, g.em2l, g.w),
                          (grids[0].lam, grids[0].em2l, grids[0].w)):
            assert a.dtype == ref.dtype and a.shape == (24, 20)
            assert a.tobytes() == ref.tobytes() and not a.flags.writeable
        if isinstance(lam, np.ndarray):
            assert not np.shares_memory(g.lam, lam)
        assert g.is_flat == (metric == "zero")


@pytest.mark.parametrize("lam, shape", [
    (np.zeros((20, 24)), (20, 24)), (np.zeros((24, 20, 1)), (24, 20, 1)),
    ([0.1, 0.2], (2,)), (lambda x, y: x[:, :1], (24, 1))],
    ids=["transposed", "trailing-axis", "list", "callable-column"])
def test_build_grid_refuses_a_lambda_of_another_shape(lam, shape):
    # a callable's value takes the path of the other forms
    with pytest.raises(GridError, match=re.escape(
            f"lambda array shape {shape} != (24, 20)")):
        sf.build_grid(24, 20, lam=lam)


@pytest.mark.filterwarnings("error")
def test_build_grid_rejects_lambda_whose_weights_overflow():
    # e^(2 lam) and e^(-2 lam) are finite at lam = 354, but the quadrature
    # weight e^(2 lam) dx dy is not: a GridError naming lam, no warning
    with pytest.raises(GridError, match=r"lam 354\.0\.\.354\.0"):
        sf.build_grid(8, 8, Lx=1000.0, Ly=1000.0, lam=354.0)


@pytest.mark.parametrize("Lx, Ly", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                     (1.0, -np.inf), (0.0, 1.0)])
def test_build_grid_rejects_periods_that_are_not_finite_and_positive(Lx, Ly):
    # NaN passes a plain `L <= 0` test
    with pytest.raises(GridError, match=r"periods must be finite and > 0: "
                                        r"Lx=.*, Ly="):
        sf.build_grid(16, 16, Lx=Lx, Ly=Ly)


@pytest.mark.parametrize("key, L", [("Ly", 1e308), ("Lx", 1e-160),
                                    ("Ly", 3e-154), ("Lx", 5e-324)])
def test_build_grid_rejects_a_spacing_whose_square_is_not_normal(key, L):
    # the stencils divide by dx^2 and dy^2: an inf square makes every
    # difference along that axis 0, a subnormal or 0 one makes it inf
    with pytest.raises(GridError, match=re.escape(f"period {key}={L!r} over "
                                                  "16 nodes")):
        sf.build_grid(16, 16, **{key: L})


def test_laplacian_spectral_accuracy():
    # Delta sin(x) = -sin(x); the 5-point stencil is second order
    errs = []
    for n in (32, 64):
        g = sf.build_grid(n, n)
        v = np.sin(g.x)[:, None] + 0.0 * g.y[None, :]
        lap = sf.laplace_beltrami(v, g)
        errs.append(np.max(np.abs(lap + v)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_laplacian_self_adjoint_in_weighted_inner_product():
    rng = np.random.default_rng(0)
    g = sf.build_grid(16, 16, lam=lambda x, y: 0.1 * np.sin(x) * np.cos(y))
    f = rng.standard_normal((16, 16))
    h = rng.standard_normal((16, 16))
    a = sf.l2_inner(sf.laplace_beltrami(f, g), h, g)
    b = sf.l2_inner(f, sf.laplace_beltrami(h, g), g)
    assert a == pytest.approx(b, rel=1e-12)


def test_dirichlet_energy_is_minus_laplacian_gradient():
    # d/de E(f + e h)/2 at e=0 equals -<lap f, h> in the weighted product
    rng = np.random.default_rng(1)
    g = sf.build_grid(16, 16)
    f = rng.standard_normal((16, 16))
    h = rng.standard_normal((16, 16))
    eps = 1e-6
    ep = sf.dirichlet_energy(f[..., None] + eps * h[..., None], g)
    em = sf.dirichlet_energy(f[..., None] - eps * h[..., None], g)
    fd = (ep - em) / (2 * eps) / 2.0
    assert fd == pytest.approx(-sf.l2_inner(sf.laplace_beltrami(f, g), h, g),
                               rel=1e-6)


def test_conformal_rescale_shifts_lambda():
    g = sf.build_grid(16, 16)
    g4 = sf.conformal_rescale(g, 4.0)
    assert np.allclose(g4.lam, 0.5 * np.log(4.0))
    assert float(np.sum(g4.w)) == pytest.approx(4.0 * float(np.sum(g.w)),
                                          rel=1e-14)


def test_ball_sum_map_matches_direct_sum():
    rng = np.random.default_rng(2)
    g = sf.build_grid(24, 24)
    dens = rng.random((24, 24))
    R = 0.7
    m = ball_sum_map(dens, g, R)
    for ix, iy in [(0, 0), (5, 17), (23, 1)]:
        direct = float(np.sum(dens[ball_mask(g, (ix, iy), R)]))
        assert m[ix, iy] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_ball_sum_map_refuses_a_density_with_a_component_axis():
    # a ball sum is of a node scalar; a (nx, ny, q) density used to reach
    # the kernel product and give numpy's broadcast error
    g = sf.build_grid(32, 32)
    with pytest.raises(ShapeError, match=re.escape("(32, 32, 4)")):
        ball_sum_map(np.ones((32, 32, 4)), g, 0.5)


@pytest.mark.parametrize("shape", [(9, 11), (24, 40)],
                         ids=["odd", "rectangular"])
def test_ball_sum_map_is_the_2d_transform_bit_for_bit(shape):
    # the per-axis transforms are those of rfft2 and irfft2, in their order
    rng = np.random.default_rng(4)
    g = sf.build_grid(*shape, Lx=3.0, Ly=5.0)
    dens = rng.random(shape)
    for R in (0.5, 1.0):
        ref = np.fft.irfft2(np.fft.rfft2(dens) * ball_kernel_transform(g, R),
                            s=shape)
        assert ball_sum_map(dens, g, R).tobytes() == ref.tobytes()


def test_ball_mask_radius_bounds():
    g = sf.build_grid(16, 16)
    with pytest.raises(GridError):
        ball_mask(g, (0, 0), g.inj_radius * 1.5)
    with pytest.raises(GridError):
        ball_mask(g, (0, 0), 0.0)


def test_ricci_identity_flat_only():
    g = sf.build_grid(32, 32)
    v = np.sin(g.x)[:, None] * np.sin(g.y)[None, :]
    lap2, hess2 = sf.ricci_identity_check(v, g)
    assert lap2 == pytest.approx(hess2, rel=0.05)


@pytest.mark.parametrize("check", [
    lambda u, g: sf.ricci_identity_check(u[..., 0], g),
    lambda u, g: sf.bochner_density(u, g, sf.make_target("sphere", 4),
                                    sf.zero_background(4), 1.0, 0.0, 0.0),
], ids=["ricci_identity_check", "bochner_density"])
def test_flat_grid_diagnostics_refuse_a_curved_grid(check):
    gc = sf.build_grid(16, 16, lam=0.3)
    u = sf.perturb(sf.constant_map(gc, sf.make_target("sphere", 4)), seed=0,
                   amplitude=0.3).values
    with pytest.raises(GridError, match="flat grid"):
        check(u, gc)


def test_l2_inner_shape_mismatch():
    g = sf.build_grid(16, 16)
    with pytest.raises(ShapeError):
        sf.l2_inner(np.zeros((16, 16)), np.zeros((16, 15)), g)


@pytest.mark.parametrize("grid_nodes, map_nodes",
                         [((32, 32), (64, 64)), ((32, 48), (48, 32))],
                         ids=["64-on-32", "transposed"])
def test_a_field_of_another_grid_size_is_refused(grid_nodes, map_nodes):
    # a stencil takes its spacing from the grid, so a field whose nodes are
    # not the grid's would be differenced with the wrong spacing; each
    # operator refuses it, naming both sizes
    g = sf.build_grid(*grid_nodes)
    sphere = sf.make_target("sphere", 4)
    u = sf.perturb(sf.constant_map(sf.build_grid(*map_nodes), sphere),
                   seed=1, amplitude=0.3).values
    fields = sf.zero_background(4)
    calls = {"flow_rhs": lambda: sf.flow_rhs(u, g, sphere, fields),
             "laplace_beltrami": lambda: sf.laplace_beltrami(u, g),
             "hessian_sq_density": lambda: sf.hessian_sq_density(u, g),
             "energies": lambda: sf.energies(u, g, fields),
             "dirichlet_energy": lambda: sf.dirichlet_energy(u, g)}
    sizes = re.escape(f"{u.shape}") + ".*" + "{} x {}".format(*grid_nodes)
    for call in calls.values():
        with pytest.raises(ShapeError, match=sizes):
            call()


@pytest.mark.parametrize("call", [
    lambda u, g: sf.l2_inner(u, u, g),
    lambda u, g: sf.l2_norm(u, g),
    lambda u, g: sf.ball_sum_map(np.ones(u.shape[:2]), g, 0.5),
    lambda u, g: sf.make_potential("height", 4, epsilon=0.1).integral(u, g),
    lambda u, g: sf.zero_potential(4).integral(u, g),
    lambda u, g: sf.smallness_report(u, g, sf.FieldBackground(
        sf.zero_two_form(4), sf.make_potential("height", 4, epsilon=0.1)),
        0.5, 0.0),
], ids=["l2_inner", "l2_norm", "ball_sum_map", "potential_integral",
        "zero_potential_integral", "smallness_report"])
@pytest.mark.parametrize("map_nodes", [(64, 64), (32, 33)],
                         ids=["64-on-32", "32x33-on-32"])
def test_integrals_and_ball_sums_refuse_a_field_of_another_grid(call,
                                                                map_nodes):
    # these take a field with its grid but no stencil, and used to give
    # numpy's raw broadcast error; a 32 x 33 density went through
    # ball_sum_map silently, since its rfft length is that of 32 nodes
    g = sf.build_grid(32, 32)
    u = np.full(map_nodes + (4,), 0.5)
    sizes = re.escape("({}, {}".format(*map_nodes)) + ".* 32 x 32 grid"
    with pytest.raises(ShapeError, match=sizes):
        call(u, g)


def _roll_d0(f, axis, h):
    """Centred difference (f[i+1] - f[i-1]) * (0.5/h), by np.roll."""
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) * (0.5 / h)


def _roll_d2(f, axis, h):
    """Second difference (f[i+1] + f[i-1] - 2 f[i]) * (1/h^2), by np.roll."""
    return (np.roll(f, -1, axis) + np.roll(f, 1, axis) - 2.0 * f) \
        * (1.0 / h ** 2)


def test_stencils_second_order_on_mixed_mode():
    g = sf.build_grid(64, 64)
    v = np.sin(g.x)[:, None] * np.cos(g.y)[None, :]
    assert np.max(np.abs(_roll_d0(v, 0, g.dx)
                         - np.cos(g.x)[:, None] * np.cos(g.y)[None, :])) < 2e-3
    assert np.max(np.abs(_roll_d2(v, 0, g.dx) + v)) < 2e-3
    # the package's operators are these formulas, bit for bit
    du1, _ = frame_derivatives(v, g)
    assert np.array_equal(du1, _roll_d0(v, 0, g.dx))
    assert np.array_equal(sf.laplace_beltrami(v, g),
                          _roll_d2(v, 0, g.dx) + _roll_d2(v, 1, g.dy))


def test_ball_sum_map_cache_keys_on_grid_and_radius():
    # two grids with the same node count but different periods, two radii,
    # interleaved: each map still matches the direct masked sums
    rng = np.random.default_rng(3)
    grids = [sf.build_grid(16, 16), sf.build_grid(16, 16, Lx=3.0, Ly=4.0)]
    dens = rng.random((16, 16))
    for _ in range(2):
        for g in grids:
            for R in (0.5, 0.9):
                m = ball_sum_map(dens, g, R)
                direct = [[np.sum(dens[ball_mask(g, (i, j), R)])
                           for j in range(16)] for i in range(16)]
                assert np.allclose(m, direct, rtol=0.0, atol=1e-12)
    K = ball_kernel_transform(grids[0], 0.5)
    assert not K.flags.writeable
    with pytest.raises(ValueError):
        K[0, 0] = 0.0
    # the ball ignores lam, so a conformal grid of the same shape shares it
    assert ball_kernel_transform(sf.build_grid(16, 16, lam=0.3), 0.5) is K
    assert ball_kernel_transform(grids[1], 0.5) is not K


def _roll_dirichlet(u, g):
    """The forward-difference Dirichlet sum by summation by parts, from
    np.roll centred and undivided second differences, component-first:
    each stack contracted by one einsum, each sum scaled once,
        dx dy sum |D0 u|^2 + 1/4 ((dy/dx) sum |d2x u|^2
                                  + (dx/dy) sum |d2y u|^2)."""
    G = np.stack([_roll_d0(u, 0, g.dx), _roll_d0(u, 1, g.dy)])
    P = np.stack([np.roll(u, -1, axis) + np.roll(u, 1, axis) - 2.0 * u
                  for axis in (0, 1)])
    if u.ndim == 3:
        G, P = np.moveaxis(G, -1, 1), np.moveaxis(P, -1, 1)
    G = np.ascontiguousarray(G).reshape(2, -1)
    P = np.ascontiguousarray(P).reshape(2, -1)
    cx, cy = np.einsum("dk,dk->d", G, G)
    sx, sy = np.einsum("dk,dk->d", P, P)
    return float((cx + cy) * (g.dx * g.dy)
                 + 0.25 * (sx * (g.dy / g.dx) + sy * (g.dx / g.dy)))


def _textbook_dirichlet(u, g):
    """sum(|D+x u|^2 + |D+y u|^2) dx dy with (u[i+1] - u[i]) / dx."""
    gx = (np.roll(u, -1, axis=0) - u) / g.dx
    gy = (np.roll(u, -1, axis=1) - u) / g.dy
    return float(np.sum(gx * gx + gy * gy) * (g.dx * g.dy))


@pytest.mark.parametrize("seed, nodes", _both_paths(range(4)))
def test_forward_differences_and_dirichlet_energy_match_roll_bitwise(seed,
                                                                     nodes):
    # E by summation by parts equals the np.roll formula bit for bit and
    # the forward-difference sum to rounding; values over six decades, so
    # that any change of operation order shows
    rng = np.random.default_rng(seed)
    g = sf.build_grid(*nodes, Lx=5.0, Ly=3.0)
    shape = nodes + (4,)
    u = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    E = sf.dirichlet_energy(u, g)
    assert E == _roll_dirichlet(u, g)
    assert abs(E - _textbook_dirichlet(u, g)) <= 1e-14 * E
    for a in (u, _component_major(u)):
        assert Stencil(g, a).dirichlet() == E


@pytest.mark.parametrize("shape", [SMALL, SMALL + (3,), LARGE, LARGE + (3,)])
def test_density_wrappers_match_roll_formulas(shape):
    rng = np.random.default_rng(5)
    g = sf.build_grid(*shape[:2],
                      lam=lambda x, y: 0.3 * np.cos(x) * np.sin(y))
    f = rng.standard_normal(shape)

    def sh(sx, sy):
        return np.roll(np.roll(f, -sx, axis=0), -sy, axis=1)

    e = np.exp(-g.lam) if f.ndim == 2 else np.exp(-g.lam)[..., None]
    du1 = e * (sh(1, 0) - sh(-1, 0)) / (2.0 * g.dx)
    du2 = e * (sh(0, 1) - sh(0, -1)) / (2.0 * g.dy)
    hxx = (sh(1, 0) + sh(-1, 0) - 2.0 * f) / g.dx ** 2
    hyy = (sh(0, 1) + sh(0, -1) - 2.0 * f) / g.dy ** 2
    hxy = (sh(1, 1) - sh(1, -1) - sh(-1, 1) + sh(-1, -1)) / (4.0 * g.dx * g.dy)
    grad2, hess2 = du1 ** 2 + du2 ** 2, hxx ** 2 + 2.0 * hxy ** 2 + hyy ** 2
    if f.ndim == 3:
        grad2, hess2 = grad2.sum(axis=-1), hess2.sum(axis=-1)
    assert np.allclose(sf.grad_sq_density(f, g), grad2, rtol=1e-13, atol=0.0)
    assert np.allclose(sf.hessian_sq_density(f, g), hess2, rtol=1e-13,
                       atol=0.0)


@pytest.mark.parametrize("shape", [(24, 20), (24, 20, 3)])
@pytest.mark.parametrize("lam", [None, lambda x, y: 0.3 * np.cos(x) * np.sin(y)],
                         ids=["flat", "conformal"])
def test_energy_density_is_grad_sq_density_times_the_weight(lam, shape):
    # |du|^2 dvol = grad_sq * dx dy; |du|^2 * e^{2 lam} dx dy is the same
    # bits on a flat grid (w = dx dy exactly) and rounds on a conformal one
    rng = np.random.default_rng(11)
    g = sf.build_grid(24, 20, lam=lam)
    f = rng.standard_normal(shape)
    d = Stencil(g, f).energy_density()
    ref = sf.grad_sq_density(f, g) * g.w
    if lam is None:
        assert np.array_equal(d, ref)
    else:
        assert np.all(np.abs(d - ref) <= 1e-14 * np.abs(ref))


def _six_decades(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


def _component_major(a):
    cm = sf.empty_map(a.shape)
    cm[...] = a
    return cm


def _plane_loop_dot(X, Y):
    """<X, Y> as whole-plane multiply-adds in component index order."""
    out = X[..., 0] * Y[..., 0]
    for i in range(1, X.shape[-1]):
        out = out + X[..., i] * Y[..., i]
    return out


def _plane_loop_sum(a):
    out = a[..., 0].copy()
    for i in range(1, a.shape[-1]):
        out = out + a[..., i]
    return out


@pytest.mark.parametrize("layout", ["C", "component-major", "points", "point"])
def test_component_reductions_sum_planes_in_index_order(layout):
    # the layout contract of the module docstring: every layout sums the
    # components one plane at a time in index order, bit for bit.  On
    # component-major maps component_dot is one einsum, so this pins
    # einsum's loop order, for several q and grid sizes.
    rng = np.random.default_rng(30)
    nodes = {"points": [(37,)], "point": [()]}.get(
        layout, [(24, 20), (64, 64), (128, 128)])
    for node_shape in nodes:
        for q in (4, 5, 8):
            shape = node_shape + (q,)
            X, Y = _six_decades(rng, shape), _six_decades(rng, shape)
            if layout == "component-major":
                X, Y = _component_major(X), _component_major(Y)
            assert np.array_equal(component_dot(X, Y), _plane_loop_dot(X, Y))
            assert np.array_equal(component_dot(X, X), _plane_loop_dot(X, X))
            assert np.array_equal(
                _plane_sum(np.ascontiguousarray(component_first(X))),
                _plane_loop_sum(X))
            if len(shape) == 3:
                g = sf.build_grid(*node_shape,
                                  lam=lambda x, y: 0.3 * np.cos(x) * np.sin(y))
                assert sf.l2_inner(X, Y, g) == \
                    float(np.sum(_plane_loop_dot(X, Y) * g.w))


@pytest.mark.parametrize("layout, nodes", _both_paths(["C", "component-major"]))
def test_stencil_centred_matches_d0_bitwise(layout, nodes):
    rng = np.random.default_rng(31)
    g = sf.build_grid(*nodes, Lx=5.0, Ly=3.0)
    u = _six_decades(rng, nodes + (4,))
    if layout == "component-major":
        u = _component_major(u)
    ux, uy = Stencil(g, u).centred()
    assert np.array_equal(ux, _roll_d0(u, 0, g.dx))
    assert np.array_equal(uy, _roll_d0(u, 1, g.dy))


@pytest.mark.parametrize("layout, nodes",
                         _both_paths(["scalar", "C", "component-major"]))
def test_operators_match_roll_formulas_bitwise(layout, nodes):
    # non-square conformal grid (dx != dy), values over six decades
    rng = np.random.default_rng(34)
    g = sf.build_grid(*nodes, Lx=5.0, Ly=3.0,
                      lam=lambda x, y: 0.2 * np.sin(x) * np.cos(y))
    u = _six_decades(rng, nodes if layout == "scalar" else nodes + (4,))
    if layout == "component-major":
        u = _component_major(u)

    def node(a):
        return a if u.ndim == 2 else a[..., None]

    lap = node(g.em2l) * (_roll_d2(u, 0, g.dx) + _roll_d2(u, 1, g.dy))
    assert np.array_equal(sf.laplace_beltrami(u, g), lap)
    ux, uy = _roll_d0(u, 0, g.dx), _roll_d0(u, 1, g.dy)
    du1, du2 = frame_derivatives(u, g)
    assert np.array_equal(du1, node(np.exp(-g.lam)) * ux)
    assert np.array_equal(du2, node(np.exp(-g.lam)) * uy)
    # E by summation by parts, on the one-shot stencil and on one built
    # for the field, equals the forward-difference sum to rounding
    E = _roll_dirichlet(u, g)
    assert sf.dirichlet_energy(u, g) == E
    assert Stencil(g, u).dirichlet() == E
    assert abs(E - _textbook_dirichlet(u, g)) <= 1e-12 * E


@pytest.mark.parametrize("shape", [SMALL, SMALL + (3,), LARGE, LARGE + (3,)])
def test_stencil_laplacian_matches_roll_formula(shape):
    # non-square conformal grid, dx != dy; the stencil Laplacian is flat
    rng = np.random.default_rng(32)
    g = sf.build_grid(*shape[:2], Lx=5.0, Ly=3.0,
                      lam=lambda x, y: 0.2 * np.sin(x) * np.cos(y))
    assert g.dx != g.dy
    f = rng.standard_normal(shape)
    ref = (np.roll(f, -1, axis=0) + np.roll(f, 1, axis=0) - 2.0 * f) / g.dx ** 2 \
        + (np.roll(f, -1, axis=1) + np.roll(f, 1, axis=1) - 2.0 * f) / g.dy ** 2
    for a in (f, _component_major(f) if f.ndim == 3 else f):
        lap = Stencil(g, a).laplacian(np.empty_like(a))
        assert np.max(np.abs(lap - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("layout", ["C", "component-major"])
def test_stencil_dirichlet_matches_forward_differences(layout):
    # the division-free Dirichlet sum against the textbook forward-difference
    # form, (u[i+1] - u[i]) / dx squared and summed, to rounding
    rng = np.random.default_rng(33)
    g = sf.build_grid(24, 20, Lx=5.0, Ly=3.0)
    u = rng.standard_normal((24, 20, 4))
    if layout == "component-major":
        u = _component_major(u)
    ref = _textbook_dirichlet(u, g)
    E = Stencil(g, u).dirichlet()
    assert abs(E - ref) <= 1e-14 * ref


@pytest.mark.parametrize("lam", [None, lambda x, y: 0.3 * np.cos(x) * np.sin(y)],
                         ids=["flat", "conformal"])
def test_energy_and_density_bits_do_not_depend_on_the_layout(lam):
    # E and |du|^2 are formed in the stencil's component-first buffers, so
    # a row-major map and a component-major copy give the same bits; a sum
    # in the map's memory order differs in the last bit for many such maps
    rng = np.random.default_rng(37)
    g = sf.build_grid(24, 20, Lx=5.0, Ly=3.0, lam=lam)
    sphere = sf.make_target("sphere", 4)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    for _ in range(8):
        c = _six_decades(rng, (24, 20, 4))
        cm = _component_major(c)
        assert c.flags.c_contiguous and not cm.flags.c_contiguous
        assert sf.dirichlet_energy(c, g) == sf.dirichlet_energy(cm, g)
        assert sf.energies(c, g, fields).E == \
            sf.energies(cm, g, fields).E
        assert np.array_equal(sf.grad_sq_density(c, g),
                              sf.grad_sq_density(cm, g))


@pytest.mark.parametrize("op", ["load", "dirichlet", "grad_sq", "hessian_sq",
                                "laplacian"])
def test_centred_after_each_operator_matches_a_fresh_stencil(op):
    # centred() hands back the stack the load formed, which no operator
    # writes
    rng = np.random.default_rng(35)
    g = sf.build_grid(24, 20, Lx=5.0, Ly=3.0)
    u, v = (_component_major(_six_decades(rng, (24, 20, 4)))
            for _ in range(2))
    ref = [a.copy() for a in Stencil(g, u).centred()]
    run = {"load": lambda st: st.load(u),
           "dirichlet": Stencil.dirichlet,
           "grad_sq": Stencil.grad_sq, "hessian_sq": Stencil.hessian_sq,
           "laplacian": lambda st: st.laplacian(sf.empty_map(u.shape))}[op]
    for primed in (False, True):
        st = Stencil(g, v if op == "load" else u)
        if primed:
            st.centred()
        run(st)
        ux, uy = st.centred()
        assert np.array_equal(ux, ref[0]) and np.array_equal(uy, ref[1])
    # a repeated call reads no buffer that the load left behind
    st.scratch[...] = np.nan
    ux, uy = st.centred()
    assert np.array_equal(ux, ref[0]) and np.array_equal(uy, ref[1])


@pytest.mark.parametrize("shape", [SMALL, SMALL + (4,), (96, 88, 4), LARGE],
                         ids=["scalar", "map", "map-96", "scalar-184"])
def test_stencil_operators_in_any_order_match_a_fresh_load(shape):
    # on a small and a large field, every operator of a stencil built
    # from another field of the shape and then loaded with u, after any
    # sequence of the others and again straight after itself, gives the
    # bits of the same operator on a stencil freshly built from u, from
    # one load: no operator writes the stacks or loads again
    rng = np.random.default_rng(39)
    g = sf.build_grid(*shape[:2], Lx=5.0, Ly=3.0)
    u, v = (_component_major(_six_decades(rng, shape)) for _ in range(2))
    ops = {"dirichlet": Stencil.dirichlet,
           "centred": lambda st: [a.copy() for a in st.centred()],
           "grad_sq": Stencil.grad_sq, "hessian_sq": Stencil.hessian_sq,
           "energy_density": Stencil.energy_density,
           "laplacian": lambda st: st.laplacian(sf.empty_map(u.shape))}
    fresh = {}
    for name, op in ops.items():
        built = Stencil(g, u)
        assert built.source is u
        fresh[name] = op(built)
    st = Stencil(g, v)
    assert st.source is v
    st.load(u)
    stacks = st.grads.tobytes(), st.second.tobytes()

    def no_load(f):
        raise AssertionError("an operator loaded the stencil again")

    st.load = no_load
    for order in itertools.permutations(ops):
        for name in order:
            for _ in range(2):
                assert np.array_equal(ops[name](st), fresh[name]), (order, name)
                assert (st.grads.tobytes(), st.second.tobytes()) == stacks, \
                    (order, name)
    assert st.source is u


@pytest.mark.parametrize("shape", [SMALL, SMALL + (4,), (96, 88), (96, 88, 4)],
                         ids=["scalar", "map", "scalar-96", "map-96"])
def test_one_shot_operators_match_the_workspace_stencil(shape):
    # each operator of a stencil built from u, and each free function
    # built on one, gives the bits of the stencil a run's Workspace holds,
    # built from another map and reloaded with u
    rng = np.random.default_rng(41)
    g = sf.build_grid(*shape[:2], Lx=5.0, Ly=3.0,
                      lam=lambda x, y: 0.2 * np.sin(x) * np.cos(y))
    u, v = (_component_major(_six_decades(rng, shape)) for _ in range(2))
    if len(shape) == 3:
        work = sf.Workspace(g, v, sf.zero_background(4)).stencil
    else:
        work = Stencil(g, v)
    ops = {"dirichlet": Stencil.dirichlet,
           "centred": lambda st: [a.copy() for a in st.centred()],
           "grad_sq": Stencil.grad_sq, "hessian_sq": Stencil.hessian_sq,
           "energy_density": Stencil.energy_density,
           "laplacian": lambda st: st.laplacian(sf.empty_map(u.shape))}
    for name, op in ops.items():
        assert np.array_equal(op(Stencil(g, u)), op(work.load(u))), name
    node = g.em2l if u.ndim == 2 else g.em2l[..., None]
    lap = work.load(u).laplacian(sf.empty_map(u.shape)) * node
    assert np.array_equal(sf.laplace_beltrami(u, g), lap)
    assert sf.dirichlet_energy(u, g) == work.load(u).dirichlet()
    assert np.array_equal(sf.grad_sq_density(u, g),
                          work.load(u).grad_sq() * g.em2l)
    assert np.array_equal(sf.hessian_sq_density(u, g),
                          work.load(u).hessian_sq())
    ux, uy = (a.copy() for a in work.load(u).centred())
    e = np.exp(-g.lam) if u.ndim == 2 else np.exp(-g.lam)[..., None]
    du1, du2 = frame_derivatives(u, g)
    assert np.array_equal(du1, e * ux) and np.array_equal(du2, e * uy)


def test_one_shot_dirichlet_energy_allocates_both_stacks_and_scratch():
    # the centred and second differences of both directions and one scratch
    # map, 5 maps
    import tracemalloc
    g = sf.build_grid(64, 64)
    u = sf.empty_map((64, 64, 4))
    u[...] = sf.perturb(sf.constant_map(g, sf.make_target("sphere", 4)),
                        seed=2, amplitude=0.3).values
    E = sf.dirichlet_energy(u, g)
    tracemalloc.start()
    try:
        assert sf.dirichlet_energy(u, g) == E
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # plus about 8 KiB of Python objects (the stencil, its dict, views)
    assert peak <= 5 * u.nbytes + 16 * 1024


@pytest.mark.parametrize("shape", [SMALL, SMALL + (4,), LARGE, LARGE + (4,)],
                         ids=["scalar", "map", "scalar-184", "map-184"])
def test_stencil_holds_one_plane_stack_and_views_in_the_field_shape(shape):
    # one field form: every buffer is a C-contiguous (q, nx, ny) stack, a
    # node scalar one plane; gx, gy and tmp are views of those buffers in
    # the field's shape, for a small and a large field
    g = sf.build_grid(*shape[:2], Lx=5.0, Ly=3.0)
    u = _six_decades(np.random.default_rng(43), shape)
    st = Stencil(g, u)
    planes = (shape[2] if len(shape) == 3 else 1,) + shape[:2]
    assert st.grads.shape == (2,) + planes and st.scratch.shape == planes
    assert st.grads.flags.c_contiguous and st.scratch.flags.c_contiguous
    for view, buf in ((st.gx, st.grads[0]), (st.gy, st.grads[1]),
                      (st.tmp, st.scratch)):
        assert view.shape == shape and np.shares_memory(view, buf)
    assert np.array_equal(st.gx, _roll_d0(u, 0, g.dx))
    assert np.array_equal(st.gy, _roll_d0(u, 1, g.dy))


@pytest.mark.parametrize("nodes", [(64, 64), LARGE], ids=["64", "184"])
def test_loading_a_row_major_map_copies_it_into_the_scratch(nodes):
    # a map whose component-first view is not C-contiguous is copied once
    # into the stencil's scratch, not into a fresh array, and differenced
    # from there: the load allocates less than one map
    import tracemalloc
    g = sf.build_grid(*nodes, Lx=5.0, Ly=3.0)
    u = _six_decades(np.random.default_rng(44), nodes + (4,))
    assert u.flags.c_contiguous
    st = Stencil(g, u)
    ref = Stencil(g, _component_major(u))
    tracemalloc.start()
    try:
        st.load(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes, peak
    assert np.array_equal(st.grads, ref.grads)
    assert np.array_equal(st.second, ref.second)
