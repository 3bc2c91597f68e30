import itertools

import numpy as np
import pytest

import stringflow as sf
from stringflow.errors import GridError, ShapeError, UnsupportedConfigurationError
from stringflow.grid import (Stencil, _sum_components, ball_kernel_transform,
                             ball_mask, ball_sum_map, component_dot,
                             energy_density, frame_derivatives)
from stringflow.fields import pullback_density

# node shapes on either side of SLICE_ABOVE_BYTES: a 24 x 20 stencil copies
# its shifts, a 184 x 200 one slices its field, a node scalar included
SMALL, LARGE = (24, 20), (184, 200)


def _both_paths(values):
    """(value, nodes) parameters: each value on the copy-path shape under
    its own id, then on the sliced one."""
    return ([pytest.param(v, SMALL, id=str(v)) for v in values]
            + [pytest.param(v, LARGE, id=f"{v}-sliced") for v in values])


def test_build_grid_basic():
    g = sf.build_grid(32, 16, Lx=2 * np.pi, Ly=np.pi)
    assert g.x.shape == (32,) and g.y.shape == (16,)
    assert np.isclose(g.dx, 2 * np.pi / 32)
    assert np.isclose(g.total_volume, 2 * np.pi ** 2)
    assert g.is_flat


def test_build_grid_rejects_small_and_bad_lambda():
    with pytest.raises(GridError):
        sf.build_grid(4, 32)
    with pytest.raises(GridError):
        sf.build_grid(32, 32, lam=np.inf)


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
    assert g4.total_volume == pytest.approx(4.0 * g.total_volume, rel=1e-14)


def test_ball_sum_map_matches_direct_sum():
    rng = np.random.default_rng(2)
    g = sf.build_grid(24, 24)
    dens = rng.random((24, 24))
    R = 0.7
    m = ball_sum_map(dens, g, R)
    for ix, iy in [(0, 0), (5, 17), (23, 1)]:
        direct = float(np.sum(dens[ball_mask(g, (ix, iy), R)]))
        assert m[ix, iy] == pytest.approx(direct, rel=1e-12, abs=1e-12)


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
    gc = sf.build_grid(16, 16, lam=0.3)
    with pytest.raises(UnsupportedConfigurationError):
        sf.ricci_identity_check(v[:16, :16], gc)


def test_l2_inner_shape_mismatch():
    g = sf.build_grid(16, 16)
    with pytest.raises(ShapeError):
        sf.l2_inner(np.zeros((16, 16)), np.zeros((16, 15)), g)


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
    """The Dirichlet sum from np.roll forward differences, division-free:
    the undivided differences of each direction, component-first,
    contracted by one einsum, each direction's sum scaled once."""
    D = np.stack([np.roll(u, -1, axis) - u for axis in (0, 1)])
    if u.ndim == 3:
        D = np.moveaxis(D, -1, 1)
    D = np.ascontiguousarray(D).reshape(2, -1)
    sx, sy = np.einsum("dk,dk->d", D, D)
    return float(sx * (g.dy / g.dx) + sy * (g.dx / g.dy))


def _textbook_dirichlet(u, g):
    """sum(|D+x u|^2 + |D+y u|^2) dx dy with (u[i+1] - u[i]) / dx."""
    gx = (np.roll(u, -1, axis=0) - u) / g.dx
    gy = (np.roll(u, -1, axis=1) - u) / g.dy
    return float(np.sum(gx * gx + gy * gy) * (g.dx * g.dy))


@pytest.mark.parametrize("seed, nodes", _both_paths(range(4)))
def test_forward_differences_and_dirichlet_energy_match_roll_bitwise(seed,
                                                                     nodes):
    # values over six decades, so that any change of operation order shows
    rng = np.random.default_rng(seed)
    g = sf.build_grid(*nodes, Lx=5.0, Ly=3.0)
    shape = nodes + (4,)
    assert Stencil(g, shape).sliced == (nodes == LARGE)
    u = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    E = sf.dirichlet_energy(u, g)
    assert E == _roll_dirichlet(u, g)
    assert abs(E - _textbook_dirichlet(u, g)) <= 1e-14 * E
    for a in (u, _component_major(u)):
        assert Stencil(g, shape).load(a).dirichlet() == E


@pytest.mark.parametrize("shape", [SMALL, SMALL + (3,), LARGE, LARGE + (3,)])
def test_density_wrappers_match_roll_formulas(shape):
    rng = np.random.default_rng(5)
    g = sf.build_grid(*shape[:2],
                      lam=lambda x, y: 0.3 * np.cos(x) * np.sin(y))
    assert Stencil(g, shape).sliced == (shape[:2] == LARGE)
    f = rng.standard_normal(shape)

    def sh(sx, sy):
        return np.roll(np.roll(f, -sx, axis=0), -sy, axis=1)

    e = g.eml if f.ndim == 2 else g.eml[..., None]
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
    d = energy_density(f, g)
    assert np.array_equal(d, Stencil(g, shape).load(f).energy_density())
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
            assert np.array_equal(_sum_components(X), _plane_loop_sum(X))
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
    assert Stencil(g, u.shape).sliced == (nodes == LARGE)
    ux, uy = Stencil(g, u.shape).load(u).centred()
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
    assert Stencil(g, u.shape).sliced == (nodes == LARGE)
    if layout == "component-major":
        u = _component_major(u)

    def node(a):
        return a if u.ndim == 2 else a[..., None]

    lap = node(g.em2l) * (_roll_d2(u, 0, g.dx) + _roll_d2(u, 1, g.dy))
    assert np.array_equal(sf.laplace_beltrami(u, g), lap)
    ux, uy = _roll_d0(u, 0, g.dx), _roll_d0(u, 1, g.dy)
    du1, du2 = frame_derivatives(u, g)
    assert np.array_equal(du1, node(g.eml) * ux)
    assert np.array_equal(du2, node(g.eml) * uy)
    assert sf.dirichlet_energy(u, g) == _roll_dirichlet(u, g)
    if u.ndim == 3:
        b = sf.make_two_form("y4", 4, beta=0.3)
        assert np.array_equal(pullback_density(u, b, g), b.pullback(u, ux, uy))


@pytest.mark.parametrize("shape", [SMALL, SMALL + (3,), LARGE, LARGE + (3,)])
def test_stencil_laplacian_matches_roll_formula(shape):
    # non-square conformal grid, dx != dy; the stencil Laplacian is flat
    rng = np.random.default_rng(32)
    g = sf.build_grid(*shape[:2], Lx=5.0, Ly=3.0,
                      lam=lambda x, y: 0.2 * np.sin(x) * np.cos(y))
    assert g.dx != g.dy
    assert Stencil(g, shape).sliced == (shape[:2] == LARGE)
    f = rng.standard_normal(shape)
    ref = (np.roll(f, -1, axis=0) + np.roll(f, 1, axis=0) - 2.0 * f) / g.dx ** 2 \
        + (np.roll(f, -1, axis=1) + np.roll(f, 1, axis=1) - 2.0 * f) / g.dy ** 2
    for a in (f, _component_major(f) if f.ndim == 3 else f):
        lap = Stencil(g, shape).load(a).laplacian(np.empty_like(a))
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
    E = Stencil(g, u.shape).load(u).dirichlet()
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
        assert sf.energies(sf.MapField(c, sphere), g, fields).E == \
            sf.energies(sf.MapField(cm, sphere), g, fields).E
        assert np.array_equal(sf.grad_sq_density(c, g),
                              sf.grad_sq_density(cm, g))


@pytest.mark.parametrize("op", ["load", "dirichlet", "grad_sq", "hessian_sq",
                                "laplacian"])
def test_centred_after_each_operator_matches_a_fresh_stencil(op):
    # centred() hands back the stack it formed for this load while that
    # stack is intact; a load or an operator that writes (gx, gy) forgets it
    rng = np.random.default_rng(35)
    g = sf.build_grid(24, 20, Lx=5.0, Ly=3.0)
    u, v = (_component_major(_six_decades(rng, (24, 20, 4)))
            for _ in range(2))
    ref = [a.copy() for a in Stencil(g, u.shape).load(u).centred()]
    run = {"load": lambda st: st.load(u),
           "dirichlet": Stencil.dirichlet,
           "grad_sq": Stencil.grad_sq, "hessian_sq": Stencil.hessian_sq,
           "laplacian": lambda st: st.laplacian(sf.empty_map(u.shape))}[op]
    for primed in (False, True):
        st = Stencil(g, u.shape).load(v if op == "load" else u)
        if primed:
            st.centred()
        run(st)
        ux, uy = st.centred()
        assert np.array_equal(ux, ref[0]) and np.array_equal(uy, ref[1])
    # a repeated call makes no pass over the shifts
    st.shifts[...] = np.nan
    ux, uy = st.centred()
    assert np.array_equal(ux, ref[0]) and np.array_equal(uy, ref[1])


@pytest.mark.parametrize("shape", [SMALL, SMALL + (4,), (96, 88, 4), LARGE],
                         ids=["scalar", "map", "map-sliced", "scalar-sliced"])
def test_stencil_operators_in_any_order_match_a_fresh_load(shape):
    # on either path, every operator, after any sequence of the others and
    # again straight after itself, gives the bits of the same operator on a
    # freshly loaded stencil; a node scalar needs a larger grid than a map
    # to take the sliced path.  Before its first load every operator raises
    rng = np.random.default_rng(39)
    g = sf.build_grid(*shape[:2], Lx=5.0, Ly=3.0)
    u = _component_major(_six_decades(rng, shape))
    ops = {"dirichlet": Stencil.dirichlet,
           "centred": lambda st: [a.copy() for a in st.centred()],
           "grad_sq": Stencil.grad_sq, "hessian_sq": Stencil.hessian_sq,
           "laplacian": lambda st: st.laplacian(sf.empty_map(u.shape))}
    fresh = {name: op(Stencil(g, u.shape).load(u)) for name, op in ops.items()}
    st = Stencil(g, u.shape)
    assert st.sliced == (shape[:2] != SMALL)
    for op in ops.values():
        with pytest.raises(GridError, match="never loaded"):
            op(st)
    for order in itertools.permutations(ops):
        st.load(u)
        for name in order:
            for _ in range(2):
                assert np.array_equal(ops[name](st), fresh[name]), (order, name)
    assert st.source is u


@pytest.mark.parametrize("shape", [SMALL, SMALL + (4,), (96, 88), (96, 88, 4)],
                         ids=["scalar", "map", "scalar-96", "map-sliced"])
def test_one_shot_operators_match_the_workspace_stencil(shape):
    # a one-shot stencil slices at every size and allocates only what its
    # operator needs; each operator and each free function built on it
    # gives the bits of the size-ruled stencil a run's Workspace holds
    rng = np.random.default_rng(41)
    g = sf.build_grid(*shape[:2], Lx=5.0, Ly=3.0,
                      lam=lambda x, y: 0.2 * np.sin(x) * np.cos(y))
    u = _component_major(_six_decades(rng, shape))
    if len(shape) == 3:
        work = sf.Workspace(g, shape, sf.zero_background(4)).stencil
    else:
        work = Stencil(g, shape)
    assert work.sliced == (shape == (96, 88, 4))
    ops = {"dirichlet": Stencil.dirichlet,
           "centred": lambda st: [a.copy() for a in st.centred()],
           "grad_sq": Stencil.grad_sq, "hessian_sq": Stencil.hessian_sq,
           "energy_density": Stencil.energy_density,
           "laplacian": lambda st: st.laplacian(sf.empty_map(u.shape))}
    for name, op in ops.items():
        once = Stencil.once(g, u)
        assert once.sliced and once.shifts is None
        assert np.array_equal(op(once), op(work.load(u))), name
    node = g.em2l if u.ndim == 2 else g.em2l[..., None]
    lap = work.load(u).laplacian(sf.empty_map(u.shape)) * node
    assert np.array_equal(sf.laplace_beltrami(u, g), lap)
    assert sf.dirichlet_energy(u, g) == work.load(u).dirichlet()
    assert np.array_equal(sf.grad_sq_density(u, g),
                          work.load(u).grad_sq() * g.em2l)
    assert np.array_equal(energy_density(u, g), work.load(u).energy_density())
    assert np.array_equal(sf.hessian_sq_density(u, g),
                          work.load(u).hessian_sq())
    ux, uy = (a.copy() for a in work.load(u).centred())
    e = g.eml if u.ndim == 2 else g.eml[..., None]
    du1, du2 = frame_derivatives(u, g)
    assert np.array_equal(du1, e * ux) and np.array_equal(du2, e * uy)
    if u.ndim == 3:
        b = sf.make_two_form("y4", 4, beta=0.3)
        assert np.array_equal(pullback_density(u, b, g), b.pullback(u, ux, uy))


def test_one_shot_dirichlet_energy_allocates_two_maps():
    # the forward differences of both directions and nothing else: no
    # shift stack, second differences or scratch (a copy-path stencil with
    # all its buffers holds 7 maps)
    import tracemalloc
    g = sf.build_grid(64, 64)
    u = sf.empty_map((64, 64, 4))
    u[...] = sf.random_smooth_map(g, sf.make_target("sphere", 4), seed=2,
                                  amplitude=0.3).values
    E = sf.dirichlet_energy(u, g)
    tracemalloc.start()
    try:
        assert sf.dirichlet_energy(u, g) == E
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # plus about 8 KiB of Python objects (the stencil, its dict, views)
    assert peak <= 2 * u.nbytes + 16 * 1024
