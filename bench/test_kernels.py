"""Microbenchmarks of the per-step kernels, at 32^2, 48^2, 64^2, 96^2 and
128^2, of the singular-point analysis at 64^2 and 128^2 (and the bubble
workload's whole read-back at 64^2), of a one-shot free function, and of
the start-up work a run does once (the sup-norm estimates, a small-energy
initial map).  At q = 4 the first three sizes stay on the stencil's copy
path, where it is faster than slicing, and the last two slice the map
(grid.SLICE_ABOVE_BYTES), so the kernels are timed on both sides.

    PYTHONPATH=src python -m pytest bench --benchmark-columns=min,median,iqr

Kept out of the tier-1 suite (pyproject `testpaths` is `tests`).  Every
map is a component-major unit map with q = 4, as inside a run.  numpy's
elementwise kernels run on one thread; the thread variables below also
keep any BLAS or OpenMP pool to one thread when this module is the first
to import numpy.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import stringflow as sf  # noqa: E402
from stringflow.action import _bfield_force, _record  # noqa: E402
from stringflow.grid import Stencil, component_dot  # noqa: E402

SIZES = (32, 48, 64, 96, 128)


@pytest.fixture(params=SIZES, ids=lambda n: f"{n}x{n}")
def case(request):
    n = request.param
    grid = sf.build_grid(n, n)
    sphere = sf.make_target("sphere", 4)
    u = sf.empty_map((n, n, 4))
    u[...] = sf.random_smooth_map(grid, sphere, seed=0, amplitude=0.3).values
    return grid, sphere, u


def test_stencil_load(benchmark, case):
    grid, _, u = case
    benchmark(Stencil(grid, u.shape).load, u)


def _per_load(benchmark, st, u, op, *args):
    """Time op(*args) on a freshly loaded stencil each round (the load is
    untimed): the Laplacian's second differences and the centred
    differences are formed once per load, so a repeated call would time a
    cache hit."""
    def setup():
        st.load(u)
        return args, {}

    benchmark.pedantic(op, setup=setup, rounds=200, warmup_rounds=5)


def test_stencil_dirichlet(benchmark, case):
    grid, _, u = case
    benchmark(Stencil(grid, u.shape).load(u).dirichlet)


def test_stencil_centred(benchmark, case):
    grid, _, u = case
    st = Stencil(grid, u.shape)
    _per_load(benchmark, st, u, st.centred)


def test_stencil_grad_sq(benchmark, case):
    # the centred differences and their contraction, as a ledger record
    # without a two-form forms them
    grid, _, u = case
    st = Stencil(grid, u.shape)
    _per_load(benchmark, st, u, st.grad_sq)


def test_stencil_laplacian(benchmark, case):
    grid, _, u = case
    st = Stencil(grid, u.shape)
    _per_load(benchmark, st, u, st.laplacian, sf.empty_map(u.shape))


def test_stencil_hessian_sq(benchmark, case):
    # after the centred differences and the Laplacian (untimed), the order
    # of a ledger record, whose Hessian reads the second differences that
    # the rhs's Laplacian formed
    grid, _, u = case
    st = Stencil(grid, u.shape)
    lap = sf.empty_map(u.shape)

    def setup():
        st.load(u).centred()
        st.laplacian(lap)
        return (), {}

    benchmark.pedantic(st.hessian_sq, setup=setup, rounds=200,
                       warmup_rounds=5)


def test_component_dot(benchmark, case):
    _, _, u = case
    benchmark(component_dot, u, u)


def test_sphere_project(benchmark, case):
    _, sphere, u = case
    y = sf.empty_map(u.shape)
    y[...] = 1.01 * u
    benchmark(sphere.project, y)


def test_flow_rhs_two_form_and_potential(benchmark, case):
    # the bfield workload's fields: the B-force and the potential's force
    # in one projection; each call loads the map
    grid, sphere, u = case
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4,
                                                    epsilon=5e-3))
    work = sf.Workspace(grid, u.shape, fields)
    benchmark(sf.flow_rhs, sf.MapField(u, sphere), grid, sphere, fields, work)


def test_bfield_force(benchmark, case):
    # the B-force and the potential's force as flow_rhs forms them, from
    # centred differences formed outside the timed call
    grid, sphere, u = case
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4,
                                                    epsilon=5e-3))
    work = sf.Workspace(grid, u.shape, fields)
    work.stencil.load(u).centred()
    benchmark(_bfield_force, work, u, sphere, fields.b, fields.V)


def test_step(benchmark, case):
    # zero fields: the gap_decay workload's step (rhs, trial, projection,
    # action, kinetic energy); the state advances from call to call
    grid, sphere, u = case
    state = sf.init_state(sf.MapField(u, sphere), grid, sphere,
                          sf.zero_background(4),
                          sf.FlowConfig(t_end=1e9, record_every=10**9))
    benchmark(sf.step, state)


def test_record(benchmark, case):
    # zero fields: a ledger record after a step (untimed), which reads the
    # action terms, centred and second differences that the step left
    grid, sphere, u = case
    state = sf.init_state(sf.MapField(u, sphere), grid, sphere,
                          sf.zero_background(4),
                          sf.FlowConfig(t_end=1e9, record_every=10**9))

    def setup():
        sf.step(state)
        return (state,), {}

    benchmark.pedantic(_record, setup=setup, rounds=200, warmup_rounds=5)


@pytest.fixture(params=(64, 128), ids=lambda n: f"{n}x{n}")
def analysis_case(request):
    n = request.param
    grid = sf.build_grid(n, n)
    sphere = sf.make_target("sphere", 4)
    u = sf.empty_map((n, n, 4))
    u[...] = sf.bump_map(grid, sphere, scale=0.3).values
    return grid, sphere, u


def test_assemble_A(benchmark, analysis_case):
    grid, sphere, u = analysis_case
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.zero_potential(4))
    benchmark(sf.assemble_A, u, grid, sphere, fields)


def test_rescale_window_dirichlet_energy(benchmark, analysis_case):
    # the bubble workload's analysis of one radius: a 16-entry window on the
    # commensurate out-grid, each entry rolled and its energy taken
    grid, _, u = analysis_case
    r = 4 * grid.dx
    snaps = [(r * r * k / 15, u) for k in range(16)]
    og = sf.rescale_out_grid(grid, r)

    def window():
        seq = sf.parabolic_rescale(snaps, ((grid.nx // 3, grid.ny // 2),
                                           r * r), r, grid, og)["sequence"]
        return [sf.dirichlet_energy(v, og) for _, v in seq]

    benchmark(window)


def _bubble_64():
    grid = sf.build_grid(64, 64)
    sphere = sf.make_target("sphere", 4)
    u = sf.empty_map((64, 64, 4))
    u[...] = sf.bump_map(grid, sphere, scale=0.3).values
    return grid, sphere, u


def test_bubble_read_back_64(benchmark):
    # the bubble workload's read-back of a 64-entry ring ending at t0 = 0.6:
    # every radius k*dx (k >= 2) whose window the ring covers (6 of them),
    # each entry rolled onto the commensurate out-grid and its energy taken
    grid, _, u = _bubble_64()
    t0 = 0.6
    snaps = [(t, u) for t in np.linspace(0.12, t0, 64)]
    radii = [k * grid.dx for k in range(2, grid.nx // 2)
             if t0 - (k * grid.dx) ** 2 >= snaps[0][0]]
    assert len(radii) == 6

    def read_back():
        for r in radii:
            og = sf.rescale_out_grid(grid, r)
            seq = sf.parabolic_rescale(snaps, ((20, 41), t0), r, grid,
                                       og)["sequence"]
            for _, v in seq:
                sf.dirichlet_energy(v, og)

    benchmark(read_back)


def test_assemble_A_and_rewrite_residual_64(benchmark):
    # the bubble workload's rewritten Euler-Lagrange check (zero fields)
    grid, sphere, u = _bubble_64()
    fields = sf.zero_background(4)

    def rewrite():
        A = sf.assemble_A(u, grid, sphere, fields)
        return sf.rewrite_residual(u, A, grid, sphere, fields)

    benchmark(rewrite)


@pytest.mark.parametrize("n", (48, 64, 128), ids=lambda n: f"{n}x{n}")
def test_one_shot_dirichlet_energy(benchmark, n):
    # a free-function call: a one-shot stencil that slices the map
    grid = sf.build_grid(n, n)
    u = sf.empty_map((n, n, 4))
    u[...] = sf.random_smooth_map(grid, sf.make_target("sphere", 4), seed=0,
                                  amplitude=0.3).values
    benchmark(sf.dirichlet_energy, u, grid)


# -- start-up: what a run computes once, before its first step ---------------

@pytest.mark.parametrize("kinds", [("y4", "height"), ("zero", "zero")],
                         ids=["y4-height", "zero"])
def test_sup_norms(benchmark, kinds):
    # the hypothesis estimates of the bfield workload's fields, and of the
    # zero fields of the others, at the default 4096 points and 4 pairs
    sphere = sf.make_target("sphere", 4)
    b = sf.make_two_form(kinds[0], 4, beta=0.2)
    V = sf.make_potential(kinds[1], 4, epsilon=5e-3)
    benchmark(sf.sup_norms, b, V, sphere)


def test_small_energy_map(benchmark):
    # the gap workload's initial map: low-pass noise, then a bisection on
    # the amplitude over 39 Dirichlet energies
    grid = sf.build_grid(48, 48)
    sphere = sf.make_target("sphere", 4)
    benchmark(sf.small_energy_map, grid, sphere, 0.01, seed=4, max_mode=2)
