"""Microbenchmarks of the per-step kernels, at 32^2, 48^2, 64^2, 96^2 and
128^2, of the singular-point analysis at 64^2 and 128^2 (and the bubble
workload's whole read-back at 64^2), of a one-shot free function, and of
the start-up work a run does once (the closed-form sup norms, a
small-energy initial map).  The sizes run from maps whose stencil stays
in a per-core L2 to maps whose stencil outgrows it.

    PYTHONPATH=src python -m pytest bench --benchmark-columns=min,median,iqr

Kept out of the tier-1 suite (pyproject `testpaths` is `tests`).  Every
map is a component-major unit map with q = 4, as inside a run, except in
the two benchmarks of the stencil's other inputs (a row-major map, which
the load copies once, and a node scalar).  numpy's
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
from stringflow.action import (  # noqa: E402
    _bfield_force, _loaded_rhs, _record, _trial)
from stringflow.grid import Stencil, component_dot  # noqa: E402

SIZES = (32, 48, 64, 96, 128)


@pytest.fixture(params=SIZES, ids=lambda n: f"{n}x{n}")
def case(request):
    n = request.param
    grid = sf.build_grid(n, n)
    sphere = sf.make_target("sphere", 4)
    u = sf.empty_map((n, n, 4))
    u[...] = sf.perturb(sf.constant_map(grid, sphere), seed=0,
                        amplitude=0.3).values
    return grid, sphere, u


def test_stencil_load(benchmark, case):
    # both difference stacks: the centred and the undivided second
    # differences
    grid, _, u = case
    benchmark(Stencil(grid, u).load, u)


@pytest.mark.parametrize("n", (48, 128), ids=lambda n: f"{n}x{n}")
def test_stencil_load_row_major(benchmark, n):
    # a row-major map's component-first view is strided, so the load first
    # copies it into the stencil's scratch
    grid = sf.build_grid(n, n)
    u = np.ascontiguousarray(sf.perturb(
        sf.constant_map(grid, sf.make_target("sphere", 4)), seed=0,
        amplitude=0.3).values)
    benchmark(Stencil(grid, u).load, u)


@pytest.mark.parametrize("n", (48, 128), ids=lambda n: f"{n}x{n}")
def test_laplace_beltrami_node_scalar(benchmark, n):
    # a node scalar is held as one plane: bochner_density's Laplacian of
    # |du|^2 / 2 (a flat grid)
    grid = sf.build_grid(n, n)
    u = sf.perturb(sf.constant_map(grid, sf.make_target("sphere", 4)),
                   seed=0, amplitude=0.3).values
    f = 0.5 * sf.grad_sq_density(u, grid)
    benchmark(sf.laplace_beltrami, f, grid)


# every operator below reads the stacks of one untimed load, and none
# writes them, so a repeated call times the same work

def test_stencil_dirichlet(benchmark, case):
    # one contraction of each stack
    grid, _, u = case
    benchmark(Stencil(grid, u).dirichlet)


def test_stencil_centred(benchmark, case):
    # hands out the stack the load formed: the cost of an operator call
    grid, _, u = case
    benchmark(Stencil(grid, u).centred)


def test_stencil_grad_sq(benchmark, case):
    # the contraction of the centred differences, as a ledger record
    # without a two-form takes it
    grid, _, u = case
    benchmark(Stencil(grid, u).grad_sq)


def test_stencil_laplacian(benchmark, case):
    grid, _, u = case
    benchmark(Stencil(grid, u).laplacian, sf.empty_map(u.shape))


def test_stencil_hessian_sq(benchmark, case):
    # the cross difference into scratch and one contraction of each term,
    # as a ledger record takes it
    grid, _, u = case
    benchmark(Stencil(grid, u).hessian_sq)


def test_component_dot(benchmark, case):
    _, _, u = case
    benchmark(component_dot, u, u)


def test_sphere_project(benchmark, case):
    _, sphere, u = case
    y = sf.empty_map(u.shape)
    y[...] = 1.01 * u
    benchmark(sphere.project, y)


@pytest.mark.parametrize("b_kind", ["y4", "zero"],
                         ids=["y4+height", "height"])
def test_flow_rhs_two_form_and_potential(benchmark, case, b_kind):
    # y4+height is the bfield workload's fields, height the potential
    # alone: either way _bfield_force projects the forces once.  As in a
    # step, the rhs reads a load made outside the timed call
    grid, sphere, u = case
    b = sf.make_two_form(b_kind, 4, beta=0.2 if b_kind == "y4" else 0.0)
    fields = sf.FieldBackground(b=b, V=sf.make_potential("height", 4,
                                                         epsilon=5e-3))
    work = sf.Workspace(grid, u, fields)
    benchmark(_loaded_rhs, work, sphere, fields)


def test_bfield_force(benchmark, case):
    # the B-force and the potential's force as flow_rhs forms them, from
    # centred differences formed outside the timed call
    grid, sphere, u = case
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4,
                                                    epsilon=5e-3))
    work = sf.Workspace(grid, u, fields)
    benchmark(_bfield_force, work, sphere, fields)


def test_step(benchmark, case):
    # zero fields: the gap_decay workload's step (rhs, trial, projection,
    # action, kinetic energy); the state advances from call to call
    grid, sphere, u = case
    state = sf.init_state(sf.MapField(u, sphere), grid, sphere,
                          sf.zero_background(4),
                          sf.FlowConfig(t_end=1e9, record_every=10**9))
    benchmark(sf.step, state)


def test_trial(benchmark, case):
    # the bfield workload's fields: one candidate u + dt rhs in a fresh
    # map, its in-place projection and its action (pullback and potential
    # included), from the state init_state leaves (untimed)
    grid, sphere, u = case
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4,
                                                    epsilon=5e-3))
    state = sf.init_state(sf.MapField(u, sphere), grid, sphere, fields,
                          sf.FlowConfig(t_end=1e9, record_every=10**9))
    benchmark(_trial, state, state.rhs, state.dt)


def test_record(benchmark, case):
    # zero fields: a ledger record after a step (untimed), which reads the
    # action terms and the two stacks of the step's load
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
    # a free-function call builds a stencil from the map (5 maps, and
    # its load) and applies one operator
    grid = sf.build_grid(n, n)
    u = sf.empty_map((n, n, 4))
    u[...] = sf.perturb(sf.constant_map(grid, sf.make_target("sphere", 4)),
                        seed=0, amplitude=0.3).values
    benchmark(sf.dirichlet_energy, u, grid)


# -- start-up: what a run computes once, before its first step ---------------

@pytest.mark.parametrize("kinds", [("y4", "height"), ("zero", "zero")],
                         ids=["y4-height", "zero"])
def test_sup_norms(benchmark, kinds):
    # the closed-form sup norms of the bfield workload's fields, and of the
    # zero fields of the others
    sphere = sf.make_target("sphere", 4)
    b = sf.make_two_form(kinds[0], 4, beta=0.2 if kinds[0] == "y4" else 0.0)
    V = sf.make_potential(kinds[1], 4,
                          epsilon=5e-3 if kinds[1] == "height" else 0.0)
    benchmark(sf.sup_norms, b, V, sphere)


def test_small_energy_map(benchmark):
    # the gap workload's initial map: low-pass noise, then a bisection on
    # the amplitude over 39 Dirichlet energies
    grid = sf.build_grid(48, 48)
    sphere = sf.make_target("sphere", 4)
    benchmark(sf.small_energy_map, grid, sphere, 0.01, seed=4, max_mode=2)
