"""Microbenchmarks of the per-step kernels, at 48^2, 64^2 and 128^2.

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
from stringflow.grid import Stencil, component_dot  # noqa: E402

SIZES = (48, 64, 128)


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


def test_stencil_forward(benchmark, case):
    grid, _, u = case
    benchmark(Stencil(grid, u.shape).load(u).forward)


def test_stencil_centred(benchmark, case):
    grid, _, u = case
    benchmark(Stencil(grid, u.shape).load(u).centred)


def test_stencil_laplacian(benchmark, case):
    # the Laplacian spends the shifts, so each round reloads (untimed)
    grid, _, u = case
    st, out = Stencil(grid, u.shape), sf.empty_map(u.shape)

    def setup():
        st.load(u)
        return (out,), {}

    benchmark.pedantic(st.laplacian, setup=setup, rounds=200,
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


def test_step(benchmark, case):
    # zero fields: the gap_decay workload's step (rhs, trial, projection,
    # action, kinetic energy); the state advances from call to call
    grid, sphere, u = case
    state = sf.init_state(sf.MapField(u, sphere), grid, sphere,
                          sf.zero_background(4),
                          sf.FlowConfig(t_end=1e9, record_every=10**9))
    benchmark(sf.step, state)
