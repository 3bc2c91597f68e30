"""Lattice-exact linear oracles for the explicit stepper.

About a constant map, a small Fourier mode delta sin(kx) e2 of the flow on
the flat torus is an eigenvector of the 5-point Laplacian, with eigenvalue
-lambda_k, lambda_k = (4/dx^2) sin^2(k dx/2).  So one projected Euler step
of length h multiplies its amplitude by 1 - h lambda_k exactly, up to
terms of order delta^2.  About the minimum -e1 of the height potential
V = epsilon u^1, the force -P(u) epsilon e1 adds epsilon to that rate.
The predictions take only dx, k and each taken step's h (the differences
of state.t); with delta = 1e-6 the nonlinear terms are O(1e-12), and the
gate is 1e-8 relative.  Two modes share a run in two tangent directions,
e2 and e3, which the linear flow does not mix; in one direction the
rounding of the slower mode would swamp a faster one that has decayed to
1e-23.  The order windows of test_accuracy.py and A1, which a stepper
with a coefficient wrong by a few percent passes, stay as they are.
"""

import math

import numpy as np
import pytest

import stringflow as sf

DELTA = 1e-6
T_END = 0.5
TOL = 1e-8


def _mode_amplitudes(n, ks, base, fields, rate):
    """Measured and predicted sin(kx) amplitudes at T_END, per k, from
    u0 = pi(base e1 + DELTA sum_j sin(k_j x) e_{2+j}) on a flat n x n grid
    at the default CFL dt; `fields` adds `rate` to each decay rate."""
    grid = sf.build_grid(n, n)
    sphere = sf.make_target("sphere", 4)
    X, _ = np.meshgrid(grid.x, grid.y, indexing="ij")
    u = np.zeros((n, n, 4))
    u[..., 0] = base
    for j, k in enumerate(ks):
        u[..., 1 + j] = DELTA * np.sin(k * X)
    state = sf.init_state(sf.MapField(sphere.project(u), sphere), grid,
                          sphere, fields, sf.FlowConfig(t_end=T_END))
    ts = [state.t]
    while state.t < T_END:
        sf.step(state)
        ts.append(state.t)
    assert state.t == T_END and not state.events
    h = np.diff(ts)
    out = []
    for j, k in enumerate(ks):
        measured = 2.0 * np.mean(state.u.values[..., 1 + j] * np.sin(k * X))
        lam = 4.0 / grid.dx ** 2 * math.sin(0.5 * k * grid.dx) ** 2
        out.append((k, measured, DELTA * np.prod(1.0 - h * (lam + rate))))
    return out


@pytest.mark.parametrize("n,ks", [(32, (3, 5)), (64, (5, 9))])
def test_fourier_mode_decays_by_the_lattice_factor(n, ks):
    for k, measured, predicted in _mode_amplitudes(
            n, ks, 1.0, sf.zero_background(4), 0.0):
        assert abs(measured / predicted - 1.0) <= TOL, (n, k)


@pytest.mark.parametrize("epsilon", [0.1, 0.5])
def test_mode_about_the_height_minimum_decays_faster_by_epsilon(epsilon):
    fields = sf.FieldBackground(
        b=sf.make_two_form("zero", 4),
        V=sf.make_potential("height", 4, epsilon=epsilon))
    (k, measured, predicted), = _mode_amplitudes(32, (3,), -1.0, fields,
                                                 epsilon)
    assert abs(measured / predicted - 1.0) <= TOL, (epsilon, k)
