"""Convergence orders of the whole flow against an exact solution.

A map into the great circle u = (cos theta, sin theta, 0, 0) follows the
harmonic map heat flow exactly when theta follows the heat equation, so

    theta(x, y, t) = x + 0.5 e^{-4t} sin(2y)

gives an exact flow on the flat torus.  The scheme is second order in
space (centred and 5-point differences) and first order in time
(projected explicit Euler), so halving dx should divide the error by
about 4 and halving dt should divide it by about 2.  The windows allow
those factors 12.5% and 10% either way; the measured ratios are 3.94 and
4.01 (flat, with or without y4), 3.81 (conformal) and 2.00 (time).

With a two-form and a potential acting there is no exact solution, so
successive grids are compared with each other, flat and conformal, and the
defect of the dissipation identity is checked to fall at the same order:
the map differences fall by 3.90 (flat) and 3.88 (conformal), the defect
by 4.37 and 4.20.
"""

import numpy as np
import pytest

import stringflow as sf

T_END = 0.25
SPACE_RATIO = (3.5, 4.5)
TIME_RATIO = (1.8, 2.2)


@pytest.fixture(scope="module")
def sphere():
    return sf.make_target("sphere", 4)


def _theta(grid, t):
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    return X + 0.5 * np.exp(-4.0 * t) * np.sin(2.0 * Y)


def _circle_map(theta):
    u = np.zeros(theta.shape + (4,))
    u[..., 0], u[..., 1] = np.cos(theta), np.sin(theta)
    return u


def _run(grid, u0, sphere, fields, dt_scale=1.0):
    """The state at T_END from u0, at a fixed dt."""
    # the ledger is not checked here, so it records only the two ends; dt
    # starts at the CFL bound and never grows past it
    cfg = sf.FlowConfig(t_end=T_END, cfl=0.2 * dt_scale, record_every=10**9)
    state = sf.run(u0, grid, sphere, fields, cfg)
    assert state.t == T_END and not state.events
    return state


def _flow(n, sphere, fields, lam=None, dt_scale=1.0):
    """The map at T_END from the exact map at t = 0, at a fixed dt."""
    grid = sf.build_grid(n, n, lam=lam)
    u0 = sf.MapField(_circle_map(_theta(grid, 0.0)), sphere)
    return grid, _run(grid, u0, sphere, fields, dt_scale).u.values


def _in_window(ratios, window):
    lo, hi = window
    return all(lo <= r <= hi for r in ratios)


@pytest.mark.parametrize("b_kind,beta", [("zero", 0.0), ("y4", 0.2)])
def test_flat_flow_converges_at_second_order_in_space(sphere, b_kind, beta):
    # the y4 force vanishes on a map into the (y1, y2) circle up to O(dx^2),
    # so the two-form leaves the error of the exact flow
    fields = sf.FieldBackground(b=sf.make_two_form(b_kind, 4, beta=beta),
                                V=sf.zero_potential(4))
    errors = []
    for n in (16, 32, 64):
        grid, u = _flow(n, sphere, fields)
        errors.append(np.max(np.abs(u - _circle_map(_theta(grid, T_END)))))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert _in_window(ratios, SPACE_RATIO), (errors, ratios)


def test_conformal_flow_converges_at_second_order_in_space(sphere):
    # no exact solution with lam != 0: compare successive grids on the nodes
    # they share
    fields = sf.FieldBackground(b=sf.zero_two_form(4), V=sf.zero_potential(4))
    maps = [_flow(n, sphere, fields,
                  lam=lambda x, y: 0.3 * np.sin(x) * np.cos(y))[1]
            for n in (16, 32, 64)]
    diffs = [np.max(np.abs(coarse - fine[::2, ::2]))
             for coarse, fine in zip(maps, maps[1:])]
    ratios = [diffs[0] / diffs[1]]
    assert _in_window(ratios, SPACE_RATIO), (diffs, ratios)


@pytest.mark.parametrize("lam", [None, lambda x, y: 0.3 * np.sin(x) * np.cos(y)],
                         ids=["flat", "conformal"])
def test_flow_with_every_term_acting_converges_at_second_order_in_space(
        sphere, lam):
    # a harmonic map onto a Clifford torus, on which the y4 two-form and
    # the height potential both act; successive grids are compared on the
    # nodes they share, and the defect |S + D - S0| of the dissipation
    # identity falls at the same order.  From 16^2 to 32^2 the defect falls
    # faster (5.2 flat, 4.7 conformal), so only 32^2 to 64^2 is checked
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.4),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    maps, defects = [], []
    for n in (16, 32, 64):
        grid = sf.build_grid(n, n, lam=lam)
        state = _run(grid, sf.clifford_map(grid, sphere, 1, 1), sphere,
                     fields)
        maps.append(state.u.values)
        defects.append(abs(state.terms.S_tilde + state.cum_dissipation
                           - state.S0))
    diffs = [np.max(np.abs(coarse - fine[::2, ::2]))
             for coarse, fine in zip(maps, maps[1:])]
    ratios = [diffs[0] / diffs[1], defects[1] / defects[2]]
    assert _in_window(ratios, SPACE_RATIO), (diffs, defects, ratios)


def test_flow_converges_at_first_order_in_time(sphere):
    fields = sf.FieldBackground(b=sf.zero_two_form(4), V=sf.zero_potential(4))
    maps = [_flow(32, sphere, fields, dt_scale=s)[1] for s in (1.0, 0.5, 0.25)]
    diffs = [np.max(np.abs(a - b)) for a, b in zip(maps, maps[1:])]
    ratios = [diffs[0] / diffs[1]]
    assert _in_window(ratios, TIME_RATIO), (diffs, ratios)
