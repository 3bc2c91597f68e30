import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import stringflow as sf
from stringflow.action import _record
from stringflow.errors import GridError
from stringflow.grid import energy_density
from stringflow.singular import local_action_density


@pytest.fixture
def sphere():
    return sf.make_target("sphere", 4)


def test_k_bound_values():
    assert sf.k_bound(10.0, 0.5, 2.0) == 80
    assert sf.k_bound(0.0, 0.5, 2.0) == 0
    assert sf.k_bound(-1.0, 0.5, 2.0) == 0
    with pytest.raises(GridError):
        sf.k_bound(1.0, 0.0, 2.0)


def test_concentration_scan_constant_map_empty(sphere):
    g = sf.build_grid(32, 32)
    u = sf.constant_map(g, sphere)
    assert sf.concentration_scan(u.values, g, 0.5, 0.5) == []


def test_concentration_scan_finds_bump_center(sphere):
    g = sf.build_grid(64, 64)
    u = sf.bump_map(g, sphere, scale=6 * g.dx)
    hits = sf.concentration_scan(u.values, g, 0.5, 0.5)
    assert len(hits) >= 1
    (ix, iy), e = hits[0]
    # strongest cluster sits at the bump center (grid midpoint)
    assert abs(ix - 32) <= 2 and abs(iy - 32) <= 2
    assert e >= 0.5


def test_concentration_scan_deterministic(sphere):
    g = sf.build_grid(48, 48)
    u = sf.bump_map(g, sphere, scale=0.3)
    a = sf.concentration_scan(u.values, g, 0.5, 0.5)
    b = sf.concentration_scan(u.values, g, 0.5, 0.5)
    assert a == b


def test_choose_R1_T1_small_data(sphere):
    g = sf.build_grid(32, 32)
    u = sf.small_energy_map(g, sphere, energy=0.01, seed=0, max_mode=2)
    R1, T1, warned = sf.choose_R1_T1(u.values, g, sf.zero_background(4), 0.5, 2.0)
    assert R1 > 0 and T1 > 0
    assert not warned


def test_choose_R1_T1_concentrated_warns(sphere):
    g = sf.build_grid(64, 64)
    u = sf.bump_map(g, sphere, scale=4 * g.dx)
    R1, _, warned = sf.choose_R1_T1(u.values, g, sf.zero_background(4), 0.5, 2.0)
    assert warned or R1 < 0.5


def test_local_action_density_sums_to_action(sphere):
    g = sf.build_grid(24, 24)
    fields = sf.FieldBackground(b=sf.make_two_form("y4", 4, beta=0.2),
                                V=sf.make_potential("height", 4, epsilon=0.1))
    u = sf.random_smooth_map(g, sphere, seed=1, amplitude=0.1)
    dens = local_action_density(u.values, g, fields)
    from stringflow.fields import pullback_density
    expected = (0.5 * float(np.sum(sf.grad_sq_density(u.values, g) * g.w))
                + float(np.sum(pullback_density(u.values, fields.b, g))) * g.dx * g.dy
                + float(np.sum(fields.V.shifted(u.values) * g.w)))
    assert float(np.sum(dens)) == pytest.approx(expected, rel=1e-12)
    # and it agrees with the ledger action up to stencil truncation
    terms = sf.energies(u, g, fields)
    assert float(np.sum(dens)) == pytest.approx(terms.S_tilde, rel=0.05)


def test_parabolic_rescale_exact_on_commensurate_grid(sphere):
    g = sf.build_grid(32, 32)
    u = sf.bump_map(g, sphere, scale=0.4)
    r = 4 * g.dx
    og = sf.rescale_out_grid(g, r)
    res = sf.parabolic_rescale([(0.0, u.values), (r * r, u.values)],
                               ((16, 16), r * r), r, g, og)
    v = res["sequence"][-1][1]
    assert sf.dirichlet_energy(v, og) == pytest.approx(
        sf.dirichlet_energy(u.values, g), rel=1e-12)
    assert res["gradV_factor"] == pytest.approx(1.0 / r ** 2)


@pytest.mark.parametrize("k", [2, 5, 11])
def test_commensurate_zoom_is_a_roll_of_the_snapshot(sphere, k):
    # on the default out-grid every zoom point is a node (up to the
    # rounding of r * dx', which snaps), so the zoom gathers node values:
    # the snapshot rolled to put the zoom node at the centre, exactly
    g = sf.build_grid(32, 24, Lx=5.0, Ly=4.0)
    u = sf.empty_map((32, 24, 4))
    u[...] = sf.random_smooth_map(g, sphere, seed=5, amplitude=0.3).values
    r = k * max(g.dx, g.dy)
    (ix, iy), og = (7, 19), sf.rescale_out_grid(g, r)
    res = sf.parabolic_rescale([(0.0, u), (r * r, u)], ((ix, iy), r * r), r,
                               g, og)
    cx, cy = res["center"]
    for _, v in res["sequence"]:
        assert np.array_equal(v, np.roll(u, (cx - ix, cy - iy), axis=(0, 1)))


def test_parabolic_rescale_requires_coverage_and_scale(sphere):
    g = sf.build_grid(32, 32)
    u = sf.constant_map(g, sphere)
    with pytest.raises(GridError):
        sf.parabolic_rescale([(0.0, u.values)], ((0, 0), 10.0), 4 * g.dx,
                             g, sf.rescale_out_grid(g, 4 * g.dx))
    with pytest.raises(GridError):
        sf.parabolic_rescale([(0.0, u.values)], ((0, 0), 0.0), 0.5 * g.dx,
                             g, g)


def test_ladyzhenskaya_ratio_zero_for_constant(sphere):
    g = sf.build_grid(24, 24)
    u = sf.constant_map(g, sphere)
    assert sf.ladyzhenskaya_ratio(u.values, g, 0.5) == 0.0


def test_ladyzhenskaya_ratio_bounded_on_smooth_maps(sphere):
    g = sf.build_grid(32, 32)
    vals = []
    for seed in range(3):
        u = sf.random_smooth_map(g, sphere, seed=seed, amplitude=0.4)
        vals.append(sf.ladyzhenskaya_ratio(u.values, g, 0.5))
    assert all(0 < v < 100 for v in vals)


def test_stiffness_event_on_dt_collapse(sphere):
    # an artificially tiny dt ceiling cannot trigger, but a huge dt_min with
    # an increasing-action step forces the collapse path
    g = sf.build_grid(32, 32)
    u = sf.bump_map(g, sphere, scale=3 * g.dx)
    cfg = sf.FlowConfig(t_end=5e-4, dt_min=1e-12, record_every=1000,
                        ball_radius=0.4)
    st = sf.run(u, g, sphere, sf.zero_background(4), cfg)
    # the run completes whether or not a collapse happened
    assert st.t >= 5e-4 - 1e-12
    for ev in st.events:
        assert ev.kind in ("concentration", "stiffness")


def test_dt_min_collapse_records_event_and_is_not_an_error(sphere):
    # a stationary map cannot decrease the action by the demanded margin
    # (tol_up < 0, which validate rejects, so it is set on the running
    # state), so every halving fails and dt collapses to dt_min; the state
    # stays finite, so the step is accepted with an event
    g = sf.build_grid(32, 32)
    u = sf.geodesic_wrap(g, sphere, m=1, n=0)
    cfg = sf.FlowConfig(t_end=1.0, dt_min=1e-12, ball_radius=0.4)
    st = sf.init_state(u, g, sphere, sf.zero_background(4), cfg)
    st.config = replace(cfg, tol_up=-1e-12)
    sf.step(st)
    assert st.dt == 1e-12 and st.t == 1e-12
    assert [ev.kind for ev in st.events] in (["stiffness"], ["concentration"])
    # the event's energy is the largest ball energy of the one density
    loc = sf.ball_sum_map(energy_density(st.u.values, g), g, cfg.ball_radius)
    assert st.events[0].local_energy == float(np.max(loc))
    # the rhs carried to the next step is that of the accepted map
    assert np.array_equal(st.rhs, sf.flow_rhs(st.u, g, sphere,
                                              sf.zero_background(4)))


@pytest.mark.parametrize("lam", [None, lambda x, y: 0.3 * np.sin(x) * np.cos(y)],
                         ids=["flat", "conformal"])
def test_event_scan_and_ledger_share_the_ball_energy_bitwise(sphere, lam):
    # the dt_min event, the top site of concentration_scan and the ledger's
    # sup_local_energy sum one |du|^2 dvol density over one ball map, so
    # they agree bit for bit at delta1 also on a conformal grid
    g = sf.build_grid(32, 32, lam=lam)
    u = sf.bump_map(g, sphere, scale=0.3)
    R = 0.4
    cfg = sf.FlowConfig(t_end=1.0, dt_min=1e-12, ball_radius=R)
    st = sf.init_state(u, g, sphere, sf.zero_background(4), cfg)
    st.config = replace(cfg, tol_up=-1e3)
    sf.step(st)
    _record(st)
    (ev,) = st.events
    assert ev.local_energy == sf.concentration_scan(st.u.values, g, 0.0,
                                                    R)[0][1]
    assert ev.local_energy == st.ledger.records[-1].sup_local_energy


@pytest.mark.parametrize("og", [
    lambda g, r: sf.build_grid(20, 18, Lx=3.3, Ly=2.9),
    lambda g, r: sf.build_grid(g.nx, g.ny, Lx=g.Lx / r, Ly=1.01 * g.Ly / r),
    lambda g, r: sf.build_grid(g.nx, g.ny, Lx=g.Lx / r, Ly=g.Ly / r, lam=0.1),
], ids=["other-nodes", "other-period", "conformal"])
def test_non_commensurate_out_grid_is_a_grid_error(sphere, og):
    # the zoom is a roll of the snapshot, exact only on rescale_out_grid;
    # any other out-grid would need interpolation, which is not offered
    g = sf.build_grid(32, 24, Lx=5.0, Ly=4.0)
    u = sf.random_smooth_map(g, sphere, seed=1, amplitude=0.3).values
    r = 0.37
    with pytest.raises(GridError, match="rescale_out_grid"):
        sf.parabolic_rescale([(0.0, u), (r * r, u)], ((5, 19), r * r), r, g,
                             og(g, r))


@pytest.mark.parametrize("node", [(-1, 3), (16, 3), (3, 40)],
                         ids=["-1,3", "16,3", "3,40"])
def test_zoom_node_off_the_grid_is_a_grid_error(sphere, node):
    # a roll would wrap any integer node silently
    g = sf.build_grid(16, 16)
    u = sf.constant_map(g, sphere).values
    r = 4 * g.dx
    with pytest.raises(GridError, match=rf"\({node[0]}, {node[1]}\)"):
        sf.parabolic_rescale([(0.0, u), (r * r, u)], (node, r * r), r, g,
                             sf.rescale_out_grid(g, r))


def _window(sphere, n_snaps, dt):
    """A 32^2 grid and n_snaps component-major snapshots dt apart."""
    g = sf.build_grid(32, 32)
    snaps = []
    for k in range(n_snaps):
        v = sf.empty_map((32, 32, 4))
        v[...] = sf.random_smooth_map(g, sphere, seed=k, amplitude=0.3).values
        snaps.append((dt * k, v))
    return g, snaps


def test_rescaled_sequence_len_indices_and_repeated_iteration(sphere):
    g, snaps = _window(sphere, 6, 0.2)
    r, t0 = 4 * g.dx, snaps[-1][0]
    og = sf.rescale_out_grid(g, r)
    seq = sf.parabolic_rescale(snaps, ((9, 21), t0), r, g, og)["sequence"]
    kept = [(t, v) for t, v in snaps if t0 - r * r - 1e-12 <= t <= t0 + 1e-12]
    assert len(seq) == len(kept) >= 2
    s0, v0 = seq[0]
    s_last, v_last = seq[-1]
    assert s0 == (kept[0][0] - t0) / r ** 2 and s_last == 0.0
    assert np.array_equal(seq[len(seq) - 1][1], v_last)
    assert np.array_equal(seq[-len(seq)][1], v0)
    for k in (len(seq), -len(seq) - 1):
        with pytest.raises(IndexError):
            seq[k]
    first, second = list(seq), list(seq)
    indexed = [seq[k] for k in range(len(seq))]
    assert len(first) == len(second) == len(indexed) == len(seq)
    for (sa, va), (sb, vb), (sk, vk) in zip(first, second, indexed):
        assert sa == sb == sk and va.tobytes() == vb.tobytes() == vk.tobytes()
    # every entry is a fresh component-major map
    assert first[0][1] is not second[0][1]
    assert sf.grid.component_first(v0).flags.c_contiguous


def test_iterating_a_rescale_window_holds_few_maps(sphere):
    # the sequence keeps the snapshots and rolls an entry when it is asked
    # for, so a pass over a 40-entry window holds a few maps at once, not 40
    g, snaps = _window(sphere, 40, 0.02)
    t0 = snaps[-1][0]
    r = np.sqrt(t0)
    og = sf.rescale_out_grid(g, r)
    map_bytes = snaps[0][1].nbytes
    tracemalloc.start()
    try:
        seq = sf.parabolic_rescale(snaps, ((3, 30), t0), r, g, og)["sequence"]
        n = 0
        for _, v in seq:
            n += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 40
    assert peak < 8 * map_bytes
