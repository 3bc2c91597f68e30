import argparse
import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import stringflow as sf
from stringflow.cli import _build, main


def small_cfg(tmp_path, **overrides):
    """A 16^2 run config; an override that sets initial.kind replaces the
    initial section, since only random_smooth takes seed and amplitude
    together."""
    cfg = {
        "grid": {"nx": 16, "ny": 16},
        "initial": {"kind": "random_smooth", "seed": 1, "amplitude": 0.2},
        "flow": {"t_end": 0.02, "record_every": 5},
    }
    for sec, kv in overrides.items():
        if sec == "initial" and "kind" in kv:
            cfg[sec] = {}
        cfg.setdefault(sec, {}).update(kv)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_run_exit_zero_and_outputs(tmp_path):
    cfgp = small_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfgp, "--out", out]) == 0
    for f in ("run_ledger.csv", "run_final.snap", "run_events.jsonl",
              "hypothesis.json", "config.json", "monotonicity.json"):
        assert os.path.exists(os.path.join(out, f)), f


def test_run_bad_config_exit_one(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"grid": {"nz": 3}}))
    assert main(["run", "--config", str(p)]) == 1
    assert main(["run", "--config", str(p), "--preset", "flat_harmonic"]) == 1


@pytest.mark.parametrize("section,key", [("target", "kind"),
                                         ("fields", "b_kind"),
                                         ("fields", "v_kind")])
def test_run_unknown_kind_is_a_config_error(tmp_path, capsys, section, key):
    # exit 1 with a one-line message naming the key and the valid kinds,
    # not a traceback from build_objects
    cfgp = small_cfg(tmp_path, **{section: {key: "vortex"}})
    assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {section}.{key} must be "
                          "one of [")
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "o" / "run_ledger.csv")


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("section,key,value", [
    ("grid", "nx", 4),
    ("grid", "lam", True),
    ("flow", "cfl", 2.0),
    ("flow", "t_end", -1),
    ("flow", "record_every", 0),
    ("initial", "point", [1.0, 0.0]),
    ("initial", "point", ["a", 0, 0, 0]),
    ("initial", "point", [1, 0, 0, None]),
    ("initial", "point", [0, 0, 0, 0]),
    ("initial", "point", [{}, 0, 0, 0]),
    ("target", "q", 2),
    ("flow", "delta1", -1),
    ("flow", "delta1", float("nan")),
    ("flow", "delta1", float("inf")),
    ("flow", "dt_min", -1),
    ("flow", "conv_tol", -1),
    ("flow", "conv_tol", float("nan")),
    ("flow", "dt_init", float("nan")),
    ("initial", "scale", float("inf")),
    ("initial", "energy", float("nan")),
    ("initial", "amplitude", float("nan")),
    ("fields", "epsilon", float("inf")),
    ("fields", "beta", float("nan")),
    ("grid", "lam", 400),
    ("grid", "lam", -400),
    # a null is a value like any other: only lam, dt_init and point take it
    ("grid", "nx", None),
    ("target", "q", None),
    ("fields", "beta", None),
    ("initial", "seed", None),
    ("flow", "t_end", None),
    # conv_tol ** 2 overflows in the convergence probe
    ("flow", "conv_tol", 1e308),
    # a CFL bound below dt_min
    ("grid", "Lx", 1e-320),
    ("flow", "cfl", 1e-320),
    # numpy's own refusal, or a map of NaN, named by the key
    ("initial", "seed", -1),
    ("initial", "scale", 1e-320),
    # arrays too large for numpy to index
    ("grid", "nx", 2 ** 62),
    ("target", "q", 2 ** 62),
])
def test_bad_config_value_is_a_config_error(tmp_path, capsys, command,
                                            section, key, value):
    # exit 1 with a one-line message that names the key, not a numeric
    # failure, a traceback or a run of zero steps.  A key that the default
    # kinds do not take is set under a kind that takes it
    kind = {"scale": {"kind": "bump"}, "energy": {"kind": "small_energy"},
            "epsilon": {"v_kind": "height"}, "beta": {"b_kind": "y4"}}
    cfgp = small_cfg(tmp_path, **{section: {**kind.get(key, {}), key: value}})
    out = tmp_path / "o"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert key in err, err
    assert not out.exists()


@pytest.mark.parametrize("overrides,message", [
    ({"fields": {"b_kind": "y4"}}, "y4 two-form"),
    ({"initial": {"kind": "clifford"}}, "clifford map"),
], ids=["y4", "clifford"])
def test_a_kind_that_needs_a_fourth_coordinate_refuses_the_two_sphere(
        tmp_path, capsys, overrides, message):
    # S^2 is a target; the kinds that read u^4 refuse it themselves
    cfgp = small_cfg(tmp_path, target={"q": 3}, **overrides)
    assert main(["check", "--config", cfgp]) == 1
    assert capsys.readouterr().err == (f"configuration error: {message} "
                                       "needs q >= 4, got q = 3\n")


def test_a_run_on_the_two_sphere_reads_back_through_scan_and_rescale(
        tmp_path, capsys):
    cfgp = small_cfg(tmp_path, grid={"nx": 32, "ny": 32}, target={"q": 3},
                     initial={"kind": "bump", "scale": 0.3})
    out = tmp_path / "o"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
    snap = str(out / "run_final.snap")
    vals, header = sf.read_snapshot(snap)
    assert header["q"] == 3 and vals.shape == (32, 32, 3)
    capsys.readouterr()
    assert main(["scan", snap, "--delta1", "0.5", "--radius", "0.5",
                 "--out", str(tmp_path / "scan")]) == 0
    assert "concentration site" in capsys.readouterr().out
    r = repr(4 * sf.build_grid(32, 32).dx)
    assert main(["rescale", snap, "--ix", "16", "--iy", "16", "--r", r,
                 "--out", str(tmp_path / "resc")]) == 0
    zoom, zoom_header = sf.read_snapshot(str(tmp_path / "resc"
                                             / "rescaled.snap"))
    assert zoom_header["q"] == 3 and zoom.shape == (32, 32, 3)


@pytest.mark.parametrize("argv", [
    ["scan", "{snap}", "--radius", "10"],
    ["scan", "{snap}", "--delta1", "-1"],
    ["scan", "{missing}"],
    ["scan", "{snap}", "--Lx", "-1"],
    ["rescale", "{snap}", "--ix", "16", "--iy", "16", "--r", "0.01"],
    ["rescale", "{snap}", "--ix", "99", "--iy", "16", "--r", "1.0"],
    ["rescale", "{snap}", "--ix", "16", "--iy", "16", "--r", "inf"],
    ["rescale", "{snap}", "--ix", "16", "--iy", "16", "--r", "1e200"],
    ["rescale", "{snap}", "--ix", "16", "--iy", "16", "--r", "nan"],
    ["scan", "{snap}", "--radius", "nan"],
    ["rescale", "{snap}", "--ix", "16", "--iy", "16", "--r", "0"],
], ids=["scan-radius", "scan-delta1", "scan-missing", "scan-Lx", "rescale-r",
        "rescale-ix", "rescale-r-inf", "rescale-r-squared-overflows",
        "rescale-r-nan", "scan-radius-nan", "rescale-r-zero"])
def test_bad_argument_is_a_config_error(tmp_path, capsys, argv):
    # exit 1 with a one-line message, not a numeric failure, a traceback or
    # a scan that reports every node
    g = sf.build_grid(32, 32)
    snap = str(tmp_path / "u.snap")
    sf.write_snapshot(snap, sf.bump_map(g, sf.make_target("sphere", 4),
                                        scale=0.4).values, 1.0, "sphere")
    paths = {"snap": snap, "missing": str(tmp_path / "missing.snap")}
    out = tmp_path / "o"
    argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("r", ["0", "-0.0", "-1", "0.01", "nan", "inf", "1e200"])
def test_rescale_names_the_bad_r(tmp_path, capsys, r):
    # the message names --r, not the periods of the out-grid built from it
    g = sf.build_grid(32, 32)
    snap = str(tmp_path / "u.snap")
    sf.write_snapshot(snap, sf.bump_map(g, sf.make_target("sphere", 4),
                                        scale=0.4).values, 1.0, "sphere")
    assert main(["rescale", snap, "--ix", "16", "--iy", "16", "--r", r]) == 1
    err = capsys.readouterr().err
    assert f"rescale radius r={float(r)!r} below 2*dx" in err, err


def test_rescale_names_an_r_whose_out_grid_spacing_underflows(tmp_path,
                                                              capsys):
    # r^2 is finite, but the out-grid spacing dx / r squares to a subnormal
    # number, which build_grid refuses: the message names --r all the same
    g = sf.build_grid(32, 32)
    snap = str(tmp_path / "u.snap")
    sf.write_snapshot(snap, sf.constant_map(g, sf.make_target("sphere",
                                                              4)).values,
                      1.0, "sphere")
    assert main(["rescale", snap, "--ix", "16", "--iy", "16",
                 "--r", "5e153"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: rescale radius r=5e+153 "
                          "gives no out-grid: period Lx="), err


def _corrupt_snapshot(path, data):
    path.write_bytes(data[:-17])


def _garbage_header(path, data):
    path.write_bytes(b"not json\n" + data.split(b"\n", 1)[1])


def _nan_time(path, data):
    head, payload = data.split(b"\n", 1)
    header = json.loads(head)
    header["t"] = float("nan")
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def _wrong_ledger_header(path, data):
    path.write_text("time,energy\n0,1\n")


def _ledger_cell_not_a_float(path, data):
    lines = data.decode().splitlines()
    lines[2] = "x" + lines[2]
    path.write_text("\n".join(lines) + "\n")


def _ledger_time(t):
    """Replaces the t of the ledger's second row (CSV line 3); "{}" stands
    for the first row's t."""
    def corrupt(path, data):
        lines = data.decode().splitlines()
        cells = lines[2].split(",")
        cells[0] = t.format(lines[1].split(",", 1)[0])
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return corrupt


@pytest.mark.parametrize("corrupt, name, message", [
    (_corrupt_snapshot, "run_final.snap", "truncated"),
    (_garbage_header, "run_final.snap", "bad snapshot header"),
    (_nan_time, "run_final.snap", "bad snapshot header"),
    (_wrong_ledger_header, "run_ledger.csv", "unexpected ledger columns"),
    (_ledger_cell_not_a_float, "run_ledger.csv", "line 3: not 11 floats"),
    (_ledger_time("nan"), "run_ledger.csv", "line 3: t=nan"),
    (_ledger_time("{}"), "run_ledger.csv", "line 3: t="),
    (_ledger_time("-1.0"), "run_ledger.csv", "line 3: t=-1.0"),
], ids=["truncated-snapshot", "garbage-header", "nan-time", "ledger-header",
        "ledger-cell", "ledger-nan-t", "ledger-repeated-t",
        "ledger-decreasing-t"])
def test_corrupt_input_file_is_a_config_error(tmp_path, capsys, corrupt,
                                              name, message):
    # exit 1 with a one-line message naming the file, not a numeric failure
    # or a traceback: scan and rescale for a snapshot, compare for either
    # file.  A snapshot at t = NaN would give an empty rescaling window and
    # scan events at t = NaN
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", small_cfg(tmp_path), "--out", str(a)]) == 0
    shutil.copytree(a, b)
    bad = b / name
    corrupt(bad, bad.read_bytes())
    capsys.readouterr()
    argvs = [["compare", str(a), str(b)]]
    if name.endswith(".snap"):
        argvs += [["scan", str(bad)], ["rescale", str(bad), "--ix", "8",
                                       "--iy", "8", "--r", "1.0"]]
    for argv in argvs:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{dir}"],
    ["scan", "{dir}"],
    ["check", "--config", "{cfg}", "--out", "{file}"],
    ["run", "--config", "{cfg}", "--out", "{file}"],
], ids=["run-config-dir", "scan-dir", "check-out-file", "run-out-file"])
def test_path_of_the_wrong_kind_is_a_config_error(tmp_path, capsys, argv):
    # a directory where a file is read, a file where an output directory
    # is made: exit 1 with a one-line message, not a traceback
    cfg = small_cfg(tmp_path)
    paths = {"dir": str(tmp_path), "cfg": cfg, "file": cfg}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err


@pytest.mark.parametrize("cmd", [
    ["scan", "{snap}"],
    ["rescale", "{snap}", "--ix", "16", "--iy", "16", "--r", "1.0"],
], ids=["scan", "rescale"])
@pytest.mark.parametrize("flag, value", [("--Lx", "nan"), ("--Ly", "inf")])
def test_non_finite_period_is_a_config_error(tmp_path, capsys, cmd, flag,
                                             value):
    # exit 1 with a message that names the period, not a grid of NaN nodes
    g = sf.build_grid(32, 32)
    snap = str(tmp_path / "u.snap")
    sf.write_snapshot(snap, sf.bump_map(g, sf.make_target("sphere", 4),
                                        scale=0.4).values, 1.0, "sphere")
    out = tmp_path / "o"
    argv = [a.format(snap=snap) for a in cmd] + [flag, value,
                                                 "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: periods must be finite")
    assert f"{flag[2:]}={value}" in err and "Traceback" not in err
    assert not out.exists()


def test_python_m_stringflow_runs_the_cli_without_a_warning():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-W", "error", "-m", "stringflow",
                           "--help"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: stringflow") and not done.stderr


def test_check_hypothesis_warning_exit_two(tmp_path, capsys):
    # |B|_inf = beta >= 1/2; at 0.501 a sampled |B| can read below 1/2
    for beta in (2.0, 0.501):
        cfgp = small_cfg(tmp_path, fields={"b_kind": "y4", "beta": beta,
                                           "v_kind": "zero"})
        assert main(["check", "--config", cfgp]) == 2
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"] and report["B_inf"] == beta
        assert report["error"] == f"|B|_inf = {beta} outside [0, 1/2)"


def test_check_names_a_dt_init_that_is_not_positive(tmp_path, capsys):
    # the message names the key at fault, not dt_min, which a dt_init of 0
    # also makes fail its own check
    cfgp = small_cfg(tmp_path, flow={"dt_init": 0})
    assert main(["check", "--config", cfgp]) == 1
    err = capsys.readouterr().err
    assert "dt_init must be in (0, CFL bound" in err and "dt_min" not in err


def test_check_ok_exit_zero(tmp_path, capsys):
    cfgp = small_cfg(tmp_path, fields={"b_kind": "y4", "beta": 0.2,
                                       "v_kind": "height", "epsilon": 1e-3})
    assert main(["check", "--config", cfgp]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delta2"] > 2.0
    assert report["k_bound"] >= 0
    # the smallness object keeps its keys, order and values
    grid, target, fields, u0, flow_cfg = sf.build_objects(sf.load_config(cfgp))
    B_inf = sf.sup_norms(fields.b, fields.V, target).B_inf
    s = sf.smallness_report(u0.values, grid, fields, flow_cfg.delta1, B_inf)
    literal = {"integral_tilde_V": s.integral_tilde_V, "delta1": s.delta1,
               "delta2": s.delta2, "required_bound": s.required_bound,
               "B_inf": s.B_inf, "passes_bfield": s.passes_bfield,
               "passes_potential": s.passes_potential,
               "passes": s.passes_bfield and s.passes_potential}
    assert json.dumps(report["smallness"]) == json.dumps(literal)
    assert s.integral_tilde_V > 0.0 and report["smallness_ok"] is True


def test_run_and_check_write_the_same_hypothesis_report(tmp_path):
    cfgp = small_cfg(tmp_path, fields={"b_kind": "y4", "beta": 0.2,
                                       "v_kind": "height", "epsilon": 1e-3})
    for command in ("run", "check"):
        out = str(tmp_path / command)
        assert main([command, "--config", cfgp, "--out", out]) == 0
    run, check = ((tmp_path / d / "hypothesis.json").read_bytes()
                  for d in ("run", "check"))
    assert run == check and run.endswith(b"}\n")


@pytest.mark.parametrize("preset", list(sf.PRESETS))
def test_hypothesis_report_s0_is_the_runs_s0(preset):
    # the report reads the projected initial map, the map the run starts
    # from, so its S0 is the run's bit for bit; no step is taken
    args = argparse.Namespace(preset=preset, config=None)
    _, (grid, target, fields, u0, flow_cfg), report = _build(args)
    state = sf.init_state(u0, grid, target, fields, flow_cfg)
    assert report["S0"].hex() == state.S0.hex()


def test_scan_subcommand(tmp_path, capsys):
    g = sf.build_grid(48, 48)
    tgt = sf.make_target("sphere", 4)
    u = sf.bump_map(g, tgt, scale=0.3)
    snap = str(tmp_path / "u.snap")
    sf.write_snapshot(snap, u.values, 0.0, "sphere")
    out = str(tmp_path / "scan")
    assert main(["scan", snap, "--delta1", "0.5", "--radius", "0.5",
                 "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "concentration site" in printed
    # each event is one JSON line, printed and written, in the key order
    # t, ix, iy, R, local_energy, kind
    hits = sf.concentration_scan(sf.read_snapshot(snap)[0], g, 0.5, 0.5)
    lines = [json.dumps({"t": 0.0, "ix": ix, "iy": iy, "R": 0.5,
                         "local_energy": e, "kind": "concentration"}) + "\n"
             for (ix, iy), e in hits]
    assert lines
    with open(os.path.join(out, "scan_events.jsonl")) as f:
        assert f.read() == "".join(lines)
    assert printed.startswith("".join(lines))


def test_rescale_subcommand(tmp_path):
    g = sf.build_grid(32, 32)
    tgt = sf.make_target("sphere", 4)
    u = sf.bump_map(g, tgt, scale=0.4)
    snap = str(tmp_path / "u.snap")
    sf.write_snapshot(snap, u.values, 1.0, "sphere")
    out = str(tmp_path / "resc")
    r = 4 * g.dx
    assert main(["rescale", snap, "--ix", "16", "--iy", "16",
                 "--r", str(r), "--out", out]) == 0
    vals, header = sf.read_snapshot(os.path.join(out, "rescaled.snap"))
    og = sf.rescale_out_grid(g, r)
    assert sf.dirichlet_energy(vals, og) == pytest.approx(
        sf.dirichlet_energy(u.values, g), rel=1e-12)


@pytest.mark.parametrize("node", [(7, 19), (0, 23), (31, 0)])
def test_rescale_writes_the_window_zoom_of_its_snapshot(tmp_path, node):
    # the one-map zoom writes the bytes that parabolic_rescale's last entry
    # gives for the two-entry window [(t0 - r^2, v), (t0, v)] of the map
    g = sf.build_grid(32, 24, Lx=5.0, Ly=4.0)
    snap = str(tmp_path / "u.snap")
    sf.write_snapshot(snap, sf.perturb(
        sf.constant_map(g, sf.make_target("sphere", 4)), seed=5,
        amplitude=0.3).values, 1.5, "sphere")
    r = 3 * g.dx
    out = tmp_path / "resc"
    assert main(["rescale", snap, "--ix", str(node[0]), "--iy", str(node[1]),
                 "--r", repr(r), "--Lx", "5.0", "--Ly", "4.0",
                 "--out", str(out)]) == 0
    vals, header = sf.read_snapshot(snap)
    t0 = header["t"]
    seq = sf.parabolic_rescale([(t0 - r * r, vals), (t0, vals)], (node, t0),
                               r, g, sf.rescale_out_grid(g, r))["sequence"]
    ref = tmp_path / "ref.snap"
    sf.write_snapshot(str(ref), seq[-1][1], 0.0, "sphere")
    assert (out / "rescaled.snap").read_bytes() == ref.read_bytes()


def test_compare_identical_runs_bitwise(tmp_path):
    cfgp = small_cfg(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfgp, "--out", a]) == 0
    assert main(["run", "--config", cfgp, "--out", b]) == 0
    out = sf.compare_runs(a, b)
    assert out["bitwise_identical"]
    assert out["max_abs_diff"] == 0.0


def test_compare_different_runs(tmp_path, capsys):
    cfg_a = small_cfg(tmp_path)
    a = str(tmp_path / "a")
    main(["run", "--config", cfg_a, "--out", a])
    cfg_b = small_cfg(tmp_path, initial={"seed": 2})
    b = str(tmp_path / "b")
    main(["run", "--config", cfg_b, "--out", b])
    out = sf.compare_runs(a, b)
    assert not out["bitwise_identical"]
    assert out["max_abs_diff"] > 0
    # the subcommand prints the summary line and writes the same report
    capsys.readouterr()
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", a, b, "--out", str(cmp_dir)]) == 0
    assert json.loads((cmp_dir / "compare.json").read_text()) == out
    rate = (f"rate={out['separation_rate']:.4g}"
            if out["separation_rate"] is not None else "rate=n/a")
    assert capsys.readouterr().out == (
        f"compare: bitwise=False max_abs_diff={out['max_abs_diff']:.3e} "
        f"{rate}\n")


def test_compare_ledgers_recorded_at_different_times(tmp_path, capsys):
    # rows are paired by index, so a separation rate from rows at different
    # t would be meaningless: exit 1, naming the first such row's times
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", small_cfg(tmp_path), "--out", a]) == 0
    assert main(["run", "--config",
                 small_cfg(tmp_path, flow={"record_every": 1}),
                 "--out", b]) == 0
    ta = sf.read_ledger_csv(os.path.join(a, "run_ledger.csv")).column("t")
    tb = sf.read_ledger_csv(os.path.join(b, "run_ledger.csv")).column("t")
    assert ta[0] == tb[0] and ta[1] != tb[1]
    with pytest.raises(sf.ConfigError, match="different times"):
        sf.compare_runs(a, b)
    capsys.readouterr()
    assert main(["compare", a, b]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ledgers recorded at "
                          f"different times: line 3 has t={float(ta[1])!r} "
                          f"in {a} and t={float(tb[1])!r} in {b}")


@pytest.mark.parametrize("raw, message", [
    ([{"grid": {"nx": 16}}], "config must be a dict, got list"),
    ({"grid": 16}, "grid: expected a mapping"),
], ids=["config", "section"])
def test_config_that_is_not_a_mapping_exit_one(tmp_path, capsys, raw,
                                               message):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_two_form_size_without_its_kind_is_a_config_error(tmp_path, capsys):
    # beta acts only under b_kind y4; alone it would check the zero form
    cfgp = small_cfg(tmp_path, fields={"beta": 0.6})
    assert main(["check", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: fields.beta = 0.6 ")


def test_saved_config_reruns_to_the_same_ledger(tmp_path):
    # config.json lists every key, those that bump does not take at their
    # defaults, so it loads and runs again bit for bit
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    cfgp = small_cfg(tmp_path, initial={"kind": "bump", "scale": 0.4})
    assert main(["run", "--config", cfgp, "--out", a]) == 0
    # the three keys whose types list NoneType are saved, and load, as null
    saved = json.load(open(os.path.join(a, "config.json")))
    assert saved["grid"]["lam"] is saved["initial"]["point"] is \
        saved["flow"]["dt_init"] is None
    assert main(["run", "--config", os.path.join(a, "config.json"),
                 "--out", b]) == 0
    ledgers = [open(os.path.join(d, "run_ledger.csv"), "rb").read()
               for d in (a, b)]
    assert ledgers[0] == ledgers[1]


def test_run_scenario_hypothesis_warning_still_runs(tmp_path):
    # a two-form too large for the monotonicity constants: the run completes
    # and the exit code flags the violated hypothesis
    cfgp = small_cfg(tmp_path, fields={"b_kind": "y4", "beta": 1.2})
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfgp, "--out", out]) == 2
    assert os.path.exists(os.path.join(out, "run_ledger.csv"))
    report = json.load(open(os.path.join(out, "hypothesis.json")))
    assert not report["ok"]


def test_run_with_preset(tmp_path):
    out = str(tmp_path / "out")
    # shrink the preset run through a config override instead: presets are
    # full runs, so use the smallest one
    code = main(["check", "--preset", "gap_smallness", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "hypothesis.json"))


@pytest.mark.parametrize("command", ["run", "check"])
def test_initial_map_with_non_finite_values_is_a_config_error(
        tmp_path, capsys, command):
    # a zero bump scale divides by zero, a subnormal one overflows: exit 1
    # naming it, with no numpy warning, not a NaN in hypothesis.json or a
    # failure at step 1
    for scale in (0, 1e-320):
        cfgp = small_cfg(tmp_path, initial={"kind": "bump", "scale": scale})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfgp, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "scale" in err
        assert not out.exists()


@pytest.mark.parametrize("command, code", [("check", 2), ("run", 3)])
def test_overflowing_potential_exits_with_its_code_and_no_numpy_warning(
        tmp_path, capsys, command, code):
    # V + shift overflows in numpy; the hypothesis report and the stepper's
    # finiteness check give the exit code, with no RuntimeWarning printed
    # before the message
    cfgp = small_cfg(tmp_path, fields={"v_kind": "height", "epsilon": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfgp, "--out",
                     str(tmp_path / "o")]) == code


def test_run_whose_action_overflows_on_finite_nodes_names_the_term(
        tmp_path, capsys):
    # every node stays finite and the V sum is inf: the message names the
    # candidate's terms, not only "no non-finite node"
    cfgp = small_cfg(tmp_path, fields={"v_kind": "height", "epsilon": 1e308})
    assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: non-finite action S=inf in "
                          "step 1"), err
    assert "no non-finite node" in err and "V_term=inf" in err, err


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("beta", [1e308, -1e308])
def test_largest_two_form_is_a_hypothesis_warning(tmp_path, capsys, command,
                                                  beta):
    # |B| = |beta| is read exactly, not lost to an overflowing Gram matrix
    cfgp = small_cfg(tmp_path, fields={"b_kind": "y4", "beta": beta},
                     initial={"kind": "constant"})
    out = tmp_path / "o"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 2
    report = json.load(open(out / "hypothesis.json"))
    assert report["B_inf"] == report["Z_inf"] == 1e308


@pytest.mark.parametrize("overrides, code", [
    ({"flow": {"delta1": 1e-320}}, 0),
    ({"fields": {"v_kind": "height", "epsilon": -1e308}}, 2),
], ids=["delta1", "epsilon"])
def test_check_with_a_singularity_bound_that_overflows(tmp_path, capsys,
                                                       overrides, code):
    # 2 delta2 S0 / delta1 is inf: no bound, not an OverflowError
    cfgp = small_cfg(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["check", "--config", cfgp, "--out", str(out)]) == code
    assert json.load(open(out / "hypothesis.json"))["k_bound"] is None


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("key, value", [("Ly", 1e308), ("Lx", 1e-160)])
def test_period_whose_spacing_squared_is_not_normal_exit_one(
        tmp_path, capsys, command, key, value):
    # dy^2 = inf made every y-difference 0, and check and run exited 0
    cfgp = small_cfg(tmp_path, grid={key: value})
    assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) \
        == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: period {key}={value!r}"), err


def test_run_whose_dt_squares_to_zero_exit_three(tmp_path, capsys):
    # the kinetic term divides by dt ** 2, which underflows to 0
    cfgp = small_cfg(tmp_path, flow={"t_end": 1e-320})
    assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "step 1 from t=0: dt=1e-320 squares to 0" in err


def test_run_non_finite_initial_map_exit_three(tmp_path, monkeypatch, capsys):
    import stringflow.config as config

    build = config.build_objects

    def with_nan(cfg):
        grid, target, fields, u0, flow_cfg = build(cfg)
        u0.values[3, 4, 0] = float("nan")
        return grid, target, fields, u0, flow_cfg

    monkeypatch.setattr(config, "build_objects", with_nan)
    cfgp = small_cfg(tmp_path)
    assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "step 1" in err and "(3, 4)" in err


@pytest.mark.parametrize("argv, named", [
    (["rescale", "u.snap", "--ix", "nan", "--iy", "16", "--r", "1"],
     "argument --ix"),
    (["scan", "u.snap", "--delta1", "-1e308"], "argument --delta1"),
    (["check", "--bogus", "1"], "unrecognized arguments: --bogus"),
    ([], "command"),
], ids=["ix-nan", "delta1-as-option", "unknown-flag", "no-command"])
def test_usage_errors_exit_one_naming_the_argument(capsys, argv, named):
    # argparse's own exit 2 is the code of a hypothesis warning
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named in err, err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["rescale", "--help"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert "usage: stringflow" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--threads", "--seed"])
def test_removed_global_flags_are_rejected(tmp_path, capsys, flag):
    cfgp = small_cfg(tmp_path)
    assert main([flag, "1", "check", "--config", cfgp]) == 1
    err = capsys.readouterr().err
    # the flag at fault, not its value read as the subcommand
    assert err.startswith("configuration error: stringflow: ") and flag in err
    assert "invalid choice" not in err


def test_check_without_a_config_takes_the_default(capsys):
    assert main(["check"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["B_inf"] == 0.0


def test_run_that_breaks_monotonicity_exit_three(tmp_path, monkeypatch,
                                                 capsys):
    import stringflow.cli as cli

    def violated(ledger, delta2, S0):
        return {"monotone_ok": False, "energy_bound_ok": True}

    monkeypatch.setattr(cli, "monotonicity_check", violated)
    out = tmp_path / "o"
    assert main(["run", "--config", small_cfg(tmp_path), "--out",
                 str(out)]) == 3
    assert capsys.readouterr().out == \
        "run: FAILED (energy monotonicity violated)\n"
    mono = json.loads((out / "monotonicity.json").read_text())
    assert mono == {"monotone_ok": False, "energy_bound_ok": True}


def test_allocation_too_large_is_a_config_error(tmp_path, monkeypatch,
                                                capsys):
    # an allocation that memory cannot hold names the keys that size it
    import stringflow.config as config

    def too_large(q):
        raise MemoryError("Unable to allocate 59.6 GiB")

    monkeypatch.setitem(config.TWO_FORMS, "zero", (too_large, ()))
    assert main(["check", "--config", small_cfg(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: target.q = 4, grid.nx = 16 "
                          "and grid.ny = 16 need more memory"), err
    assert "Unable to allocate 59.6 GiB" in err
