import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import stringflow as sf
from stringflow.cli import main


def small_cfg(tmp_path, **overrides):
    cfg = {
        "grid": {"nx": 16, "ny": 16},
        "initial": {"kind": "random_smooth", "seed": 1, "amplitude": 0.2},
        "flow": {"t_end": 0.02, "record_every": 5},
    }
    for sec, kv in overrides.items():
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
    ("target", "q", 3),
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
])
def test_bad_config_value_is_a_config_error(tmp_path, capsys, command,
                                            section, key, value):
    # exit 1 with a one-line message, not a numeric failure, a traceback or
    # a run of zero steps
    cfgp = small_cfg(tmp_path, **{section: {key: value}})
    out = tmp_path / "o"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["scan", "{snap}", "--radius", "10"],
    ["scan", "{snap}", "--delta1", "-1"],
    ["scan", "{missing}"],
    ["scan", "{snap}", "--Lx", "-1"],
    ["rescale", "{snap}", "--ix", "16", "--iy", "16", "--r", "0.01"],
    ["rescale", "{snap}", "--ix", "99", "--iy", "16", "--r", "1.0"],
], ids=["scan-radius", "scan-delta1", "scan-missing", "scan-Lx", "rescale-r",
        "rescale-ix"])
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


def _corrupt_snapshot(path, data):
    path.write_bytes(data[:-17])


def _garbage_header(path, data):
    path.write_bytes(b"not json\n" + data.split(b"\n", 1)[1])


def _wrong_ledger_header(path, data):
    path.write_text("time,energy\n0,1\n")


def _ledger_cell_not_a_float(path, data):
    lines = data.decode().splitlines()
    lines[2] = "x" + lines[2]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt, name, message", [
    (_corrupt_snapshot, "run_final.snap", "truncated"),
    (_garbage_header, "run_final.snap", "bad snapshot header"),
    (_wrong_ledger_header, "run_ledger.csv", "unexpected ledger columns"),
    (_ledger_cell_not_a_float, "run_ledger.csv", "line 3: not 11 floats"),
], ids=["truncated-snapshot", "garbage-header", "ledger-header",
        "ledger-cell"])
def test_corrupt_input_file_is_a_config_error(tmp_path, capsys, corrupt,
                                              name, message):
    # exit 1 with a one-line message naming the file, not a numeric failure
    # or a traceback: scan for a snapshot, compare for either file
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", small_cfg(tmp_path), "--out", str(a)]) == 0
    shutil.copytree(a, b)
    bad = b / name
    corrupt(bad, bad.read_bytes())
    capsys.readouterr()
    argvs = [["compare", str(a), str(b)]]
    if name.endswith(".snap"):
        argvs.append(["scan", str(bad)])
    for argv in argvs:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert str(bad) in err and "Traceback" not in err


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
    # beta large enough that |B|_inf >= 1/2
    cfgp = small_cfg(tmp_path, fields={"b_kind": "y4", "beta": 2.0})
    assert main(["check", "--config", cfgp]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]


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


def test_run_scenario_hypothesis_warning_still_runs(tmp_path):
    # a two-form too large for the monotonicity constants: the run completes
    # and the exit code flags the violated hypothesis
    cfgp = small_cfg(tmp_path, fields={"b_kind": "y4", "beta": 1.2})
    out = str(tmp_path / "out")
    from stringflow.cli import run_scenario
    assert run_scenario(cfgp, out) == 2
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
    # a zero bump scale divides by zero: exit 1 naming it, with no numpy
    # warning, not a NaN in hypothesis.json or a failure at step 1
    cfgp = small_cfg(tmp_path, initial={"kind": "bump", "scale": 0})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "scale" in err
    assert not out.exists()


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


@pytest.mark.parametrize("flag", ["--threads", "--seed"])
def test_removed_global_flags_are_rejected(tmp_path, flag):
    cfgp = small_cfg(tmp_path)
    with pytest.raises(SystemExit):
        main([flag, "1", "check", "--config", cfgp])
