"""Seeded fuzz of the config and the CLI, in process.

Hostile input ends in one of the CLI's exit codes (0 ok, 1 bad
configuration, 2 hypothesis warning, 3 numeric failure), never in an
exception out of `main`, and every configuration error names the key or
argument that it refuses.  Each schema key gets every hostile value under
`check`, and each value that `check` does not refuse also under `run`, at
16^2 to t_end 0.002, where a valid run is one step and a few retries (`run`
builds what `check` builds, so it refuses the same values).  A t_end of
1e308 is a valid, endless run, not a defect, so `run` skips the values
that make a valid run long.  The seeded part draws doubles of every
magnitude and sign, and integers up to 2^62 for the keys that size no
array.
"""

import functools
import json
import math

import numpy as np
import pytest

import stringflow as sf
from stringflow import cli, config
from stringflow.cli import main

HOSTILE = [None, math.nan, math.inf, -math.inf, 0, -1, 1e308, -1e308,
           1e-320, 2 ** 62, "x", [1], {"a": 1}, True]
# a key that the default kinds do not take is set under a kind that takes it
KINDS = {"beta": {"b_kind": "y4"}, "epsilon": {"v_kind": "height"},
         "m": {"kind": "noisy_wrap"}, "n": {"kind": "noisy_wrap"},
         "scale": {"kind": "bump"}, "energy": {"kind": "small_energy"}}
# the keys that set dt or the spacing, through which a random value can
# make a valid run long; `run` gives them only the hostile values
TIMED = {"Lx", "Ly", "lam", "t_end", "cfl", "dt_init"}
ENDLESS = (1e308, 2 ** 62)      # as t_end
# the int keys that size no array, so any value allocates nothing large
UNSIZED_INTS = {"m", "n", "seed", "max_mode", "record_every"}
DRAWS = 3


@pytest.fixture(autouse=True)
def one_parser(monkeypatch):
    # main builds its argparse parser per call, more than half the time of
    # a refused config; the parser holds no state between parses
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))


def _doubles(rng, n):
    """n doubles of magnitude 10^-320 .. 10^308, of either sign."""
    return [float(s * 10.0 ** e) for s, e in
            zip(rng.choice([-1.0, 1.0], n), rng.uniform(-320.0, 308.0, n))]


def _cases(rng):
    """(section, key, value, the commands to try) of every schema key and
    every value it gets."""
    for section, keys in config._SCHEMA.items():
        for key, (types, _) in keys.items():
            drawn = []
            if key in UNSIZED_INTS:
                drawn = [int(v) for v in
                         rng.integers(-2 ** 62, 2 ** 62, DRAWS)]
            elif float in (types if isinstance(types, tuple) else (types,)):
                drawn = _doubles(rng, DRAWS)
            for value in HOSTILE:
                yield section, key, value, (
                    ("check",) if key == "t_end" and value in ENDLESS else
                    ("check", "run"))
            for value in drawn:
                yield section, key, value, (
                    ("check",) if key in TIMED else ("check", "run"))


def _small_cfg(path, section, key, value):
    cfg = {"grid": {"nx": 16, "ny": 16},
           "initial": {"kind": "random_smooth", "seed": 1, "amplitude": 0.2},
           "flow": {"t_end": 0.002, "record_every": 5}}
    kind = KINDS.get(key, {})
    if "kind" in kind:
        cfg["initial"] = {}
    cfg.setdefault(section, {}).update({**kind, key: value})
    path.write_text(json.dumps(cfg))
    return str(path)


def _outcome(capsys, argv, names):
    """(exit code, None) if main(argv) exits with a code of the CLI and,
    on exit 1, names one of `names`; else (code, what went wrong)."""
    try:
        code = main(argv)
    except BaseException as e:     # SystemExit too: main returns its code
        return None, f"{type(e).__name__}: {e}"
    err = capsys.readouterr().err
    if code not in (0, 1, 2, 3):
        return code, f"exit {code!r}"
    if code == 1 and not any(name in err for name in names):
        return code, f"exit 1 names none of {names}: {err.strip()}"
    return code, None


def test_hostile_config_values(tmp_path, capsys):
    rng = np.random.default_rng(1)
    out = str(tmp_path / "o")
    bad = []
    for section, key, value, commands in _cases(rng):
        cfgp = _small_cfg(tmp_path / "c.json", section, key, value)
        for command in commands:
            code, why = _outcome(capsys, [command, "--config", cfgp, "--out",
                                          out], [f"{section}.{key}", key])
            if why:
                bad.append(f"{command} {section}.{key}={value!r}: {why}")
            if code == 1:
                break
    assert not bad, "\n".join(bad)


def test_hostile_scan_and_rescale_arguments(tmp_path, capsys):
    rng = np.random.default_rng(3)
    g = sf.build_grid(32, 32)
    snap = str(tmp_path / "u.snap")
    sf.write_snapshot(snap, sf.bump_map(g, sf.make_target("sphere", 4),
                                        scale=0.4).values, 1.0, "sphere")
    # as argparse takes them: a float argument parses every hostile number
    floats = ["nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "1e-320",
              str(2 ** 62)] + [repr(v) for v in _doubles(rng, DRAWS)]
    ints = ["0", "-1", "32", str(2 ** 62), str(-2 ** 62)] + [
        str(int(v)) for v in rng.integers(-2 ** 62, 2 ** 62, DRAWS)]
    rescale = ["rescale", snap, "--ix", "16", "--iy", "16", "--r", "1.0"]
    cases = [(["scan", snap], flag, v)
             for flag in ("--delta1", "--radius", "--Lx", "--Ly")
             for v in floats]
    cases += [(rescale, flag, v) for flag in ("--r", "--Lx", "--Ly")
              for v in floats]
    cases += [(rescale, flag, v) for flag in ("--ix", "--iy") for v in ints]
    # the word an exit-1 message names each argument by
    names = {"--delta1": "delta1", "--radius": "radius", "--Lx": "Lx",
             "--Ly": "Ly", "--r": "r=", "--ix": "ix", "--iy": "iy"}
    bad = []
    for argv, flag, value in cases:
        # `--flag=value`, since argparse reads -1e308 as an option; the
        # later of two equal flags wins
        full = argv + [f"{flag}={value}", "--out", str(tmp_path / "o")]
        _, why = _outcome(capsys, full, [names[flag]])
        if why:
            bad.append(f"{argv[0]} {flag} {value}: {why}")
    assert not bad, "\n".join(bad)
