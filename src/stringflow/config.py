"""Run configuration: strict schema validation, presets, object assembly."""

from __future__ import annotations

import copy
import json

import numpy as np

from .action import FlowConfig
from .errors import ConfigError, ProjectionError
from .fields import POTENTIALS, TWO_FORMS, FieldBackground
from .grid import build_grid
from .initial_data import MAP_BUILDERS
from .registry import build_kind, check_kinds
from .targets import TARGETS

# schema: section -> key -> (type(s), default).  A key takes null only if
# its types list NoneType (lam, point, dt_init), whose default None means
# no value; a missing section uses all defaults.
_SCHEMA = {
    "grid": {
        "nx": (int, 64),
        "ny": (int, 64),
        "Lx": (float, 2.0 * 3.141592653589793),
        "Ly": (float, 2.0 * 3.141592653589793),
        "lam": ((int, float, type(None)), None),   # constant conformal factor
    },
    "target": {
        "kind": (str, "sphere"),
        "q": (int, 4),
    },
    "fields": {
        "b_kind": (str, "zero"),
        "beta": (float, 0.0),
        "v_kind": (str, "zero"),
        "epsilon": (float, 0.0),
    },
    "initial": {
        "kind": (str, "constant"),
        "m": (int, 1),
        "n": (int, 0),
        "seed": (int, 0),
        "amplitude": (float, 0.3),
        "max_mode": (int, 4),
        "scale": (float, 0.5),
        "energy": (float, 0.01),
        "point": ((list, type(None)), None),
    },
    # each default is FlowConfig's own
    "flow": {key: (types, getattr(FlowConfig(), key)) for key, types in {
        "t_end": float,
        "cfl": float,
        "dt_init": (float, type(None)),
        "dt_min": float,
        "delta1": float,
        "ball_radius": float,
        "conv_tol": float,
        "record_every": int,
    }.items()},
}

# section -> the key of each kind it chooses -> the registry of its builders
_KINDS = {
    "target": {"kind": TARGETS},
    "fields": {"b_kind": TWO_FORMS, "v_kind": POTENTIALS},
    "initial": {"kind": MAP_BUILDERS},
}


def _check_type(value, types, path):
    # bool is an int subclass, but no key takes a bool
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path}: expected {types}, got {type(value).__name__}")


def validate_config(raw: dict) -> dict:
    """Validate a nested config dict; unknown keys are errors, and so is a
    key of `target`, `fields` or `initial` that none of its section's
    chosen kinds takes, unless it holds its default.

    Returns a fully-populated copy with defaults filled in.  Every value,
    null included, must match its schema types; integer values are
    accepted for float keys and converted.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a dict, got {type(raw).__name__}")
    out = {}
    for section in raw:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(raw[section], dict):
            raise ConfigError(f"{section}: expected a mapping")
    for section, keys in _SCHEMA.items():
        src = raw.get(section, {})
        for key in src:
            if key not in keys:
                raise ConfigError(f"unknown key {section}.{key}")
        sec = {}
        for key, (types, default) in keys.items():
            val = src.get(key, default)
            base = types if isinstance(types, tuple) else (types,)
            if float in base and isinstance(val, int) and not isinstance(val, bool):
                val = float(val)
            _check_type(val, types, f"{section}.{key}")
            sec[key] = copy.deepcopy(val)
        out[section] = sec
    for section, kinds in _KINDS.items():
        defaults = {key: spec[1] for key, spec in _SCHEMA[section].items()}
        check_kinds(section, out[section], defaults, kinds)
    return out


def load_config(path: str) -> dict:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
    return validate_config(raw)


def save_config(cfg: dict, path: str):
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def build_objects(cfg: dict):
    """(grid, target, fields, u0, flow_config) from a validated config.

    A value that a builder, the grid or the flow settings rule out (a
    ValueError, GridError among them, a point the target cannot project, a
    non-finite number in the fields or initial section, or an initial map
    with a non-finite value) is a ConfigError here, as a bad key or type
    is; so is a MemoryError, named by the keys that size the arrays."""
    cfg = validate_config(cfg)
    g = cfg["grid"]
    t, f, i = cfg["target"], cfg["fields"], cfg["initial"]
    flow_cfg = FlowConfig(**cfg["flow"])
    try:
        target = build_kind(TARGETS, "target.kind", t["kind"], t)
        b = build_kind(TWO_FORMS, "fields.b_kind", f["b_kind"], f, q=target.q)
        V = build_kind(POTENTIALS, "fields.v_kind", f["v_kind"], f, q=target.q)
        fields = FieldBackground(b=b, V=V)
        grid = build_grid(g["nx"], g["ny"], Lx=g["Lx"], Ly=g["Ly"],
                          lam=g["lam"])
        u0 = build_kind(MAP_BUILDERS, "initial.kind", i["kind"], i, grid=grid,
                        target=target)
        flow_cfg.validate(grid)
    except (ValueError, ProjectionError) as e:
        raise ConfigError(str(e)) from e
    except MemoryError as e:
        raise ConfigError(f"target.q = {t['q']}, grid.nx = {g['nx']} and "
                          f"grid.ny = {g['ny']} need more memory than is "
                          f"free ({e})") from e
    if not np.isfinite(u0.values).all():
        given = ", ".join(f"{k}={i[k]!r}" for k in MAP_BUILDERS[i["kind"]][1])
        raise ConfigError(f"initial.kind {i['kind']!r} gives non-finite values "
                          f"from {given}")
    return grid, target, fields, u0, flow_cfg


PRESETS = {
    # pure Dirichlet flow from smooth noise; relaxes toward a point
    "flat_harmonic": {
        "grid": {"nx": 64, "ny": 64},
        "initial": {"kind": "random_smooth", "seed": 1, "amplitude": 0.4},
        "flow": {"t_end": 1.0, "record_every": 20},
    },
    # three-sphere target, two-form + weak potential, noisy geodesic wrap
    "bfield_s3": {
        "grid": {"nx": 64, "ny": 64},
        "target": {"kind": "sphere", "q": 4},
        "fields": {"b_kind": "y4", "beta": 0.2, "v_kind": "height",
                   "epsilon": 5e-3},
        "initial": {"kind": "noisy_wrap", "m": 1, "n": 0, "seed": 2,
                    "amplitude": 0.1},
        "flow": {"t_end": 1.0, "record_every": 20},
    },
    # the same fields on a Clifford torus, where the two-form acts (|B_term|
    # ~ 0.08 against ~1e-5 on the wrap of bfield_s3)
    "bfield_clifford": {
        "grid": {"nx": 64, "ny": 64},
        "target": {"kind": "sphere", "q": 4},
        "fields": {"b_kind": "y4", "beta": 0.2, "v_kind": "height",
                   "epsilon": 5e-3},
        "initial": {"kind": "clifford", "m": 1, "n": 1},
        "flow": {"t_end": 1.0, "record_every": 20},
    },
    # descent in a linear height potential from a constant map
    "potential_descent": {
        "grid": {"nx": 48, "ny": 48},
        "fields": {"v_kind": "height", "epsilon": 0.1},
        "initial": {"kind": "random_smooth", "seed": 3, "amplitude": 0.2},
        "flow": {"t_end": 2.0, "record_every": 20},
    },
    # concentrated stereographic bubble; exercises concentration scanning
    "concentration": {
        "grid": {"nx": 96, "ny": 96},
        "initial": {"kind": "bump", "scale": 0.15},
        "flow": {"t_end": 0.05, "record_every": 10, "ball_radius": 0.4},
    },
    # tiny-energy start; the small-energy gap predicts decay to a constant
    "gap_smallness": {
        "grid": {"nx": 48, "ny": 48},
        "initial": {"kind": "small_energy", "energy": 0.01, "seed": 4,
                    "max_mode": 2},
        "flow": {"t_end": 5.0, "record_every": 50},
    },
    # short run storing snapshots fit for parabolic rescaling probes
    "rescale_probe": {
        "grid": {"nx": 64, "ny": 64},
        "initial": {"kind": "bump", "scale": 0.3},
        "flow": {"t_end": 0.3, "record_every": 5, "ball_radius": 0.4},
    },
}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; "
                          f"available: {sorted(PRESETS)}")
    return validate_config(copy.deepcopy(PRESETS[name]))
