import dataclasses
import inspect
import json

import numpy as np
import pytest

import stringflow as sf
from stringflow import config, initial_data
from stringflow.errors import ConfigError


def test_default_config_complete():
    cfg = sf.validate_config({})
    assert cfg["grid"]["nx"] == 64
    assert cfg["target"]["kind"] == "sphere"
    assert cfg["flow"]["cfl"] == 0.2
    # the flow section is FlowConfig key for key, so no setting is hidden;
    # its defaults are FlowConfig's, and build one back
    flow = sf.FlowConfig()
    assert [f.name for f in dataclasses.fields(flow)] == list(
        config._SCHEMA["flow"])
    assert cfg["flow"] == {key: getattr(flow, key) for key in cfg["flow"]}
    _, _, _, _, built = sf.build_objects({"grid": {"nx": 16, "ny": 16}})
    assert built == flow


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        sf.validate_config({"gird": {}})
    with pytest.raises(ConfigError, match="unknown key grid.nz"):
        sf.validate_config({"grid": {"nz": 3}})


def test_type_errors_report_path():
    with pytest.raises(ConfigError, match="grid.nx"):
        sf.validate_config({"grid": {"nx": "64"}})
    with pytest.raises(ConfigError, match="flow.record_every"):
        sf.validate_config({"flow": {"record_every": 3.5}})
    # flow.monitor is not a key; a saved config that still names it fails
    with pytest.raises(ConfigError, match="unknown key flow.monitor"):
        sf.validate_config({"flow": {"monitor": True}})
    # bool is not accepted where int is expected
    with pytest.raises(ConfigError, match="grid.nx"):
        sf.validate_config({"grid": {"nx": True}})
    # nor null where the types do not list NoneType: default_rng(None)
    # would draw fresh entropy, so the run's own config.json could not
    # reproduce it
    with pytest.raises(ConfigError, match="^initial.seed: expected"):
        sf.validate_config({"initial": {"kind": "random_smooth",
                                        "seed": None}})


def test_builder_defaults_are_the_schema_defaults():
    # `stringflow run` fills every key from the schema, and a library call
    # takes the builder's keyword default; the two must agree
    pairs = 0
    registries = [(section, registry)
                  for section, kinds in config._KINDS.items()
                  for registry in kinds.values()]
    for section, registry in registries:
        for kind, (builder, keys) in registry.items():
            params = inspect.signature(builder).parameters
            for key in keys:
                default = params[key].default
                if default is inspect.Parameter.empty:
                    continue
                pairs += 1
                assert default == config._SCHEMA[section][key][1], \
                    (kind, key)
    assert pairs >= 16


@pytest.mark.parametrize("section, key, value, kinds", [
    ("fields", "beta", 0.6, {}),
    ("fields", "epsilon", 0.1, {"b_kind": "y4"}),
    ("initial", "seed", 3, {"kind": "bump"}),
    ("initial", "scale", 0.2, {}),
    ("initial", "point", [0, 1, 0, 0], {"kind": "geodesic_wrap"}),
])
def test_key_that_no_chosen_kind_takes_holds_its_default(section, key, value,
                                                         kinds):
    # such a key would be ignored: only its default passes
    with pytest.raises(ConfigError, match=f"^{section}.{key} = "):
        sf.validate_config({section: {key: value, **kinds}})
    default = config._SCHEMA[section][key][1]
    sf.validate_config({section: {key: default, **kinds}})


def test_int_promoted_to_float():
    cfg = sf.validate_config({"flow": {"t_end": 2}})
    assert isinstance(cfg["flow"]["t_end"], float)


def test_bad_initial_kind():
    with pytest.raises(ConfigError, match="initial.kind"):
        sf.validate_config({"initial": {"kind": "vortex"}})


def test_every_registered_initial_kind_builds():
    from stringflow.initial_data import MAP_BUILDERS
    kinds = sorted(MAP_BUILDERS)
    assert kinds == ["bump", "clifford", "constant", "geodesic_wrap",
                     "noisy_wrap", "random_smooth", "small_energy"]
    with pytest.raises(ConfigError) as err:
        sf.validate_config({"initial": {"kind": "vortex"}})
    assert str(err.value) == f"initial.kind must be one of {kinds}"
    for kind in kinds:
        grid, target, _, u0, _ = sf.build_objects(
            {"grid": {"nx": 16, "ny": 16}, "initial": {"kind": kind}})
        assert u0.values.shape == (16, 16, target.q)
        u0.check()


@pytest.mark.parametrize("kind", sorted(initial_data.MAP_BUILDERS))
def test_config_defaults_of_each_initial_kind_are_its_builders(kind):
    # `stringflow run` fills every initial key from the schema; a builder
    # called with no optional keyword must give the same map
    grid, target, _, u0, _ = sf.build_objects({"initial": {"kind": kind}})
    builder = initial_data.MAP_BUILDERS[kind][0]
    required = {"energy": 0.01} if kind == "small_energy" else {}
    assert np.array_equal(u0.values, builder(grid, target, **required).values)


def test_all_presets_validate_and_build():
    for name in sf.PRESETS:
        cfg = sf.preset_config(name)
        grid, target, fields, u0, fcfg = sf.build_objects(cfg)
        assert u0.values.shape == (grid.nx, grid.ny, target.q)
        fcfg.validate(grid)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        sf.preset_config("nope")


def test_config_file_roundtrip(tmp_path):
    cfg = sf.preset_config("gap_smallness")
    p = tmp_path / "c.json"
    sf.save_config(cfg, str(p))
    back = sf.load_config(str(p))
    assert back == cfg


def test_invalid_json_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        sf.load_config(str(p))


def test_build_objects_respects_fields():
    cfg = sf.preset_config("bfield_s3")
    _, _, fields, _, _ = sf.build_objects(cfg)
    assert not fields.b.is_zero
    assert not fields.V.is_zero
    assert json.dumps(cfg)  # serializable


@pytest.mark.parametrize("section,key,kinds", [
    ("target", "kind", ["sphere"]),
    ("fields", "b_kind", ["y4", "zero"]),
    ("fields", "v_kind", ["height", "zero"]),
])
def test_unknown_kind_is_a_config_error(section, key, kinds):
    with pytest.raises(ConfigError) as err:
        sf.validate_config({section: {key: "vortex"}})
    assert str(err.value) == f"{section}.{key} must be one of {kinds}"
    # every registered kind builds
    for kind in kinds:
        grid, target, fields, u0, _ = sf.build_objects(
            {"grid": {"nx": 16, "ny": 16}, section: {key: kind}})
        assert u0.values.shape == (16, 16, target.q)


@pytest.mark.parametrize("key, value", [
    ("t_end", float("inf")), ("dt_init", float("nan")),
    ("conv_tol", float("inf"))])
def test_non_finite_flow_setting_is_a_config_error(tmp_path, key, value):
    # JSON's Infinity and NaN load as floats; build_objects rejects them, so
    # a run never starts that would not stop, fail at its first step or
    # converge at its first record
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"grid": {"nx": 16, "ny": 16},
                             "flow": {key: value}}))
    cfg = sf.load_config(str(p))
    with pytest.raises(ConfigError, match=f"^{key} must"):
        sf.build_objects(cfg)


@pytest.mark.parametrize("section, key, value, kinds", [
    ("initial", "scale", float("inf"), {"kind": "bump"}),
    ("initial", "energy", float("nan"), {"kind": "small_energy"}),
    ("initial", "amplitude", float("nan"), {"kind": "random_smooth"}),
    ("fields", "epsilon", float("inf"), {"v_kind": "height"}),
    ("fields", "beta", float("nan"), {"b_kind": "y4"}),
])
def test_non_finite_field_or_initial_value_is_a_config_error(
        tmp_path, section, key, value, kinds):
    # the builders take Infinity and NaN as numbers: unchecked, a bump of
    # infinite scale runs as a constant map and a NaN two-form fails as
    # "not skew"
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"grid": {"nx": 16, "ny": 16},
                             section: {key: value, **kinds}}))
    cfg = sf.load_config(str(p))
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        sf.build_objects(cfg)


def test_height_with_zero_epsilon_builds_a_zero_potential():
    _, _, fields, _, _ = sf.build_objects(
        {"grid": {"nx": 16, "ny": 16},
         "fields": {"v_kind": "height", "epsilon": 0.0}})
    assert fields.V.name == "height" and fields.V.is_zero


def test_initial_map_with_a_non_finite_value_is_a_config_error(monkeypatch):
    def with_nan(grid, target, point=None):
        u = sf.constant_map(grid, target, point)
        u.values[1, 2, 0] = np.nan
        return u

    monkeypatch.setitem(initial_data.MAP_BUILDERS, "constant",
                        (with_nan, ("point",)))
    with pytest.raises(ConfigError, match="initial.kind 'constant' gives "
                                          "non-finite values"):
        sf.build_objects({"grid": {"nx": 16, "ny": 16}})
