"""Kind registries.

A registry maps each `kind` string of one concept (initial map, target,
two-form, potential) to (builder, the config keys the builder takes as
keywords).  The one dict drives both the config check and the build.
"""

from __future__ import annotations

from .errors import ConfigError


def check_kind(registry: dict, key: str, kind: str):
    """ConfigError naming the config key and the valid kinds."""
    if kind not in registry:
        raise ConfigError(f"{key} must be one of {sorted(registry)}")


def check_kinds(section: str, values: dict, defaults: dict, kinds: dict):
    """ConfigError unless the kind that `values` holds at each key of
    `kinds` is one of that key's registry, and every key of `defaults` that
    none of the chosen kinds takes holds its default in `values`; the
    default keeps a saved config.json, which holds every key, loadable."""
    taken = set()
    for key, registry in kinds.items():
        check_kind(registry, f"{section}.{key}", values[key])
        taken.update((key, *registry[values[key]][1]))
    for key, default in defaults.items():
        if key not in taken and values[key] != default:
            under = ", ".join(f"{k} {values[k]!r}" for k in kinds)
            raise ConfigError(f"{section}.{key} = {values[key]!r} does nothing "
                              f"under {under}; leave it at {default!r}")


def build_kind(registry: dict, key: str, kind: str, params: dict, **fixed):
    """builder(**fixed, **the registered keys of params) for `kind`."""
    check_kind(registry, key, kind)
    builder, keys = registry[kind]
    return builder(**fixed, **{k: params[k] for k in keys})
