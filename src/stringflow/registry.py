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


def build_kind(registry: dict, key: str, kind: str, params: dict, **fixed):
    """builder(**fixed, **the registered keys of params) for `kind`."""
    check_kind(registry, key, kind)
    builder, keys = registry[kind]
    return builder(**fixed, **{k: params[k] for k in keys})
