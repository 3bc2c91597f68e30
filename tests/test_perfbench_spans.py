import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import stringflow

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: a dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SPANS = _load("tracer").SPANS
WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("layer", sorted(SPANS))
def test_traced_span_resolves_to_a_function(layer):
    # the benchmark's tracer rebinds each of these names; renaming or
    # deleting one breaks every traced benchmark run
    module_name, attr = SPANS[layer]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _sf_names(path):
    """Every attribute the file reads from the name `sf`, the stringflow
    package in the benchmark's driver and workloads."""
    tree = ast.parse(path.read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "sf"}


@pytest.mark.parametrize("name", ["child.py", "workloads.py"])
def test_benchmark_uses_only_names_the_package_has(name):
    # deleting a name the benchmark calls would otherwise first fail in a
    # benchmark run
    used = _sf_names(PERFBENCH / name)
    assert used, f"no sf.<name> read in perfbench/{name}"
    missing = sorted(n for n in used if not hasattr(stringflow, n))
    assert not missing, f"perfbench/{name} uses {missing}"


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_configs_build(name, seed):
    # a renamed or dropped kind or key of a workload's config would
    # otherwise first fail in a benchmark run
    cfg = stringflow.validate_config(WORKLOADS[name].config(seed))
    grid, target, _, u0, _ = stringflow.build_objects(cfg)
    assert u0.values.shape == (grid.nx, grid.ny, target.q)
