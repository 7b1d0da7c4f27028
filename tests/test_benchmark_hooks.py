"""The benchmark's tracing hooks and output checks still fit the library.

`perfbench/spans.py` wraps library functions by module and attribute name,
and the benchmark builds patches and reads recipes through a few more. A
renamed function would break the benchmark, not these tests' imports, so
the hooks are loaded by path and resolved here. `perfbench/checks.py`
reads patches, reports and recipes through their attributes, so its checks
run here on the library's outputs.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import pentile
from pentile import stats, tiling, verifier

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# read by perfbench's run.py, checks.py and test_checks.py
ALSO_READ = (("arrangement", "Patch.from_polygons"),
             ("tiling", "TilingRecipe.region_polygons"))
SWEEP_RADII = (5.0, 10.0, 20.0)   # the family-sweep workload's radii


def load_perfbench(name):
    """perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_and_attribute(module, path):
    """The object holding the attribute path names, as the tracer finds it."""
    owner = importlib.import_module(f"pentile.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def hooked_attributes(spans):
    """Each TARGETS name's attribute as its owner holds it now."""
    found = {}
    for name, (module, path) in spans.TARGETS.items():
        owner, attr = owner_and_attribute(module, path)
        found[name] = vars(owner)[attr]
    return found


def test_tracing_puts_every_attribute_back():
    for module, path in ALSO_READ:
        owner, attr = owner_and_attribute(module, path)
        assert callable(getattr(owner, attr)), (module, path)
    spans = load_perfbench("spans")
    originals = hooked_attributes(spans)
    recipe = tiling.builtin_recipe(4, pentile.representative(4).pentagon)
    with spans.Tracer().installed() as tracer:
        wrapped = hooked_attributes(spans)
        tiling.generate_patch(recipe, 5.0)
    assert all(wrapped[name] is not originals[name] for name in originals)
    assert "tiling.generate_patch" in {span.name for span in tracer.spans}
    restored = hooked_attributes(spans)
    assert all(restored[name] is originals[name] for name in originals)


def test_calls_inside_the_library_are_traced():
    """builtin_recipe looks check_periodicity up when called, so the
    tracer's wrapper runs beneath its own. limit_sweep counts on the
    lattice and builds no patch, so no generate_patch runs beneath it. The
    pentagon is scaled so that no cached recipe answers."""
    spans = load_perfbench("spans")
    pentagon = pentile.representative(4).pentagon.scaled(1.0 + 1.0 / 7919)
    with spans.Tracer().installed() as tracer:
        recipe = tiling.builtin_recipe(4, pentagon)
        stats.limit_sweep(recipe, [5.0])
    parents = {(span.name, tracer.spans[span.parent].name)
               for span in tracer.spans if span.parent is not None}
    assert ("verifier.check_periodicity", "tiling.builtin_recipe") in parents
    assert "tiling.generate_patch" not in {span.name
                                           for span in tracer.spans}


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_benchmark_checks_pass_on_library_outputs(type_id):
    """The checks the benchmark applies to each operation's result pass on
    a representative's patch, verifier report, recipe and limit sweep."""
    checks = load_perfbench("checks")
    recipe = tiling.builtin_recipe(type_id,
                                   pentile.representative(type_id).pentagon)
    patch = tiling.generate_patch(recipe, 8.0)
    assert checks.check_patch(patch, recipe.pentagon,
                              stats.compute_stats(patch, stats.FULL),
                              stats.compute_stats(patch, stats.INTERIOR)) == []
    assert checks.check_honest_verify(verifier.verify_patch(patch),
                                      patch) == []
    assert checks.check_periodicity_report(
        verifier.check_periodicity(recipe), recipe) == []
    limit = stats.limit_sweep(recipe, SWEEP_RADII)
    assert checks.check_limit(limit, stats.balance_residual(limit)) == []
