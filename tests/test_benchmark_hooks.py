"""The benchmark's tracing hooks still fit the library.

`perfbench/spans.py` wraps library functions by module and attribute name,
and the benchmark builds patches and reads recipes through a few more. A
renamed function would break the benchmark, not these tests' imports, so
the hooks are loaded by path and resolved here.
"""
import importlib
import importlib.util
from pathlib import Path

import pentile
from pentile import tiling

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# read by perfbench's run.py, checks.py and test_checks.py
ALSO_READ = (("arrangement", "Patch.from_polygons"),
             ("tiling", "TilingRecipe.region_polygons"))


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
    spans = load_spans()
    originals = hooked_attributes(spans)
    recipe = tiling.builtin_recipe(4, pentile.representative(4).pentagon)
    with spans.Tracer().installed() as tracer:
        wrapped = hooked_attributes(spans)
        tiling.generate_patch(recipe, 5.0)
    assert all(wrapped[name] is not originals[name] for name in originals)
    assert "tiling.generate_patch" in {span.name for span in tracer.spans}
    restored = hooked_attributes(spans)
    assert all(restored[name] is originals[name] for name in originals)
