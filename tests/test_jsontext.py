"""The JSON writer against json.dumps of the recursively rounded document."""
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pentile
from pentile.arrangement import Patch
from pentile.jsontext import dumps, float_texts, patch_document
from pentile.tiling import builtin_recipe, generate_patch


def round9(obj):
    """Round every float to 9 significant digits, recursively: the
    reference the writer's number format is checked against."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.9g}")
    if isinstance(obj, dict):
        return {k: round9(x) for k, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(x) for x in obj]
    return obj


def reference_text(document) -> str:
    return json.dumps(round9(document), sort_keys=True, indent=2,
                      allow_nan=False)


# floats where the two formats part ways: signed zero, the edges of repr's
# positional range, subnormals, the largest floats, and values .9g prints
# with an exponent that repr does not, or rounds up to the next power of ten
AWKWARD_FLOATS = [-0.0, 0.0, 1e16, 1e-5, 1e-4, 9.99999999e-5, 5e-324,
                  1e-310, 2.2250738585072014e-308, 1e308, -1e308,
                  1.7976931348623157e308, 1e9, 1234567890.0, 999999999.7,
                  123456789.4, 1e15, -2.5e-7, 0.1, 1 / 3]

scalars = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(AWKWARD_FLOATS))
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@given(documents)
def test_writer_matches_json_dumps_of_the_rounded_document(document):
    assert dumps(document) == reference_text(document)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from(AWKWARD_FLOATS), max_size=20))
def test_bulk_float_texts_match_the_rounded_repr(values):
    assert float_texts(values) == [repr(float(f"{x:.9g}")) for x in values]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_refused_like_json_dumps(bad):
    document = {"ok": [1.5, 2], "deep": [{"x": bad}]}
    with pytest.raises(ValueError):
        reference_text(document)
    with pytest.raises(ValueError):
        dumps(document)
    with pytest.raises(ValueError):
        dumps(patch_document(Patch.from_polygons(
            [[(0, 0), (1, 0), (0, 1)]], r=bad)))


def test_numpy_scalars_are_written_as_their_python_values():
    document = {"b": np.bool_(True), "i": np.int64(-7), "f": np.float32(0.1),
                "g": np.float64(2.0), "t": (np.int32(3), False)}
    assert dumps(document) == reference_text(document)


def patch_text(patch) -> str:
    return dumps(patch_document(patch))


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_patch_far_from_the_origin_writes_its_dict_view(type_id):
    """Coordinates near 1e7 keep about two decimals at nine digits."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    patch = generate_patch(recipe, 8.0, (1e7, 3e6))
    assert patch_text(patch) == reference_text(patch.to_json_dict())


def test_hand_built_patch_writes_its_dict_view():
    """Four- and five-corner tiles, no disk, empty zones, and edges that
    border one tile."""
    house = [(2, 0), (3, 0), (3, 1), (2.5, 1.5), (2, 1)]
    patch = Patch.from_polygons([[(0, 0), (1, 0), (1, 1), (0, 1)],
                                 [(1, 0), (2, 0), (2, 1), (1, 1)], house])
    assert (patch.r, patch.center) == (None, None)
    assert {t.zone for t in patch.tiles} == {""}
    assert {len(t.polygon) for t in patch.tiles} == {4, 5}
    assert 1 in np.diff(patch.edge_tiles.indptr)
    assert patch_text(patch) == reference_text(patch.to_json_dict())


def test_empty_patch_writes_empty_sections():
    patch = Patch.from_tiles([], r=2.0, center=(0.5, -0.5))
    text = patch_text(patch)
    assert text == reference_text(patch.to_json_dict())
    assert json.loads(text) == {"r": 2.0, "center": [0.5, -0.5],
                                "tiles": [], "vertices": [], "edges": []}
