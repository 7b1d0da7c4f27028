"""Isometry algebra, recipes, patch generation, and the arrangement."""
import dataclasses
import functools
import itertools
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import pentile
from pentile import arrangement, jsontext, render, tiling, verifier
from pentile.arrangement import Patch
from pentile.catalog import classify, get_type_spec, solve_instance
from pentile.errors import (
    InfeasibleParams,
    NonConvergence,
    ParseError,
    RecipeInvalid,
    TypeMismatch,
)
from pentile.geometry import (
    ccw,
    convex_overlap_areas,
    polygon_area,
    polygon_distances,
    segment_distances,
)
from pentile.pentagon import CORNERS, solve_edges
from pentile.stats import (
    FULL,
    INTERIOR,
    compute_stats,
    euler_residual,
    limit_sweep,
)
from pentile.tiling import (
    Isometry,
    TilingRecipe,
    builtin_recipe,
    congruence_defect,
    generate_patch,
    load_recipe,
)
from pentile.verifier import check_periodicity, verify_patch

DATA = Path(__file__).parent / "data"

angles = st.floats(-math.pi, math.pi, allow_nan=False)
coords = st.floats(-10.0, 10.0, allow_nan=False)
points = st.tuples(coords, coords)


def isometries():
    return st.builds(Isometry, rotation=angles,
                     translation=points, reflect=st.booleans())


def house():
    return pentile.pentagon_from_json_dict(
        json.loads((DATA / "house.json").read_text()))


def polygon_centroid(poly):
    """One polygon's shoelace centroid: the reference for the stacked
    `geometry.polygon_centroids`."""
    x, y = poly[:, 0], poly[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * np.sum(cross)
    cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * a)
    cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * a)
    return np.array([cx, cy])


# --- isometry algebra -------------------------------------------------------

@given(isometries(), isometries(), points)
def test_compose_matches_sequential_application(a, b, x):
    composed = a.compose(b)
    expected = a.apply(b.apply(np.array(x)))
    assert np.allclose(composed.apply(np.array(x)), expected, atol=1e-9)


@given(isometries(), isometries())
def test_compose_reflect_parity(a, b):
    assert a.compose(b).reflect == (a.reflect ^ b.reflect)


@given(points, points, points, angles, st.booleans())
def test_match_segment_maps_endpoints(p0, p1, q0, theta, reflect):
    p0, p1 = np.array(p0), np.array(p1)
    if np.linalg.norm(p1 - p0) < 1e-3:
        p1 = p0 + np.array([1.0, 0.0])
    q0 = np.array(q0)
    q1 = q0 + pentile.geometry.rot_matrix(theta) @ (p1 - p0)
    iso = Isometry.match_segment(p0, p1, q0, q1, reflect=reflect)
    assert iso.reflect == reflect
    assert np.allclose(iso.apply(p0), q0, atol=1e-9)
    assert np.allclose(iso.apply(p1), q1, atol=1e-9)


def test_match_segment_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Isometry.match_segment((0, 0), (1, 0), (0, 0), (2, 0))


@given(isometries(), points, points)
def test_isometry_preserves_distances(iso, x, y):
    p, q = np.array(x), np.array(y)
    d0 = np.linalg.norm(p - q)
    d1 = np.linalg.norm(iso.apply(p) - iso.apply(q))
    assert d1 == pytest.approx(d0, abs=1e-9)


def test_isometry_json_round_trip():
    iso = Isometry(rotation=0.7, translation=(1.5, -2.25), reflect=True)
    back = Isometry.from_json_dict(iso.to_json_dict())
    assert back.reflect is True
    assert back.rotation == pytest.approx(iso.rotation)
    assert back.translation == pytest.approx(iso.translation)


def test_isometry_bad_record():
    for record in ({"rot_deg": "spin"},
                   {"rot_deg": math.nan, "tx": 0.0, "ty": 0.0},
                   {"rot_deg": 0.0, "tx": 0.0, "ty": -math.inf},
                   {"rot_deg": 0.0, "tx": 0.0, "ty": 0.0, "reflect": "false"},
                   {"rot_deg": 0.0, "tx": 0.0, "ty": 0.0, "reflect": 0}):
        with pytest.raises(ParseError):
            Isometry.from_json_dict(record)


def test_isometry_reflect_defaults_to_false():
    record = {"rot_deg": 0.0, "tx": 0.0, "ty": 0.0}
    assert Isometry.from_json_dict(record).reflect is False


# --- recipes ----------------------------------------------------------------

def test_builtin_recipe_round_trips_through_json():
    recipe = builtin_recipe(1, house())
    back = load_recipe(json.loads(jsontext.dumps(recipe.to_json_dict())))
    assert len(back.region) == len(recipe.region)
    assert back.u == pytest.approx(recipe.u)
    assert back.v == pytest.approx(recipe.v)
    assert np.allclose(back.pentagon.vertices, recipe.pentagon.vertices)


def test_parallel_lattice_vectors_rejected():
    with pytest.raises(RecipeInvalid):
        TilingRecipe(pentagon=house(), region=(Isometry(),),
                     u=(1.0, 0.0), v=(2.0, 0.0))


def test_empty_region_rejected():
    with pytest.raises(RecipeInvalid):
        TilingRecipe(pentagon=house(), region=(),
                     u=(1.0, 0.0), v=(0.0, 1.0))


def test_load_recipe_parse_errors():
    with pytest.raises(ParseError):
        load_recipe({"pentagon": {}})
    with pytest.raises(ParseError):
        load_recipe([1, 2, 3])
    document = json.loads((DATA / "type5_recipe.json").read_text())
    document["lattice"][0][0] = math.nan
    with pytest.raises(ParseError):
        load_recipe(document)


def test_hand_encoded_type5_recipe_file():
    document = json.loads((DATA / "type5_recipe.json").read_text())
    recipe = load_recipe(document)
    assert len(recipe.region) == 6
    report = pentile.check_periodicity(recipe)
    assert report.ok, report.violations


def test_builtin_recipe_rejects_regular_pentagon():
    regular = pentile.make_pentagon([math.radians(108)] * 5, [1.0] * 5)
    with pytest.raises(TypeMismatch):
        builtin_recipe(1, regular)


def type2_sides_a_and_d_one_part_in_1e8_apart():
    """A Type 2 pentagon whose sides a and d agree to CLASSIFY_TOL but not
    to the 1e-9 a glue isometry needs."""
    p = pentile.representative(2).pentagon
    a, b, c = p.edges[:3]
    return solve_edges(p.angles, {"a": a * (1 + 1e-8), "b": b, "c": c})


def test_builtin_recipe_rejects_sides_equal_only_to_classify_tolerance():
    pentagon = type2_sides_a_and_d_one_part_in_1e8_apart()
    assert classify(pentagon) == [2]
    with pytest.raises(RecipeInvalid, match="segment lengths differ"):
        builtin_recipe(2, pentagon)


def test_builtin_recipe_type1_house_has_two_tiles():
    recipe = builtin_recipe(1, house())
    assert len(recipe.region) == 2
    report = pentile.check_periodicity(recipe)
    assert report.ok, report.violations


def test_builtin_recipe_type4_has_four_tiles():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    assert len(recipe.region) == 4
    assert pentile.check_periodicity(recipe).ok


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_placed_tiles_congruent_to_recipe_pentagon(type_id):
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    patch = generate_patch(recipe, 6.0)
    worst = max(congruence_defect(t, recipe.pentagon) for t in patch.tiles)
    assert worst <= 1e-9


# --- patch generation -------------------------------------------------------

def test_small_radius_gives_single_f1_tile():
    recipe = builtin_recipe(5, pentile.representative(5).pentagon)
    base = recipe.region_polygons()[0]
    centroid = polygon_centroid(base)
    circumradius = max(np.linalg.norm(v - centroid) for v in base)
    patch = generate_patch(recipe, 1.02 * circumradius, M=centroid)
    f1 = [t for t in patch.tiles if t.zone == "F1"]
    assert len(f1) == 1
    assert np.allclose(np.sort(f1[0].polygon, axis=0),
                       np.sort(base, axis=0), atol=1e-9)
    assert all(t.zone in ("F1", "F2", "F3") for t in patch.tiles)
    assert any(t.zone == "F2" for t in patch.tiles)


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_euler_characteristic_is_one(type_id):
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    patch = generate_patch(recipe, 8.0)
    assert euler_residual(compute_stats(patch)) == 0


def test_doubling_radius_roughly_quadruples_tiles():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    r = 10.0 * recipe.pentagon.diameter
    small = len(generate_patch(recipe, r).tiles)
    big = len(generate_patch(recipe, 2 * r).tiles)
    assert 3.5 <= big / small <= 4.5


def test_generate_patch_rejects_nonpositive_radius():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    with pytest.raises(ParseError):
        generate_patch(recipe, 0.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_generate_patch_rejects_non_finite_radius(r):
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    with pytest.raises(ParseError):
        generate_patch(recipe, r)


@pytest.mark.parametrize("M", [(math.nan, 0.0), (0.0, math.inf)])
def test_generate_patch_rejects_non_finite_centre(M):
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    with pytest.raises(ParseError, match="finite"):
        generate_patch(recipe, 8.0, M)


def test_builtin_recipe_is_checked_once_per_pentagon(monkeypatch):
    import pentile.verifier

    checked = []
    check = pentile.verifier.check_periodicity

    def counting(recipe, *args, **kwargs):
        checked.append(recipe)
        return check(recipe, *args, **kwargs)

    monkeypatch.setattr(pentile.verifier, "check_periodicity", counting)
    builtin_recipe.cache_clear()
    pentagon = pentile.representative(4).pentagon
    first = builtin_recipe(4, pentagon)
    assert builtin_recipe(4, pentagon) is first
    assert checked == [first]


def test_sweep_builds_the_cell_arrangement_once_per_recipe():
    """A fresh recipe, so no earlier call has built its cell. The flood
    fill and the arrangement lookup read the cell of one snap."""
    built = builtin_recipe(4, pentile.representative(4).pentagon)
    recipe = TilingRecipe(built.pentagon, built.region, built.u, built.v)
    with mock.patch.object(arrangement, "cell_arrangement",
                           wraps=arrangement.cell_arrangement) as cell, \
            mock.patch.object(arrangement, "_snapped_incidence",
                              wraps=arrangement._snapped_incidence) as snap:
        limit_sweep(recipe, [5.0, 10.0, 20.0])
    assert cell.call_count == 1
    assert snap.call_count == 1


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_generated_patch_snaps_no_corners(monkeypatch, type_id):
    """Once the recipe's cell is built, a generated patch looks its
    incidence up: no neighbour search and no snapping graph."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    recipe.cell_arrangement

    def refuse(*args, **kwargs):
        raise AssertionError("generate_patch measured corner distances")

    monkeypatch.setattr(arrangement, "close_pairs", refuse)
    patch = generate_patch(recipe, 10.0, (0.37, -1.21))
    assert euler_residual(compute_stats(patch)) == 0


def test_patch_translation_maps_interior_tiles_into_patch():
    """Shifting an interior tile by a lattice vector lands on another tile."""
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    patch = generate_patch(recipe, 8.0)
    centroids = {(t.cell, round(polygon_centroid(t.polygon)[0], 6),
                  round(polygon_centroid(t.polygon)[1], 6))
                 for t in patch.tiles}
    keyed = {(c[1], c[2]) for c in centroids}
    u = np.array(recipe.u)
    hits = misses = 0
    for t in (patch.tiles[i] for i in patch.interior_tile_ids()):
        c = polygon_centroid(t.polygon) + u
        if (round(c[0], 6), round(c[1], 6)) in keyed:
            hits += 1
        else:
            misses += 1  # image fell off the window edge
    assert hits > 0
    assert hits >= misses


# --- arrangement: adjacents, neighbors, pseudo-vertices ---------------------

def neighbors(patch: Patch) -> list[tuple[int, ...]]:
    """Tiles sharing at least one vertex with each tile, read off
    vertex_tiles."""
    shared = [set() for _ in patch.tiles]
    for tiles in patch.vertex_tiles.rows():
        for t in tiles:
            shared[t].update(tiles)
    return [tuple(sorted(s - {t})) for t, s in enumerate(shared)]


def brick_wall_fixture() -> Patch:
    """Running-bond bricks: the classic adjacent-versus-neighbor picture.

    Center brick T sits at [0,2]x[0,1]. The row above is aligned with T, so
    its outer bricks touch T at single corner points; the row below is offset
    by half a brick, splitting T's bottom side at (1,0).
    """
    def brick(x, y):
        return [(x, y), (x + 2, y), (x + 2, y + 1), (x, y + 1)]

    polys = [
        brick(0, 0),      # 0: T
        brick(0, 1),      # 1: directly above, full side shared
        brick(-2, 0),     # 2: left
        brick(2, 0),      # 3: right
        brick(-1, -1),    # 4: below left, offset
        brick(1, -1),     # 5: below right, offset
        brick(-2, 1),     # 6: above left, corner contact only
        brick(2, 1),      # 7: above right, corner contact only
    ]
    return Patch.from_polygons(polys)


def test_brick_wall_adjacents_and_neighbors():
    patch = brick_wall_fixture()
    adjacents = patch.tile_adjacents.rows()
    touching = neighbors(patch)
    assert adjacents[0] == (1, 2, 3, 4, 5)
    assert touching[0] == (1, 2, 3, 4, 5, 6, 7)
    for t in range(len(patch.tiles)):
        assert set(adjacents[t]) <= set(touching[t])


def test_brick_wall_vertex_valences_and_pseudo_flags():
    patch = brick_wall_fixture()
    by_xy = {v.xy: v for v in patch.vertices}
    for corner in ((0.0, 1.0), (2.0, 1.0)):
        assert by_xy[corner].valence == 4
        assert not by_xy[corner].pseudo
        assert by_xy[corner].complete
    for split in ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)):
        assert by_xy[split].valence == 3
        assert by_xy[split].pseudo
        assert by_xy[split].complete


def test_two_pentagons_sharing_a_side_are_adjacent():
    p = house()
    mirrored = p.vertices * np.array([1.0, -1.0])
    patch = Patch.from_polygons([p.vertices, mirrored[::-1]])
    assert patch.tile_adjacents.rows()[0] == (1,)
    assert neighbors(patch)[0] == (1,)


def test_corner_contact_is_neighbor_not_adjacent():
    square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    other = square + np.array([1.0, 1.0])
    patch = Patch.from_polygons([square, other])
    assert patch.tile_adjacents.rows()[0] == ()
    [shared] = [v for v, tiles in enumerate(patch.vertex_tiles.rows())
                if tiles == (0, 1)]
    assert patch.vertex_xy[shared].tolist() == [1.0, 1.0]


def test_type4_patch_is_edge_to_edge():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    patch = generate_patch(recipe, 8.0)
    complete = [v for v in patch.vertices if v.complete]
    assert complete
    assert not any(v.pseudo for v in complete)
    assert all(v.valence >= 3 for v in complete)


def test_type1_house_tiling_is_all_three_valent_with_pseudo_vertices():
    recipe = builtin_recipe(1, house())
    patch = generate_patch(recipe, 10.0)
    complete = [v for v in patch.vertices if v.complete]
    assert complete
    assert all(v.valence == 3 for v in complete)
    assert any(v.pseudo for v in complete)


def test_patch_json_round_trip():
    recipe = builtin_recipe(1, house())
    patch = generate_patch(recipe, 6.0)
    back = pentile.patch_from_json_dict(patch.to_json_dict())
    assert len(back.tiles) == len(patch.tiles)
    assert len(back.vertex_xy) == len(patch.vertex_xy)
    assert len(back.edge_vertices) == len(patch.edge_vertices)
    assert euler_residual(compute_stats(back)) == 0
    for tile, loaded in zip(patch.tiles, back.tiles, strict=True):
        assert (loaded.cell, loaded.zone) == (tile.cell, tile.zone)
        assert np.array_equal(loaded.polygon, tile.polygon)


@settings(max_examples=25)
@given(st.floats(5.0, 9.0))
def test_every_edge_borders_at_most_two_tiles(r):
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    patch = generate_patch(recipe, r)
    assert all(len(e.tiles) <= 2 for e in patch.edges)


# --- F3 flood fill: the label touch graph against the pairwise reference ---

PAIR_BLOCK = 512  # candidate pairs per vectorized touch test


def polygons_touch(p, q, eps):
    """For (N, n, 2) polygon stacks p and q, whether some corner of one
    polygon lies within eps of the other's boundary: touch by distance."""
    def corner_gap(a, b):
        return segment_distances(a[:, :, None, :], b[:, None, :, :],
                                 np.roll(b, -1, axis=1)[:, None, :, :]
                                 ).min(axis=(1, 2))

    return np.minimum(corner_gap(p, q), corner_gap(q, p)) <= eps


def reference_touch_pairs(polys, centroids, eps):
    """Every touching pair (a, b), a < b, found by measuring: cKDTree pairs
    of centroids within two bounding radii, then `polygons_touch` on each
    pair. generate_patch built its touch graph this way before it read the
    recipe's cell."""
    radius = np.linalg.norm(polys - centroids[:, None, :], axis=2).max()
    reach = 2.0 * radius + eps
    pairs = cKDTree(centroids).query_pairs(reach, output_type="ndarray")
    blocks = np.split(pairs, range(PAIR_BLOCK, len(pairs), PAIR_BLOCK))
    return pairs[np.concatenate([
        polygons_touch(polys[b[:, 0]], polys[b[:, 1]], eps)
        for b in blocks])]


def reference_enclosed_tiles(is_open, pairs):
    """The pairwise flood fill over pairs, the `reference_touch_pairs` of
    the same tiles, from the tiles is_open marks."""
    n = len(is_open)
    touching = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                          shape=(n, n))
    _, component = connected_components(touching, directed=False)
    flooded = np.isin(component, component[is_open])
    return np.nonzero(~flooded)[0]


def label_touch_pairs(cells, recipe):
    """The pairs (a, b), a < b, of the translates in cells that share a
    `vertex_labels` label, as corner or side split."""
    labels, tile, _ = arrangement.vertex_labels(cells,
                                                recipe.cell_arrangement)
    at = {}
    for label, t in zip(labels.tolist(), tile.tolist()):
        at.setdefault(label, set()).add(t)
    return {pair for tiles in at.values()
            for pair in itertools.combinations(sorted(tiles), 2)}


def unordered(a, b):
    return {(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist())}


def tile_records(patch):
    return [(t.cell, t.zone, t.polygon.tobytes()) for t in patch.tiles]


def placed_shifts(recipe, cells):
    m, n, _ = cells.T
    return (m[:, None] * np.asarray(recipe.u)
            + n[:, None] * np.asarray(recipe.v))


def placed_corners(recipe, cells):
    """The corners of the translates (m, n, region index) in cells, placed
    as generate_patch places them."""
    return (recipe.region_corners[cells[:, 2]]
            + placed_shifts(recipe, cells)[:, None, :])


def placed_centroids(recipe, cells):
    return recipe.region_centroids[cells[:, 2]] + placed_shifts(recipe, cells)


def assert_flood_fill_matches_reference(recipe, r, M):
    """The label touch graph, F3 set and tiles equal the pairwise
    reference's, bit for bit. The graph is compared on its own because the
    built-in tilings leave F3 empty in practice, so equal F3 sets alone
    would say little about it. The pairs are measured once."""
    with mock.patch.object(tiling, "_enclosed_tiles",
                           wraps=tiling._enclosed_tiles) as flood:
        patch = generate_patch(recipe, r, M)
    outer, is_open, _ = flood.call_args.args
    pairs = reference_touch_pairs(placed_corners(recipe, outer),
                                  placed_centroids(recipe, outer),
                                  recipe.merge_distance)
    assert label_touch_pairs(outer, recipe) == unordered(pairs[:, 0],
                                                         pairs[:, 1])
    enclosed = reference_enclosed_tiles(is_open, pairs)
    assert np.array_equal(tiling._enclosed_tiles(*flood.call_args.args),
                          enclosed)

    def pairwise(cells, is_open, recipe):
        assert np.array_equal(cells, outer)
        return enclosed

    with mock.patch.object(tiling, "_enclosed_tiles", pairwise):
        reference = generate_patch(recipe, r, M)
    assert tile_records(patch) == tile_records(reference)


BUILTIN_SWEEP_TYPES = (1, 2, 4, 5)
sweep_centres = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))


@st.composite
def type_params(draw, degrees, fraction):
    """A Type of 1, 2, 4 and 5 and free parameters whose angles lie within
    degrees and edges within fraction of the catalog defaults."""
    spec = get_type_spec(draw(st.sampled_from(BUILTIN_SWEEP_TYPES)))
    params = {}
    for name, value in sorted(spec.default_params.items()):
        x = draw(st.floats(-1.0, 1.0))
        params[name] = (value + math.radians(degrees * x) if name in CORNERS
                        else value * (1.0 + fraction * x))
    return spec, params


def sweep_recipes():
    """Built-in recipes within 8 degrees and 10 % of the catalog defaults:
    the ranges of the benchmark's family-sweep workload."""
    return type_params(8.0, 0.1).map(
        lambda drawn: builtin_recipe(drawn[0].id, solve_instance(*drawn)))


def full_clip_pairwise_overlap(stacked, counts):
    """Reference for _pairwise_overlap: every pair i < j clipped, and the
    first worst in (i, j) order; no bounding circles, no certificate."""
    i, j = np.triu_indices(len(stacked), 1)
    areas = convex_overlap_areas(stacked[i], counts[i], stacked[j])
    k = int(np.argmax(areas)) if len(areas) else 0
    if not len(areas) or not areas[k] > 0.0:
        return 0.0, None
    return float(areas[k]), (int(i[k]), int(j[k]))


def assert_candidates_match_full_clip(type_id, pentagon):
    """Every candidate builtin_recipe tries gets, from check_periodicity,
    the verdict and the violations it gets with every pair clipped.
    Returns the verdicts and whether an overlap was reported."""
    seen = []

    def compared(recipe):
        report = check_periodicity(recipe)
        with mock.patch.object(verifier, "_pairwise_overlap",
                               full_clip_pairwise_overlap):
            reference = check_periodicity(recipe)
        assert (report.ok, report.violations) == \
            (reference.ok, reference.violations)
        seen.append((report.ok, any("overlap" in v
                                    for v in report.violations)))
        return report

    with mock.patch.object(verifier, "check_periodicity", compared):
        try:
            builtin_recipe.__wrapped__(type_id, pentagon)
        except RecipeInvalid:
            pass
    return seen


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_builtin_recipe_tries_the_same_candidates(type_id):
    seen = assert_candidates_match_full_clip(
        type_id, pentile.representative(type_id).pentagon)
    assert seen[-1] == (True, False)


def test_failing_type1_row_pairs_report_the_full_clip_overlap():
    """A Type 1 pentagon 4 degrees and 10 % off the default: both row-pair
    candidates fail by area alone, unclipped, and the hexagon pair is
    chosen."""
    spec = get_type_spec(1)
    params = dict(spec.default_params)
    params["A"] += math.radians(-4.0)
    params["a"] *= 0.9
    seen = assert_candidates_match_full_clip(1,
                                             solve_instance(spec, params))
    assert seen == [(False, False), (False, False), (True, False)]


def test_a_turned_region_tile_fails_by_the_full_clip_overlap():
    """Type 4 with region tile 1 turned 1 degree about its centroid: the
    areas still agree, so the window is built and clipped, and it reports
    the overlap that every pair clipped gives."""
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    region = list(recipe.region)
    region[1] = Isometry.rotation_about(
        math.radians(1.0), recipe.region_centroids[1]).compose(region[1])
    turned = dataclasses.replace(recipe, region=tuple(region))
    report = check_periodicity(turned)
    with mock.patch.object(verifier, "_pairwise_overlap",
                           full_clip_pairwise_overlap):
        reference = check_periodicity(turned)
    assert not report.ok
    assert report.violations == reference.violations == [
        "window tiles 0 and 5 overlap by 3.523e-03"]


@settings(max_examples=30)
@given(type_params(8.0, 0.1))
def test_sweep_candidates_match_full_clip(drawn):
    """The pentagons of sweep_recipes(), each built afresh."""
    assert assert_candidates_match_full_clip(drawn[0].id,
                                             solve_instance(*drawn))


@functools.lru_cache(maxsize=16)
def disk_stats(recipe):
    """FULL and INTERIOR statistics of the recipe's disk at r = 8, computed
    once per recipe."""
    patch = generate_patch(recipe, 8.0)
    return compute_stats(patch, FULL), compute_stats(patch, INTERIOR)


representative_recipes = st.sampled_from(BUILTIN_SWEEP_TYPES).map(
    lambda t: builtin_recipe(t, pentile.representative(t).pentagon))


@settings(max_examples=20)
@given(st.one_of(representative_recipes, sweep_recipes()))
def test_sheared_bases_tile_alike(recipe):
    """u + k·v and v + k·u, k in [-4, 4], span the recipe's lattice: with
    either as the basis the recipe is periodic, and its disk at r = 8 has
    the same FULL and INTERIOR statistics."""
    u, v = np.asarray(recipe.u), np.asarray(recipe.v)
    expected = disk_stats(recipe)
    for k in range(-4, 5):
        for basis in ((u + k * v, v), (u, v + k * u)):
            sheared = dataclasses.replace(recipe, u=tuple(basis[0]),
                                          v=tuple(basis[1]))
            report = check_periodicity(sheared)
            assert report.ok, (k, basis, report.violations)
            assert disk_stats(sheared) == expected, (k, basis)


def shifted(iso: Isometry, shift) -> Isometry:
    """iso followed by the translation by shift."""
    return dataclasses.replace(
        iso, translation=tuple(np.add(iso.translation, shift)))


@st.composite
def relisted_recipes(draw):
    """A recipe and the same tiling listed another way: u or v sheared by
    k in [-20, 20], and each region tile after the first moved by m·u + n·v,
    m and n in [-10, 10]."""
    recipe = draw(st.one_of(representative_recipes, sweep_recipes()))
    u, v = np.asarray(recipe.u), np.asarray(recipe.v)
    k = draw(st.integers(-20, 20))
    basis = draw(st.sampled_from([(u + k * v, v), (u, v + k * u)]))
    cells = st.tuples(st.integers(-10, 10), st.integers(-10, 10))
    count = len(recipe.region) - 1
    moves = draw(st.lists(cells, min_size=count, max_size=count))
    region = recipe.region[:1] + tuple(
        shifted(iso, m * u + n * v)
        for iso, (m, n) in zip(recipe.region[1:], moves))
    return recipe, TilingRecipe(pentagon=recipe.pentagon, region=region,
                                u=tuple(basis[0]), v=tuple(basis[1]))


@settings(max_examples=30)
@given(relisted_recipes())
def test_any_basis_and_region_placement_tiles_alike(pair):
    """Periodicity belongs to the lattice, not to the basis a recipe names
    or to the translate of each region tile it lists: the relisted recipe
    loads, passes check_periodicity and gives the same FULL and INTERIOR
    statistics at r = 8."""
    recipe, relisted = pair
    report = check_periodicity(relisted)
    assert report.ok, report.violations
    assert disk_stats(relisted) == disk_stats(recipe)


def test_a_far_placed_region_tile_needs_no_more_memory():
    """Type 5 with region tile 1 moved by 3000·u: once the recipe's cell
    arrangement is built, generating the r = 8 disk stays under 64 MiB
    traced, and its statistics are the unmoved recipe's. Nothing in the
    flood is sized by the (m, n) span of the region."""
    recipe = builtin_recipe(5, pentile.representative(5).pentagon)
    region = list(recipe.region)
    region[1] = shifted(region[1], 3000 * np.asarray(recipe.u))
    far = dataclasses.replace(recipe, region=tuple(region))
    assert far.cell_arrangement.orbits    # built, and checked, untraced
    tracemalloc.start()
    try:
        patch = generate_patch(far, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert (compute_stats(patch, FULL), compute_stats(patch, INTERIOR)) == \
        disk_stats(recipe)


def assert_sound_patch(patch):
    """Euler residual 0, at most two tiles per edge, and a verifier pass
    or only vacuous failures: at the smallest radii a wide tile can leave
    an inner disk smaller than one tile."""
    assert euler_residual(compute_stats(patch)) == 0
    assert np.diff(patch.edge_tiles.indptr).max() <= 2
    report = verify_patch(patch)
    assert report.ok or all(v.startswith("vacuous")
                            for v in report.violations), report.violations


@settings(max_examples=40)
@given(sweep_recipes(), st.floats(3.0, 15.0), sweep_centres)
def test_label_touch_graph_matches_pairwise_flood_fill(recipe, r, M):
    assert_flood_fill_matches_reference(recipe, r, M)


@pytest.mark.parametrize("M", [(0.0, 0.0), (13.7, -4.2)],
                         ids="{0[0]:g},{0[1]:g}".format)
@pytest.mark.parametrize("r", [5.0, 12.0])
@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_moat_encloses_the_tiles_the_pairwise_flood_fill_encloses(
        type_id, r, M):
    """Built-in patches leave F3 empty. Cutting an annulus two diameters
    wide out of the candidates outside the disk, from 1.5 to 3.5 tile
    diameters beyond r, cuts the tiles inside it off from the open tiles
    beyond it: a non-empty F3, which must equal the pairwise flood
    fill's."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    diam = recipe.pentagon.diameter
    eps = recipe.merge_distance
    center = np.asarray(M)
    cells, polys = tiling.near_translates(recipe, center[None],
                                          r + 5.0 * diam)
    centroids = placed_centroids(recipe, cells)
    beyond = np.linalg.norm(centroids - center, axis=1) - r
    outer = ((polygon_distances(center, polys) > r + eps)
             & ((beyond < 1.5 * diam) | (beyond > 3.5 * diam)))
    cells, polys, centroids = cells[outer], polys[outer], centroids[outer]
    is_open = beyond[outer] > 3.5 * diam
    enclosed = tiling._enclosed_tiles(cells, is_open, recipe)
    assert len(enclosed)
    pairs = reference_touch_pairs(polys, centroids, eps)
    assert np.array_equal(enclosed, reference_enclosed_tiles(is_open, pairs))


@settings(max_examples=40)
@given(sweep_recipes(), st.floats(3.0, 15.0), sweep_centres)
def test_sweep_patches_keep_euler_and_edge_invariants(recipe, r, M):
    assert_sound_patch(generate_patch(recipe, r, M))


@settings(max_examples=60)
@given(type_params(40.0, 0.6), st.floats(3.0, 10.0), sweep_centres)
def test_wide_draws_give_a_checked_recipe_or_a_named_refusal(drawn, r, M):
    """Draws five times wider than the sweep's: a pentagon the Type's
    equations solve for gets a recipe or RecipeInvalid or TypeMismatch,
    and a recipe's patch is sound."""
    try:
        pentagon = solve_instance(*drawn)
    except (InfeasibleParams, NonConvergence):
        reject()
    try:
        recipe = builtin_recipe(drawn[0].id, pentagon)
    except (RecipeInvalid, TypeMismatch):
        return
    assert_sound_patch(generate_patch(recipe, r, M))


def test_far_centre_touch_graph_is_the_near_origin_graph():
    """At M = (1e9, -2e9) eps is about one unit in the last place, so
    measuring the placed polygons there would lose touching pairs. The
    label touch graph on those tiles equals the one measured on the same
    tiles moved back to the origin by a lattice vector."""
    recipe = builtin_recipe(5, pentile.representative(5).pentagon)
    with mock.patch.object(tiling, "_enclosed_tiles",
                           wraps=tiling._enclosed_tiles) as flood:
        generate_patch(recipe, 6.0, (1e9, -2e9))
    cells, _, _ = flood.call_args.args
    eps = recipe.merge_distance
    m, n, idx = (cells - [*cells[:, :2].min(axis=0), 0]).T
    base = np.array(recipe.region_polygons())
    shifts = (m[:, None] * np.asarray(recipe.u)
              + n[:, None] * np.asarray(recipe.v))
    polys = base[idx] + shifts[:, None, :]
    centroids = np.array([polygon_centroid(p) for p in base])[idx] + shifts
    pairs = reference_touch_pairs(polys, centroids, eps)
    assert len(pairs)
    assert label_touch_pairs(cells, recipe) == unordered(pairs[:, 0],
                                                         pairs[:, 1])


def test_far_centre_invents_no_enclosed_tiles():
    """Measured on the placed polygons, rounding at this centre cut touching
    pairs and left 2 outer tiles enclosed; near the origin F3 is empty."""
    recipe = builtin_recipe(1, pentile.representative(1).pentagon)
    patch = generate_patch(recipe, 10.0, (1e9, 2e9))
    assert not any(t.zone == "F3" for t in patch.tiles)


def scanned_translates(recipe, centers, reach):
    """The translates near_translates should find, by the same distance
    test over a box of (m, n) at least three cells wider each way than the
    centres' lattice coefficients need."""
    inv = np.linalg.inv(np.column_stack([recipe.u, recipe.v]))
    mid = np.round(centers[0] @ inv.T).astype(int)
    spread = (np.abs(centers - centers[0]).max()
              + np.abs(recipe.region_centroids).max())
    wide = np.ceil((reach + spread) * np.abs(inv).sum(axis=1)).astype(int) + 3
    m, n, j = (a.ravel() for a in np.meshgrid(
        np.arange(mid[0] - wide[0], mid[0] + wide[0] + 1),
        np.arange(mid[1] - wide[1], mid[1] + wide[1] + 1),
        np.arange(len(recipe.region)), indexing="ij"))
    shifts = (m[:, None] * np.asarray(recipe.u)
              + n[:, None] * np.asarray(recipe.v))
    centroids = recipe.region_centroids[j] + shifts
    near = np.zeros(len(m), dtype=bool)
    for center in centers:
        near |= np.linalg.norm(centroids - center, axis=1) <= reach
    return np.column_stack([m, n, j])[near]


@settings(max_examples=60)
@given(sweep_recipes(),
       st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
       st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                max_size=3),
       st.floats(0.1, 12.0))
def test_near_translates_is_the_brute_force_scan(recipe, M, offsets, cells):
    """Every translate whose centroid lies within reach of a centre, in
    (m, n, j) order, for centres out to 1e6 and a reach from a tenth of a
    cell's side to a dozen sides."""
    side = math.sqrt(recipe.cell_area())
    centers = np.asarray(M) + side * np.array([(0.0, 0.0), *offsets])
    reach = cells * side
    rows, corners = tiling.near_translates(recipe, centers, reach)
    assert np.array_equal(rows, scanned_translates(recipe, centers, reach))
    assert same_bits(corners, placed_corners(recipe, rows))


@st.composite
def wide_recipes(draw):
    """Built-in recipes of the wide draws' pentagons that have one."""
    spec, params = draw(type_params(40.0, 0.6))
    try:
        return builtin_recipe(spec.id, solve_instance(spec, params))
    except (InfeasibleParams, NonConvergence, RecipeInvalid, TypeMismatch):
        reject()


sweep_and_wide_recipes = st.one_of(sweep_recipes(), wide_recipes())


def ring_seeded_tile_records(recipe, r, M):
    """The tile records of A(r, M) by a wider, ring-seeded rule: the
    candidates are the translates whose centroid lies within r + 5 tile
    diameters, and the flood over `reference_touch_pairs` starts from the
    outer tiles whose centroids lie within two tile radii plus the merge
    distance of the farthest from their mean, a ring the wide window closes
    about the disk."""
    center = np.asarray(M, dtype=float)
    eps = recipe.merge_distance
    cells, polys = tiling.near_translates(
        recipe, center[None], r + 5.0 * recipe.pentagon.diameter)
    inner = np.linalg.norm(polys - center, axis=2).max(axis=1) <= r - eps
    rest = np.nonzero(~inner)[0]
    meets = polygon_distances(center, polys[rest]) <= r + eps
    outer = rest[~meets]
    centroids = placed_centroids(recipe, cells[outer])
    far = np.linalg.norm(centroids - centroids.mean(axis=0), axis=1)
    seeds = far >= far.max() - (2.0 * recipe.radius + eps)
    pairs = reference_touch_pairs(polys[outer], centroids, eps)
    f3 = outer[reference_enclosed_tiles(seeds, pairs)]
    order = np.concatenate([np.nonzero(inner)[0], rest[meets], f3])
    zones = (["F1"] * int(inner.sum()) + ["F2"] * int(meets.sum())
             + ["F3"] * len(f3))
    return [(tuple(cell), zone, polygon.tobytes()) for cell, polygon, zone
            in zip(cells[order, :2].tolist(), polys[order], zones)]


@pytest.mark.parametrize("type_id", BUILTIN_SWEEP_TYPES)
def test_the_generated_path_builds_no_placed_tile(type_id, monkeypatch):
    """Generating a patch, its stats in both modes, its verification, its
    document and its SVG read the tile arrays and make no PlacedTile.
    tiles, read afterwards, makes one per tile, as the ring-seeded
    reference places them."""
    made = []

    class Counted(tiling.PlacedTile):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    for module in (tiling, arrangement):
        monkeypatch.setattr(module, "PlacedTile", Counted)
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    r, M = 10.0, (0.37, -1.21)
    patch = generate_patch(recipe, r, M)
    compute_stats(patch, FULL)
    compute_stats(patch, INTERIOR)
    assert verify_patch(patch).ok
    jsontext.dumps(jsontext.patch_document(patch))
    render.patch_to_svg(patch)
    assert made == []
    assert tile_records(patch) == ring_seeded_tile_records(recipe, r, M)
    assert len(made) == len(patch.counts)


@settings(max_examples=40)
@given(sweep_and_wide_recipes, st.floats(3.0, 10.0), sweep_centres)
def test_bounded_flood_matches_the_ring_seeded_flood(recipe, r, M):
    """Flooding only from the tiles with a corner beyond r + diam + 2·eps
    gives the F3 set and tiles of the wider ring-seeded flood."""
    assert (tile_records(generate_patch(recipe, r, M))
            == ring_seeded_tile_records(recipe, r, M))


@settings(max_examples=40)
@given(sweep_and_wide_recipes, st.floats(0.1, 15.0), sweep_centres)
def test_candidates_hold_every_tile_meeting_the_flood_disk(recipe, r, M):
    """generate_patch's candidates hold every translate whose polygon meets
    the closed disk of radius r + diam + 2·eps about M, found by measuring
    the polygons of a wider scan."""
    with mock.patch.object(tiling, "near_translates",
                           wraps=tiling.near_translates) as near:
        generate_patch(recipe, r, M)
    candidates, _ = tiling.near_translates(*near.call_args.args)
    center = np.asarray(M, dtype=float)
    diam = recipe.pentagon.diameter
    rho = r + diam + 2.0 * recipe.merge_distance
    scanned = scanned_translates(recipe, center[None], rho + 2.0 * diam)
    meets = polygon_distances(center, placed_corners(recipe, scanned)) <= rho
    assert set(map(tuple, scanned[meets].tolist())) <= set(
        map(tuple, candidates.tolist()))


@settings(max_examples=40)
@given(sweep_and_wide_recipes, st.floats(0.1, 15.0), sweep_centres)
def test_candidate_centroids_lie_within_one_tile_radius_of_the_flood_disk(
        recipe, r, M):
    """A tile meeting the disk of radius rho = r + diam + 2·eps has its
    centroid within rho + radius of M; generate_patch takes no candidate
    whose centroid lies beyond rho + radius + eps."""
    with mock.patch.object(tiling, "near_translates",
                           wraps=tiling.near_translates) as near:
        generate_patch(recipe, r, M)
    candidates, _ = tiling.near_translates(*near.call_args.args)
    center = np.asarray(M, dtype=float)
    eps = recipe.merge_distance
    rho = r + recipe.pentagon.diameter + 2.0 * eps
    far = np.linalg.norm(placed_centroids(recipe, candidates) - center,
                         axis=1)
    assert (far <= rho + recipe.radius + eps).all()


PATCH_ARRAYS = ("vertex_xy", "pseudo", "complete", "edge_vertices")
PATCH_CSRS = ("corner_vertices", "tile_adjacents", "vertex_tiles",
              "edge_tiles")


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


@settings(max_examples=40)
@given(sweep_recipes(), st.floats(3.0, 15.0), sweep_centres)
def test_looked_up_arrangement_matches_snapped_bit_for_bit(recipe, r, M):
    """generate_patch reads its incidence off the recipe's cell; snapping
    the same tiles with from_tiles is the oracle."""
    patch = generate_patch(recipe, r, M)
    snapped = Patch.from_tiles(patch.tiles, r=r, center=M)
    for name in PATCH_ARRAYS:
        assert same_bits(getattr(patch, name), getattr(snapped, name)), name
    for name in PATCH_CSRS:
        ours, theirs = getattr(patch, name), getattr(snapped, name)
        assert same_bits(ours.indptr, theirs.indptr), name
        assert same_bits(ours.indices, theirs.indices), name


@settings(max_examples=60)
@given(sweep_recipes(), st.floats(3.0, 15.0), sweep_centres,
       st.integers(-20, 20), st.integers(-20, 20))
def test_lattice_shift_keeps_interior_stats(recipe, r, M, k, l):
    """Moving the disk centre by k·u + l·v moves the patch by a lattice
    vector, so its interior counts and histograms stay put."""
    shifted = (np.asarray(M) + k * np.asarray(recipe.u)
               + l * np.asarray(recipe.v))
    assert (compute_stats(generate_patch(recipe, r, shifted), INTERIOR)
            == compute_stats(generate_patch(recipe, r, M), INTERIOR))


far_centres = st.tuples(st.floats(0.0, 12.0), st.floats(0.0, 2 * math.pi)).map(
    lambda drawn: (10.0 ** drawn[0] * math.cos(drawn[1]),
                   10.0 ** drawn[0] * math.sin(drawn[1])))


@settings(max_examples=40)
@given(sweep_recipes(), st.floats(3.0, 15.0), far_centres)
def test_far_centre_interior_stats_are_the_lattice_shifted_disks(recipe, r,
                                                                  M):
    """|M| log-uniform in [1, 1e12]: the patch holds the tiles of the disk
    moved back by the nearest lattice vector k·u + l·v, moved out again,
    and its interior counts are that disk's, however far out M rounds the
    corners."""
    lattice = np.column_stack([recipe.u, recipe.v])
    k, l = np.round(np.linalg.solve(lattice, M)).astype(int)
    near = np.asarray(M) - lattice @ (k, l)
    patch, moved_back = generate_patch(recipe, r, M), generate_patch(
        recipe, r, near)
    assert ([((m - k, n - l), tile.zone) for tile in patch.tiles
             for m, n in [tile.cell]]
            == [(tile.cell, tile.zone) for tile in moved_back.tiles])
    assert (compute_stats(patch, INTERIOR)
            == compute_stats(moved_back, INTERIOR))


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_far_centre_patch_keeps_euler_and_edge_invariants(type_id):
    """At M = (1e9, 2e9) the corners are a few units in the last place
    apart from their lattice positions; snapping them lost merges and side
    splits. Looked up in the cell, the incidence is the lattice's."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    patch = generate_patch(recipe, 8.0, (1e9, 2e9))
    assert euler_residual(compute_stats(patch)) == 0
    assert np.diff(patch.edge_tiles.indptr).max() <= 2


# --- one stacked region, one sweep window -----------------------------------

def assert_region_stack_is_per_isometry(recipe):
    """region_corners, region_centroids and the periodicity check's region
    area, bit for bit as one isometry at a time builds and measures them."""
    base = recipe.pentagon.vertices
    polys = np.array([ccw(iso.apply(base)) for iso in recipe.region])
    assert same_bits(recipe.region_corners, polys)
    assert same_bits(recipe.region_centroids,
                     np.array([polygon_centroid(p) for p in polys]))
    assert all(same_bits(a, b)
               for a, b in zip(recipe.region_polygons(), polys))
    area = sum(abs(polygon_area(p)) for p in polys)
    assert check_periodicity(recipe).metrics["region_area"] == area


@settings(max_examples=40)
@given(type_params(8.0, 0.1))
def test_region_stack_is_the_per_isometry_construction(drawn):
    """Every candidate region a built-in builder offers, the ones that do
    not tile and Type 2's reflected placements included."""
    spec, params = drawn
    pentagon = builtin_recipe(spec.id, solve_instance(spec, params)).pentagon
    for region, u, v in tiling._REGION_BUILDERS[spec.id](pentagon):
        assert_region_stack_is_per_isometry(
            TilingRecipe(pentagon, region, tuple(u), tuple(v)))


def test_region_stack_reverses_the_reflected_placements():
    recipe = builtin_recipe(2, pentile.representative(2).pentagon)
    assert [iso.reflect for iso in recipe.region] == [False, True, True,
                                                       False]
    assert_region_stack_is_per_isometry(recipe)


def assert_same_patch(ours, theirs):
    for name in ("polygons", "counts", "cells", "zones", *PATCH_ARRAYS):
        assert same_bits(getattr(ours, name), getattr(theirs, name)), name
    for name in PATCH_CSRS:
        mine, other = getattr(ours, name), getattr(theirs, name)
        assert same_bits(mine.indptr, other.indptr), name
        assert same_bits(mine.indices, other.indices), name


@settings(max_examples=40)
@given(sweep_recipes(),
       st.lists(st.floats(3.0, 15.0), min_size=1, max_size=4, unique=True),
       sweep_centres)
def test_patches_cut_from_a_window_are_the_window_free_patches(recipe, radii,
                                                               M):
    """Every disk up to the window's radius about its centre cuts from it
    the rows and corners near_translates gives at that disk's reach, the
    patch rows a window-free patch_rows picks, and from them the arrays
    generate_patch builds, at any radii."""
    window = tiling.candidate_window(recipe, max(radii), M)
    center = np.asarray(M, dtype=float)
    for r in radii:
        reach = tiling._flood_reach(recipe, r)[1]
        cells, polys, _ = window.within(center, reach)
        scanned, corners = tiling.near_translates(recipe, center[None], reach)
        assert same_bits(cells, scanned) and same_bits(polys, corners)
        cut, polys, sizes = tiling.patch_rows(recipe, r, center, window)
        rows = tiling.patch_rows(recipe, r, center)
        assert same_bits(cut, rows[0]) and same_bits(polys, rows[1])
        assert sizes == rows[2]
        zones = np.repeat(np.array(["F1", "F2", "F3"]), sizes)
        assert_same_patch(
            Patch.from_cells(polys, cut, zones, recipe.cell_arrangement, r=r,
                             center=M),
            generate_patch(recipe, r, M))


@pytest.mark.parametrize("radii", [(5.0, 5.5, 12.0), (5.0, 10.0, 20.0)],
                         ids=str)
@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_sweep_patches_are_the_window_free_patches(type_id, radii):
    """limit_sweep scans the lattice once, for its largest radius, and each
    radius' counts are the INTERIOR statistics of generate_patch(recipe, r)
    without a window."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    recipe.cell_arrangement     # built, so its own window scans no more
    with mock.patch.object(tiling, "near_translates",
                           wraps=tiling.near_translates) as near:
        limit = limit_sweep(recipe, radii)
    assert near.call_count == 1
    assert near.call_args.args[2] == tiling._flood_reach(recipe, radii[-1])[1]
    assert [s.r for s in limit.stats] == list(radii)
    for counted, r in zip(limit.stats, radii):
        assert counted == compute_stats(generate_patch(recipe, r), INTERIOR)


@settings(max_examples=50)
@given(sweep_and_wide_recipes, st.floats(0.01, 6.0),
       st.lists(st.one_of(st.just(0.5), st.floats(0.01, 8.0)), max_size=3))
@example(builtin_recipe(1, pentile.representative(1).pentagon), 1.0, [0.5])
@example(builtin_recipe(2, pentile.representative(2).pentagon), 0.5,
         [0.5, 7.0])
@example(builtin_recipe(4, pentile.representative(4).pentagon), 2.0,
         [5.0, 10.0])
@example(builtin_recipe(5, pentile.representative(5).pentagon), 0.01,
         [0.5, 0.5, 8.0])
def test_lattice_counts_are_the_patch_counts(recipe, above, gaps):
    """Radii strictly increasing from `above` past twice the tile diameter,
    close pairs included: limit_sweep's counts, made on the lattice, are
    the INTERIOR statistics of each radius' generated patch."""
    radii = 2.0 * recipe.pentagon.diameter + np.cumsum([above, *gaps])
    limit = limit_sweep(recipe, radii)
    for counted, r in zip(limit.stats, radii.tolist()):
        assert counted == compute_stats(generate_patch(recipe, r), INTERIOR)


def test_window_refuses_a_wider_disk_or_another_centre():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    window = tiling.candidate_window(recipe, 6.0)
    center = np.zeros(2)
    tiling.patch_rows(recipe, 6.0, center, window)
    with pytest.raises(ValueError):
        tiling.patch_rows(recipe, 6.5, center, window)
    with pytest.raises(ValueError):
        tiling.patch_rows(recipe, 5.0, np.array([0.5, 0.0]), window)


def test_sweep_refuses_an_over_limit_radius_by_name_before_any_patch():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    with mock.patch.object(tiling, "generate_patch") as made, \
            pytest.raises(ParseError, match=r"^disk radius 1e\+06: "):
        limit_sweep(recipe, [5.0, 1e6])
    assert made.call_count == 0
