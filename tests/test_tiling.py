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
from pentile import arrangement, cli, jsontext, render, tiling, verifier
from pentile.arrangement import Patch
from pentile.catalog import classify, get_type_spec, solve_instance
from pentile.errors import (
    InfeasibleParams,
    InvalidInnerRadius,
    NonConvergence,
    ParseError,
    RecipeInvalid,
    TypeMismatch,
)
from pentile.geometry import (
    component_labels,
    convex_overlap_areas,
    largest_inscribed_circle,
    points_in_convex_polygon,
    polygon_area,
    polygon_distances,
    segment_distances,
)
from pentile.pentagon import CORNERS, solve_edges
from pentile.stats import (
    FULL,
    INTERIOR,
    _arrangement_stats,
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


def ccw(poly):
    """The polygon, reversed if its corners run clockwise."""
    return poly if polygon_area(poly) >= 0 else poly[::-1]


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
    worst = max(congruence_defect(t.polygon, recipe.pentagon)
                for t in patch.tiles)
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
    """A fresh recipe, so no earlier call has built its cell. Generating a
    patch, counting it in both modes and sweeping read the one cell built,
    and none of them, that build included, snaps a corner."""
    built = builtin_recipe(4, pentile.representative(4).pentagon)
    recipe = TilingRecipe(built.pentagon, built.region, built.u, built.v)
    with mock.patch.object(arrangement, "cell_arrangement",
                           wraps=arrangement.cell_arrangement) as cell, \
            mock.patch.object(arrangement, "_snapped_incidence",
                              wraps=arrangement._snapped_incidence) as snap:
        patch = generate_patch(recipe, 8.0, (0.37, -1.21))
        compute_stats(patch, FULL), compute_stats(patch, INTERIOR)
        limit_sweep(recipe, [5.0, 10.0, 20.0])
    assert cell.call_count == 1
    assert snap.call_count == 0


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_generated_patch_snaps_no_corners(monkeypatch, type_id):
    """Once the recipe's cell is built, a generated patch looks its
    incidence up: no neighbour search and no snapping graph."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    recipe.orbit_star

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
    labels, tile, _ = arrangement.vertex_labels(cells, recipe.orbit_star)
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


def window_periodicity(recipe, pairwise=verifier._pairwise_overlap):
    """Reference for check_periodicity: the window of translates route it
    took before the gluing certificate. The region area, each tile's
    shoelace sum on its placed corners, must equal the cell area; then
    every translate whose centroid lies within half the cell's longer
    diagonal, plus the tile radius and the merge distance, of the region
    centroids' mean is clipped against the cell about that mean, and the
    clips must sum to the cell area; no two window tiles may overlap by
    more than AREA_TOL of a tile (pairwise); and the cell's points on a
    grid at a quarter of the tile inradius must lie in some tile. Returns
    the verdict and the violations, worded as that route worded them (a
    grid miss without its first point)."""
    tol = verifier.AREA_TOL
    cell_area = recipe.cell_area()
    corners = recipe.region_corners
    region_area = sum(abs(polygon_area(p)) for p in corners)
    if not abs(region_area - cell_area) <= tol * cell_area:
        return False, [f"region area {region_area:.9g} != lattice cell area "
                       f"{cell_area:.9g}; window not checked"]
    u, v = np.asarray(recipe.u), np.asarray(recipe.v)
    anchor = recipe.region_centroids.mean(axis=0)
    p0 = anchor - (u + v) / 2.0
    cell = ccw(np.array([p0, p0 + u, p0 + u + v, p0 + v]))
    reach = (max(np.linalg.norm(u + v), np.linalg.norm(u - v)) / 2.0
             + recipe.radius + recipe.merge_distance)
    stacked = recipe.corners(tiling.near_translates(recipe, anchor, reach)[0])
    counts = np.full(len(stacked), stacked.shape[1])
    tile = recipe.pentagon.vertices
    worst, pair = pairwise(stacked, counts)
    clipped = sum(convex_overlap_areas(
        stacked, counts, np.broadcast_to(cell, (len(stacked), 4, 2))).tolist())
    pitch = largest_inscribed_circle(tile)[1] / verifier.SAMPLE_DIVISOR
    eps = 1e-9 * math.sqrt(cell_area)
    lo, hi = cell.min(axis=0), cell.max(axis=0)
    px, py = (g.ravel() for g in np.meshgrid(
        np.arange(lo[0], hi[0] + pitch, pitch),
        np.arange(lo[1], hi[1] + pitch, pitch)))
    inside = points_in_convex_polygon(px, py, cell, eps=-eps)
    px, py = px[inside], py[inside]
    covered = functools.reduce(np.logical_or, (
        points_in_convex_polygon(px, py, poly, eps=eps) for poly in stacked))
    violations = []
    if not worst <= tol * abs(polygon_area(tile)):
        violations.append(
            f"window tiles {pair[0]} and {pair[1]} overlap by {worst:.3e}")
    if not abs(clipped - cell_area) <= tol * cell_area:
        violations.append(f"window covers {clipped:.9g} of the central cell, "
                          f"expected {cell_area:.9g}")
    if not covered.all():
        violations.append(f"{np.count_nonzero(~covered)} of {len(px)} cell "
                          f"sample points uncovered")
    return not violations, violations


def assert_candidates_match_full_clip(type_id, pentagon):
    """Every candidate builtin_recipe tries gets from check_periodicity the
    verdict the window route gives (`window_periodicity`), and the window
    route gets the same verdict and violations with every pair clipped as
    with _pairwise_overlap's certified pairs. Returns the verdicts and
    whether the window route reported an overlap."""
    seen = []

    def compared(recipe):
        report = check_periodicity(recipe)
        window = window_periodicity(recipe)
        assert window == window_periodicity(recipe,
                                            full_clip_pairwise_overlap)
        assert report.ok == window[0], (report.violations, window)
        seen.append((report.ok, any("overlap" in v for v in window[1])))
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
    areas still agree, so the tiles are glued, and half of their boundary
    steps find no partner. The window route reports the overlap that every
    pair clipped gives."""
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    region = list(recipe.region)
    region[1] = Isometry.rotation_about(
        math.radians(1.0), recipe.region_centroids[1]).compose(region[1])
    turned = dataclasses.replace(recipe, region=tuple(region))
    report = check_periodicity(turned)
    assert not report.ok
    assert report.violations == [
        "10 of 20 boundary steps glue to no reversed step or to several",
        "the angles at vertex orbit 5 miss 2pi by 4.712e+00, over "
        "1.762e-08"]
    assert report.metrics["unpaired_steps"] == 10
    assert window_periodicity(turned) == window_periodicity(
        turned, full_clip_pairwise_overlap) == (
        False, ["window tiles 0 and 5 overlap by 3.523e-03"])


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
    the same FULL and INTERIOR statistics. The verdict is the recipe's
    own check_periodicity, which generating the disk reads too."""
    u, v = np.asarray(recipe.u), np.asarray(recipe.v)
    expected = disk_stats(recipe)
    for k in range(-4, 5):
        for basis in ((u + k * v, v), (u, v + k * u)):
            sheared = dataclasses.replace(recipe, u=tuple(basis[0]),
                                          v=tuple(basis[1]))
            report = sheared.periodicity
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


def test_a_region_tile_thirty_thousand_cells_out_tiles_alike():
    """Type 5 with region tile 1 moved by 30 000·u: each tile's area is
    taken about its own first corner, so the area test passes where a
    shoelace sum on the placed coordinates gave 9.03233772 against the
    cell's 9.03233777; the tiles glue, and the r = 8 disk has the unmoved
    recipe's statistics."""
    recipe = builtin_recipe(5, pentile.representative(5).pentagon)
    region = list(recipe.region)
    region[1] = shifted(region[1], 30_000 * np.asarray(recipe.u))
    far = dataclasses.replace(recipe, region=tuple(region))
    report = check_periodicity(far)
    assert report.ok, report.violations
    assert abs(report.metrics["region_area"] - recipe.cell_area()) <= (
        1e-12 * recipe.cell_area())
    assert disk_stats(far) == disk_stats(recipe)


def test_a_far_placed_region_tile_needs_no_more_memory():
    """Type 5 with region tile 1 moved by 3000·u: once the recipe's cell
    arrangement is built, generating the r = 8 disk and counting it on the
    lattice stay under 64 MiB traced, and its statistics are the unmoved
    recipe's. Nothing in the flood or in the counter's box is sized by the
    (m, n) span of the region."""
    recipe = builtin_recipe(5, pentile.representative(5).pentagon)
    region = list(recipe.region)
    region[1] = shifted(region[1], 3000 * np.asarray(recipe.u))
    far = dataclasses.replace(recipe, region=tuple(region))
    assert far.orbit_star.orbits    # built, and checked, untraced
    tracemalloc.start()
    try:
        patch = generate_patch(far, 8.0)
        counted = compute_stats(patch, FULL), compute_stats(patch, INTERIOR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert far.orbit_star.reach == 1
    assert counted == disk_stats(recipe)


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
    cells, _ = tiling.near_translates(recipe, center, r + 5.0 * diam)
    polys = placed_corners(recipe, cells)
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


def scanned_translates(recipe, center, reach):
    """The translates near_translates should find, by the same distance
    test over a box of (m, n) at least three cells wider each way than the
    centre's lattice coefficients need."""
    inv = np.linalg.inv(np.column_stack([recipe.u, recipe.v]))
    mid = np.round(center @ inv.T).astype(int)
    spread = np.abs(recipe.region_centroids).max()
    wide = np.ceil((reach + spread) * np.abs(inv).sum(axis=1)).astype(int) + 3
    m, n, j = (a.ravel() for a in np.meshgrid(
        np.arange(mid[0] - wide[0], mid[0] + wide[0] + 1),
        np.arange(mid[1] - wide[1], mid[1] + wide[1] + 1),
        np.arange(len(recipe.region)), indexing="ij"))
    shifts = (m[:, None] * np.asarray(recipe.u)
              + n[:, None] * np.asarray(recipe.v))
    centroids = recipe.region_centroids[j] + shifts
    near = np.linalg.norm(centroids - center, axis=1) <= reach
    return np.column_stack([m, n, j])[near]


def assert_scanned(recipe, center, reach):
    """near_translates' rows are scanned_translates', their corners placed
    as generate_patch placed them, and each distance the np.linalg.norm
    from a centroid to the centre, bit for bit."""
    rows, gap = tiling.near_translates(recipe, center, reach)
    assert np.array_equal(rows, scanned_translates(recipe, center, reach))
    assert same_bits(recipe.corners(rows), placed_corners(recipe, rows))
    centroids = placed_centroids(recipe, rows)
    assert same_bits(gap, np.linalg.norm(centroids - center, axis=1))


@settings(max_examples=60)
@given(sweep_recipes(),
       st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
       st.floats(0.1, 12.0))
def test_near_translates_is_the_brute_force_scan(recipe, M, cells):
    """Every translate whose centroid lies within reach of the centre, in
    (m, n, j) order, for centres out to 1e6 and a reach from a tenth of a
    cell's side to a dozen sides."""
    side = math.sqrt(recipe.cell_area())
    assert_scanned(recipe, np.asarray(M), cells * side)


def sheared(recipe, k, along_u):
    """The recipe on the basis (u + k·v, v), or (u, v + k·u): the same
    lattice."""
    u, v = np.asarray(recipe.u), np.asarray(recipe.v)
    basis = (u + k * v, v) if along_u else (u, v + k * u)
    return dataclasses.replace(recipe, u=tuple(basis[0]), v=tuple(basis[1]))


@settings(max_examples=60)
@given(st.one_of(representative_recipes, sweep_recipes()),
       st.integers(-6, 6), st.booleans(),
       st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
       st.floats(0.1, 12.0))
@example(builtin_recipe(1, pentile.representative(1).pentagon), 0, True,
         (0.0, 0.0), 4.0)
@example(builtin_recipe(2, pentile.representative(2).pentagon), 6, True,
         (-1e6, 1e6), 12.0)
@example(builtin_recipe(4, pentile.representative(4).pentagon), -6, False,
         (0.37, -1.21), 0.1)
@example(builtin_recipe(5, pentile.representative(5).pentagon), 3, False,
         (1e6, 0.0), 7.5)
@example(builtin_recipe(1, pentile.representative(1).pentagon), 1, True,
         (-3.5, 2.0), 1.5)
def test_row_scan_is_the_box_scan_on_sheared_bases(recipe, k, along_u, M,
                                                   cells):
    """On a basis sheared by up to six cells, whose (m, n) box is many
    times wider than its disk, the rows scanned hold every translate the
    box scan finds, bit for bit, near the origin or out to 1e6."""
    recipe = sheared(recipe, k, along_u)
    side = math.sqrt(recipe.cell_area())
    assert_scanned(recipe, np.asarray(M), cells * side)


def test_max_translates_bounds_the_rows_scanned_not_the_box():
    """Type 2's (m, n) box at r = 40 holds over twice the translates the
    disk keeps, and its rows scan about 1.2 times: a MAX_TRANSLATES of 1.5
    times admits the disk, and one below the kept count refuses it."""
    recipe = builtin_recipe(2, pentile.representative(2).pentagon)
    center = np.zeros(2)
    reach = tiling._flood_reach(recipe, 40.0)[1]
    kept = len(tiling.near_translates(recipe, center, reach)[0])
    inv = np.linalg.inv(np.column_stack([recipe.u, recipe.v]))
    offsets = -recipe.region_centroids @ inv.T
    slack = reach * np.linalg.norm(inv, axis=1)
    box = np.prod(np.ceil(offsets.max(axis=0) + slack)
                  - np.floor(offsets.min(axis=0) - slack) + 1)
    assert box * len(recipe.region) > 2 * kept
    with mock.patch.object(tiling, "MAX_TRANSLATES", int(1.5 * kept)):
        assert len(tiling.near_translates(recipe, center, reach)[0]) == kept
    with mock.patch.object(tiling, "MAX_TRANSLATES", kept - 1), \
            pytest.raises(ParseError, match="MAX_TRANSLATES"):
        tiling.near_translates(recipe, center, reach)


@st.composite
def wide_recipes(draw):
    """Built-in recipes of the wide draws' pentagons that have one."""
    spec, params = draw(type_params(40.0, 0.6))
    try:
        return builtin_recipe(spec.id, solve_instance(spec, params))
    except (InfeasibleParams, NonConvergence, RecipeInvalid, TypeMismatch):
        reject()


sweep_and_wide_recipes = st.one_of(sweep_recipes(), wide_recipes())



def mutated(recipe, kind, s, j=0, turn=1.0):
    """The recipe mutated at scale s, a length: region tile j shifted by s
    in the direction of the angle turn ("shift"), or turned about its
    centroid by s over the tile radius, signed as turn, so that no corner
    moves further ("turn"); u lengthened by s times the sign of turn
    ("stretch"); or v sheared along u by s times that sign ("shear"),
    which keeps the cell area."""
    u, v = np.asarray(recipe.u), np.asarray(recipe.v)
    region = list(recipe.region)
    if kind == "shift":
        region[j] = shifted(region[j], s * np.array([math.cos(turn),
                                                     math.sin(turn)]))
    elif kind == "turn":
        region[j] = Isometry.rotation_about(
            math.copysign(s / recipe.radius, turn),
            recipe.region_centroids[j]).compose(region[j])
    elif kind == "stretch":
        u = u * (1.0 + math.copysign(s, turn) / np.linalg.norm(u))
    else:
        v = v + math.copysign(s, turn) / np.linalg.norm(u) * u
    return dataclasses.replace(recipe, region=tuple(region), u=tuple(u),
                               v=tuple(v))


@st.composite
def mutated_recipes(draw):
    """A built-in recipe, of a representative or of a pentagon drawn at the
    sweep or the wide ranges, mutated at a scale s from 1e-12 to 1e-1 of
    its mean edge (`mutated`). Returns the mutated recipe and s."""
    recipe = draw(st.one_of(representative_recipes, sweep_and_wide_recipes))
    s = 10.0 ** draw(st.floats(-12.0, -1.0)) * recipe.pentagon.mean_edge()
    kind = draw(st.sampled_from(["shift", "turn", "stretch", "shear"]))
    j = draw(st.integers(0, len(recipe.region) - 1))
    return mutated(recipe, kind, s, j, draw(st.floats(-math.pi, math.pi))), s


def representative_recipe(type_id):
    return builtin_recipe(type_id, pentile.representative(type_id).pentagon)


def mutated_representative(type_id, kind, scale, j=0, turn=1.0):
    """A representative's recipe mutated at scale times its mean edge."""
    recipe = representative_recipe(type_id)
    s = scale * recipe.pentagon.mean_edge()
    return mutated(recipe, kind, s, j, turn), s


@settings(max_examples=60)
@given(mutated_recipes())
@example(mutated_representative(4, "shift", 1e-9, 1, 0.3))
@example(mutated_representative(5, "turn", 1e-12, 2))
@example(mutated_representative(2, "turn", 1e-7, 3, -1.0))
@example(mutated_representative(1, "stretch", 1e-1))
@example(mutated_representative(1, "shear", 1e-1))
@example(mutated_representative(2, "shear", 1e-4, turn=-1.0))
@example(mutated_representative(5, "shift", 1e-2, 4, 2.0))
def test_the_gluing_certificate_agrees_with_the_window_route(case):
    """The gluing certificate's verdict is the window route's
    (`window_periodicity`) outside a band about its tolerance, and inside
    it the certificate may refuse a recipe the window route passes, never
    the reverse.

    The certificate's tightest bound, tau = AREA_TOL·A / L (A the tile
    area, L its longest side), is on how far a glued step's ends lie from
    its partner's side line; its corner spread and angle bounds are wider.
    A mutation at scale s moves a corner at most s from its place, and the
    stretch and the shear s per cell between the tiles of a seam, which
    lie a cell or two apart. Below tau / 10 both routes pass: a seam parts
    by at most 2·s < tau, so an overlap is a strip under AREA_TOL·A, and
    no angle changes. Above 100·tau both refuse: the window route does
    once an overlap passes AREA_TOL of a tile, which a seam gap makes
    within a few L / l of tau (l the shortest side), and past the merge
    distance the moved corners leave their vertex and their steps find no
    partner. The area test, common to both, refuses a stretch past 1e-9
    of the cell. A shear along the rows of a Type 1 row pair keeps the
    tiling, and both pass it."""
    recipe, s = case
    report = check_periodicity(recipe)
    ok, violations = window_periodicity(recipe)
    assert ok or not report.ok, (report.metrics, violations)
    area = abs(polygon_area(recipe.pentagon.vertices))
    tau = verifier.AREA_TOL * area / max(recipe.pentagon.edges)
    if not tau / 10.0 < s < 100.0 * tau:
        assert report.ok == ok, (s / tau, report.violations, violations)


def test_merged_vertices_of_a_near_default_pentagon_still_glue():
    """Type 1 with side a 1e-7 longer than the default's: its hex pair
    tiles exactly, but two of its straight-angle vertices lie about 1e-7
    apart along a side, closer than the merge distance, and the cell
    arrangement merges them. Their corners lie some 30 seam tolerances
    from their mean, along the sides they share, so the seams still glue
    and the recipe passes, as it passes the window route."""
    spec = get_type_spec(1)
    params = dict(spec.default_params, a=spec.default_params["a"] * 1.0000001)
    recipe = builtin_recipe(1, solve_instance(spec, params))
    report = recipe.periodicity
    assert report.ok, report.violations
    area = recipe.region_area / len(recipe.region)
    tau = verifier.AREA_TOL * area / max(recipe.pentagon.edges)
    assert report.metrics["max_corner_spread"] > 10.0 * tau
    assert report.metrics["max_seam_gap"] < 1e-3 * tau
    assert window_periodicity(recipe)[0]


def ring_seeded_tile_records(recipe, r, M):
    """The tile records of A(r, M) by a wider, ring-seeded rule: the
    candidates are the translates whose centroid lies within r + 5 tile
    diameters, and the flood over `reference_touch_pairs` starts from the
    outer tiles whose centroids lie within two tile radii plus the merge
    distance of the farthest from their mean, a ring the wide window closes
    about the disk."""
    center = np.asarray(M, dtype=float)
    eps = recipe.merge_distance
    cells, _ = tiling.near_translates(
        recipe, center, r + 5.0 * recipe.pentagon.diameter)
    polys = placed_corners(recipe, cells)
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


@pytest.mark.parametrize("type_id", BUILTIN_SWEEP_TYPES)
def test_the_arrangement_is_built_only_when_read(type_id, tmp_path):
    """Generating a patch, its stats in both modes and its verification
    assemble no arrangement, nor do verify --patch and render on its
    document. Reading any arrangement array assembles all eight, once."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    document = tmp_path / "patch.json"
    with mock.patch.object(arrangement, "_assembled",
                           wraps=arrangement._assembled) as assembled:
        patch = generate_patch(recipe, 10.0, (0.37, -1.21))
        compute_stats(patch, FULL)
        compute_stats(patch, INTERIOR)
        assert verify_patch(patch).ok
        assert assembled.call_count == 0
        document.write_text(jsontext.dumps(jsontext.patch_document(patch)))
        assert assembled.call_count == 1
        # a verdict either way, not exit 2: the nine-digit corners of some
        # Types' documents fail the overlap check
        for command in ("verify", "render"):
            assert cli.main([command, "--patch", str(document),
                             "--out", str(tmp_path / command)]) in (0, 1)
        assert assembled.call_count == 1
        loaded = arrangement.patch_from_json_dict(
            json.loads(document.read_text()))
        for name in PATCH_ARRAYS + PATCH_CSRS:
            getattr(loaded, name)
        assert assembled.call_count == 2


def supercell(recipe, copies):
    """The recipe's tiling with copies of its region along u in one cell."""
    u = np.asarray(recipe.u)
    region = tuple(shifted(iso, i * u) for i in range(copies)
                   for iso in recipe.region)
    return TilingRecipe(recipe.pentagon, region, tuple(copies * u), recipe.v)


@settings(max_examples=50)
@given(sweep_and_wide_recipes, st.integers(-3, 3), st.booleans(),
       st.integers(1, 3), st.floats(3.0, 12.0),
       st.one_of(sweep_centres, st.tuples(st.floats(-1e6, 1e6),
                                          st.floats(-1e6, 1e6))))
@example(builtin_recipe(1, pentile.representative(1).pentagon), 0, True, 1,
         8.0, (0.0, 0.0))
@example(builtin_recipe(2, pentile.representative(2).pentagon), 2, False, 3,
         5.5, (0.37, -1.21))
@example(builtin_recipe(4, pentile.representative(4).pentagon), -3, True,
         2, 12.0, (-1e6, 1e6))
@example(builtin_recipe(5, pentile.representative(5).pentagon), 1, True, 1,
         3.0, (1e6, -3.5))
def test_lattice_stats_are_the_snapped_patch_stats(recipe, k, along_u,
                                                   copies, r, M):
    """A generated patch is counted on its lattice, in both modes, as the
    arrangement of the same polygons snapped by from_tiles counts it: on
    sheared bases, on regions repeated in a cell, and at centres out to
    1e6."""
    recipe = supercell(sheared(recipe, k, along_u), copies)
    patch = generate_patch(recipe, r, M)
    snapped = Patch.from_tiles(patch.tiles, r=r, center=M)
    for mode in (FULL, INTERIOR):
        assert compute_stats(patch, mode) == compute_stats(snapped, mode)
    assert "_arrangement" not in vars(patch)


def window_cell_arrangement(recipe):
    """The orbit star by the snapping finder, run once on a window:
    the region tiles, then every translate (m, n, j) whose centroid lies
    within two tile radii plus the merge distance of a region centroid, in
    (m, n, j) order. The orbits are the classes that the links from each
    region corner (j, c) to corner c of each window tile (m, n, j) join,
    numbered by first region corner, with each vertex's (m, n) walked out
    from its orbit's first vertex."""
    reach = 2.0 * recipe.radius + recipe.merge_distance
    window = np.unique(np.concatenate([
        tiling.near_translates(recipe, centroid, reach)[0]
        for centroid in recipe.region_centroids]), axis=0)
    window = window[np.argsort(window[:, :2].any(axis=1), kind="stable")]
    corners = recipe.corners(window)
    count, k = len(recipe.region), corners.shape[1]
    points = corners.reshape(-1, 2)
    nxt = arrangement._next_corners(np.arange(len(window) + 1) * k)
    corner_vid, vertex_xy, (side, hit_vid, param) = (
        arrangement._snapped_incidence(points, nxt, 0.0))
    vid = corner_vid.reshape(-1, k)
    a = np.concatenate([vid[window[:, 2]].ravel(), vid.ravel()])
    b = np.concatenate([vid.ravel(), vid[window[:, 2]].ravel()])
    step = np.repeat(window[:, :2], k, axis=0)
    step = np.concatenate([step, -step])
    roots, orbit = np.unique(component_labels(len(vertex_xy), a, b),
                             return_inverse=True)
    shift = arrangement._walked(a, b, step,
                                np.isin(np.arange(len(vertex_xy)), roots))
    placed = np.column_stack([shift, orbit])
    on_region = side < count * k
    order = np.lexsort((param[on_region], side[on_region]))
    return arrangement.orbit_star(
        placed[vid[:count]], side[on_region][order],
        placed[hit_vid[on_region][order]], param[on_region][order])


def assert_same_star(star, reference, tolerance):
    """The orbit count, reach and every integer array equal, array for
    array, and each stop_param, in the same order, within tolerance of the
    reference's."""
    for name, array in star._asdict().items():
        other = getattr(reference, name)
        if name == "star":
            assert same_bits(array.indptr, other.indptr)
            assert same_bits(array.indices, other.indices)
        elif name == "stop_param":
            assert array.shape == other.shape
            assert np.abs(array - other).max(initial=0.0) <= tolerance
        elif isinstance(array, np.ndarray):
            assert same_bits(array, other), name
        else:
            assert array == other, name


# a sweep draw whose corners meet only to 3.5e-13, so a vertex placed at
# one corner and not at the mean of its corners gives a stop_param 5 units
# in the last place from the snapped one
LOOSE_TYPE5 = TilingRecipe(
    pentile.Pentagon(
        angles=(2.6179938779921925, 1.0471975511965979, 2.617993877990796,
                1.5707963267948968, 1.570796326794897),
        edges=(1.0000000000000009, 1.0, 1.0000000000003497,
               0.9999999999999987, 0.9999999999996518)),
    (Isometry(0.0, (0.0, 0.0), False),
     Isometry(3.141592653589793, (1.500000000000002, 0.8660254037844386),
              False)),
    (0.5000000000000011, 0.8660254037844387),
    (2.3570508075701815, -1.6495190528374695))


@settings(max_examples=60)
@given(sweep_and_wide_recipes, st.integers(-3, 3), st.booleans(),
       st.integers(1, 3), st.integers(0, 17),
       st.tuples(st.integers(-3000, 3000), st.integers(-3000, 3000)))
@example(LOOSE_TYPE5, 0, False, 1, 0, (0, 0))
@example(builtin_recipe(1, pentile.representative(1).pentagon), 0, True, 1,
         0, (0, 0))
@example(builtin_recipe(2, pentile.representative(2).pentagon), 0, True, 1,
         0, (0, 0))
@example(builtin_recipe(4, pentile.representative(4).pentagon), 0, True, 1,
         0, (0, 0))
@example(builtin_recipe(5, pentile.representative(5).pentagon), 0, True, 1,
         0, (0, 0))
def test_cell_arrangement_is_the_snapped_window_arrangement(
        recipe, k, along_u, copies, far, move):
    """The lattice route gives the window snapper's orbit star: the same
    orbits and integer arrays, array for array, and each stop_param within
    4 units in the last place of 1, in the same order. On a
    basis sheared by -3..3, a region repeated 1-3 times along u and one
    region tile moved by up to 3000 cells each way. A vertex placed that
    far rounds to about 3000 times a unit in the last place, so the
    stop_param tolerance grows with the move, in the pentagon's shortest
    side."""
    recipe = supercell(sheared(recipe, k, along_u), copies)
    region = list(recipe.region)
    far %= len(region)
    moved = move[0] * np.asarray(recipe.u) + move[1] * np.asarray(recipe.v)
    region[far] = shifted(region[far], moved)
    recipe = dataclasses.replace(recipe, region=tuple(region))
    tolerance = 4 * np.spacing(1.0) * max(
        1.0, float(np.abs(moved).max()) / min(recipe.pentagon.edges))
    assert_same_star(arrangement.cell_arrangement(recipe),
                     window_cell_arrangement(recipe), tolerance)


THIN_TYPE1 = json.loads((DATA / "thin_type1.json").read_text())


def test_thin_type1_cell_arrangement_is_the_snapped_one():
    """The thin Type 1 pentagon, edges from 0.0013 to 2.48 and a cell of
    area 0.025, where a window route's periodicity check took seconds and
    snapping a window about a gigabyte: builtin_recipe checks its
    candidates and returns the hex pair under 1 MiB traced, and the corner
    keys and side stops read back off the orbit star its check built are
    the arrays pinned from the window snapper."""
    spec = get_type_spec(THIN_TYPE1["type"])
    pentagon = solve_instance(spec, THIN_TYPE1["params"])
    first = int(np.flatnonzero(spec.table.fits(pentagon)[:, 0])[0])
    hex_pair = tiling._type1_region(
        pentagon.relabeled(rotation=first % 5, reflect=first >= 5))[-1][0]
    tracemalloc.start()
    try:
        recipe = builtin_recipe.__wrapped__(spec.id, pentagon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert recipe.region == hex_pair
    assert recipe.periodicity.ok
    pinned = THIN_TYPE1["cell_arrangement"]
    star, count = recipe.orbit_star, len(recipe.region)
    inside = ~star.corner
    side = (np.cumsum(star.corner) - 1)[inside]
    read_back = {
        "orbits": star.orbits,
        "corner_vertex": star.stop_vertex[star.corner].reshape(count, 5, 3),
        "hit_ptr": np.searchsorted(side // 5, np.arange(count + 1)),
        "hit_corner": side % 5, "hit_vertex": star.stop_vertex[inside]}
    for name, array in read_back.items():
        assert np.array_equal(array, pinned[name]), name
    assert np.abs(star.stop_param[inside] - pinned["hit_param"]).max() <= (
        4 * np.spacing(1.0))


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
    scanned = scanned_translates(recipe, center, rho + 2.0 * diam)
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
    area, bit for bit as one isometry at a time builds and measures them,
    each tile's area about its own first corner."""
    base = recipe.pentagon.vertices
    polys = np.array([ccw(iso.apply(base)) for iso in recipe.region])
    assert same_bits(recipe.region_corners, polys)
    assert same_bits(recipe.region_centroids,
                     np.array([polygon_centroid(p) for p in polys]))
    assert all(same_bits(a, b)
               for a, b in zip(recipe.region_polygons(), polys))
    area = sum(abs(polygon_area(p - p[0])) for p in polys)
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
    the rows and centroid distances near_translates gives at that disk's
    reach, the patch rows a window-free patch_rows picks, and from them
    the arrays generate_patch builds, at any radii."""
    window = tiling.candidate_window(recipe, max(radii), M)
    center = np.asarray(M, dtype=float)
    for r in radii:
        reach = tiling._flood_reach(recipe, r)[1]
        cells, gap = window.within(center, reach)
        scanned, measured = tiling.near_translates(recipe, center, reach)
        assert same_bits(cells, scanned) and same_bits(gap, measured)
        cut, sizes = tiling.patch_rows(recipe, r, center, window)
        rows, free_sizes = tiling.patch_rows(recipe, r, center)
        assert same_bits(cut, rows) and sizes == free_sizes
        zones = np.repeat(np.array(["F1", "F2", "F3"]), sizes)
        assert_same_patch(Patch.from_cells(cut, zones, recipe, r=r, center=M),
                          generate_patch(recipe, r, M))


@pytest.mark.parametrize("radii", [(5.0, 5.5, 12.0), (5.0, 10.0, 20.0)],
                         ids=str)
@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_sweep_patches_are_the_window_free_patches(type_id, radii):
    """limit_sweep scans the lattice once, for its largest radius, and each
    radius' counts are the INTERIOR statistics of the looked-up arrangement
    of generate_patch(recipe, r), made without a window."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    recipe.orbit_star     # built, so its own window scans no more
    with mock.patch.object(tiling, "near_translates",
                           wraps=tiling.near_translates) as near:
        limit = limit_sweep(recipe, radii)
    assert near.call_count == 1
    assert near.call_args.args[2] == tiling._flood_reach(recipe, radii[-1])[1]
    assert [s.r for s in limit.stats] == list(radii)
    for counted, r in zip(limit.stats, radii):
        assert counted == _arrangement_stats(generate_patch(recipe, r),
                                             INTERIOR)


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
    the INTERIOR statistics of each radius' generated patch counted off
    its looked-up arrangement, and compute_stats' FULL count of that patch
    on the lattice is the arrangement's FULL count."""
    radii = 2.0 * recipe.pentagon.diameter + np.cumsum([above, *gaps])
    limit = limit_sweep(recipe, radii)
    for counted, r in zip(limit.stats, radii.tolist()):
        patch = generate_patch(recipe, r)
        assert counted == _arrangement_stats(patch, INTERIOR)
        assert compute_stats(patch, FULL) == _arrangement_stats(patch, FULL)


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


# --- a patch is its rows: corners placed for the rim band alone --------------

def full_corner_patch(recipe, r, M):
    """generate_patch's patch by the rule that places every candidate: the
    farthest corner of each, by np.linalg.norm, decides F1, and the
    distance from the centre to each other tile is the least over its
    sides of an np.sum point-to-segment distance. A Patch that holds these
    polygons and the lattice rows, so its arrangement is looked up."""
    center = np.asarray(M, dtype=float)
    eps = recipe.merge_distance
    rho, reach = tiling._flood_reach(recipe, r)
    cells, _ = tiling.near_translates(recipe, center, reach)
    polys = placed_corners(recipe, cells)
    d_max = np.linalg.norm(polys - center, axis=2).max(axis=1)
    inner = d_max <= r - eps
    rest = np.nonzero(~inner)[0]
    a = polys[rest]
    d = np.roll(a, -1, axis=1) - a
    rel = center - a
    t = np.clip(np.sum(rel * d, axis=-1)
                / np.maximum(np.sum(d * d, axis=-1), 1e-30), 0.0, 1.0)
    gap = rel - t[..., None] * d
    x, y = center
    dist = np.where(points_in_convex_polygon(x, y, a), 0.0,
                    np.hypot(gap[..., 0], gap[..., 1]).min(axis=1))
    meets = dist <= r + eps
    outer = rest[~meets]
    f3 = outer[tiling._enclosed_tiles(cells[outer], d_max[outer] > rho,
                                      recipe)]
    order = np.concatenate([np.nonzero(inner)[0], rest[meets], f3])
    sizes = (np.count_nonzero(inner), np.count_nonzero(meets), len(f3))
    rows = cells[order]
    return Patch(np.full(len(rows), 5), rows[:, :2],
                 np.repeat(np.array(["F1", "F2", "F3"]), sizes), r=r,
                 center=tuple(center), lattice=arrangement.Lattice(
                     rows, recipe), stack=polys[order])


def band_edge_disk(type_id, M, near):
    """The representative Type's recipe, M, and an r for which r - eps is
    the computed farthest corner distance of the candidate whose farthest
    corner lies nearest `near` from M: a tile on the edge of F1, which the
    rim band must decide by its corners."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    center = np.asarray(M, dtype=float)
    cells, _ = tiling.near_translates(recipe, center, near + 3.0)
    d_max = np.linalg.norm(placed_corners(recipe, cells) - center,
                           axis=2).max(axis=1)
    edge = float(d_max[np.argmin(np.abs(d_max - near))])
    eps = recipe.merge_distance
    r = edge + eps
    while r - eps != edge:
        r = math.nextafter(r, math.inf if r - eps < edge else -math.inf)
    return recipe, r, M


@st.composite
def rim_band_disks(draw):
    """A sweep or wide-draw recipe, r from half a tile diameter to 60, and
    a centre whose distance from the origin is log-uniform up to 1e9."""
    recipe = draw(sweep_and_wide_recipes)
    low = 0.5 * recipe.pentagon.diameter
    r = low + draw(st.floats(0.0, 1.0)) * (60.0 - low)
    size, turn = draw(st.floats(0.0, 9.0)), draw(st.floats(0.0, 2 * math.pi))
    return recipe, r, (10.0 ** size * math.cos(turn),
                       10.0 ** size * math.sin(turn))


def verdict(patch):
    try:
        report = verify_patch(patch)
    except InvalidInnerRadius as exc:
        return str(exc)
    return report.ok, report.violations, report.metrics


@settings(max_examples=20, deadline=None)
@given(rim_band_disks())
@example(band_edge_disk(1, (0.0, 0.0), 10.0))
@example(band_edge_disk(2, (-3e8, 4e8), 59.0))
@example(band_edge_disk(4, (0.37, -1.21), 1.5))
@example(band_edge_disk(5, (7e5, 2e5), 30.0))
def test_the_rim_band_patch_is_the_full_corner_patch(disk):
    """Deciding F1 by centroid distance, and placing corners only for the
    band the margin leaves, gives the patch that places every candidate:
    its rows, zones and polygon bytes, its counts in both modes as its
    looked-up arrangement gives them, its verifier report and its
    document bytes. The examples put r - eps on a candidate's farthest
    corner distance."""
    recipe, r, M = disk
    ours, theirs = generate_patch(recipe, r, M), full_corner_patch(recipe,
                                                                    r, M)
    assert same_bits(ours.lattice.rows, theirs.lattice.rows)
    assert np.array_equal(ours.zones, theirs.zones)
    assert same_bits(ours.polygons, theirs.polygons)
    for mode in (FULL, INTERIOR):
        assert compute_stats(ours, mode) == _arrangement_stats(theirs, mode)
    assert verdict(ours) == verdict(theirs)
    assert (jsontext.dumps(jsontext.patch_document(ours))
            == jsontext.dumps(jsontext.patch_document(theirs)))


def placements(recipe, patch, calls):
    """How many of the calls to TilingRecipe.corners placed the recipe's
    patch's full stack of rows."""
    return sum(call.args[0] is recipe and np.array_equal(
        call.args[1], patch.lattice.rows) for call in calls)


@pytest.mark.parametrize("read", [
    lambda patch: patch.polygons, verify_patch,
    lambda patch: patch.to_json_dict()], ids=["polygons", "verify",
                                              "document"])
@pytest.mark.parametrize("type_id", BUILTIN_SWEEP_TYPES)
def test_the_full_corner_stack_is_placed_only_when_read(type_id, read):
    """Generating a patch and counting it in both modes places corners for
    the rim band alone, fewer rows than the patch's; reading its polygons,
    verifying it or writing its document places the full stack, once,
    whichever reads it first."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    recipe.orbit_star      # its cell arrangement's window placed, untraced
    with mock.patch.object(TilingRecipe, "corners", autospec=True,
                           side_effect=TilingRecipe.corners) as placed:
        patch = generate_patch(recipe, 10.0, (0.37, -1.21))
        compute_stats(patch, FULL)
        compute_stats(patch, INTERIOR)
        assert placements(recipe, patch, placed.call_args_list) == 0
        assert placed.call_count == 1
        assert len(placed.call_args.args[1]) < len(patch.counts)
        read(patch)
        assert placements(recipe, patch, placed.call_args_list) == 1
        patch.polygons
        verify_patch(patch)
        patch.to_json_dict()
        assert placements(recipe, patch, placed.call_args_list) == 1
