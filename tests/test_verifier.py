"""Overlap, coverage, periodicity, and normality witness checks."""
import dataclasses
import functools
import itertools
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import pentile
from pentile import arrangement, geometry, verifier
from pentile.arrangement import Patch, patch_from_json_dict
from pentile.errors import DegenerateTile, InvalidInnerRadius, RecipeInvalid
from pentile.geometry import (
    convex_overlap_areas,
    largest_inscribed_circle,
    points_in_convex_polygon,
    polygon_area,
    polygon_areas,
    polygon_disk_overlap_areas,
    smallest_enclosing_circle,
    stack_polygons,
)
from pentile.tiling import PlacedTile, builtin_recipe, generate_patch
from pentile.verifier import (
    AREA_TOL,
    SLACK,
    CheckReport,
    _grid_cover_check,
    _in_disk,
    _pairwise_overlap,
    _separated,
    _side_lines,
    check_coverage,
    check_no_overlap,
    check_periodicity,
    normality_witness,
    verify_patch,
)

DATA = Path(__file__).parent / "data"


def house():
    return pentile.pentagon_from_json_dict(
        json.loads((DATA / "house.json").read_text()))


@pytest.fixture(scope="module")
def t4_patch():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    return generate_patch(recipe, 8.0)


# --- overlap ----------------------------------------------------------------

@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_builtin_patches_do_not_overlap(type_id):
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    patch = generate_patch(recipe, 7.0)
    report = check_no_overlap(patch)
    assert report.ok, report.violations


def test_duplicated_tile_is_reported(t4_patch):
    tiles = t4_patch.tiles + (t4_patch.tiles[0],)
    broken = Patch.from_tiles(tiles, r=t4_patch.r, center=t4_patch.center)
    report = check_no_overlap(broken)
    assert not report.ok
    assert report.violations


def test_coincident_copies_report_the_first_pair():
    """Three copies of one tile overlap pairwise by the same area; the
    report names the first pair in (i, j) order."""
    tile = pentile.representative(4).pentagon.vertices
    report = check_no_overlap(Patch.from_polygons([tile] * 3))
    assert report.violations[0].startswith("tiles 0 and 1 overlap")


def test_shared_edge_is_not_an_overlap():
    a = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    b = a + np.array([1.0, 0.0])
    patch = Patch.from_polygons([a, b])
    assert check_no_overlap(patch).ok


@pytest.mark.parametrize("type_id, center", [
    (1, (1e4, 3e3)), (2, (1e4, 3e3)), (4, (1e4, 3e3)), (5, (1e4, 3e3)),
    (1, (1e6, 0.0))])
def test_overlap_is_measured_about_the_disk_center(type_id, center):
    """About the origin, areas and clips round at |x| |y| ulp(1): Type 4
    at (1e4, 3e3) reported tiles 26 and 30 overlapping by 1.1e-9 of a tile.
    About the disk center they round at the tiles' own size."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    report = check_no_overlap(generate_patch(recipe, 10.0, center))
    assert report.ok, report.violations


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_overlap_report_stays_finite_at_a_huge_center(type_id):
    """At (1e9, 2e9) a corner is stored to 2.4e-7: a tile's area taken
    about the origin rounds to 0, and the overlap fraction divided by it."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    report = check_no_overlap(generate_patch(recipe, 10.0, (1e9, 2e9)))
    assert all(map(math.isfinite, report.metrics.values()))
    assert report.metrics["max_overlap_fraction"] < 1e-6
    assert report.ok or report.violations[0].startswith("tiles ")


def test_zero_area_tile_is_named():
    square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    flat = np.array([(2, 0), (3, 0), (4, 0)], dtype=float)
    with pytest.raises(DegenerateTile, match="tile 1 has zero area"):
        check_no_overlap(Patch.from_polygons([square, flat]))


def convex_clip(subject, clip):
    """Independent reference: Sutherland-Hodgman clip of one polygon against
    one convex ccw polygon, corner by corner; (m, 2), m == 0 when empty."""
    out = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        if not out:
            break
        a = clip[i]
        b = clip[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        pts = out
        out = []
        prev = pts[-1]
        prev_in = ex * (prev[1] - a[1]) - ey * (prev[0] - a[0]) >= 0.0
        for cur in pts:
            cur_in = ex * (cur[1] - a[1]) - ey * (cur[0] - a[0]) >= 0.0
            if cur_in != prev_in:
                dx, dy = cur[0] - prev[0], cur[1] - prev[1]
                denom = ex * dy - ey * dx
                if abs(denom) > 1e-30:
                    t = (ex * (a[1] - prev[1]) - ey * (a[0] - prev[0])) / denom
                    out.append((prev[0] + t * dx, prev[1] + t * dy))
            if cur_in:
                out.append(cur)
            prev, prev_in = cur, cur_in
    return np.array(out).reshape(-1, 2)


def convex_overlap_area(p, q):
    clipped = convex_clip(p, q)
    if len(clipped) < 3:
        return 0.0
    return abs(polygon_area(clipped))


def loop_pairwise_overlap(polys, skip=()):
    """Reference: the worst overlap, one pair at a time over the cKDTree
    pairs in (i, j) order less those in skip, and its first worst pair."""
    if len(polys) < 2:
        return 0.0, None
    centers = np.array([p.mean(axis=0) for p in polys])
    radii = np.array([np.linalg.norm(p - c, axis=1).max()
                      for p, c in zip(polys, centers)])
    worst, worst_pair = 0.0, None
    for i, j in sorted(cKDTree(centers).query_pairs(2.0 * radii.max())):
        if np.linalg.norm(centers[i] - centers[j]) > radii[i] + radii[j]:
            continue
        if (i, j) in skip:
            continue
        a = convex_overlap_area(polys[i], polys[j])
        if a > worst:
            worst, worst_pair = a, (i, j)
    return worst, worst_pair


@st.composite
def convex_polygons(draw, max_corners=8):
    """3 to max_corners corners on an ellipse, counter-clockwise, no gap a
    half-turn."""
    gaps = np.array(draw(st.lists(st.floats(1.0, 1.9), min_size=3,
                                  max_size=max_corners)))
    turn = draw(st.floats(0.0, 2.0 * math.pi)) + np.cumsum(
        2.0 * math.pi * gaps / gaps.sum())
    rx, ry = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    cx, cy = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    return np.column_stack([cx + rx * np.cos(turn), cy + ry * np.sin(turn)])


@st.composite
def polygon_pairs(draw):
    """A polygon and one beside it: across a shared side or corner (half a
    turn about its midpoint or the corner), across the side but pushed into
    it, nested, identical, far off, or drawn on its own."""
    p = draw(convex_polygons())
    how = draw(st.sampled_from(
        ["side", "pushed", "corner", "nested", "identical", "disjoint",
         "free"]))
    k = draw(st.integers(0, len(p) - 1))
    k1 = (k + 1) % len(p)
    if how in ("side", "pushed"):
        q = (p[k] + p[k1]) - p
        q[k], q[k1] = p[k1], p[k]
        if how == "pushed":
            # into p, by 1e-15 to 1e-5 of the shared side
            side = p[k1] - p[k]
            q = q + 10.0 ** draw(st.floats(-15.0, -5.0)) * np.array(
                [-side[1], side[0]])
    elif how == "corner":
        q = 2.0 * p[k] - p
        q[k] = p[k]
    elif how == "nested":
        c = p.mean(axis=0)
        q = c + draw(st.floats(0.1, 0.9)) * (p - c)
    elif how == "identical":
        q = p.copy()
    elif how == "disjoint":
        q = p + 2.0 * np.ptp(p, axis=0).max() + 1.0
    else:
        q = draw(convex_polygons())
    return p, q


@given(polygon_pairs())
def test_stacked_clip_matches_scalar_clip_bit_for_bit(pair):
    p, q = pair
    stacked, counts = stack_polygons([p, q])
    areas = convex_overlap_areas(stacked, counts, stacked[::-1])
    assert areas.tolist() == [convex_overlap_area(p, q),
                              convex_overlap_area(q, p)]
    assert polygon_areas(stacked, counts).tolist() == [polygon_area(p),
                                                       polygon_area(q)]


def separation_bounds(polys):
    """{(i, j): bound} for the pairs i < j that _separated certifies either
    way round; the bound is SLACK × the mean side × the diameter of the
    certifying polygon, the least when both certify."""
    stacked, counts = stack_polygons(polys)
    lines = _side_lines(stacked)
    i, j = np.triu_indices(len(polys), 1)
    by_i = _separated(stacked, lines, i, j)
    by_j = _separated(stacked, lines, j, i)

    def bound(p):
        sides = [math.hypot(*(b - a)) for a, b in zip(p, np.roll(p, -1, 0))]
        diam = max(math.hypot(*(b - a)) for a in p for b in p)
        return SLACK * sum(sides) / len(p) * diam

    bounds = {}
    for a, b, x, y in zip(i.tolist(), j.tolist(), by_i, by_j):
        if x or y:
            bounds[a, b] = min(bound(polys[k]) for k, c in ((a, x), (b, y))
                               if c)
    return bounds


@given(st.lists(polygon_pairs(), min_size=1, max_size=4))
def test_stacked_worst_pair_matches_pair_loop(pairs):
    """A certified pair shares at most SLACK · mean side · diameter of the
    certifying polygon, and no pair sharing more than AREA_TOL of the
    smaller polygon is certified. Over the pairs left, the worst pair and
    its area are the scalar loop's, bit for bit."""
    polys = [poly for pair in pairs for poly in pair]
    certified = separation_bounds(polys)
    for (i, j), bound in certified.items():
        assert convex_overlap_area(polys[i], polys[j]) <= bound
    for i, j in itertools.combinations(range(len(polys)), 2):
        smaller = min(abs(polygon_area(polys[i])),
                      abs(polygon_area(polys[j])))
        if convex_overlap_area(polys[i], polys[j]) > AREA_TOL * smaller:
            assert (i, j) not in certified
    assert _pairwise_overlap(*stack_polygons(polys)) == \
        loop_pairwise_overlap(polys, skip=certified)


def test_mixed_corner_counts_report_the_planted_overlap():
    triangle = np.array([(0, 0), (2, 0), (1, 1.5)])
    square = np.array([(3, 0), (5, 0), (5, 2), (3, 2)])
    pentagon = np.array([(6, 0), (8, 0), (8.5, 1.5), (7, 2.5), (5.5, 1.5)])
    hexagon = np.array([(1, 3), (2, 2.5), (3, 3), (3, 4), (2, 4.5), (1, 4)])
    # the hexagon pushed half a unit into the square
    polys = [triangle, square, pentagon, hexagon + (2.0, -1.0)]
    worst, pair = loop_pairwise_overlap(polys)
    assert pair == (1, 3) and worst > 0.1
    report = check_no_overlap(Patch.from_polygons(polys))
    assert not report.ok
    assert report.metrics["max_overlap_area"] == worst
    assert report.violations[0].startswith("tiles 1 and 3 overlap by area")


def test_padded_sides_certify_no_pair():
    """Triangles and squares stacked with hexagons are padded with sides
    of zero length. Those sides have no line: every pair that overlaps is
    left to the clip, and the worst is the scalar loop's."""
    triangle = np.array([(0, 0), (2, 0), (1, 1.5)])
    square = np.array([(0, 0), (2, 0), (2, 2), (0, 2)])
    hexagon = np.array([(1, 0), (2, 0.5), (2, 1.5), (1, 2), (0, 1.5),
                        (0, 0.5)])
    polys = [triangle, square + (1.0, 0.5), hexagon + (2.5, 0.0),
             triangle + (3.0, 1.0), square + (6.0, 0.0),
             hexagon + (5.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked, counts = stack_polygons(polys)
        normals, offsets, _ = _side_lines(stacked)
        certified = separation_bounds(polys)
        report = check_no_overlap(Patch.from_polygons(polys))
    # side k runs from corner k to k + 1; the last closes the polygon
    k = np.arange(6)
    padding = (k >= counts[:, None] - 1) & (k < 5)
    assert np.isinf(offsets[padding]).all()
    assert np.isfinite(offsets[~padding]).all()
    overlapping = [(i, j) for i, j in itertools.combinations(range(6), 2)
                   if convex_overlap_area(polys[i], polys[j]) > 0.01]
    assert len(overlapping) >= 4
    assert not set(overlapping) & set(certified)
    worst, pair = loop_pairwise_overlap(polys)
    assert report.metrics["max_overlap_area"] == worst
    assert report.violations[0].startswith(
        f"tiles {pair[0]} and {pair[1]} overlap by area")


def test_tile_pushed_into_its_neighbour_is_named(t4_patch):
    """The tile nearest the centre moved 1e-6 of a side across the side it
    shares with a neighbour: that pair is clipped and named."""
    polys = [t.polygon for t in t4_patch.tiles]
    center = np.asarray(t4_patch.center)
    victim = min(range(len(polys)), key=lambda i: np.linalg.norm(
        polys[i].mean(axis=0) - center))
    a, b = polys[victim][0], polys[victim][1]
    neighbour = next(
        j for j, q in enumerate(polys) if j != victim
        and min(np.linalg.norm(q - a, axis=1)) < 1e-9
        and min(np.linalg.norm(q - b, axis=1)) < 1e-9)
    side = b - a
    polys[victim] = polys[victim] + 1e-6 * np.array([side[1], -side[0]])
    report = check_no_overlap(Patch.from_polygons(
        polys, r=t4_patch.r, center=t4_patch.center))
    worst, pair = loop_pairwise_overlap(polys)
    assert pair == tuple(sorted((victim, neighbour)))
    assert not report.ok
    assert report.metrics["max_overlap_area"] == worst
    assert report.violations[0].startswith(
        f"tiles {pair[0]} and {pair[1]} overlap by area")


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_verify_patch_raises_no_numpy_warnings(type_id):
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    patch = generate_patch(recipe, 10.0)
    polys = [t.polygon for t in patch.tiles]
    doubled = Patch.from_polygons(polys + [polys[0] + 0.1], r=patch.r,
                                  center=patch.center)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_patch(patch).ok
        assert not verify_patch(doubled).ok


# --- coverage ---------------------------------------------------------------

def test_house_patch_covers_inner_disk():
    recipe = builtin_recipe(1, house())
    patch = generate_patch(recipe, 10.0)
    report = check_coverage(patch, r_inner=8.0)
    assert report.ok, report.violations
    assert report.metrics["sample_misses"] == 0
    assert abs(report.metrics["area_gap_fraction"]) <= 1e-9


def test_missing_interior_tile_fails_coverage(t4_patch):
    center = np.asarray(t4_patch.center)
    victim = min(
        range(len(t4_patch.tiles)),
        key=lambda i: np.linalg.norm(
            t4_patch.tiles[i].polygon.mean(axis=0) - center))
    tiles = tuple(t for i, t in enumerate(t4_patch.tiles) if i != victim)
    broken = Patch.from_tiles(tiles, r=t4_patch.r, center=t4_patch.center)
    report = check_coverage(broken)
    assert not report.ok
    assert type(report.ok) is bool
    assert "uncovered, first at (" in report.violations[-1]
    assert not any("np.float64" in v for v in report.violations)


def loop_grid_cover_check(polys, region_mask, lo, hi, pitch, eps):
    """Reference sampling route: each tile tests the uncovered grid points
    within its bounding circle, widened by the pitch."""
    xs = np.arange(lo[0], hi[0] + pitch, pitch)
    ys = np.arange(lo[1], hi[1] + pitch, pitch)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[region_mask(pts[:, 0], pts[:, 1])]
    covered = np.zeros(len(pts), dtype=bool)
    tree = cKDTree(pts)
    for poly in polys:
        c = poly.mean(axis=0)
        rad = np.linalg.norm(poly - c, axis=1).max()
        idx = np.asarray(tree.query_ball_point(c, rad + pitch), dtype=int)
        sub = idx[~covered[idx]]
        covered[sub] = points_in_convex_polygon(pts[sub, 0], pts[sub, 1],
                                                poly, eps=eps)
    missed = int((~covered).sum())
    example = tuple(pts[~covered][0].tolist()) if missed else None
    return len(pts), missed, example


def loop_disk_cover_check(polys, r_inner, pitch, eps):
    """loop_grid_cover_check on the disk _grid_cover_check samples: the
    grid from -r_inner to r_inner on both axes, and its points within
    r_inner - eps of the origin."""
    def in_disk(px, py):
        return np.sqrt(px * px + py * py) <= r_inner - eps

    return loop_grid_cover_check(polys, in_disk, np.full(2, -r_inner),
                                 np.full(2, r_inner), pitch, eps)


def box_grid_cover_check(stacked, r_inner, pitch, eps):
    """Reference box scan: each tile runs points_in_convex_polygon(...,
    eps) on every grid point of its index box, ceil(min' - 1/2) to
    floor(max' + 1/2) in indices, padded to the largest box; the covered
    set is the union of the hits."""
    xs = np.arange(-r_inner, r_inner + pitch, pitch)
    ys = np.arange(-r_inner, r_inner + pitch, pitch)
    wanted = _in_disk(xs[None, :], ys[:, None], r_inner - eps)
    size = np.array([len(xs), len(ys)])
    first = np.ceil((stacked.min(axis=1) + r_inner) / pitch - 0.5)
    last = np.floor((stacked.max(axis=1) + r_inner) / pitch + 0.5)
    meets = np.all((last >= 0) & (first < size), axis=1)
    polys = stacked[meets]
    first = np.clip(first[meets], 0, size - 1).astype(np.intp)
    last = np.clip(last[meets], 0, size - 1).astype(np.intp)
    covered = np.zeros(wanted.size, dtype=bool)
    wx, wy = (last - first).max(axis=0, initial=0) + 1
    step = max(1, 64 * 1024 // (wx * wy))
    for start in range(0, len(polys), step):
        box_lo = first[start:start + step]
        ix = np.minimum(box_lo[:, None, :1] + np.arange(wx), size[0] - 1)
        iy = np.minimum(box_lo[:, 1:, None] + np.arange(wy)[:, None],
                        size[1] - 1)
        hit = points_in_convex_polygon(
            xs[ix], ys[iy], polys[start:start + step, None, None], eps=eps)
        covered[(iy * len(xs) + ix)[hit]] = True
    miss = wanted & ~covered.reshape(wanted.shape)
    missed = int(np.count_nonzero(miss))
    row, col = divmod(int(np.argmax(miss)), len(xs))
    example = (float(xs[col]), float(ys[row])) if missed else None
    return int(np.count_nonzero(wanted)), missed, example


@pytest.mark.parametrize("drop", [0, 1, 3])
def test_grid_route_matches_tile_by_tile_scan(t4_patch, drop):
    """The same count, misses and first miss, with the drop innermost
    tiles taken out; the tiles are moved so that the disk's centre is the
    origin."""
    center, r_inner = np.asarray(t4_patch.center), 6.0
    polys = sorted((t.polygon - center for t in t4_patch.tiles),
                   key=lambda p: np.linalg.norm(p.mean(axis=0)))
    polys = polys[drop:]
    args = (r_inner, 0.1, 1e-9)
    found = _grid_cover_check(stack_polygons(polys)[0], *args)
    assert found == loop_disk_cover_check(polys, *args)
    assert (found[1] > 0) == (drop > 0)


@functools.lru_cache(maxsize=None)
def small_patch_polygons(type_id):
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    return [t.polygon for t in generate_patch(recipe, 4.0).tiles]


def disk_case(polys, center, radius, pitch, eps=1e-9):
    """A grid_cover_cases case sampling the disk about center: the tiles
    moved so that center is the origin, and _grid_cover_check's radius,
    pitch and eps."""
    center = np.asarray(center, dtype=float)
    return [p - center for p in polys], (radius, pitch, eps)


@st.composite
def grid_cover_cases(draw):
    """Tiles of a Type 1, 2, 4 or 5 patch with up to 3 dropped, a pitch from
    a twentieth of a unit to two (tiles 1.3 to 1.9 wide, so boxes down to
    one or two indices a side), and a disk that may hang past the
    tiles."""
    polys = small_patch_polygons(draw(st.sampled_from([1, 2, 4, 5])))
    dropped = draw(st.sets(st.integers(0, len(polys) - 1), max_size=3))
    polys = [p for i, p in enumerate(polys) if i not in dropped]
    pitch = draw(st.floats(0.05, 2.0))
    center = np.array(draw(st.tuples(st.floats(-3.0, 3.0),
                                     st.floats(-3.0, 3.0))))
    return disk_case(polys, center, draw(st.floats(0.5, 6.0)), pitch)


# a house whose corners lie on grid columns and rows: moved so that (1, 1)
# is the origin, the grid of radius 2 and pitch 1/2 runs from -2 in exact
# halves
GRID_HOUSE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 2.0],
                       [0.0, 1.0]])


# unit squares on the grid of pitch 1/2 about (1, 1): sides on grid rows and
# columns (dx = 0 and dy = 0), with grid points on every side
GRID_SQUARES = [np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
                + (i, j) for i in (0, 1) for j in (0, 1)]
# a Type 4 tile of the small patch, and its longest side's length
T4_TILE = small_patch_polygons(4)[0]
T4_EDGE = float(np.hypot(*np.diff(T4_TILE, axis=0).T).max())


@given(grid_cover_cases())
@example(case=disk_case([GRID_HOUSE], (1.0, 1.0), 2.0, 0.5))
@example(case=disk_case([GRID_HOUSE + 0.5e-12], (1.0, 1.0), 2.0, 0.5))
@example(case=disk_case([GRID_HOUSE - 0.5e-12], (1.0, 1.0), 2.0, 0.5))
@example(case=disk_case([GRID_HOUSE, 0.1 * GRID_HOUSE + (2.1, 0.1)],
                        (1.0, 1.0), 2.0, 0.5))
@example(case=disk_case(GRID_SQUARES, (1.0, 1.0), 1.5, 0.5))
@example(case=disk_case(GRID_SQUARES[:3], (1.0, 1.0), 1.5, 0.25))
@example(case=disk_case(GRID_SQUARES[1:] + [GRID_HOUSE - (1.0, 1.0)],
                        (1.0, 1.0), 2.0, 0.5))
@example(case=disk_case(GRID_SQUARES, (1.0, 1.0), 1.5, 0.5, eps=0.0))
@example(case=disk_case(small_patch_polygons(4), (0.3, -0.2), 3.0, 0.1,
                        eps=0.0))
@example(case=disk_case(small_patch_polygons(4) + [T4_TILE + 1e-12 * T4_EDGE],
                        T4_TILE.mean(axis=0), 3.0, 0.1))
@example(case=disk_case(small_patch_polygons(4) + [T4_TILE + 1e-1 * T4_EDGE],
                        T4_TILE.mean(axis=0), 3.0, 0.1))
def test_grid_route_matches_tile_by_tile_scan_anywhere(case):
    """Drawn cases, and these at the box edges and at the runs' margin:
    - a tile whose corners lie on grid points; the same tile moved by 1e-12
      of a pitch up and down, which leaves those points in its eps band,
      where a box edge without its half-index margin would drop a corner's
      column or row; and beside it a tile a fifth of a pitch wide between
      two columns and two rows, whose box holds grid points and covers
      none;
    - unit squares whose sides lie on grid rows and columns, all four, one
      dropped, and three beside the house (4- and 5-corner tiles in one
      stack, whose padding sides have zero length);
    - eps 0;
    - a duplicate tile shifted by 1e-12 and by 1e-1 of an edge.
    Two references: the box scan, each tile's kernel on every point of its
    box, and a k-d tree radius search, with no boxes at all."""
    polys, args = case
    found = _grid_cover_check(stack_polygons(polys)[0], *args)
    assert found == box_grid_cover_check(stack_polygons(polys)[0], *args)
    assert found == loop_disk_cover_check(polys, *args)


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_exact_kernel_sees_only_the_boxes_around_a_hole(type_id,
                                                        monkeypatch):
    """Coverage runs decide every sample point of an honest r = 20 patch,
    and the exact kernel sees no tile. With its innermost tile dropped, or
    that tile and the one about 5 units to its right, two holes on the same
    grid rows, the kernel sees only tiles whose box, a half-pitch past the
    corners, meets a hole's box: not the boxes between the holes. A scan of
    every box shows the kernel every tile."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    patch = generate_patch(recipe, 20.0, (0.3, -0.2))
    seen = []

    def counted(px, py, poly, eps=0.0):
        seen.append(np.unique(poly.reshape(-1, *poly.shape[-2:]), axis=0))
        return points_in_convex_polygon(px, py, poly, eps=eps)

    monkeypatch.setattr(verifier, "points_in_convex_polygon", counted)
    assert check_coverage(patch).ok
    assert seen == []

    polys = [t.polygon for t in patch.tiles]
    pitch = largest_inscribed_circle(polys[0])[1] / 4.0
    inner = min(polys, key=lambda p: np.hypot(*(p.mean(axis=0)
                                                 - patch.center)))
    right = min(polys, key=lambda p: np.hypot(*(p.mean(axis=0)
                                                 - inner.mean(axis=0)
                                                 - (5.0, 0.0))))
    for holes in ([inner], [inner, right]):
        seen.clear()
        dropped = Patch.from_polygons(
            [p for p in polys if not any(p is h for h in holes)],
            r=patch.r, center=patch.center)
        report = check_coverage(dropped)
        assert not report.ok and report.metrics["sample_misses"] > 0
        tiles = np.concatenate(seen) + np.asarray(patch.center)
        assert 0 < len(tiles) < 12 * len(holes)
        for tile in tiles:
            assert any(np.all(tile.min(axis=0) - pitch <= hole.max(axis=0))
                       and np.all(hole.min(axis=0) <= tile.max(axis=0)
                                  + pitch) for hole in holes)


@pytest.mark.parametrize("turned", [False, True])
def test_thin_pentagon_coverage_grid_is_chunked(turned):
    """check_coverage's tracemalloc peak on the thin Type 1 pentagon at r = 3
    (3 485 tiles, 1 917 631 sample points) stays under 16 MiB. A box scan,
    with the disk's norms as one float per grid point, peaks at 21.6 MiB
    here and takes seconds, as each tile's box spans hundreds of rows and
    thousands of columns. Turned so that a tile's farthest corners lie on a
    grid row, each box spans a few rows, and a few box-row sides hold
    runs of thousands of points: written all at once, a pass's runs peak
    at 42 MiB. Unturned, the patch is also checked with its three innermost
    tiles dropped: 33 438 points are left, each in the boxes of many
    tiles, and joined to them all at once they peak at 116 MiB. At r = 5
    (8 314 tiles, 6 677 281 sample points) the peak stays under 12.5 MiB,
    turned or not: the exact disk areas of all the tiles at once peak at
    14.1 MiB."""
    from pentile.catalog import get_type_spec, solve_instance

    thin = json.loads((Path(__file__).parent / "data"
                       / "thin_type1.json").read_text())
    pentagon = solve_instance(get_type_spec(1), thin["params"])
    for r, points, bound in ((3.0, 1917631, 16), (5.0, 6677281, 12.5)):
        patch = generate_patch(builtin_recipe(1, pentagon), r)
        polys = [t.polygon - patch.center for t in patch.tiles]
        cases = [(polys, 0)]
        if turned:
            a, b = max(itertools.combinations(polys[0], 2),
                       key=lambda ab: np.hypot(*(ab[1] - ab[0])))
            angle = math.atan2(b[1] - a[1], b[0] - a[0])
            c, s = math.cos(angle), math.sin(angle)
            cases = [([p @ np.array([[c, -s], [s, c]]) for p in polys], 0)]
        elif r == 3.0:
            cases.append((sorted(polys,
                                 key=lambda p: np.hypot(*p.mean(axis=0)))[3:],
                          33438))
        for polys, misses in cases:
            patch = Patch.from_polygons(polys, r=r, center=(0.0, 0.0))
            tracemalloc.start()
            try:
                report = check_coverage(patch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.ok == (misses == 0), report.violations
            assert report.metrics["sample_points"] == points
            assert report.metrics["sample_misses"] == misses
            assert peak < bound * 2**20, f"r = {r}: {peak / 2**20:.1f} MiB"


def scalar_points_in_convex_polygon(x, y, poly, eps):
    """One point against one polygon, one side at a time, in the kernel's
    float expression."""
    for k in range(len(poly)):
        ax, ay = poly[k]
        dx, dy = poly[(k + 1) % len(poly)] - poly[k]
        bound = -eps * np.hypot(dx, dy) if eps else 0.0
        if not dx * (y - ay) - dy * (x - ax) >= bound:
            return False
    return True


@st.composite
def kernel_cases(draw):
    """One to three convex polygons of 3 to 8 corners; x and y values drawn freely or from the polygons' corners and
    side midpoints, so that points fall on sides and at corners; and a
    band eps of 0, of either sign, or 0.1 wide."""
    polys = draw(st.lists(convex_polygons(), min_size=1, max_size=3))
    marks = np.concatenate(
        [np.concatenate([p, (p + np.roll(p, -1, axis=0)) / 2.0])
         for p in polys])
    mark = st.integers(0, len(marks) - 1)
    xs = draw(st.lists(st.one_of(st.floats(-9.0, 9.0), mark.map(
        lambda i: marks[i, 0])), min_size=1, max_size=6))
    ys = draw(st.lists(st.one_of(st.floats(-9.0, 9.0), mark.map(
        lambda i: marks[i, 1])), min_size=1, max_size=6))
    # one mark's own x and y, so the grid holds a corner or a midpoint
    m = draw(mark)
    xs.append(marks[m, 0])
    ys.append(marks[m, 1])
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-2),
                         st.floats(-1e-2, -1e-12), st.just(0.1)))
    return polys, np.array(xs), np.array(ys), eps


@given(kernel_cases())
def test_kernel_matches_a_point_by_point_side_by_side_loop(case):
    """points_in_convex_polygon equals, bit for bit, a scalar loop over
    points and sides: on one point, on a row of x against a column of y,
    and on stacked polygons with padded corners against that grid."""
    polys, xs, ys, eps = case
    # every polygon gets at least one padded corner
    stacked = stack_polygons([np.concatenate([p, p[-1:]]) for p in polys])[0]
    grid = np.array([[[scalar_points_in_convex_polygon(x, y, p, eps)
                       for x in xs] for y in ys] for p in stacked])
    for p, expect in zip(stacked, grid):
        one = points_in_convex_polygon(xs[-1], ys[-1], p, eps=eps)
        assert np.shape(one) == () and one == expect[-1, -1]
        found = points_in_convex_polygon(xs[None, :], ys[:, None], p, eps=eps)
        assert found.dtype == bool and np.array_equal(found, expect)
    found = points_in_convex_polygon(xs[None, :], ys[:, None],
                                     stacked[:, None, None], eps=eps)
    assert found.shape == grid.shape and np.array_equal(found, grid)


# the largest subnormal and below, either sign
subnormals = st.floats(-2.2250738585072009e-308, 2.2250738585072009e-308)
axis_values = st.lists(st.one_of(st.floats(-1e6, 1e6), subnormals),
                       min_size=1, max_size=8)


@given(axis_values, axis_values, st.one_of(st.floats(0.0, 1.5e6), subnormals),
       st.data())
def test_axis_wise_disk_mask_is_the_norm_bit_for_bit(xs, ys, radius, data):
    """A row of x against a column of y gives, point for point, the mask
    np.linalg.norm of the (x, y) points gives: on a drawn radius, and on
    the norm of a drawn grid point and the float just below it, where one
    bit of difference in a norm would flip the mask."""
    xs, ys = np.array(xs), np.array(ys)
    pts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    norms = np.linalg.norm(pts, axis=1)
    tie = norms[data.draw(st.integers(0, len(norms) - 1))]
    for r in (radius, tie, np.nextafter(tie, -np.inf)):
        mask = _in_disk(xs[None, :], ys[:, None], r)
        assert mask.shape == (len(ys), len(xs))
        assert np.array_equal(mask.ravel(), norms <= r)


def test_coverage_grid_is_held_as_its_axes():
    """check_coverage's tracemalloc peak on the Type 4 r = 80 patch (12 496
    tiles, 761 836 sample points) stays under 24 MiB. The grid as an
    (ny, nx, 2) point array, with its two meshgrid halves and the region
    mask's norms, peaks near 46 MiB here."""
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    patch = generate_patch(recipe, 80.0)
    tracemalloc.start()
    try:
        report = check_coverage(patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok, report.violations
    assert report.metrics["sample_points"] == 761836
    assert peak < 24 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
@pytest.mark.parametrize("center", [(0.0, 0.0), (13.7, -4.2), (1e4, -3e3)])
def test_default_inner_radius_is_r_less_the_widest_corner_pair(type_id,
                                                               center):
    """r_inner = r - diam, diam taken over every corner pair of every tile
    at once, bit for bit. Every tile's corners are rolled by each shift in
    turn, so the widest pair falls on every corner slot."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    patch = generate_patch(recipe, 8.0, center)
    for shift in range(5):
        tiles = tuple(
            dataclasses.replace(t, polygon=np.roll(t.polygon, shift, axis=0))
            for t in patch.tiles)
        stacked = (stack_polygons([t.polygon for t in tiles])[0]
                   - np.asarray(patch.center))
        diam = np.linalg.norm(stacked[:, :, None] - stacked[:, None],
                              axis=-1).max()
        rolled = Patch.from_tiles(tiles, r=patch.r, center=patch.center)
        assert check_coverage(rolled).metrics["r_inner"] == patch.r - diam


def disk_segment_term(a, b, r):
    """Reference: signed area of disk(0, r) intersected with triangle
    (0, a, b), for one side."""
    ra, rb = math.hypot(*a), math.hypot(*b)
    cross = a[0] * b[1] - a[1] * b[0]
    if ra <= r and rb <= r:
        return 0.5 * cross
    d = b - a
    dd = float(d @ d)
    if dd < 1e-30:
        return 0.0
    # parametrize p(t) = a + t d and clip against |p| = r
    t0 = -float(a @ d) / dd
    p0 = a + t0 * d
    h2 = r * r - float(p0 @ p0)

    def sector(u, v):
        ang = math.atan2(u[0] * v[1] - u[1] * v[0], float(u @ v))
        return 0.5 * r * r * ang

    if h2 <= 0.0:
        # chord line misses the disk entirely: pure sector
        return sector(a, b)
    dt = math.sqrt(h2 / dd)
    t1, t2 = t0 - dt, t0 + dt
    t1c, t2c = max(t1, 0.0), min(t2, 1.0)
    if t1c >= t2c:
        return sector(a, b)
    p1 = a + t1c * d
    p2 = a + t2c * d
    area = 0.5 * (p1[0] * p2[1] - p1[1] * p2[0])
    if t1c > 0.0:
        area += sector(a, p1)
    if t2c < 1.0:
        area += sector(p2, b)
    return area


def polygon_disk_overlap_area(poly, center, r):
    """Reference: area of a simple ccw polygon within disk(center, r), one
    side at a time."""
    total = 0.0
    rel = poly - np.asarray(center, dtype=float)
    n = len(rel)
    for i in range(n):
        total += disk_segment_term(rel[i], rel[(i + 1) % n], r)
    return total


def test_disk_overlap_areas_match_polygon_by_polygon(t4_patch):
    polys = [t.polygon for t in t4_patch.tiles]
    stacked, counts = stack_polygons(polys)
    center = np.asarray(t4_patch.center)
    for r in (3.0, 6.5):
        assert polygon_disk_overlap_areas(stacked, counts, center,
                                          r).tolist() == [
            polygon_disk_overlap_area(p, center, r) for p in polys]


def test_disk_overlap_areas_keep_a_margin_at_the_rim():
    """A circle through a corner that np.hypot puts on it and math.hypot
    just outside: the segment terms then sum the triangle terms otherwise
    in the last digits, so the corner must not count as inside."""
    triangle = np.array([(-2.9792955998473385, 4.69855541589116),
                         (0.7813765281878665, -3.2583758921782047),
                         (1.6530258437848275, -0.4482291714813643)])
    r = float(np.hypot(*triangle[0]))
    stacked, counts = stack_polygons([triangle])
    assert polygon_disk_overlap_areas(stacked, counts, (0.0, 0.0),
                                      r).tolist() == [
        polygon_disk_overlap_area(triangle, (0.0, 0.0), r)]


@st.composite
def disk_overlap_cases(draw):
    """Two to five convex polygons of 3 to 7 corners, each drawn free, moved
    to hold the disk center, moved wholly off the disk, or with a corner
    doubled (a zero-length side); and a radius below every corner, above
    every corner, through a corner by math.hypot or by np.hypot, tangent to
    a side's line, or free."""
    center = np.array([draw(st.floats(-3.0, 3.0)),
                       draw(st.floats(-3.0, 3.0))])
    polys = []
    for _ in range(draw(st.integers(2, 5))):
        p = draw(convex_polygons(max_corners=7))
        how = draw(st.sampled_from(["free", "around", "off", "doubled"]))
        if how == "around":
            p = p - p.mean(axis=0) + center
        elif how == "off":
            p = p + center + 12.0
        elif how == "doubled" and len(p) < 7:
            k = draw(st.integers(0, len(p) - 1))
            p = np.insert(p, k, p[k], axis=0)
        polys.append(p)
    rel = np.concatenate(polys) - center
    dist = [math.hypot(*q) for q in rel.tolist()]
    k = draw(st.integers(0, len(rel) - 1))
    how = draw(st.sampled_from(
        ["below", "above", "math", "numpy", "tangent", "free"]))
    if how == "below":
        r = min(dist) * draw(st.floats(0.1, 0.999))
    elif how == "above":
        r = max(dist) * draw(st.floats(1.001, 2.0))
    elif how == "math":
        r = dist[k]
    elif how == "numpy":
        r = float(np.hypot(*rel[k]))
    elif how == "tangent":
        p = polys[draw(st.integers(0, len(polys) - 1))] - center
        j = draw(st.integers(0, len(p) - 1))
        a, d = p[j], p[(j + 1) % len(p)] - p[j]
        foot = a - float(a @ d) / max(float(d @ d), 1e-300) * d
        r = math.hypot(*foot)
    else:
        r = draw(st.floats(0.05, 10.0))
    assume(r > 0.0)
    return polys, center, r


@given(disk_overlap_cases())
def test_stacked_disk_areas_match_side_by_side_loop(case):
    polys, center, r = case
    stacked, counts = stack_polygons(polys)
    assert polygon_disk_overlap_areas(stacked, counts, center, r).tolist() \
        == [polygon_disk_overlap_area(p, center, r) for p in polys]


def test_coverage_takes_its_rim_in_one_kernel_call(monkeypatch):
    """check_coverage computes the disk terms of every rim side in one
    stacked pass, and no one-polygon disk area is left to call."""
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    patch = generate_patch(recipe, 20.0)
    kernel = geometry._disk_segment_terms
    sides = []

    def counted(a, *args):
        sides.append(len(a))
        return kernel(a, *args)

    monkeypatch.setattr(geometry, "_disk_segment_terms", counted)
    assert check_coverage(patch).ok
    assert len(sides) == 1 and sides[0] > 0
    assert not hasattr(geometry, "polygon_disk_overlap_area")
    assert not hasattr(geometry, "_disk_segment_term")


def test_inner_radius_beyond_patch_rejected(t4_patch):
    with pytest.raises(InvalidInnerRadius):
        check_coverage(t4_patch, r_inner=t4_patch.r + 1.0)
    with pytest.raises(InvalidInnerRadius):
        check_coverage(t4_patch, r_inner=-1.0)


def test_non_finite_inner_radius_rejected(t4_patch):
    with pytest.raises(InvalidInnerRadius):
        check_coverage(t4_patch, r_inner=math.nan)


def test_inner_disk_smaller_than_a_tile_fails_as_vacuous():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    report = check_coverage(generate_patch(recipe, 2.0))
    assert not report.ok
    assert report.metrics["sample_misses"] == 0
    assert any("vacuous" in v for v in report.violations)


def test_coverage_requires_a_disk():
    bare = Patch.from_polygons(
        [np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)])
    with pytest.raises(InvalidInnerRadius):
        check_coverage(bare)


# --- periodicity ------------------------------------------------------------

@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_builtin_recipes_are_periodic(type_id):
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    report = check_periodicity(recipe)
    assert report.ok, report.violations


def test_stretched_lattice_fails_periodicity():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    stretched = dataclasses.replace(
        recipe, u=(recipe.u[0] * 1.01, recipe.u[1] * 1.01))
    report = check_periodicity(stretched)
    assert not report.ok
    assert type(report.ok) is bool
    assert report.violations


def test_a_side_stop_at_its_side_end_is_reported_as_a_split():
    """A fresh Type 1 recipe whose first side stop is planted at 1, the
    side's end: the certificate names the vertex, the side and the
    parameter."""
    built = builtin_recipe(1, pentile.representative(1).pentagon)
    recipe = dataclasses.replace(built)
    recipe.orbit_star.stop_param[np.argmin(recipe.orbit_star.corner)] = 1.0
    report = check_periodicity(recipe)
    assert not report.ok
    assert ("vertex (0, -1, 3) splits side 3 of region tile 0 at 1, "
            "outside (0, 1)") in report.violations


@pytest.mark.parametrize("scale", [0.03, 0.01, 0.003])
def test_a_cell_the_region_does_not_fill_builds_no_window(scale):
    """One Type 5 tile in a shrunken cell: the lattice join behind a cell
    arrangement grows as 1 / scale squared, so the area fails alone, no
    arrangement is built, and only the two areas are reported."""
    recipe = builtin_recipe(5, pentile.representative(5).pentagon)
    shrunk = dataclasses.replace(recipe, region=recipe.region[:1],
                                 u=tuple(scale * np.asarray(recipe.u)),
                                 v=tuple(scale * np.asarray(recipe.v)))
    with mock.patch.object(arrangement, "cell_arrangement",
                           side_effect=AssertionError("arrangement built")):
        report = check_periodicity(shrunk)
    assert not report.ok
    assert len(report.violations) == 1
    assert report.violations[0].startswith("region area ")
    assert report.violations[0].endswith("; gluing not checked")
    assert sorted(report.metrics) == ["cell_area", "region_area"]
    with pytest.raises(RecipeInvalid, match="gluing not checked"):
        shrunk.orbit_star


def test_periodicity_passing_recipe_verifies_at_several_radii():
    recipe = builtin_recipe(2, pentile.representative(2).pentagon)
    assert check_periodicity(recipe).ok
    for r in (6.0, 9.0):
        patch = generate_patch(recipe, r)
        report = verify_patch(patch)
        assert report.ok, (r, report.violations)


# --- normality witness ------------------------------------------------------

def test_regular_pentagon_circumradius():
    regular = pentile.make_pentagon([math.radians(108)] * 5, [1.0] * 5)
    witness = normality_witness(regular)
    assert witness.circumradius == pytest.approx(
        1.0 / (2.0 * math.sin(math.pi / 5.0)), abs=1e-9)
    # every triple of sides is tangent to the incircle here
    assert witness.inradius == pytest.approx(
        1.0 / (2.0 * math.tan(math.radians(36.0))), rel=1e-12)
    assert 0 < witness.inradius < witness.circumradius


@pytest.mark.parametrize("type_id", [1, 4, 8, 14])
def test_witness_radii_ordered(type_id):
    witness = normality_witness(pentile.representative(type_id).pentagon)
    assert 0 < witness.inradius < witness.circumradius
    assert witness.ratio > 1


def test_house_inradius_matches_brute_force_search():
    p = house()
    witness = normality_witness(p)
    # independent route: dense interior grid, radius = min distance to rim
    poly = p.vertices
    xs = np.linspace(poly[:, 0].min(), poly[:, 0].max(), 241)
    ys = np.linspace(poly[:, 1].min(), poly[:, 1].max(), 241)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = grid[pentile.geometry.points_in_convex_polygon(
        grid[:, 0], grid[:, 1], poly)]
    # point_segment_distance's clamp and hypot, every point and side at once
    a = poly
    d = np.roll(poly, -1, axis=0) - a
    t = np.clip(np.sum((inside[:, None] - a) * d, axis=2)
                / np.sum(d * d, axis=1), 0.0, 1.0)
    gap = inside[:, None] - (a + t[..., None] * d)
    best = np.hypot(gap[..., 0], gap[..., 1]).min(axis=1).max()
    assert witness.inradius == pytest.approx(best, abs=5e-3)
    assert witness.inradius == pytest.approx(0.5, abs=1e-9)


def test_square_and_equilateral_triangle_inradii():
    square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    assert largest_inscribed_circle(square)[1] == pytest.approx(0.5, rel=1e-12)
    side = 3.0
    triangle = side * np.array([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    assert largest_inscribed_circle(triangle)[1] == pytest.approx(
        side / (2.0 * math.sqrt(3.0)), rel=1e-12)


def linprog_inscribed_circle(poly):
    """Independent reference: the Chebyshev center as a linear program,
    maximize r subject to n . x + r <= n . p on every side."""
    from scipy.optimize import linprog

    n = len(poly)
    a_ub = np.zeros((n, 3))
    b_ub = np.zeros(n)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        d = q - p
        nrm = np.array([d[1], -d[0]]) / math.hypot(*d)  # outward for ccw
        a_ub[i, :2] = nrm
        a_ub[i, 2] = 1.0
        b_ub[i] = nrm @ p
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None), (None, None), (0, None)], method="highs")
    assert res.success, res.message
    return res.x[:2], float(res.x[2])


@pytest.mark.parametrize("type_id", range(1, 16))
def test_closed_form_inradius_matches_linear_program(type_id):
    poly = pentile.representative(type_id).pentagon.vertices
    center, radius = largest_inscribed_circle(poly)
    assert radius == pytest.approx(linprog_inscribed_circle(poly)[1],
                                   rel=1e-12)
    # the center lies inside, radius away from its nearest side line
    d = np.roll(poly, -1, axis=0) - poly
    depth = (d[:, 0] * (center[1] - poly[:, 1])
             - d[:, 1] * (center[0] - poly[:, 0])) / np.hypot(d[:, 0], d[:, 1])
    assert depth.min() == pytest.approx(radius, rel=1e-12)


@pytest.mark.parametrize("offset", [1e3, 1e4])
def test_enclosing_circle_keeps_its_radius_far_from_the_origin(offset):
    corners = house().vertices
    center, radius = smallest_enclosing_circle(corners + (offset, 0.0))
    assert radius == pytest.approx(1.0, abs=1e-12)
    assert center - (offset, 0.0) == pytest.approx(
        smallest_enclosing_circle(corners)[0], abs=1e-9)


def test_enclosing_circle_of_two_or_collinear_points():
    assert smallest_enclosing_circle(np.array([(0.0, 0.0), (1.0, 0.0)]))[1] \
        == 0.5
    center, radius = smallest_enclosing_circle(
        np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))
    assert (center.tolist(), radius) == ([1.0, 0.0], 1.0)


def test_coverage_is_measured_about_the_disk_center():
    """A full-precision document about (1e9, 2e9): the first tile's area
    taken about the origin rounded to 0, so the grid sample was skipped."""
    recipe = builtin_recipe(1, pentile.representative(1).pentagon)
    document = generate_patch(recipe, 5.0, (1e9, 2e9)).to_json_dict()
    report = check_coverage(patch_from_json_dict(document))
    assert not any("grid sample skipped" in v for v in report.violations)
    assert report.metrics["sample_points"] > 0
    assert report.metrics["sample_misses"] == 0


def test_first_miss_is_reported_where_it_is():
    """The grid is laid about the disk center; its first miss is reported
    back in the patch's coordinates, inside the tile taken out."""
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    center = np.array([1e4, 3e3])
    patch = generate_patch(recipe, 8.0, center)
    victim = min(range(len(patch.tiles)), key=lambda i: np.linalg.norm(
        patch.tiles[i].polygon.mean(axis=0) - center))
    tiles = patch.tiles[:victim] + patch.tiles[victim + 1:]
    report = check_coverage(Patch.from_tiles(tiles, r=8.0, center=center))
    miss = re.search(r"first at \((.*), (.*)\)$", report.violations[-1])
    point = np.array([float(miss[1]), float(miss[2])])
    assert points_in_convex_polygon(*point, patch.tiles[victim].polygon,
                                    eps=1e-6)


def test_house_patch_far_from_the_origin_verifies():
    patch = generate_patch(builtin_recipe(1, house()), 10.0, (1e4, 0.0))
    report = verify_patch(patch)
    assert report.ok, report.violations


def test_witness_rigid_motion_invariance():
    p = pentile.representative(5).pentagon
    moved = p.relabeled(rotation=2)
    a, b = normality_witness(p), normality_witness(moved)
    assert a.inradius == pytest.approx(b.inradius, abs=1e-9)
    assert a.circumradius == pytest.approx(b.circumradius, abs=1e-9)


# --- reports ----------------------------------------------------------------

def test_report_merge_combines_names_and_violations():
    a = CheckReport(name="one", ok=True, violations=[], metrics={"x": 1})
    b = CheckReport(name="two", ok=False, violations=["boom"],
                    metrics={"y": 2})
    merged = a.merge(b)
    assert not merged.ok
    assert merged.violations == ["boom"]
    assert merged.metrics == {"x": 1, "y": 2}
    assert "one" in merged.name and "two" in merged.name


def test_report_merge_refuses_a_metric_both_reports_hold():
    """Neither report's value of a shared metric may hide the other's."""
    a = CheckReport(name="one", ok=True, metrics={"x": 1, "y": 2})
    b = CheckReport(name="two", ok=True, metrics={"y": 3, "z": 4})
    with pytest.raises(ValueError, match=r"one and two both hold .*'y'"):
        a.merge(b)
