"""Overlap, coverage, periodicity, and normality witness checks."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import pentile
from pentile.arrangement import Patch
from pentile.errors import InvalidInnerRadius
from pentile.geometry import largest_inscribed_circle
from pentile.tiling import PlacedTile, builtin_recipe, generate_patch
from pentile.verifier import (
    CheckReport,
    check_coverage,
    check_no_overlap,
    check_periodicity,
    normality_witness,
    verify_patch,
)

DATA = Path(__file__).parent / "data"


def house():
    return pentile.load_pentagon(DATA / "house.json")


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


def test_shared_edge_is_not_an_overlap():
    a = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    b = a + np.array([1.0, 0.0])
    patch = Patch.from_polygons([a, b])
    assert check_no_overlap(patch).ok


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
        range(t4_patch.tile_count),
        key=lambda i: np.linalg.norm(
            t4_patch.tiles[i].polygon.mean(axis=0) - center))
    tiles = tuple(t for i, t in enumerate(t4_patch.tiles) if i != victim)
    broken = Patch.from_tiles(tiles, r=t4_patch.r, center=t4_patch.center)
    report = check_coverage(broken)
    assert not report.ok
    assert type(report.ok) is bool
    assert "uncovered, first at (" in report.violations[-1]
    assert not any("np.float64" in v for v in report.violations)


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
    sides = list(zip(poly, np.roll(poly, -1, axis=0)))
    xs = np.linspace(poly[:, 0].min(), poly[:, 0].max(), 241)
    ys = np.linspace(poly[:, 1].min(), poly[:, 1].max(), 241)
    best = 0.0
    for x in xs:
        for y in ys:
            q = np.array([x, y])
            if pentile.geometry.points_in_convex_polygon(
                    q[None, :], poly)[0]:
                rim = min(pentile.geometry.point_segment_distance(q, a, b)
                          for a, b in sides)
                best = max(best, rim)
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
