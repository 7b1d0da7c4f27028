"""Each of the benchmark's checks passes on a sound output and rejects a
corrupted one, so none of them passes vacuously.

    python3 -m pytest -q perfbench
"""
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from pentile import arrangement, catalog, stats, tiling, verifier  # noqa: E402

R = 8.0
CENTRE = (0.37, -1.21)


@pytest.fixture(scope="module")
def recipe():
    return tiling.builtin_recipe(4, catalog.representative(4).pentagon)


@pytest.fixture(scope="module")
def patch(recipe):
    return tiling.generate_patch(recipe, R, CENTRE)


def _problems(patch, recipe):
    return checks.check_patch(patch, recipe.pentagon,
                              stats.compute_stats(patch, stats.FULL),
                              stats.compute_stats(patch, stats.INTERIOR))


def _inner_tile(patch) -> int:
    c = np.asarray(patch.center)
    return min(range(len(patch.tiles)),
               key=lambda i: np.linalg.norm(patch.tiles[i].polygon - c,
                                            axis=1).max())


def test_sound_patch_passes(patch, recipe):
    assert _problems(patch, recipe) == []


def test_dropped_interior_tile_fails_euler_and_area_bracket(patch, recipe):
    drop = _inner_tile(patch)
    holed = arrangement.Patch.from_tiles(
        patch.tiles[:drop] + patch.tiles[drop + 1:], r=patch.r,
        center=patch.center)
    problems = _problems(holed, recipe)
    assert any("Euler residual" in p for p in problems)
    assert any("of the disk" in p for p in problems)


def test_duplicated_tile_fails_edge_sharing(patch, recipe):
    twice = arrangement.Patch.from_tiles(
        patch.tiles + (patch.tiles[_inner_tile(patch)],), r=patch.r,
        center=patch.center)
    problems = _problems(twice, recipe)
    assert any("border more than two tiles" in p for p in problems)


def test_foreign_tile_fails_congruence(patch, recipe):
    tiles = list(patch.tiles)
    tiles[0] = dataclasses.replace(tiles[0], polygon=tiles[0].polygon * 1.01)
    stretched = dataclasses.replace(patch, tiles=tuple(tiles))
    assert any("deviates from the pentagon" in p
               for p in _problems(stretched, recipe))


@pytest.fixture(scope="module")
def limit(recipe):
    return stats.limit_sweep(recipe, [5.0, 10.0])


def test_sound_limit_passes(limit):
    assert checks.check_limit(limit, stats.balance_residual(limit)) == []


def test_perturbed_valence_histogram_fails_balance(limit):
    v_j = dict(limit.v_j_limit)
    moved = 0.5 * v_j[3]
    v_j[3] -= moved
    v_j[8] = v_j.get(8, 0.0) + moved
    bent = dataclasses.replace(limit, v_j_limit=v_j)
    problems = checks.check_limit(bent, stats.balance_residual(bent))
    assert any("balance residual" in p for p in problems)


def test_misreported_balance_is_caught(limit):
    problems = checks.check_limit(limit, stats.balance_residual(limit) + 1e-6)
    assert any("!=" in p for p in problems)


def test_verify_checks(patch):
    report = verifier.verify_patch(patch)
    assert checks.check_honest_verify(report, patch) == []
    miscounted = dataclasses.replace(
        report, metrics={**report.metrics,
                         "sample_points": report.metrics["sample_points"] - 5})
    assert any("sample points" in p
               for p in checks.check_honest_verify(miscounted, patch))

    polys = [t.polygon for t in patch.tiles]
    drop = _inner_tile(patch)
    holed = arrangement.Patch.from_polygons(
        polys[:drop] + polys[drop + 1:], r=patch.r, center=patch.center)
    assert checks.check_dropped_tile_caught(verifier.verify_patch(holed)) == []
    assert checks.check_dropped_tile_caught(report) != []

    shifted = polys[drop] + np.array([0.1, 0.0])
    doubled = arrangement.Patch.from_polygons(
        polys + [shifted], r=patch.r, center=patch.center)
    assert checks.check_duplicate_caught(verifier.verify_patch(doubled)) == []
    assert checks.check_duplicate_caught(report) != []


def test_vacuous_pass_is_flagged(recipe, patch):
    tiny = tiling.generate_patch(recipe, 2.0)
    report = verifier.verify_patch(tiny)
    assert report.ok, "pentile now rejects the r = 2 disk; update the README"
    assert checks.check_not_vacuous(report, tiny) != []
    assert checks.check_not_vacuous(verifier.verify_patch(patch), patch) == []


def test_periodicity_check(recipe):
    report = verifier.check_periodicity(recipe)
    assert checks.check_periodicity_report(report, recipe) == []
    squeezed = dataclasses.replace(
        recipe, u=tuple(1.01 * x for x in recipe.u))
    assert checks.check_periodicity_report(
        verifier.check_periodicity(squeezed), squeezed) != []


def test_disk_overlap_area():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert checks.disk_overlap_area(square, (0.5, 0.5), 5.0) == pytest.approx(1.0)
    big = 10.0 * (square - 0.5)
    assert checks.disk_overlap_area(big, (0.0, 0.0), 2.0) == pytest.approx(
        4.0 * math.pi)
    # quarter disk: corner of the square at the centre
    assert checks.disk_overlap_area(big, (5.0, 5.0), 2.0) == pytest.approx(
        math.pi)
    assert checks.disk_overlap_area(square, (5.0, 5.0), 1.0) == 0.0


def test_cli_check():
    class Proc:
        returncode = 0
        stderr = ""

    reference = {"r": 20.0, "tiles": [{"polygon": [[0.1234567891, 2.0]]}]}
    assert checks.check_cli(
        Proc, '{"r": 20.0, "tiles": [{"polygon": [[0.123456789, 2.0]]}]}',
        reference) == []
    assert checks.check_cli(Proc, '{"r": NaN, "tiles": []}', reference) != []
    assert checks.check_cli(
        Proc, '{"r": 20.0, "tiles": [{"polygon": [[0.12345679, 2.0]]}]}',
        reference) != []
    Proc.returncode = 2
    assert checks.check_cli(Proc, "", reference) != []
