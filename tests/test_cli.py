"""End-to-end command-line runs, exit codes, and output formats."""
import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest

from pentile import cli, tiling, verifier
from pentile.catalog import representative
from pentile.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- catalog ----------------------------------------------------------------

def test_catalog_list_names_all_types(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    entries = json.loads(out)
    assert [e["id"] for e in entries] == list(range(1, 16))
    assert "A+B+C=360" in entries[0]["angle_equations"]


def test_catalog_show_type14_pins_the_angle(capsys):
    code, out, _ = run(capsys, "catalog", "show", "14")
    assert code == 0
    assert "69.32" in out
    record = json.loads(out)
    assert record["degrees_of_freedom"] == 0


def test_catalog_show_unknown_type(capsys):
    code, out, err = run(capsys, "catalog", "show", "99")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "UnknownType"


def test_catalog_show_without_id(capsys):
    code, _, err = run(capsys, "catalog", "show")
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


# --- theorem1 ---------------------------------------------------------------

def test_theorem1_house(capsys):
    code, out, _ = run(capsys, "theorem1",
                       "--pentagon", str(DATA / "house.json"))
    assert code == 0
    record = json.loads(out)
    assert record["holds"] is True
    assert set(record["satisfied"]) == {"E+A+B", "2B+A", "2E+A"}


def test_theorem1_regular_pentagon_fails(capsys, tmp_path):
    path = tmp_path / "regular.json"
    path.write_text(json.dumps(
        {"angles_deg": [108] * 5, "edges": [1] * 5}))
    code, out, _ = run(capsys, "theorem1", "--pentagon", str(path))
    assert code == 1
    record = json.loads(out)
    assert record["holds"] is False
    assert record["satisfied"] == []


# file contents that are no pentagon, recipe or patch document; None is a
# path that does not exist, and "" the directory the file would be in
NOT_A_DOCUMENT = {
    "not-json": "{oops",
    "not-utf-8": b"\xff\xfe{",
    "nested-too-deep": "[" * 100_000 + "]" * 100_000,
    "list": "[1, 2, 3]",
    "null": "null",
    "string": '"house"',
    "double-encoded-recipe": json.dumps(
        (DATA / "type5_recipe.json").read_text()),
    "missing": None,
    "directory": "",
}


@pytest.mark.parametrize("command, flag", [
    ("theorem1", "--pentagon"), ("verify", "--recipe"), ("verify", "--patch")])
@pytest.mark.parametrize("name", sorted(NOT_A_DOCUMENT))
def test_a_file_holding_no_document_is_a_parse_error(capsys, tmp_path,
                                                     command, flag, name):
    """The CLI reads every file the one way, and each document reader
    refuses anything but its own JSON object, a string of one included."""
    content = NOT_A_DOCUMENT[name]
    path = tmp_path / "input.json"
    if content == "":
        path = tmp_path
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    code, out, err = run(capsys, command, flag, str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


# --- tile / verify / stats --------------------------------------------------

def test_tile_then_stats_round_trip(capsys, tmp_path):
    patch_file = tmp_path / "patch.json"
    code, _, _ = run(capsys, "tile", "--type", "4", "--r", "6",
                     "--out", str(patch_file))
    assert code == 0
    code, out, _ = run(capsys, "stats", "--patch", str(patch_file))
    assert code == 0
    record = json.loads(out)
    assert record["euler_residual"] == 0
    assert record["mode"] == "full"
    assert record["v"] - record["e"] + record["t"] == 1


def test_tile_writes_svg(capsys, tmp_path):
    patch_file = tmp_path / "patch.json"
    svg_file = tmp_path / "patch.svg"
    code, _, _ = run(capsys, "tile", "--type", "5", "--r", "5",
                     "--out", str(patch_file), "--svg", str(svg_file))
    assert code == 0
    svg = svg_file.read_text()
    tiles = json.loads(patch_file.read_text())["tiles"]
    assert svg.count("<polygon") == len(tiles)


def test_verify_builtin_recipe(capsys):
    code, out, _ = run(capsys, "verify", "--type", "2")
    assert code == 0
    record = json.loads(out)
    assert record["pass"] is True
    assert record["violations"] == []
    assert "metrics" in record


@pytest.mark.parametrize("command", [["tile", "--r", "3"], ["verify"]])
def test_pentagon_equal_sides_only_to_classify_tolerance(capsys, tmp_path,
                                                         command):
    """Sides a and d one part in 1e8 apart: Type 2 to classify, but no
    recipe glues them. A RecipeInvalid, not a stray ValueError."""
    from test_tiling import type2_sides_a_and_d_one_part_in_1e8_apart

    pentagon_file = tmp_path / "pentagon.json"
    pentagon_file.write_text(json.dumps(
        type2_sides_a_and_d_one_part_in_1e8_apart().to_json_dict()))
    code, out, err = run(capsys, command[0], "--type", "2",
                         "--pentagon", str(pentagon_file), *command[1:])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "RecipeInvalid"


def test_verify_patch_with_radius(capsys):
    code, out, _ = run(capsys, "verify", "--type", "1",
                       "--pentagon", str(DATA / "house.json"), "--r", "8")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_recipe_file(capsys):
    code, out, _ = run(capsys, "verify",
                       "--recipe", str(DATA / "type5_recipe.json"))
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("field, value", [
    ("region", 5), ("lattice", [[1, 0], [0, "x"]]),
    ("lattice", [[1, 0], [0, None]])])
def test_verify_rejects_malformed_recipe_fields(capsys, tmp_path, field,
                                                value):
    document = json.loads((DATA / "type5_recipe.json").read_text())
    document[field] = value
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "verify", "--recipe", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


def test_verify_recipe_with_a_huge_lattice_fails_its_area(capsys, tmp_path):
    """One tile in a cell of 1e12: the area test fails, and nothing is
    glued or sampled; the report holds the two areas alone."""
    document = json.loads((DATA / "type5_recipe.json").read_text())
    document.update(region=document["region"][:1],
                    lattice=[[1e6, 0], [0, 1e6]])
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "verify", "--recipe", str(path))
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["pass"] is False
    assert sorted(report["metrics"]) == ["cell_area", "region_area"]
    assert report["violations"][0].endswith("; gluing not checked")


# edits of the Type 5 recipe file, and the error each must end in
MALFORMED_RECIPES = {
    "reflect-string": (lambda d: d["region"][1].update(reflect="false"),
                       "ParseError"),
    "lattice-1e308": (lambda d: d.update(
        lattice=[[1e308, 1e308], [1e308, -1e308]]), "ParseError"),
    "tx-1e300": (lambda d: d["region"][1].update(tx=1e300), "ParseError"),
    "lattice-int-1e400": (lambda d: d.update(lattice=[[10**400, 0], [0, 1]]),
                          "ParseError"),
    "tx-int-1e400": (lambda d: d["region"][1].update(tx=10**400),
                     "ParseError"),
    # so far out that the tile's area, and with it its centroid, is lost
    "one-tile-tx-1e50": (lambda d: d.update(
        region=[dict(d["region"][0], tx=1e50)]), "RecipeInvalid"),
    # JSON false is not the number 0
    "tx-ty-false": (lambda d: d["region"][0].update(tx=False, ty=False),
                    "ParseError"),
    "lattice-true": (lambda d: d.update(lattice=[[True, 0], [0, 1]]),
                     "ParseError"),
}


@pytest.mark.parametrize("command", [["verify"], ["tile", "--r", "3"]],
                         ids=" ".join)
@pytest.mark.parametrize("name", sorted(MALFORMED_RECIPES))
def test_malformed_recipe_exits_2_without_a_warning(capsys, tmp_path, name,
                                                     command):
    """Refused when loaded: any warning on the way is an error here."""
    edit, error = MALFORMED_RECIPES[name]
    document = json.loads((DATA / "type5_recipe.json").read_text())
    edit(document)
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(document))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *command, "--recipe", str(path))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == error


def test_a_region_tile_moved_three_cells_tiles_alike(capsys, tmp_path):
    """Region tile 1 of the Type 5 recipe file moved by 3·u names another
    translate of the same tile: the recipe verifies, and its r = 8 stats
    in both modes are the unmoved file's, byte for byte."""
    document = json.loads((DATA / "type5_recipe.json").read_text())
    (ux, uy), _ = document["lattice"]
    tile = document["region"][1]
    tile["tx"] += 3 * ux
    tile["ty"] += 3 * uy
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(document))
    code, _, err = run(capsys, "verify", "--recipe", str(path))
    assert (code, err) == (0, "")
    for mode in ("full", "interior"):
        unmoved, moved = (run(capsys, "stats", "--recipe", str(p), "--r",
                              "8", "--mode", mode)
                          for p in (DATA / "type5_recipe.json", path))
        assert unmoved[0] == 0
        assert moved == unmoved


@pytest.mark.parametrize("shear", [10**5, 10**7])
def test_a_basis_sheared_past_max_translates_is_refused(capsys, tmp_path,
                                                        shear):
    """The Type 5 recipe file on the basis (u, v + shear·u), the same
    lattice: the cell arrangement's lattice join would pair each region
    side with the corners of about shear cells, so verify refuses the
    recipe with a ParseError naming MAX_TRANSLATES, under 128 MiB traced,
    before its rows are made."""
    document = json.loads((DATA / "type5_recipe.json").read_text())
    (ux, uy), (vx, vy) = document["lattice"]
    document["lattice"][1] = [vx + shear * ux, vy + shear * uy]
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(document))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--recipe", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert "lattice join" in error["message"]
    assert "MAX_TRANSLATES" in error["message"]
    assert peak < 128 << 20, f"{peak / 2**20:.1f} MiB"


def turned_recipe_file(tmp_path) -> str:
    """The Type 4 recipe with region tile 1 turned 1 degree about its
    centroid, which does not tile, written at full precision."""
    recipe = tiling.builtin_recipe(4, representative(4).pentagon)
    region = list(recipe.region)
    region[1] = tiling.Isometry.rotation_about(
        math.radians(1.0), recipe.region_centroids[1]).compose(region[1])
    turned = dataclasses.replace(recipe, region=tuple(region))
    path = tmp_path / "turned.json"
    path.write_text(json.dumps(turned.to_json_dict()))
    return str(path)


# the periodicity check's violations for turned_recipe_file: the turned
# tile's steps find no partners, and its vertices no full turn
TURNED_VIOLATIONS = [
    "10 of 20 boundary steps glue to no reversed step or to several",
    "the angles at vertex orbit 5 miss 2pi by 4.712e+00, over 1.762e-08"]


@pytest.mark.parametrize("argv", ["tile --r 5", "stats --r 5",
                                  "sweep --radii 5,10", "render --r 5"])
def test_a_recipe_that_does_not_tile_generates_nothing(capsys, tmp_path,
                                                       argv):
    command, *flags = argv.split()
    code, out, err = run(capsys, command, "--recipe",
                         turned_recipe_file(tmp_path), *flags)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "RecipeInvalid"
    assert TURNED_VIOLATIONS[0] in error["message"]


def test_verify_reports_a_recipe_that_does_not_tile_without_a_patch(
        capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--recipe",
                         turned_recipe_file(tmp_path), "--r", "5")
    assert (code, err) == (1, "")
    assert json.loads(out)["violations"] == TURNED_VIOLATIONS


def far_tile_recipe_file(capsys, tmp_path) -> str:
    """The Type 1 recipe of `tile --type 1 --r 3` with region tile 1 moved
    to x = 1e99: its area no longer matches the cell's, and a lattice scan
    about it would not fit int64."""
    out = tmp_path / "tile.json"
    assert run(capsys, "tile", "--type", "1", "--r", "3", "--out",
               str(out))[0] == 0
    recipe = json.loads(out.read_text())["recipe"]
    recipe["region"][1]["tx"] = 1e99
    path = tmp_path / "far.json"
    path.write_text(json.dumps(recipe))
    return str(path)


@pytest.mark.parametrize("argv", ["tile --r 5", "stats --r 5",
                                  "sweep --radii 5,10"])
def test_a_recipe_is_checked_before_its_lattice_scan(capsys, tmp_path, argv):
    """The periodicity check, which refuses the far tile by area, runs
    before any candidates are scanned: RecipeInvalid naming that check,
    not the scan's ParseError."""
    path = far_tile_recipe_file(capsys, tmp_path)
    command, *flags = argv.split()
    code, out, err = run(capsys, command, "--recipe", path, *flags)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "RecipeInvalid"
    assert "!= lattice cell area 2.8660254" in error["message"]
    code, out, err = run(capsys, "verify", "--recipe", path)
    assert (code, err) == (1, "")
    [violation] = json.loads(out)["violations"]
    assert violation in error["message"]


def test_verify_reports_the_recipe_and_the_patch_metrics(capsys):
    """verify --type 4 --r 10 prints the periodicity certificate's metrics
    beside the overlap and coverage checks', none hiding another."""
    code, out, _ = run(capsys, "verify", "--type", "4", "--r", "10")
    assert code == 0
    assert sorted(json.loads(out)["metrics"]) == sorted([
        "region_area", "cell_area", "unpaired_steps", "max_angle_residual",
        "max_corner_spread", "max_seam_gap", "max_overlap_area",
        "max_overlap_fraction", "r_inner", "area_gap", "area_gap_fraction",
        "sample_points", "sample_misses"])


def test_verify_checks_periodicity_once(capsys):
    """The recipe keeps the report builtin_recipe made; verify reads it."""
    tiling.builtin_recipe.cache_clear()
    with mock.patch.object(verifier, "check_periodicity",
                           wraps=verifier.check_periodicity) as check:
        code, _, _ = run(capsys, "verify", "--type", "4", "--r", "6")
    assert code == 0
    assert check.call_count == 1


def test_stats_interior_mode(capsys):
    code, out, _ = run(capsys, "stats", "--type", "4", "--r", "7",
                       "--mode", "interior")
    assert code == 0
    record = json.loads(out)
    assert record["mode"] == "interior"
    assert record["t_h"] == {"5": record["t"]}
    assert "euler_residual" not in record


# --- sweep ------------------------------------------------------------------

def test_sweep_house_balance(capsys, tmp_path):
    csv_file = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--type", "1",
                       "--pentagon", str(DATA / "house.json"),
                       "--radii", "5,10,20", "--csv", str(csv_file))
    assert code == 0
    record = json.loads(out)
    assert record["balance_residual"] < 0.05
    assert record["average_valence"] == pytest.approx(3.0, abs=1e-6)
    assert record["average_adjacents"] == pytest.approx(6.0, abs=1e-6)
    lines = csv_file.read_text().strip().split("\n")
    assert lines[0].startswith("r,v,e,t,")
    assert len(lines) == 4


def test_sweep_rejects_unsorted_radii(capsys):
    code, _, err = run(capsys, "sweep", "--type", "4", "--radii", "10,5")
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("radii", ["nan,20", "10,inf", "-inf,20"])
def test_sweep_rejects_non_finite_radii(capsys, radii):
    code, out, err = run(capsys, "sweep", "--type", "4", f"--radii={radii}")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("radius", ["nan", "inf", "-inf"])
def test_tile_rejects_non_finite_radius(capsys, radius):
    code, out, err = run(capsys, "tile", "--type", "4", f"--r={radius}")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("argv", [
    *(f"{command} --type 4 --r {r}" for command in ("stats", "tile")
      for r in ("1e300", "1e17", "1e9", "3e5")),
    "sweep --type 4 --radii 1e5,1e6",
])
def test_huge_radii_are_refused_before_any_allocation(capsys, argv):
    """A lattice box past int64 or MAX_TRANSLATES is a ParseError raised
    before the box is allocated: no warning, and under 64 MiB traced."""
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv.split())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "ParseError"
    assert peak < 64 << 20


@pytest.mark.parametrize("argv", [
    "theorem1 --type 5 --tol-deg=nan",
])
def test_non_finite_or_non_positive_tolerances_rejected(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


# one valid patch document and, by name, the edits that break it
TRIANGLE_PATCH = {"r": 1.0, "center": [0.0, 0.0],
                  "tiles": [{"polygon": [[0, 0], [1, 0], [0, 1]]}]}
BAD_PATCH_EDITS = {
    "r-text": {"r": "abc"},
    "r-nan": {"r": math.nan},
    "centre-1d": {"center": [1.0]},
    "polygon-nan": {"tiles": [{"polygon": [[math.nan, 0], [1, 0], [0, 1]]}]},
    "polygon-2pt": {"tiles": [{"polygon": [[0, 0], [1, 0]]}]},
    "polygon-cw": {"tiles": [{"polygon": [[0, 0], [0, 1], [1, 0]]}]},
    "polygon-nonconvex": {"tiles": [{"polygon": [
        [0, 0], [2, 0], [2, 2], [1, 1], [0, 2]]}]},
    # a pentagram: every corner turns left, but it winds twice around
    "polygon-star": {"tiles": [{"polygon": [
        [0, 1], [-0.588, -0.809], [0.951, 0.309], [-0.951, 0.309],
        [0.588, -0.809]]}]},
    # finite, but squares and products of these overflow
    "polygon-huge": {"tiles": [{"polygon": [[0, 0], [1e160, 0], [0, 1e160]]}]},
    "centre-huge": {"center": [1e160, 0.0]},
    "r-huge": {"r": 1e160},
    # integer literals no float holds
    "polygon-int-1e400": {"tiles": [{"polygon": [[0, 0], [10**400, 0],
                                                 [0, 1]]}]},
    "r-int-1e400": {"r": 10**400},
    # JSON true and false are not the numbers 1 and 0
    "r-true": {"r": True},
    "polygon-false": {"r": 5, "tiles": [{"polygon": [[0, 0], [1, False],
                                                     [0, 1]]}]},
    "centre-false": {"center": [0, False]},
    # a tile's cell is two JSON integers, and its zone a string
    **{f"cell-{name}": {"tiles": [{"cell": cell, "polygon": [[0, 0], [1, 0],
                                                              [0, 1]]}]}
       for name, cell in [("text", "xyz"), ("short", [1]),
                          ("long", [1, 2, 3]), ("float", [0.5, 0]),
                          ("true", [True, 0]), ("int-1e400", [10**400, 0])]},
    "zone-number": {"tiles": [{"zone": 1, "polygon": [[0, 0], [1, 0],
                                                      [0, 1]]}]},
}


@pytest.mark.parametrize("argv", [
    "tile --type 4 --r 5 --patch x.json",
    # the merge distance and the area tolerance are not options
    "tile --type 4 --r 6 --snap-eps=0",
    "stats --type 4 --r 6 --snap-eps=0",
    "verify --type 4 --r 10 --area-tol=nan",
    "sweep --type 4 --radii 10,20 --snap-eps 1e-7",
    "verify --type 4 --r 10 --snap-eps 1e-7",
    "render --type 4 --r 6 --snap-eps 1e-7",
    "tile --type 4 --r abc",
    "stats --patch r-text", "verify --patch r-text", "render --patch r-text",
    "stats --patch r-nan", "render --patch r-nan",
    "verify --patch centre-1d", "render --patch centre-1d",
    "verify --patch polygon-nan", "verify --patch polygon-2pt",
    "stats --patch polygon-cw", "verify --patch polygon-cw",
    "render --patch polygon-cw",
    "stats --patch polygon-nonconvex", "verify --patch polygon-nonconvex",
    "render --patch polygon-nonconvex",
    "stats --patch polygon-star",
    "verify --patch polygon-huge", "stats --patch polygon-huge",
    "verify --patch centre-huge", "verify --patch r-huge",
    "verify --patch polygon-int-1e400", "verify --patch r-int-1e400",
    "stats --patch r-true", "stats --patch polygon-false",
    "verify --patch centre-false",
    *[f"{command} --patch cell-{name}" for command in ("stats", "render")
      for name in ("text", "short", "long", "float", "true", "int-1e400")],
    "stats --patch zone-number",
    "catalog list 99",
])
def test_bad_flags_and_patch_documents_are_parse_errors(capsys, tmp_path,
                                                        argv):
    argv = argv.split()
    if argv[-1] in BAD_PATCH_EDITS:
        path = tmp_path / "patch.json"
        path.write_text(json.dumps({**TRIANGLE_PATCH,
                                    **BAD_PATCH_EDITS[argv[-1]]}))
        argv[-1] = str(path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


def test_one_bad_tile_among_many_is_a_parse_error(capsys, tmp_path):
    """The check over all corners at once finds the one clockwise tile in
    the middle of the Type 4 r = 6 document, and names it."""
    path = tmp_path / "patch.json"
    assert main(["tile", "--type", "4", "--r", "6", "--out", str(path)]) == 0
    document = json.loads(path.read_text())
    tile = document["tiles"][len(document["tiles"]) // 2]
    assert tile["zone"] == "F1"
    tile["polygon"].reverse()
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "stats", "--patch", str(path))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].endswith(f"got {tile['polygon']}")


def test_huge_coordinates_leave_one_json_line_on_stderr(tmp_path):
    """Rejected before any numpy warning can reach stderr."""
    path = tmp_path / "patch.json"
    path.write_text(json.dumps({**TRIANGLE_PATCH,
                                **BAD_PATCH_EDITS["polygon-huge"]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pentile.cli", "verify", "--patch", str(path)],
        env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "ParseError"


UNCOVERABLE_PATCHES = {
    # two unit triangles: a grid over the inner disk needs about 1e201 points
    "tiny-tiles": {"r": 1e100, "tiles": [
        {"polygon": [[0, 0], [1, 0], [0, 1]]},
        {"polygon": [[1, 0], [1, 1], [0, 1]]}]},
    # the squares hold the disk's area, but the first tile sets the pitch,
    # and at its pitch the grid needs about 1e19 points
    "mixed-sizes": {"r": 1e6, "tiles": [
        {"polygon": [[0, 0], [1e-3, 0], [0, 1e-3]]},
        {"polygon": [[0, 0], [5e5, 0], [5e5, 5e5], [0, 5e5]]},
        {"polygon": [[-5e5, -5e5], [0, -5e5], [0, 0], [-5e5, 0]]}]},
}


@pytest.mark.parametrize("name", sorted(UNCOVERABLE_PATCHES))
def test_verify_fails_a_disk_the_tiles_cannot_cover(capsys, tmp_path, name):
    """The report fails on area without sampling a grid."""
    path = tmp_path / "patch.json"
    path.write_text(json.dumps({**TRIANGLE_PATCH,
                                **UNCOVERABLE_PATCHES[name]}))
    code, out, err = run(capsys, "verify", "--patch", str(path))
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["pass"] is False
    assert report["metrics"]["sample_points"] == 0
    assert report["metrics"]["sample_misses"] == 0
    assert any("grid sample skipped" in v for v in report["violations"])
    assert "NaN" not in out


def test_a_tile_too_small_to_weigh_an_overlap_against_is_degenerate(
        capsys, tmp_path):
    """Two squares overlap by area 2, and a third tile's area is 1e-320:
    the overlap over it is not finite, so that tile is refused by name."""
    tiny = [[-3e-160, -3e-160], [-2e-160, -3e-160], [-2e-160, -2e-160],
            [-3e-160, -2e-160]]
    path = tmp_path / "patch.json"
    path.write_text(json.dumps({"r": 5, "center": [0, 0], "tiles": [
        {"polygon": [[0, 0], [2, 0], [2, 2], [0, 2]]},
        {"polygon": [[1, 0], [3, 0], [3, 2], [1, 2]]},
        {"polygon": tiny}]}))
    code, out, err = run(capsys, "verify", "--patch", str(path))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "DegenerateTile"
    assert error["message"].startswith("tile 2 has area 1.000e-320")


def test_verify_widens_the_grid_of_a_sliver(capsys, tmp_path):
    """Three tiles of the sliver's unit area hold the disk's, but at the
    sliver's pitch the grid would need about 2e8 points, over 3 GB. The
    pitch widens to 1024 points a tile, and the area route fails."""
    path = tmp_path / "patch.json"
    path.write_text(json.dumps({**TRIANGLE_PATCH, "r": 2000 * math.sqrt(2) + 0.9,
                                "tiles": [
        {"polygon": [[0, 0], [1000, 0], [1000, 1e-3], [0, 1e-3]]},
        {"polygon": [[1e4, 1e4], [1.2e4, 1e4], [1.2e4, 1.2e4], [1e4, 1.2e4]]},
        {"polygon": [[-1.2e4, 1e4], [-1e4, 1e4], [-1e4, 1.2e4],
                     [-1.2e4, 1.2e4]]}]}))
    code, out, err = run(capsys, "verify", "--patch", str(path))
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert 0 < report["metrics"]["sample_points"] <= 3 * 1024
    assert report["metrics"]["area_gap_fraction"] > 0.5


def test_verify_passes_a_patch_of_long_thin_pentagons(capsys, tmp_path):
    """A Type 1 pentagon 60 units long and 1 wide (A+B+C = 360°): at a
    quarter of its inradius 1/2 the grid over the inner disk would hold
    more than 1024 points a tile, so the pitch widens and the patch
    passes. The tiles far from the inner disk are left out to keep the
    document small."""
    side = math.sqrt(0.5)
    pentagon = tmp_path / "long.json"
    pentagon.write_text(json.dumps({"angles_deg": [90, 135, 90, 135, 90],
                                    "edges": [60, side, side, 60, 1]}))
    diam, r_inner = math.hypot(60.5, 0.5), 30.0
    tiled = tmp_path / "tiled.json"
    code, _, _ = run(capsys, "tile", "--type", "1", "--pentagon",
                     str(pentagon), "--r", str(r_inner + diam),
                     "--out", str(tiled))
    assert code == 0
    document = json.loads(tiled.read_text())
    tiles = [t for t in document["tiles"]
             if all(min(x) <= r_inner and max(x) >= -r_inner
                    for x in zip(*t["polygon"]))]
    path = tmp_path / "patch.json"
    path.write_text(json.dumps({"r": document["r"],
                                "center": document["center"],
                                "tiles": tiles}))
    code, out, _ = run(capsys, "verify", "--patch", str(path))
    report = json.loads(out)
    assert (code, report["pass"]) == (0, True)
    assert report["metrics"]["r_inner"] == pytest.approx(r_inner)
    bound = 1024 * len(tiles)
    assert math.pi * (8 * r_inner) ** 2 > bound
    assert 0 < report["metrics"]["sample_points"] <= bound


def test_stray_exception_exits_2_with_json(capsys, monkeypatch):
    def fail(*_):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_emit", fail)
    code, out, err = run(capsys, "catalog", "list")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "RuntimeError", "message": "boom"}


@pytest.mark.parametrize("flag", ["--out", "--svg", "--csv"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_path_is_a_parse_error(capsys, tmp_path, flag,
                                                 where):
    path = (tmp_path / "nowhere" / "x" if where == "missing-directory"
            else tmp_path)
    argv = (["sweep", "--type", "4", "--radii", "5,8"] if flag == "--csv"
            else ["tile", "--type", "4", "--r", "3"])
    code, _, err = run(capsys, *argv, flag, str(path))
    assert code == 2
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].startswith(f"cannot write {path}: ")


@pytest.mark.parametrize("argv", [
    ["sweep", "--type", "4", "--radii", "5,8", "--csv"],
    ["tile", "--type", "4", "--r", "3", "--svg"]], ids=["csv", "svg"])
def test_unwritable_second_output_prints_nothing(capsys, tmp_path, argv):
    """The second output path is opened before the document goes to
    stdout: a missing directory there is exit 2 with nothing printed."""
    code, out, err = run(capsys, *argv, str(tmp_path / "nowhere" / "x"))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that is always full")
def test_full_device_is_a_parse_error(capsys):
    """A path that opens but fails when written is refused as well."""
    code, out, err = run(capsys, "tile", "--type", "4", "--r", "3",
                         "--out", "/dev/full")
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].startswith("cannot write /dev/full: ")


def test_non_finite_document_writes_nothing(capsys, tmp_path):
    """Every number is formatted before the file opens: a NaN neither
    creates nor truncates the --out file, nor prints to stdout."""
    document = {"tiles": [[0.5, 1.5]] * 3, "r": math.nan}
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("earlier run\n")
    for out_path in (str(kept), str(fresh), None):
        with pytest.raises(ValueError):
            cli._emit(document, out_path)
    assert kept.read_text() == "earlier run\n"
    assert not fresh.exists()
    assert capsys.readouterr().out == ""


INPUTS = {"--type", "--pentagon", "--recipe"}
OPTIONS = {
    "catalog": {"action", "id", "--out"},
    "theorem1": {"--type", "--pentagon", "--tol-deg", "--out"},
    "tile": INPUTS | {"--r", "--svg", "--out"},
    "verify": INPUTS | {"--patch", "--r", "--out"},
    "stats": INPUTS | {"--patch", "--r", "--mode", "--out"},
    "sweep": INPUTS | {"--radii", "--csv", "--out"},
    "render": INPUTS | {"--patch", "--r", "--out"},
}


def test_each_command_takes_exactly_its_options():
    """Every value a user can set, by command: a new option shows here."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    taken = {name: {s for a in sub._actions if a.dest != "help"
                    for s in a.option_strings or [a.dest]}
             for name, sub in commands.items()}
    assert taken == OPTIONS


@pytest.mark.parametrize("command", ["catalog", "theorem1", "tile", "verify",
                                     "stats", "sweep", "render"])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: pentile {command}")


def test_verify_fails_a_vacuous_coverage_pass(capsys):
    code, out, _ = run(capsys, "verify", "--type", "4", "--r", "2")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert any("vacuous" in v for v in report["violations"])


# --- render -----------------------------------------------------------------

def test_render_polygon_count_matches_tiles(capsys, tmp_path):
    patch_file = tmp_path / "patch.json"
    run(capsys, "tile", "--type", "2", "--r", "5", "--out", str(patch_file))
    code, out, _ = run(capsys, "render", "--patch", str(patch_file))
    assert code == 0
    tiles = json.loads(patch_file.read_text())["tiles"]
    assert out.count("<polygon") == len(tiles)
    assert out.startswith("<svg")


# --- determinism ------------------------------------------------------------

def test_identical_runs_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "tile", "--type", "4", "--r", "6")
    _, out2, _ = run(capsys, "tile", "--type", "4", "--r", "6")
    assert out1 == out2
    _, sweep1, _ = run(capsys, "sweep", "--type", "5", "--radii", "5,8")
    _, sweep2, _ = run(capsys, "sweep", "--type", "5", "--radii", "5,8")
    assert sweep1 == sweep2


def test_floats_are_trimmed_to_nine_significant_digits(capsys):
    _, out, _ = run(capsys, "tile", "--type", "4", "--r", "6")
    for token in out.replace(",", " ").replace("]", " ").split():
        try:
            float(token)
        except ValueError:
            continue
        mantissa = token.split("e")[0].lstrip("-").replace(".", "")
        assert len(mantissa.lstrip("0")) <= 9, token


def test_missing_inputs_reported_as_errors(capsys):
    code, _, err = run(capsys, "stats")
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"
    code, _, err = run(capsys, "tile", "--type", "1",
                       "--pentagon", str(DATA / "house.json"))
    assert code == 2
    assert "--r" in json.loads(err)["message"]


# sha256 of the stdout of fixed commands. A change meant to keep the output
# leaves these as they are; one that changes it on purpose records new ones.
GOLDEN_STDOUT = {
    "tile --type 1 --r 6":
        "c905bd5e6183700a4276978ffdc976cb6ae35f0d99d401cde8b514b10d2e0eef",
    "tile --type 2 --r 6":
        "fa313b6ae88f124886c19e40177eb5774143c48c99fa1c2d02e2c8dbcba801a2",
    "tile --type 4 --r 6":
        "e15f0cbd2a6ee253125e457675129a59185f341269a50fa1299524066c704aec",
    "tile --type 5 --r 6":
        "44e20c22de6b2b00b7ef27d56a3f81222cc33ea03119c16c680df476a5a302ca",
    "tile --type 1 --r 20":
        "26cc8dbfdfc541c9880e55d57d43d79cb1a639e2173c4f9ef8dda11334dba7b9",
    "tile --type 2 --r 20":
        "df26fdeac273379d728ad01b5817ccec62de6dea59d6e108df9be97ee968b105",
    "tile --type 4 --r 20":
        "108e83bed5300a5cb81d99deea336a086570779dfced1e14c40cfad398ca8301",
    "tile --type 5 --r 20":
        "bfec4883ce1f5d7bd5ae89d44616d34ce43c712e774525e6f8ee33db5d62b960",
    "verify --type 1":
        "6c95f1a3b900310943af472dcef68ba21c47cbb85ee25be74ce0941fcb5d9c3e",
    "verify --type 2":
        "ed923bb11f04e1f47cbda63ef51390cb2e9da176856776c2a5cceace651f6ed7",
    "verify --type 4":
        "23dce895fd3731716144f7aac60b8d56ec5231f693870af5dcef5da26a355bb8",
    "verify --type 5":
        "cf6274a0bd6248ee4be10e0c261bebcbcd6faf5b5407b87c88385bc572bae21a",
    "verify --recipe tests/data/type5_recipe.json":
        "cf6274a0bd6248ee4be10e0c261bebcbcd6faf5b5407b87c88385bc572bae21a",
    "verify --type 4 --r 10":
        "c1b03506f3102dab74163579df6d753ce19d7f64818dc2e96132964904a13d6c",
    "stats --type 4 --r 10 --mode interior":
        "6b9fe74f3cff11748eb441887ed425644546ed92f9fa102ae87a5f6d4582fa9d",
    "stats --type 4 --r 10":
        "a65510e9cd1e9a033012ab40011c0c845e5cd7bc8920a0d4dc19c5cc9ef06dad",
    "stats --type 5 --r 12 --mode interior":
        "595e40180d657e0bb098513fd2162606c0d772d1d318c159a7a95faa9761772a",
    "render --type 4 --r 6":
        "be7205b33436dda568616975e5c65b115a7db5b85e587a41ce0f729b30bd2ea6",
    "sweep --type 4 --radii 10,15,20":
        "2ff0a23f071bb9803357da0bb729bb540cbe77a9e580868e0d59cba605d83b14",
    "sweep --type 1 --radii 5,10,20":
        "3158bf0f2779bd68816f8847ebdac210373298524d526c50922a29914c99f61c",
    "sweep --type 2 --radii 5,10,20":
        "af6b22a1b9b56633bcc221491a22d9966ff3be323c00c0a4566b515019c19202",
    "sweep --type 5 --radii 5,10,20":
        "4932f39e6cf33539d019cb765eb6123fe62052fb794053b98fa4aa33aa8377e8",
    "catalog list":
        "8585a9e8f96ecc4feba11bb34e020dd0e7d4e6d88cf2c2ee7160f29e5a10de26",
    "theorem1 --type 1":
        "8b2b3f4872bb9577cc4eb4b703959f282adadaf91d378345e7a65fec5348b1d1",
    "theorem1 --type 2":
        "b620cf0e93d7a0df3870e3b33c6417e708d4284b0acbcfec595eb207bf95f5d2",
    "theorem1 --type 3":
        "c9b7ae0341aa664f07413be4e79c6065d63182babb309ed3b75c4857e976cb1a",
    "theorem1 --type 4":
        "636323e929fce1371a44b615f3fa7ddd737dea504ce4e4340a3c121ea9b0960f",
    "theorem1 --type 5":
        "a7196316ade957db23d939853741494d701a7ffc1c94800b6e28f0ba78d523ae",
    "theorem1 --type 6":
        "0832d75b32c803c55c211994d5767b70ccf500d31f7c6607d8d74b5b3d19f21b",
    "theorem1 --type 7":
        "650b2d8e4010bc503197dae116e86a34d8081c35f16a163f17d85ef46359aabb",
    "theorem1 --type 8":
        "887f9895d5d5e6226c88ddbcc581ea60a38d0c6e3e8f8199a1f3e0879a9b946f",
    "theorem1 --type 9":
        "b9a89c3ed00c24fe3101ce801a7ac6582cb32616eaf87ef2b60c56fcd3b62549",
    "theorem1 --type 10":
        "6b56251c3a662650342162b776fb4b6029f1bfb53a7e58e5d80d0a0c9e8224fc",
    "theorem1 --type 11":
        "f1632396845cfa3dd8c47c750f290a51c68a27213836526ac4eb8bbb306558fc",
    "theorem1 --type 12":
        "fdeb6732049317646919b55cee6e9cb59443cdde52d87a49cc06b5953217f4fd",
    "theorem1 --type 13":
        "2a20adf6cf478212e2677300858c7b926b50b0ea6bb853dbef5e2076382f7790",
    "theorem1 --type 14":
        "f1632396845cfa3dd8c47c750f290a51c68a27213836526ac4eb8bbb306558fc",
    "theorem1 --type 15":
        "7b1427146e4c385b9144eb0b2894af208c14783b62539ff2e7052df9a4799427",
    "catalog show 1":
        "a871529c51e731bec4904646eef32be4ba474b440608361e390da63bb7533974",
    "catalog show 2":
        "00fb649a919a3137cbf9807a933c0eb537ce04ce2f6f371a2fff41ffcef29c9f",
    "catalog show 3":
        "f8aa0b11dca33c10a81ed817800e2e01f96b0e40c10831ee6d85d3f3bbca52fe",
    "catalog show 4":
        "d641ec96b08f40b8f0d908dc5f9b3229cad01d98368547464ecd46f7209e6eac",
    "catalog show 5":
        "b953ba17776e08e0d9319e0081f3fc332972f58ddcd7cbead7046872c2b20928",
    "catalog show 6":
        "44a331a666e5703b17428e1039c426ff70e7b5468527f95478e260a21a136ef7",
    "catalog show 7":
        "b4a7bc4055bc93bc92627417445f215ef36332d9c647831f9b6b7eabefce66af",
    "catalog show 8":
        "3a659bcadd31cdc01e6e30efeeed62ee0cf1e19bffca34ef3cda13e835e90f2c",
    "catalog show 9":
        "4b051201b32e4f4a750cedff05afacb68a9f063ba09867f63f45553d073f0976",
    "catalog show 10":
        "8410228d3db6d780e36e8548f8cbc79358cdd7352c7d86d0ec2ec9d3f51782dc",
    "catalog show 11":
        "4684f73672ecb1ae8acfb7eab35888c8279df522529a59cdff8b4856172628fd",
    "catalog show 12":
        "0569f4af49a7f5028d38fd9e870ee9297510acfde95250a0ce70d3bef87706b2",
    "catalog show 13":
        "468ae9314509988d95eb43dbb005fc75aae22104bbc829db34a97c0b6243c45c",
    "catalog show 14":
        "6ed7011418d30c98e4b6be04e41ed49d75a65076279f534d5f48834d7c9dc88e",
    "catalog show 15":
        "4e78f2d91c0ca25193f66c516947bf49f11aa9767940b280862d846b6fdb872c",
}


@pytest.mark.parametrize("command", GOLDEN_STDOUT)
def test_stdout_matches_the_recorded_bytes(capsys, command):
    """A path in the command is taken from the repository root."""
    argv = [str(DATA.parent.parent / arg) if arg.startswith("tests/") else arg
            for arg in command.split()]
    code, out, _ = run(capsys, *argv)
    assert code == 0, command
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_STDOUT[command], f"stdout of {command!r} changed"


def test_every_command_runs_without_scipy(tmp_path):
    """pentile needs numpy alone: in a fresh interpreter where importing
    scipy fails, every command exits 0, snapped documents and recipe files
    included, and no scipy module is loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    patch = tmp_path / "patch.json"
    commands = [["tile", "--type", "4", "--r", "6", "--out", str(patch)]] + [
        [*argv, "--out", str(tmp_path / "out")] for argv in (
            ["stats", "--type", "4", "--r", "6"],
            ["stats", "--patch", str(patch)],
            ["verify", "--type", "4", "--r", "6"],
            ["verify", "--patch", str(patch)],
            ["verify", "--recipe", str(DATA / "type5_recipe.json")],
            ["render", "--patch", str(patch)],
            ["sweep", "--type", "4", "--radii", "5,8"],
            ["catalog", "list"],
            ["catalog", "show", "14"],
            ["theorem1", "--type", "5"])]
    script = ("import json, sys\n"
              "sys.modules['scipy'] = None\n"
              "from pentile.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0, argv\n"
              "assert not [m for m, module in sys.modules.items()\n"
              "            if m.split('.')[0] == 'scipy' and module is not None]\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_leave_numpy_ma_unimported(tmp_path):
    """numpy.ma costs about 10 ms to import, and a plain np.unique loads
    it: in a fresh interpreter, sweep, tile, verify and stats leave it
    unimported."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    patch = tmp_path / "patch.json"
    commands = [["tile", "--type", "4", "--r", "6", "--out", str(patch)]] + [
        [*argv, "--out", str(tmp_path / "out")] for argv in (
            ["sweep", "--type", "4", "--radii", "5,8"],
            ["verify", "--type", "4", "--r", "6"],
            ["verify", "--patch", str(patch)],
            ["verify", "--recipe", str(DATA / "type5_recipe.json")],
            ["stats", "--type", "4", "--r", "6"])]
    script = ("import json, sys\n"
              "from pentile.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0, argv\n"
              "    assert 'numpy.ma' not in sys.modules, argv\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
