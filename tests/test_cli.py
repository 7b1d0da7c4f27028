"""End-to-end command-line runs, exit codes, and output formats."""
import json
from pathlib import Path

import pytest

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


def test_theorem1_bad_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "theorem1", "--pentagon", str(path))
    assert code == 2
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
