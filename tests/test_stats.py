"""Patch counting, balance identities, and limit extrapolation."""
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import pentile
from pentile.arrangement import Patch
from pentile.errors import (
    DegenerateLimit,
    EmptyModel,
    EmptyPatch,
    ModeMismatch,
    ParseError,
)
from pentile.stats import (
    FULL,
    INTERIOR,
    PatchStats,
    average_adjacents,
    average_valence,
    balance_residual,
    compute_stats,
    euler_residual,
    limit_sweep,
    per_radius_balance_residuals,
    proof_model_average_valence,
    proposition1_check,
    synthetic_limit,
    write_sweep_csv,
)
from pentile.tiling import builtin_recipe, generate_patch

DATA = Path(__file__).parent / "data"


def house():
    return pentile.pentagon_from_json_dict(
        json.loads((DATA / "house.json").read_text()))


@pytest.fixture(scope="module")
def t1_recipe():
    return builtin_recipe(1, house())


# --- counting ---------------------------------------------------------------

def test_single_tile_counts():
    patch = Patch.from_polygons([house().vertices])
    st = compute_stats(patch, mode=FULL)
    assert (st.v, st.e, st.t) == (5, 5, 1)
    assert euler_residual(st) == 0


def test_two_tiles_sharing_a_side():
    p = house().vertices
    mirrored = (p * np.array([1.0, -1.0]))[::-1]
    st = compute_stats(Patch.from_polygons([p, mirrored]), mode=FULL)
    assert (st.v, st.e, st.t) == (8, 9, 2)
    assert euler_residual(st) == 0


def test_partition_identities(t1_recipe):
    patch = generate_patch(t1_recipe, 10.0)
    for mode in (FULL, INTERIOR):
        st = compute_stats(patch, mode=mode)
        assert sum(st.t_h.values()) == st.t
        assert sum(st.v_j.values()) == st.v


def test_euler_residual_full_mode_only(t1_recipe):
    patch = generate_patch(t1_recipe, 6.0)
    st = compute_stats(patch, mode=INTERIOR)
    with pytest.raises(ModeMismatch):
        euler_residual(st)


def test_euler_residual_detects_missing_vertex():
    patch = Patch.from_polygons([house().vertices])
    st = compute_stats(patch, mode=FULL)
    broken = dataclasses.replace(st, v=st.v - 1)
    assert euler_residual(broken) == -1


def test_unknown_mode_rejected():
    with pytest.raises(ModeMismatch):
        PatchStats(v=1, e=1, t=1, t_h={}, v_j={}, r=1.0, mode="sideways")


# --- averages ---------------------------------------------------------------

def test_average_valence_all_three():
    st = PatchStats(v=7, e=0, t=1, t_h={5: 1}, v_j={3: 7}, r=1.0, mode=FULL)
    assert average_valence(st) == 3.0


def test_average_valence_mixed():
    st = PatchStats(v=3, e=0, t=1, t_h={5: 1}, v_j={3: 2, 4: 1},
                    r=1.0, mode=FULL)
    assert average_valence(st) == pytest.approx(10.0 / 3.0)


def test_average_adjacents_trivial():
    st = PatchStats(v=1, e=0, t=4, t_h={5: 4}, v_j={3: 1}, r=1.0, mode=FULL)
    assert average_adjacents(st) == 5.0


def test_empty_patch_raises():
    st = PatchStats(v=0, e=0, t=0, t_h={}, v_j={}, r=1.0, mode=FULL)
    with pytest.raises(EmptyPatch):
        average_valence(st)
    with pytest.raises(EmptyPatch):
        average_adjacents(st)


def test_edge_to_edge_interior_tiles_have_five_adjacents():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    patch = generate_patch(recipe, 9.0)
    st = compute_stats(patch, mode=INTERIOR)
    assert set(st.t_h) == {5}


def test_house_tiling_interior_tiles_have_six_adjacents(t1_recipe):
    patch = generate_patch(t1_recipe, 10.0)
    st = compute_stats(patch, mode=INTERIOR)
    assert set(st.t_h) == {6}
    assert set(st.v_j) == {3}


# --- balance and bounds -----------------------------------------------------

def test_balance_residual_examples():
    limit = synthetic_limit({3: 2 / 3, 4: 1 / 3}, {5: 1.0})
    assert balance_residual(limit) == pytest.approx(0.0, abs=1e-12)
    limit = synthetic_limit({3: 1.0}, {6: 1.0})
    assert balance_residual(limit) == pytest.approx(0.0, abs=1e-12)
    limit = synthetic_limit({3: 1.0}, {5: 1.0})
    assert balance_residual(limit) == pytest.approx(1.0 / 30.0)


def test_balance_residual_requires_positive_averages():
    limit = synthetic_limit({}, {})
    with pytest.raises(DegenerateLimit):
        balance_residual(limit)


def test_proposition1_bounds():
    ok = proposition1_check(synthetic_limit({3: 1.0}, {6: 1.0}), slack=0.0)
    assert ok.ok
    upper = proposition1_check(
        synthetic_limit({3: 2 / 3, 4: 1 / 3}, {5: 1.0}), slack=1e-9)
    assert upper.ok
    bad = proposition1_check(
        synthetic_limit({3: 1 / 3, 4: 2 / 3}, {5: 1.0}), slack=0.1)
    assert not bad.ok
    assert bad.violations


def test_proof_model_average_valence():
    assert proof_model_average_valence(1, 2) == pytest.approx(11.0 / 3.0)
    assert proof_model_average_valence(1, 0) == 3.0
    assert proof_model_average_valence(0, 1) == 4.0
    with pytest.raises(EmptyModel):
        proof_model_average_valence(0, 0)


def test_proof_model_valence_violates_proposition1():
    avg = proof_model_average_valence(1, 2)
    assert avg > 10.0 / 3.0 + 0.1


# --- sweeps -----------------------------------------------------------------

def test_limit_sweep_rejects_bad_radii(t1_recipe):
    with pytest.raises(ParseError):
        limit_sweep(t1_recipe, [10.0, 5.0])
    with pytest.raises(ParseError):
        limit_sweep(t1_recipe, [])
    with pytest.raises(ParseError):
        limit_sweep(t1_recipe, [0.5, 10.0])


@pytest.mark.parametrize("radii", [[math.nan, 20.0], [10.0, math.inf],
                                   [-math.inf, 20.0]])
def test_limit_sweep_rejects_non_finite_radii(t1_recipe, radii):
    with pytest.raises(ParseError, match="finite"):
        limit_sweep(t1_recipe, radii)


def test_house_sweep_approaches_three_and_six(t1_recipe):
    limit = limit_sweep(t1_recipe, [5.0, 10.0, 20.0])
    assert limit.average_valence() == pytest.approx(3.0, abs=1e-6)
    assert limit.average_adjacents() == pytest.approx(6.0, abs=1e-6)
    assert balance_residual(limit) < 0.05
    assert sum(limit.w_j.values()) == pytest.approx(1.0, abs=1e-9)


def test_type4_sweep_approaches_ten_thirds_and_five():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    limit = limit_sweep(recipe, [5.0, 10.0, 20.0])
    assert limit.average_adjacents() == pytest.approx(5.0, abs=1e-6)
    assert limit.average_valence() == pytest.approx(10.0 / 3.0, abs=0.05)
    assert proposition1_check(limit, slack=0.1).ok


def test_sweep_ratios_stabilize(t1_recipe):
    limit = limit_sweep(t1_recipe, [5.0, 10.0, 20.0])
    dv = [abs(b - a) for a, b in zip(limit.v_per_t, limit.v_per_t[1:])]
    de = [abs(b - a) for a, b in zip(limit.e_per_t, limit.e_per_t[1:])]
    assert dv[-1] < dv[0]
    assert de[-1] < de[0]
    for d in limit.t_h_per_t:
        assert sum(d.values()) == pytest.approx(1.0, abs=1e-9)


def test_per_radius_residuals_reported(t1_recipe):
    limit = limit_sweep(t1_recipe, [5.0, 10.0])
    residuals = per_radius_balance_residuals(limit)
    assert len(residuals) == 2
    assert all(x >= 0 for x in residuals)


def test_sweep_csv_layout(t1_recipe):
    limit = limit_sweep(t1_recipe, [5.0, 10.0])
    buffer = io.StringIO()
    write_sweep_csv(limit, buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[:9] == ["r", "v", "e", "t", "v_per_t", "e_per_t",
                          "avg_valence", "avg_adjacents", "balance_residual"]
    assert all(col.startswith(("t_", "v_")) for col in header[9:])
    first = lines[1].split(",")
    assert float(first[0]) == 5.0
    assert len(first) == len(header)


def test_synthetic_limit_average():
    limit = synthetic_limit({3: 0.5, 4: 0.5}, {5: 1.0})
    assert limit.average_valence() == pytest.approx(3.5)
    assert limit.average_adjacents() == pytest.approx(5.0)
