"""Type catalog tests: constraint transcription, solving, classification.

Anchor values checked against closed forms computed independently in the
tests: the Type 14 angle C = arccos((3*sqrt(57)-17)/16) and the Type 15
edge ratio (sqrt(6)+sqrt(2))/2.
"""
import hashlib
import math
import random

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from pentile import (
    InfeasibleParams,
    NonConvergence,
    ParseError,
    PentileError,
    UnknownType,
    classify,
    get_type_spec,
    has_theorem1_property,
    make_pentagon,
    representative,
    satisfied_relations,
    solve_edges,
    solve_instance,
)
from pentile import catalog
from pentile.catalog import TYPE_IDS, TypeSpec
from pentile.pentagon import CORNERS, FIT_TOL, LinearEquation

DEG = math.pi / 180.0

HOUSE = solve_edges([a * DEG for a in (60, 150, 90, 90, 150)],
                    {"a": 1.0, "b": 1.0, "c": 1.0})


class TestEquationParsing:
    def test_angle_equation(self):
        eq = LinearEquation.parse("2B + C = 360")
        assert eq.coeffs[:5] == (0, 2, 1, 0, 0)
        assert eq.constant == pytest.approx(2 * math.pi)
        assert eq.is_angle_equation

    def test_subtraction_and_edges(self):
        eq = LinearEquation.parse("d = 2a + c")
        assert eq.coeffs[5:] == (-2, 0, -1, 1, 0)
        assert eq.constant == 0.0
        assert not eq.is_angle_equation

    def test_mixed_rejected(self):
        with pytest.raises(ParseError):
            LinearEquation.parse("A = a")

    def test_malformed_rejected(self):
        for bad in ("A + B", "A = = 90", "2 + 2 = 4", "A % B = 90"):
            with pytest.raises(ParseError):
                LinearEquation.parse(bad)


class TestCatalogData:
    def test_fifteen_types(self):
        assert TYPE_IDS == tuple(range(1, 16))
        for tid in TYPE_IDS:
            assert get_type_spec(tid).id == tid

    def test_unknown_ids(self):
        for bad in (0, 16, -3, "x"):
            with pytest.raises(UnknownType):
                get_type_spec(bad)

    def test_dof_table(self):
        dofs = [get_type_spec(tid).dof for tid in TYPE_IDS]
        assert dofs == [5, 4, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0]

    def test_type1_condition_is_consecutive_sum(self):
        spec = get_type_spec(1)
        assert [eq.text for eq in spec.angle_eqs] == ["A + B + C = 360"]
        assert spec.edge_classes == () and spec.edge_eqs == ()

    def test_angle_systems_admit_convex_solutions(self):
        # combined linear system of each Type is consistent with the 540 sum
        for tid in TYPE_IDS:
            p = representative(tid).pentagon
            assert all(0 < a < math.pi for a in p.angles)
            assert sum(p.angles) == pytest.approx(3 * math.pi, abs=1e-9)


class TestRepresentatives:
    def test_constraints_hold_to_1e9(self):
        for tid in TYPE_IDS:
            rep = representative(tid)
            assert rep.type_id == tid
            spec = get_type_spec(tid)
            resid = spec.residuals(rep.pentagon)
            assert np.max(np.abs(resid)) < 1e-9, f"Type {tid}: {resid}"
            assert rep.pentagon.mean_edge() == pytest.approx(1.0, abs=1e-9)

    def test_every_type_has_theorem1_property(self):
        for tid in TYPE_IDS:
            assert has_theorem1_property(representative(tid).pentagon), tid

    def test_classify_round_trip(self):
        for tid in TYPE_IDS:
            assert tid in classify(representative(tid).pentagon), tid

    def test_cached(self):
        assert representative(9) is representative(9)

    def test_type14_angle_c(self):
        exact = math.acos((3 * math.sqrt(57) - 17) / 16)
        p = representative(14).pentagon
        assert abs(p.angles[2] - exact) < 1e-9
        assert math.degrees(exact) == pytest.approx(69.32, abs=0.005)

    def test_type15_exact_shape(self):
        p = representative(15).pentagon
        npt.assert_allclose(p.angles_deg, (150, 60, 135, 105, 90), atol=1e-9)
        a, b, c, d, e = p.edges
        assert a == pytest.approx(2 * b, abs=1e-9)
        assert b == pytest.approx(d, abs=1e-9) and b == pytest.approx(e, abs=1e-9)
        assert c / b == pytest.approx((math.sqrt(6) + math.sqrt(2)) / 2, abs=1e-9)

    def test_notes_mention_parameters(self):
        assert "B=110" in representative(13).note
        assert "scale" in representative(15).note


class TestSolveInstance:
    def test_type1_house_parameters(self):
        spec = get_type_spec(1)
        p = solve_instance(spec, {"A": 150 * DEG, "B": 60 * DEG,
                                  "D": 90 * DEG, "a": 1.0, "b": 1.0})
        npt.assert_allclose(p.angles_deg, (150, 60, 150, 90, 90), atol=1e-9)
        npt.assert_allclose(p.edges, np.ones(5), atol=1e-9)
        # same shape as the house pentagon, relabeled
        assert sorted(np.round(p.angles_deg, 6)) == sorted(np.round(HOUSE.angles_deg, 6))

    def test_param_count_enforced(self):
        spec = get_type_spec(4)
        with pytest.raises(ParseError):
            solve_instance(spec, {"B": 1.8})
        with pytest.raises(ParseError):
            solve_instance(spec, {"B": 1.8, "D": 2.0, "a": 1.0})

    def test_unknown_param_name(self):
        with pytest.raises(ParseError):
            solve_instance(get_type_spec(3), {"F": 1.0})

    def test_reflex_pin_infeasible(self):
        spec = get_type_spec(1)
        params = {"A": 300 * DEG, "B": 60 * DEG, "D": 90 * DEG,
                  "a": 1.0, "b": 1.0}
        with pytest.raises(InfeasibleParams):
            solve_instance(spec, params)

    def test_conflicting_pin_does_not_converge(self):
        # B pinned outside the convex window of Type 9
        from pentile.errors import PentileError
        with pytest.raises(PentileError):
            solve_instance(get_type_spec(9), {"B": 150 * DEG})

    def test_row_order_invariance(self):
        spec = get_type_spec(11)
        shuffled = TypeSpec(
            id=spec.id,
            angle_eqs=tuple(reversed(spec.angle_eqs)),
            edge_classes=spec.edge_classes,
            edge_eqs=spec.edge_eqs,
            dof=spec.dof,
            default_params=spec.default_params,
        )
        a = solve_instance(spec, dict(spec.default_params))
        b = solve_instance(shuffled, dict(spec.default_params))
        npt.assert_allclose(a.angles, b.angles, atol=1e-9)
        npt.assert_allclose(a.edges, b.edges, atol=1e-9)

    def test_free_edge_pin_respected(self):
        p = solve_instance(get_type_spec(2),
                           {"A": 70 * DEG, "B": 120 * DEG, "C": 110 * DEG,
                            "b": 1.1})
        assert p.edges[1] == pytest.approx(1.1, abs=1e-9)
        assert p.edges[0] == pytest.approx(p.edges[3], abs=1e-9)


class TestClassify:
    def test_house_is_type1(self):
        assert 1 in classify(HOUSE)

    def test_regular_pentagon_matches_nothing(self):
        p = solve_edges([108 * DEG] * 5, {"a": 1, "b": 1, "c": 1})
        assert classify(p) == []

    def test_relabeling_invariant(self):
        rng = random.Random(4)
        for tid in TYPE_IDS:
            p = representative(tid).pentagon
            q = p.relabeled(rotation=rng.randrange(5), reflect=rng.random() < 0.5)
            assert tid in classify(q), tid

    def test_overlapping_membership(self):
        # a Type 1 instance built to satisfy B + D = 180 (with the matching
        # edge pair equal) belongs to Type 2 as well, under relabeling
        spec = get_type_spec(1)
        p = solve_instance(spec, {"A": 100 * DEG, "B": 120 * DEG,
                                  "D": 60 * DEG, "a": 1.0, "c": 1.0})
        hits = classify(p)
        assert 1 in hits and 2 in hits

    def test_tolerance_is_respected(self):
        p = representative(14).pentagon
        nudged = make_pentagon(
            (p.angles[0] + 3e-5, p.angles[1] - 3e-5, *p.angles[2:]),
            solve_edges((p.angles[0] + 3e-5, p.angles[1] - 3e-5, *p.angles[2:]),
                        {"a": p.edges[0], "b": p.edges[1], "c": p.edges[2]}).edges)
        assert 14 not in classify(nudged, tol=1e-7)
        assert 14 in classify(nudged, tol=1e-3)


def test_angle_kernel_is_scipy_null_space(monkeypatch):
    """Every Type's angle rows, at its default parameters and jittered ones:
    the numpy kernel is scipy.linalg.null_space's, bit for bit."""
    kernel, seen = catalog._kernel, []
    monkeypatch.setattr(catalog, "_kernel",
                        lambda matrix: seen.append(matrix) or kernel(matrix))
    rng = random.Random(15)
    for tid in TYPE_IDS:
        spec = get_type_spec(tid)
        solve_instance(spec, dict(spec.default_params))
        for _ in range(4):
            solve_instance(spec, {k: v * rng.uniform(0.97, 1.03)
                                  for k, v in spec.default_params.items()})
    assert len(seen) == 5 * len(TYPE_IDS)
    for matrix in seen:
        ours, theirs = kernel(matrix), null_space(matrix)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


# --- the stacked constraint table --------------------------------------------

def row_residual(eq, x):
    """One row's residual as a scalar dot product: the reference the table's
    batched residuals are held to bit for bit."""
    return float(np.dot(eq.coeffs, x) - eq.constant)


def scalar_satisfied(spec, pentagon, tol):
    """satisfied_by one row at a time: each angle row to tol, each edge row
    to tol times the mean edge."""
    x = np.concatenate([pentagon.angles, pentagon.edges])
    scale = pentagon.mean_edge()
    return not any(
        abs(row_residual(eq, x)) > (tol if eq.is_angle_equation else tol * scale)
        for eq in spec.constraint_rows)


def scalar_classify(pentagon, tol=FIT_TOL):
    """classify as a loop over the Types and the ten relabeled Pentagons."""
    labelings = pentagon.labelings()
    return [tid for tid in TYPE_IDS
            if any(scalar_satisfied(get_type_spec(tid), q, tol)
                   for q in labelings)]


def assert_table_is_the_scalar_rows(pentagon):
    """Every Type's residuals under every labeling bit for bit, and classify
    and satisfied_by as the row loops give them, at three tolerances."""
    table = catalog._catalog_table()
    values = np.array([np.concatenate([q.angles, q.edges])
                       for q in pentagon.labelings()])
    stacked = table.residuals(values)
    for k, q in enumerate(pentagon.labelings()):
        x = values[k]
        for tid in TYPE_IDS:
            spec = get_type_spec(tid)
            scalar = np.array([row_residual(eq, x)
                               for eq in spec.constraint_rows])
            assert stacked[k, table.groups == tid].tobytes() == scalar.tobytes()
            assert spec.residuals(q).tobytes() == scalar.tobytes()
            assert spec.satisfied_by(q) == scalar_satisfied(spec, q,
                                                            FIT_TOL)
    for tol in (FIT_TOL, 1e-9, 1e-3):
        assert classify(pentagon, tol) == scalar_classify(pentagon, tol)


@st.composite
def drawn_instances(draw, degrees=8.0, fraction=0.1):
    """A Type's instance with free parameters within degrees and fraction of
    its defaults, as the benchmark's family sweep draws them, relabeled."""
    spec = get_type_spec(draw(st.sampled_from(TYPE_IDS)))
    params = {}
    for name, value in sorted(spec.default_params.items()):
        x = draw(st.floats(-1.0, 1.0))
        params[name] = (value + math.radians(degrees * x) if name in CORNERS
                        else value * (1.0 + fraction * x))
    try:
        pentagon = solve_instance(spec, params)
    except (InfeasibleParams, NonConvergence):
        reject()
    return pentagon.relabeled(rotation=draw(st.integers(0, 4)),
                              reflect=draw(st.booleans()))


def test_table_is_the_scalar_rows_on_the_representatives():
    for tid in TYPE_IDS:
        assert_table_is_the_scalar_rows(representative(tid).pentagon)


@settings(max_examples=60, deadline=None)
@given(drawn_instances())
def test_table_is_the_scalar_rows_on_drawn_instances(pentagon):
    assert_table_is_the_scalar_rows(pentagon)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TYPE_IDS), st.floats(-3e-6, 3e-6),
       st.floats(-3e-6, 3e-6), st.floats(0.01, 100.0))
def test_classify_is_the_scalar_loop_near_the_tolerance(tid, turn, stretch,
                                                        size):
    """A representative with two angles moved by about FIT_TOL and one
    edge stretched by about as much, then scaled: residuals on both sides
    of the bound, which grows with the edges for edge rows."""
    p = representative(tid).pentagon
    angles = (p.angles[0] + turn, p.angles[1] - turn, *p.angles[2:])
    edges = [size * e for e in p.edges]
    try:
        nudged = solve_edges(angles, {"a": edges[0] * (1.0 + stretch),
                                      "b": edges[1], "c": edges[2]})
    except PentileError:
        reject()
    assert classify(nudged) == scalar_classify(nudged)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
def test_classify_and_satisfied_by_refuse_a_bad_tolerance(tol):
    p = representative(4).pentagon
    with pytest.raises(ParseError):
        classify(p, tol=tol)
    with pytest.raises(ParseError):
        get_type_spec(4).satisfied_by(p, tol)


# sha256 of the repr((angles, edges)) of each solved instance, or of the
# error's class name, on a seeded draw of twelve parameter sets per Type
# within 8 degrees and 10 % of its defaults. A change meant to keep the
# solver's output leaves these as they are.
GOLDEN_SOLVES = {
    1: "24e77b1cdf3410809ece07b02957ccfa3dc72cec9135a19e1ff9d207ed1b3196",
    2: "76b1200205ef928b94e12a962691db1d6de399f6bbbb224c946d47685a26960c",
    3: "65a2f2c7fe576a800beeecaa2b707e04d3103ad9c5ac196d5634e920e1344b56",
    4: "c137cf12cc4bbfeb6d98636dbc5908ef5999a4468e77739520ff6a2053d687a5",
    5: "a1ec24353f6202138297458e4ce5b5f1bd801bcf9e29476a435d6ce134067dc0",
    6: "8917bd46ed5db8520d987be046c32a03e5e9e47025acaeac2ab246c5c559bff1",
    7: "613a2e42f5ca27d4163c21e8b74e74ac726f7c65e80c1f6035ce1e439cb843a3",
    8: "6d6b6be37a5163429b36f09394d17d7297fdcd49c071c343a770098b235316a8",
    9: "2bc96a1d6149b09cf10b6993fec4bb01ce6f335a26012820526a614d719bd5aa",
    10: "a2a0c6b3f6f6d2fd07c0d63b568e979e4d6ab0677abc7e5d565433141e912d1c",
    11: "3111723b572b81c58406234a204f7186cdd2d6672c981373e6a59ccc172cfcf2",
    12: "a3638de7bb0893597ee15d1e7b21fff761be6d0f36a09e89eda9695ab6ee1df9",
    13: "504ffb72186ee5d9b89034e5273f7c9ebc9c9d6809ab34e7264a09e79d38b9c7",
    14: "b0a9555864b4cb11e177a724c89d60da479b9ad282dc122bb735053a87864905",
    15: "49d97cd8cae213cbcc388dd1c95dca0c75e4bfa1c4304cc3328e38cb60f028e8",
}


@pytest.mark.parametrize("tid", TYPE_IDS)
def test_solved_instances_match_the_recorded_bytes(tid):
    spec = get_type_spec(tid)
    rng = random.Random(tid)
    out = []
    for _ in range(12):
        params = {}
        for name, value in sorted(spec.default_params.items()):
            x = rng.uniform(-1.0, 1.0)
            params[name] = (value + math.radians(8.0 * x) if name in CORNERS
                            else value * (1.0 + 0.1 * x))
        try:
            p = solve_instance(spec, params)
        except PentileError as exc:
            out.append(type(exc).__name__)
        else:
            out.append(repr((p.angles, p.edges)))
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == GOLDEN_SOLVES[tid], f"Type {tid} solves changed"


@pytest.mark.parametrize("tid", [1, 4, 5])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_free_parameter_is_a_parse_error(capfd, tid, bad):
    """Each free parameter in turn set to NaN or an infinity: ParseError
    before any range test or solve, and nothing written to stderr."""
    spec = get_type_spec(tid)
    for name in spec.default_params:
        with pytest.raises(ParseError):
            solve_instance(spec, {**spec.default_params, name: bad})
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("tid", [1, 4, 5])
@pytest.mark.parametrize("bad", ["x", "0.9", None, True, False, np.True_,
                                 [1.0], 10 ** 400])
def test_non_number_free_parameter_is_a_parse_error(tid, bad):
    """Each free parameter in turn set to a string, a numeric one too,
    null, a boolean, numpy's included, a list or an int past float's range:
    ParseError, and neither a string nor a boolean is read as a number."""
    spec = get_type_spec(tid)
    for name in spec.default_params:
        with pytest.raises(ParseError):
            solve_instance(spec, {**spec.default_params, name: bad})
