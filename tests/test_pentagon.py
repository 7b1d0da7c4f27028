"""Pentagon construction and three-angle relation tests.

The relation checks are validated against an oracle that enumerates all
multisets of three corners directly, independent of the library's own
relation enumeration.
"""
import itertools
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pentile
from pentile import (
    AngleSumViolation,
    ClosureViolation,
    NegativeLength,
    NonConvexAngles,
    RELATION_NAMES,
    ParseError,
    SingularClosure,
    has_theorem1_property,
    make_pentagon,
    pentagon_from_json_dict,
    satisfied_relations,
    solve_edges,
)
from pentile.geometry import interior_angles, polygon_area, polygon_edge_lengths
from pentile.jsontext import dumps
from pentile.pentagon import _relation_table

DEG = math.pi / 180.0


def pent(angles_deg, edges=(1, 1, 1, 1, 1)):
    return make_pentagon([a * DEG for a in angles_deg], edges)


def closed(angles_deg):
    """Pentagon with the given angles, first three edges unit length."""
    return solve_edges([a * DEG for a in angles_deg],
                       {"a": 1.0, "b": 1.0, "c": 1.0})


HOUSE = pent((60, 150, 90, 90, 150))
REGULAR = pent((108,) * 5)


def multiset(name):
    """A relation's corner multiplicities, read off its name ("2B+A" is
    (1, 2, 0, 0, 0)) without library code."""
    counts = [0] * 5
    for term in name.split("+"):
        counts["ABCDE".index(term[-1])] += int(term[:-1] or 1)
    return tuple(counts)


def oracle_satisfied(angles_deg, tol_deg=1e-4):
    """All corner multisets of size 3 whose angle sum is a full turn."""
    hits = set()
    for combo in itertools.combinations_with_replacement(range(5), 3):
        if abs(sum(angles_deg[i] for i in combo) - 360.0) <= tol_deg:
            counts = tuple(combo.count(i) for i in range(5))
            hits.add(counts)
    return hits


class TestConstruction:
    def test_house_vertices_close_and_convex(self):
        v = HOUSE.vertices
        npt.assert_allclose(polygon_edge_lengths(v), HOUSE.edges, atol=1e-12)
        assert polygon_area(v) > 0
        d = np.roll(v, -1, axis=0) - v
        cross = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
        assert np.all(cross > 0)

    def test_angles_rederived_from_vertices(self):
        for p in (HOUSE, REGULAR, closed((120, 120, 120, 90, 90))):
            npt.assert_allclose(interior_angles(p.vertices), p.angles,
                                atol=1e-7)

    def test_angle_sum_violation(self):
        with pytest.raises(AngleSumViolation):
            pent((60, 150, 90, 90, 151))

    def test_straight_corner_rejected(self):
        with pytest.raises(NonConvexAngles):
            pent((90, 90, 90, 90, 180))

    def test_negative_edge_rejected(self):
        with pytest.raises(NegativeLength):
            pent((108,) * 5, (1, 1, 1, 1, -1))

    def test_open_loop_rejected(self):
        with pytest.raises(ClosureViolation):
            pent((60, 150, 90, 90, 150), (1, 1, 1, 1, 2))

    def test_diameter_is_the_widest_corner_pair_measured_once(self):
        """The pair-by-pair norm maximum, bit for bit, over every
        relabeling, kept on the pentagon after the first read."""
        for p in (HOUSE, REGULAR, closed((120, 120, 120, 90, 90))):
            for q in [p.relabeled(k % 5, k >= 5) for k in range(10)]:
                vv = q.vertices
                widest = max(float(np.linalg.norm(vv[i] - vv[j]))
                             for i in range(5) for j in range(5))
                assert "diameter" not in vars(q)
                assert q.diameter == widest
                assert vars(q)["diameter"] == widest

    def test_relabel_round_trip(self):
        q = HOUSE.relabeled(rotation=2)
        assert q.angles[0] == HOUSE.angles[2]
        r = q.relabeled(rotation=3)
        npt.assert_allclose(r.angles, HOUSE.angles)
        m = HOUSE.relabeled(reflect=True)
        assert m.angles[0] == HOUSE.angles[0]
        assert m.angles[1] == HOUSE.angles[4]
        npt.assert_allclose(sorted(m.edges), sorted(HOUSE.edges))


class TestSolveEdges:
    def test_house_completion(self):
        p = solve_edges([a * DEG for a in (60, 150, 90, 90, 150)],
                        {"a": 1.0, "b": 1.0, "c": 1.0})
        npt.assert_allclose(p.edges, np.ones(5), atol=1e-9)

    def test_fixed_edges_exact(self):
        p = solve_edges([a * DEG for a in (100, 110, 120, 100, 110)],
                        {"a": 1.0, "c": 0.7, "d": 1.3})
        assert p.edges[0] == 1.0 and p.edges[2] == 0.7 and p.edges[3] == 1.3

    def test_parallel_free_edges_singular(self):
        # house headings put edges b and d at opposite bearings
        with pytest.raises(SingularClosure):
            solve_edges([a * DEG for a in (60, 150, 90, 90, 150)],
                        {"a": 1.0, "c": 1.0, "e": 1.0})

    def test_infeasible_lengths(self):
        with pytest.raises(NegativeLength):
            solve_edges([a * DEG for a in (60, 150, 90, 90, 150)],
                        {"a": 0.1, "b": 0.1, "c": 5.0})

    def test_wrong_fixed_count(self):
        with pytest.raises(ParseError):
            solve_edges([a * DEG for a in (108,) * 5], {"a": 1.0, "b": 1.0})


class TestRelations:
    def test_exactly_35_in_canonical_groups(self):
        names = list(RELATION_NAMES)
        assert len(names) == 35
        assert len(set(names)) == 35
        assert names[:10] == ["A+B+C", "B+C+D", "C+D+E", "D+E+A", "E+A+B",
                              "A+B+D", "B+C+E", "C+D+A", "D+E+B", "E+A+C"]
        assert names[10] == "2A+B" and names[29] == "2E+D"
        assert names[30:] == ["3A", "3B", "3C", "3D", "3E"]
        for name in names:
            assert sum(multiset(name)) == 3

    def test_table_rows_are_the_named_multisets(self):
        """Row k of the relation table is relation k: its name's corner
        multiplicities, no edge term, a full turn, an angle row and a
        group of its own."""
        table = _relation_table()
        assert [tuple(row) for row in table.coeffs[:, :5]] == [
            multiset(name) for name in RELATION_NAMES]
        assert not table.coeffs[:, 5:].any()
        assert (table.constants == 2 * math.pi).all()
        assert table.angle_rows.all()
        assert table.ids == tuple(range(35))
        assert table.groups.tolist() == list(range(35))

    def test_multisets_match_exhaustive_oracle(self):
        expected = {tuple(c.count(i) for i in range(5))
                    for c in itertools.combinations_with_replacement(range(5), 3)}
        assert {multiset(name) for name in RELATION_NAMES} == expected

    def test_house_against_oracle(self):
        got = {multiset(name) for name in satisfied_relations(HOUSE)}
        assert got == oracle_satisfied((60, 150, 90, 90, 150))
        assert set(satisfied_relations(HOUSE)) == {"E+A+B", "2B+A", "2E+A"}

    def test_three_120_two_90_against_oracle(self):
        p = closed((120, 120, 120, 90, 90))
        got = satisfied_relations(p)
        assert ({multiset(name) for name in got}
                == oracle_satisfied((120, 120, 120, 90, 90)))
        assert set(got) == {"A+B+C", "2A+B", "2A+C", "2B+A", "2B+C",
                            "2C+A", "2C+B", "3A", "3B", "3C"}

    def test_regular_pentagon_has_none(self):
        assert len(satisfied_relations(REGULAR)) == 0
        assert not has_theorem1_property(REGULAR)
        assert has_theorem1_property(HOUSE)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, math.inf])
    def test_bad_tolerance_is_a_parse_error(self, tol):
        with pytest.raises(ParseError):
            has_theorem1_property(HOUSE, tol=tol)

    def test_tolerance_boundary(self):
        p = pent((60, 150, 90, 90, 150))
        loose = satisfied_relations(p, tol=1e-3)
        tight = satisfied_relations(p, tol=1e-12)
        assert set(tight) == set(loose) == {"E+A+B", "2B+A", "2E+A"}
        nudged = closed((60 + 2e-4, 150, 90, 90, 150 - 2e-4))
        assert "E+A+B" in satisfied_relations(nudged, tol=1e-5)
        assert "2B+A" not in satisfied_relations(nudged, tol=1e-7)


# weights within [0.8, 1.2] keep every normalized angle strictly convex
# (max share 1.2/4.4 < 1/3 of 3*pi) and the fixed-a,b,c closure solvable
angles_strategy = st.lists(
    st.floats(min_value=0.8, max_value=1.2), min_size=5, max_size=5)


def _angles_from_weights(weights):
    total = sum(weights)
    return [w / total * 3.0 * math.pi for w in weights]


def scalar_relation_value(name, pentagon):
    """A relation's angle sum as a left-to-right scalar sum of corner
    multiplicity times angle: the reference the relation table is held to."""
    return float(sum(c * a for c, a in zip(multiset(name), pentagon.angles)))


# a re-ordered sum of three corner angles near a full turn rounds to within
# a few ulps of 2*pi of the left-to-right one
SUM_ORDER_SLACK = 4 * math.ulp(2 * math.pi)


@st.composite
def relation_pentagons(draw):
    """A pentagon from angles_strategy, its angles then, in half the draws,
    moved along a direction that keeps their sum so that a drawn relation
    misses a full turn by a drawn offset of at most 1e-2 rad."""
    ang = np.array(_angles_from_weights(draw(angles_strategy)))
    if draw(st.booleans()):
        counts = np.array(multiset(draw(st.sampled_from(RELATION_NAMES))),
                          dtype=float)
        move = counts - 0.6
        offset = draw(st.floats(min_value=-1e-2, max_value=1e-2))
        ang = ang + (2 * math.pi + offset - counts @ ang) / (counts @ move) * move
    assume(all(0.05 < a < math.pi - 0.05 for a in ang))
    try:
        return solve_edges(ang.tolist(), {"a": 1.0, "b": 1.0, "c": 1.0})
    except (SingularClosure, NegativeLength):
        assume(False)


class TestRelationProperties:
    @given(relation_pentagons(), st.floats(min_value=-12.0, max_value=-2.0))
    @example(HOUSE, -6.0)
    @example(HOUSE, -12.0)
    @example(closed((120, 120, 120, 90, 90)), -6.0)
    @example(closed((120, 120, 120, 90, 90)), -12.0)
    @settings(max_examples=200, deadline=None)
    def test_table_verdicts_are_the_scalar_sums(self, p, log_tol):
        """satisfied_relations names exactly the relations whose scalar sum
        lies within tol of a full turn, tol from 1e-12 to 1e-2; a draw with
        some sum within SUM_ORDER_SLACK of the bound is skipped."""
        tol = 10.0 ** log_tol
        misses = [abs(scalar_relation_value(name, p) - 2 * math.pi)
                  for name in RELATION_NAMES]
        assume(all(abs(miss - tol) > SUM_ORDER_SLACK for miss in misses))
        expected = tuple(name for name, miss in zip(RELATION_NAMES, misses)
                         if miss <= tol)
        assert satisfied_relations(p, tol) == expected

    @given(angles_strategy, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, weights, factor):
        ang = _angles_from_weights(weights)
        assume(all(0.05 < a < math.pi - 0.05 for a in ang))
        try:
            p = solve_edges(ang, {"a": 1.0, "b": 1.0, "c": 1.0})
        except (SingularClosure, NegativeLength):
            assume(False)
        q = p.scaled(factor)
        assert satisfied_relations(q) == satisfied_relations(p)

    @given(angles_strategy, st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_label_rotation_permutes_relations(self, weights, k):
        ang = _angles_from_weights(weights)
        assume(all(0.05 < a < math.pi - 0.05 for a in ang))
        try:
            p = solve_edges(ang, {"a": 1.0, "b": 1.0, "c": 1.0})
        except (SingularClosure, NegativeLength):
            assume(False)
        q = p.relabeled(rotation=k)
        rolled = {tuple(np.roll(multiset(name), -k))
                  for name in satisfied_relations(p)}
        assert {multiset(name) for name in satisfied_relations(q)} == rolled


class TestJson:
    def test_round_trip(self):
        q = pentagon_from_json_dict(json.loads(dumps(HOUSE.to_json_dict())))
        npt.assert_allclose(q.angles, HOUSE.angles, atol=1e-12)
        npt.assert_allclose(q.edges, HOUSE.edges, atol=1e-12)

    def test_bad_record(self):
        house = [60, 150, 90, 90, 150]
        for record in ({"angles_deg": [1, 2], "edges": []},
                       {"angles_deg": house, "edges": [1, 1, math.nan, 1, 1]},
                       {"angles_deg": house, "edges": [1, 1, math.inf, 1, 1]},
                       {"angles_deg": [108, math.nan, 108, 108, 108],
                        "edges": [1] * 5},
                       {"angles_deg": [108, -math.inf, 108, 108, 108],
                        "edges": [1] * 5},
                       {"angles_deg": [10**400, 108, 108, 108, 108],
                        "edges": [1] * 5},
                       {"angles_deg": house, "edges": [True] * 5}):
            with pytest.raises(ParseError):
                pentagon_from_json_dict(record)


def corner_pair_diameter(p):
    """The widest corner pair as np.linalg.norm measures each ordered pair."""
    return max(float(np.linalg.norm(a - b)) for a in p.vertices
               for b in p.vertices)


@pytest.mark.parametrize("type_id", range(1, 16))
def test_diameter_is_the_widest_corner_pair_of_each_labeling(type_id):
    """Bit for bit the generator over every ordered corner pair, for each
    Type's representative in all ten labelings."""
    pentagon = pentile.representative(type_id).pentagon
    for p in [pentagon.relabeled(k % 5, k >= 5) for k in range(10)]:
        assert p.diameter == corner_pair_diameter(p)


@settings(max_examples=200)
@given(relation_pentagons())
@example(HOUSE)
def test_diameter_is_the_widest_corner_pair(p):
    assert p.diameter == corner_pair_diameter(p)
