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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pentile import (
    AngleSumViolation,
    ClosureViolation,
    NegativeLength,
    NonConvexAngles,
    ParseError,
    SingularClosure,
    enumerate_relations,
    has_theorem1_property,
    make_pentagon,
    pentagon_from_json_dict,
    satisfied_relations,
    solve_edges,
)
from pentile.geometry import interior_angles, polygon_area, polygon_edge_lengths
from pentile.jsontext import dumps

DEG = math.pi / 180.0


def pent(angles_deg, edges=(1, 1, 1, 1, 1)):
    return make_pentagon([a * DEG for a in angles_deg], edges)


def closed(angles_deg):
    """Pentagon with the given angles, first three edges unit length."""
    return solve_edges([a * DEG for a in angles_deg],
                       {"a": 1.0, "b": 1.0, "c": 1.0})


HOUSE = pent((60, 150, 90, 90, 150))
REGULAR = pent((108,) * 5)


def names(relations):
    return {r.name for r in relations}


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
        rels = enumerate_relations()
        assert len(rels) == 35
        names = [r.name for r in rels]
        assert len(set(names)) == 35
        assert names[:10] == ["A+B+C", "B+C+D", "C+D+E", "D+E+A", "E+A+B",
                              "A+B+D", "B+C+E", "C+D+A", "D+E+B", "E+A+C"]
        assert names[10] == "2A+B" and names[29] == "2E+D"
        assert names[30:] == ["3A", "3B", "3C", "3D", "3E"]
        for r in rels:
            assert sum(r.coeffs) == 3

    def test_multisets_match_exhaustive_oracle(self):
        expected = {tuple(c.count(i) for i in range(5))
                    for c in itertools.combinations_with_replacement(range(5), 3)}
        assert {r.coeffs for r in enumerate_relations()} == expected

    def test_house_against_oracle(self):
        got = {r.coeffs for r in satisfied_relations(HOUSE)}
        assert got == oracle_satisfied((60, 150, 90, 90, 150))
        assert names(satisfied_relations(HOUSE)) == {"E+A+B", "2B+A", "2E+A"}

    def test_three_120_two_90_against_oracle(self):
        p = closed((120, 120, 120, 90, 90))
        got = satisfied_relations(p)
        assert {r.coeffs for r in got} == oracle_satisfied((120, 120, 120, 90, 90))
        assert names(got) == {"A+B+C", "2A+B", "2A+C", "2B+A", "2B+C",
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
        assert names(tight) == names(loose) == {"E+A+B", "2B+A", "2E+A"}
        nudged = closed((60 + 2e-4, 150, 90, 90, 150 - 2e-4))
        assert "E+A+B" in names(satisfied_relations(nudged, tol=1e-5))
        assert "2B+A" not in names(satisfied_relations(nudged, tol=1e-7))


# weights within [0.8, 1.2] keep every normalized angle strictly convex
# (max share 1.2/4.4 < 1/3 of 3*pi) and the fixed-a,b,c closure solvable
angles_strategy = st.lists(
    st.floats(min_value=0.8, max_value=1.2), min_size=5, max_size=5)


def _angles_from_weights(weights):
    total = sum(weights)
    return [w / total * 3.0 * math.pi for w in weights]


class TestRelationProperties:
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
        rolled = {tuple(np.roll(r.coeffs, -k)) for r in satisfied_relations(p)}
        assert {r.coeffs for r in satisfied_relations(q)} == rolled


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
                        "edges": [1] * 5}):
            with pytest.raises(ParseError):
                pentagon_from_json_dict(record)
