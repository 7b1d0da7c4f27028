"""Convex pentagons and their three-angle relations.

A pentagon is stored as five interior angles (radians, counterclockwise corner
order A..E) and five edge lengths a..e, where edge k runs from corner k to
corner k+1. Corner A sits at the origin with edge a along +x, so vertex
coordinates are derived, not stored inputs.

Angles are radians everywhere inside the library; degrees appear only at file
and CLI boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    AngleSumViolation,
    ClosureViolation,
    NegativeLength,
    NonConvexAngles,
    ParseError,
    SingularClosure,
    require_finite,
    require_positive,
)

CORNERS = "ABCDE"
EDGES = "abcde"

ANGLE_SUM = 3.0 * math.pi
ANGLE_SUM_TOL = 1e-9
CLOSURE_TOL = 1e-9
DEFAULT_RELATION_TOL = 1e-6


def edge_directions(angles: Iterable[float]) -> np.ndarray:
    """Unit direction of each edge implied by the interior angles.

    Edge 0 points along +x; each corner turns the heading by its exterior
    angle pi - angle.
    """
    ang = np.asarray(list(angles), dtype=float)
    turns = math.pi - ang
    headings = np.concatenate([[0.0], np.cumsum(turns[1:])])
    return np.column_stack([np.cos(headings), np.sin(headings)])


def vertices_from(angles, edges) -> np.ndarray:
    dirs = edge_directions(angles)
    steps = np.asarray(list(edges), dtype=float)[:, None] * dirs
    verts = np.zeros((5, 2))
    verts[1:] = np.cumsum(steps[:-1], axis=0)
    return verts


@dataclass(frozen=True)
class Pentagon:
    """A validated convex pentagon. Build through make_pentagon or solve_edges."""

    angles: tuple[float, float, float, float, float]
    edges: tuple[float, float, float, float, float]

    @cached_property
    def vertices(self) -> np.ndarray:
        return vertices_from(self.angles, self.edges)

    @property
    def angles_deg(self) -> tuple[float, ...]:
        return tuple(math.degrees(a) for a in self.angles)

    def mean_edge(self) -> float:
        return sum(self.edges) / 5.0

    def scaled(self, factor: float) -> "Pentagon":
        return make_pentagon(self.angles, tuple(e * factor for e in self.edges))

    def relabeled(self, rotation: int = 0, reflect: bool = False) -> "Pentagon":
        """Same shape with corner labels rotated and/or mirror-reversed."""
        ang = list(self.angles)
        edg = list(self.edges)
        if reflect:
            ang = [ang[(-i) % 5] for i in range(5)]
            edg = [edg[(4 - i) % 5] for i in range(5)]
        k = rotation % 5
        ang = ang[k:] + ang[:k]
        edg = edg[k:] + edg[:k]
        return make_pentagon(tuple(ang), tuple(edg))

    def labelings(self) -> list["Pentagon"]:
        """The ten relabelings: five rotations, then five mirrored."""
        return [self.relabeled(rotation=r, reflect=refl)
                for refl in (False, True) for r in range(5)]

    def to_json_dict(self) -> dict:
        return {"angles_deg": [math.degrees(a) for a in self.angles],
                "edges": list(self.edges)}


def make_pentagon(angles, edges) -> Pentagon:
    """Validate angles/edges and return a Pentagon.

    Raises ParseError for a count other than five or a non-finite value,
    then AngleSumViolation, NonConvexAngles, NegativeLength or
    ClosureViolation; the closure budget is 1e-9 of the mean edge.
    """
    ang = tuple(float(a) for a in angles)
    edg = tuple(float(e) for e in edges)
    if len(ang) != 5 or len(edg) != 5:
        raise ParseError("expected 5 angles and 5 edges")
    require_finite("angles", ang)
    require_finite("edges", edg)
    _check_angles(ang)
    for e in edg:
        if e <= 0.0:
            raise NegativeLength(f"edge length {e} must be positive")
    mean = sum(edg) / 5.0
    gap = np.asarray(edg) @ edge_directions(ang)
    if math.hypot(*gap) > CLOSURE_TOL * mean:
        raise ClosureViolation(
            f"edge loop misses start by {math.hypot(*gap):.3e}")
    return Pentagon(ang, edg)


def _check_angles(ang) -> None:
    """AngleSumViolation unless the sum is 3*pi, then NonConvexAngles."""
    if abs(sum(ang) - ANGLE_SUM) > ANGLE_SUM_TOL:
        raise AngleSumViolation(
            f"interior angles sum to {sum(ang):.12f}, need 3*pi")
    for a in ang:
        if not 0.0 < a < math.pi:
            raise NonConvexAngles(f"angle {a:.12f} rad outside (0, pi)")


def _edge_index(key) -> int:
    if isinstance(key, str):
        if key not in EDGES:
            raise ParseError(f"unknown edge name {key!r}")
        return EDGES.index(key)
    i = int(key)
    if not 0 <= i < 5:
        raise ParseError(f"edge index {key} out of range")
    return i


def solve_edges(angles, fixed: Mapping) -> Pentagon:
    """Complete a pentagon from five angles and three fixed edge lengths.

    The two remaining lengths follow from the linear closure condition; the
    fixed lengths are preserved exactly. Raises SingularClosure when the two
    free edge directions are parallel and NegativeLength when closure forces
    a non-positive length.
    """
    ang = tuple(float(a) for a in angles)
    _check_angles(ang)
    if len(fixed) != 3:
        raise ParseError("exactly 3 edges must be fixed")
    known = {_edge_index(k): float(v) for k, v in fixed.items()}
    if len(known) != 3:
        raise ParseError("fixed edges must name 3 distinct edges")
    for i, v in known.items():
        if v <= 0.0:
            raise NegativeLength(f"edge {EDGES[i]} = {v} must be positive")
    free = [i for i in range(5) if i not in known]
    dirs = edge_directions(ang)
    rhs = -np.sum([known[i] * dirs[i] for i in known], axis=0)
    mat = dirs[free].T
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(det) < 1e-12:
        raise SingularClosure(
            f"free edges {EDGES[free[0]]},{EDGES[free[1]]} are parallel")
    sol = np.linalg.solve(mat, rhs)
    scale = sum(known.values()) / 3.0
    for i, v in zip(free, sol):
        if v <= 1e-12 * scale:
            raise NegativeLength(
                f"closure forces edge {EDGES[i]} to {v:.3e}")
    edges = [0.0] * 5
    for i, v in known.items():
        edges[i] = v
    for i, v in zip(free, sol):
        edges[i] = float(v)
    return make_pentagon(ang, tuple(edges))


# --- three-angle relations ------------------------------------------------

@dataclass(frozen=True)
class AngleRelation:
    """A relation asserting that a multiset of three corner angles sums to
    a full turn. coeffs[i] is the multiplicity of corner i; sum is 3."""

    coeffs: tuple[int, int, int, int, int]

    @property
    def name(self) -> str:
        twos = [i for i, c in enumerate(self.coeffs) if c == 2]
        threes = [i for i, c in enumerate(self.coeffs) if c == 3]
        if threes:
            return "3" + CORNERS[threes[0]]
        if twos:
            x = twos[0]
            y = self.coeffs.index(1)
            return f"2{CORNERS[x]}+{CORNERS[y]}"
        ones = {i for i, c in enumerate(self.coeffs) if c == 1}
        for x in range(5):
            for gap in (2, 3):
                if {x, (x + 1) % 5, (x + gap) % 5} == ones:
                    return "+".join(CORNERS[i] for i in
                                    (x, (x + 1) % 5, (x + gap) % 5))
        raise ValueError(f"unnameable coefficients {self.coeffs}")

    def value(self, pentagon: Pentagon) -> float:
        return float(sum(c * a for c, a in zip(self.coeffs, pentagon.angles)))

    def holds(self, pentagon: Pentagon, tol: float = DEFAULT_RELATION_TOL) -> bool:
        return abs(self.value(pentagon) - 2.0 * math.pi) <= tol


def _coeffs_for(indices) -> tuple[int, ...]:
    c = [0] * 5
    for i in indices:
        c[i] += 1
    return tuple(c)


def enumerate_relations() -> list[AngleRelation]:
    """All 35 three-angle relations in canonical order.

    Order: the 10 distinct triples (five runs of consecutive corners, then
    five of a consecutive pair plus a separated corner), the 20 doubled-pair
    forms 2X+Y in (X, Y) order, and the 5 tripled-single forms 3X.
    """
    rels: list[AngleRelation] = []
    for x in range(5):
        rels.append(AngleRelation(_coeffs_for((x, (x + 1) % 5, (x + 2) % 5))))
    for x in range(5):
        rels.append(AngleRelation(_coeffs_for((x, (x + 1) % 5, (x + 3) % 5))))
    for x in range(5):
        for y in range(5):
            if y != x:
                rels.append(AngleRelation(_coeffs_for((x, x, y))))
    for x in range(5):
        rels.append(AngleRelation(_coeffs_for((x, x, x))))
    return rels


def satisfied_relations(pentagon: Pentagon, tol: float = DEFAULT_RELATION_TOL
                        ) -> tuple[AngleRelation, ...]:
    """The relations, of all 35 in canonical order, that the pentagon's
    angles satisfy within tol."""
    require_positive("tol", tol)
    return tuple(r for r in enumerate_relations() if r.holds(pentagon, tol))


def has_theorem1_property(pentagon: Pentagon,
                          tol: float = DEFAULT_RELATION_TOL) -> bool:
    """True when at least one three-angle relation sums to a full turn;
    ParseError unless tol is finite and positive."""
    return bool(satisfied_relations(pentagon, tol))


# --- file format ----------------------------------------------------------

def pentagon_from_json_dict(data) -> Pentagon:
    """The pentagon of a parsed pentagon document, {"angles_deg": [...],
    "edges": [...]}; ParseError when it is not one."""
    try:
        angles = [math.radians(float(x)) for x in data["angles_deg"]]
        edges = [float(x) for x in data["edges"]]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad pentagon record: {exc}") from exc
    return make_pentagon(angles, edges)
