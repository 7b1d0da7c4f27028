"""Convex pentagons, linear relations over their angles and edges, and the
three-angle relations.

A pentagon is stored as five interior angles (radians, counterclockwise corner
order A..E) and five edge lengths a..e, where edge k runs from corner k to
corner k+1. Corner A sits at the origin with edge a along +x, so vertex
coordinates are derived, not stored inputs.

A linear relation over the ten letters A..E, a..e is parsed once into a
LinearEquation and read only as a row of a ConstraintTable, the one
evaluator: the catalog's Type systems, the solver's system and the 35
three-angle relations (A+B+C = 360 and its kin) are all such tables.

Angles are radians everywhere inside the library; degrees appear only at file
and CLI boundaries.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AngleSumViolation,
    ClosureViolation,
    NegativeLength,
    NonConvexAngles,
    ParseError,
    SingularClosure,
    number,
    require_finite,
    require_positive,
)
from .geometry import row_dots

CORNERS = "ABCDE"
EDGES = "abcde"
CORNER_PAIRS = np.triu_indices(5, 1)

ANGLE_SUM = 3.0 * math.pi
ANGLE_SUM_TOL = 1e-9
CLOSURE_TOL = 1e-9


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


def labeling_order(rotation: int, reflect: bool
                   ) -> tuple[list[int], list[int]]:
    """The corner and the edge each label of a relabeling names: rotated by
    k, label i is corner and edge i + k; mirrored first, it is corner
    -(i + k) and edge 4 - (i + k), all mod 5."""
    k = rotation % 5
    if reflect:
        return ([-(i + k) % 5 for i in range(5)],
                [(4 - i - k) % 5 for i in range(5)])
    return [(i + k) % 5 for i in range(5)], [(i + k) % 5 for i in range(5)]


# the ten relabelings, five rotations then five mirrored, as index
# permutations: LABELINGS[l, 0] orders the angles, LABELINGS[l, 1] the edges
LABELINGS = np.array([labeling_order(k, reflect)
                      for reflect in (False, True) for k in range(5)])


@dataclass(frozen=True)
class Pentagon:
    """A validated convex pentagon. Build through make_pentagon or solve_edges."""

    angles: tuple[float, float, float, float, float]
    edges: tuple[float, float, float, float, float]

    @cached_property
    def vertices(self) -> np.ndarray:
        return vertices_from(self.angles, self.edges)

    @cached_property
    def diameter(self) -> float:
        """The widest corner pair, measured once per pentagon: the root of
        the largest of the ten pairs' squared distances, each the BLAS dot
        np.linalg.norm takes (`geometry.row_dots`), so bit for bit the
        largest norm, as the root is monotone."""
        d = self.vertices[CORNER_PAIRS[0]] - self.vertices[CORNER_PAIRS[1]]
        return math.sqrt(float(row_dots(d, d).max()))

    @property
    def angles_deg(self) -> tuple[float, ...]:
        return tuple(math.degrees(a) for a in self.angles)

    def mean_edge(self) -> float:
        return sum(self.edges) / 5.0

    def scaled(self, factor: float) -> "Pentagon":
        return make_pentagon(self.angles, tuple(e * factor for e in self.edges))

    def relabeled(self, rotation: int = 0, reflect: bool = False) -> "Pentagon":
        """Same shape with corner labels rotated and/or mirror-reversed."""
        corners, edges = labeling_order(rotation, reflect)
        return make_pentagon(tuple(self.angles[i] for i in corners),
                             tuple(self.edges[i] for i in edges))

    def labelings(self) -> list["Pentagon"]:
        """The ten relabelings, in LABELINGS order."""
        return [self.relabeled(rotation=k % 5, reflect=k >= 5)
                for k in range(len(LABELINGS))]

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


# --- linear rows -----------------------------------------------------------

VARIABLES = tuple(CORNERS + EDGES)

# default tolerance of ConstraintTable.fits, for the Type test and the
# three-angle relations alike
FIT_TOL = 1e-6

_TERM = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?([A-Ea-e])?$")


@dataclass(frozen=True)
class LinearEquation:
    text: str
    coeffs: tuple[float, ...]
    constant: float

    @classmethod
    def parse(cls, text: str) -> "LinearEquation":
        """Linear equation over corner letters A..E and edge letters a..e:
        coeffs over the 10 variables and a constant. Angle equations are
        written in degrees in data files; the constant is converted to
        radians here so every runtime quantity stays in radians.
        """
        if text.count("=") != 1:
            raise ParseError(f"equation needs exactly one '=': {text!r}")
        coeffs = np.zeros(10)
        constant = 0.0
        for side, sign in zip(text.split("="), (1.0, -1.0)):
            compact = side.replace(" ", "")
            if not compact:
                raise ParseError(f"empty side in equation {text!r}")
            for chunk in re.findall(r"[+-]?[^+-]+", compact):
                m = _TERM.match(chunk)
                if not m or (m.group(2) is None and m.group(3) is None):
                    raise ParseError(
                        f"bad term {chunk!r} in equation {text!r}")
                value = float(m.group(2)) if m.group(2) else 1.0
                if m.group(1) == "-":
                    value = -value
                if m.group(3):
                    coeffs[VARIABLES.index(m.group(3))] += sign * value
                else:
                    constant -= sign * value
        touches_angles = bool(coeffs[:5].any())
        touches_edges = bool(coeffs[5:].any())
        if touches_angles and touches_edges:
            raise ParseError(f"equation mixes angles and edges: {text!r}")
        if not touches_angles and not touches_edges:
            raise ParseError(f"equation has no variables: {text!r}")
        if touches_angles:
            constant = math.radians(constant)
        return cls(text=text, coeffs=tuple(coeffs), constant=constant)

    @property
    def is_angle_equation(self) -> bool:
        return any(self.coeffs[:5])


@dataclass(frozen=True)
class ConstraintTable:
    """Linear rows stacked: coefficients (R, 10) over VARIABLES, constants
    (R,), which rows are angle rows, and each row's group, with the groups
    in the order of their first rows."""

    coeffs: np.ndarray
    constants: np.ndarray
    angle_rows: np.ndarray
    groups: np.ndarray
    ids: tuple[int, ...]

    @classmethod
    def of(cls, rows: Sequence[LinearEquation],
           groups: Sequence[int]) -> "ConstraintTable":
        return cls(coeffs=np.array([eq.coeffs for eq in rows]).reshape(-1, 10),
                   constants=np.array([eq.constant for eq in rows]),
                   angle_rows=np.array([eq.is_angle_equation for eq in rows],
                                       dtype=bool),
                   groups=np.array(groups, dtype=int),
                   ids=tuple(dict.fromkeys(groups)))

    def residuals(self, values: np.ndarray) -> np.ndarray:
        """Each row's residual at each of the stacked values (L, 10), as
        (L, R): a batched matmul of 1 x 10 by 10 x 1, so bit for bit the
        np.dot of the row and the values, minus the row's constant."""
        dots = np.matmul(self.coeffs[:, None, :], values[:, None, :, None])
        return dots[..., 0, 0] - self.constants

    def fits(self, pentagon: Pentagon, tol: float = FIT_TOL,
             labelings: np.ndarray = LABELINGS) -> np.ndarray:
        """(L, G): whether labeling l (a row of LABELINGS) satisfies every
        row of group ids[g], each angle row to tol and each edge row to tol
        times the labeling's mean edge, its edges summed in its own order
        as mean_edge sums them. ParseError unless tol is finite and
        positive."""
        require_positive("tol", tol)
        edges = np.asarray(pentagon.edges)[labelings[:, 1]]
        values = np.concatenate(
            [np.asarray(pentagon.angles)[labelings[:, 0]], edges], axis=1)
        scale = (edges[:, 0] + edges[:, 1] + edges[:, 2] + edges[:, 3]
                 + edges[:, 4]) / 5.0
        bound = np.where(self.angle_rows, tol, tol * scale[:, None])
        broken = np.abs(self.residuals(values)) > bound
        return ~(broken @ (self.groups[:, None] == self.ids))


# --- three-angle relations ------------------------------------------------

# All 35 multisets of three corners, by name, in canonical order: the 10
# distinct triples (five runs of consecutive corners, then five of a
# consecutive pair plus a separated corner), the 20 doubled-pair forms 2X+Y
# in (X, Y) order, and the 5 tripled-single forms 3X. Each names the relation
# that its angles sum to a full turn.
RELATION_NAMES = (
    *("+".join(CORNERS[(x + k) % 5] for k in gaps)
      for gaps in ((0, 1, 2), (0, 1, 3)) for x in range(5)),
    *(f"2{x}+{y}" for x in CORNERS for y in CORNERS if y != x),
    *(f"3{x}" for x in CORNERS),
)


@lru_cache(maxsize=1)
def _relation_table() -> ConstraintTable:
    """The relations as rows NAME = 360, one group each."""
    return ConstraintTable.of(
        [LinearEquation.parse(name + "=360") for name in RELATION_NAMES],
        range(len(RELATION_NAMES)))


def satisfied_relations(pentagon: Pentagon, tol: float = FIT_TOL
                        ) -> tuple[str, ...]:
    """The names, in RELATION_NAMES order, of the relations that the
    pentagon's angles satisfy within tol; ParseError unless tol is finite
    and positive."""
    hits = _relation_table().fits(pentagon, tol, LABELINGS[:1])[0]
    return tuple(name for name, hit in zip(RELATION_NAMES, hits) if hit)


def has_theorem1_property(pentagon: Pentagon, tol: float = FIT_TOL) -> bool:
    """True when at least one three-angle relation sums to a full turn;
    ParseError unless tol is finite and positive."""
    return bool(satisfied_relations(pentagon, tol))


# --- file format ----------------------------------------------------------

def pentagon_from_json_dict(data) -> Pentagon:
    """The pentagon of a parsed pentagon document, {"angles_deg": [...],
    "edges": [...]}; ParseError when it is not one."""
    try:
        angles = [math.radians(number(x)) for x in data["angles_deg"]]
        edges = [number(x) for x in data["edges"]]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad pentagon record: {exc}") from exc
    return make_pentagon(angles, edges)
