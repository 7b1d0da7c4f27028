"""The catalog of the 15 known convex pentagon tile families.

Each family ("Type") is a system of linear angle equations plus edge
equalities, shipped as a data file and held as a pentagon.ConstraintTable
with one group per Type. Solving a system for concrete coordinates is a
small nonlinear least-squares problem because the closure condition couples
angles and edge lengths; the solver's linear rows are one more table.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InfeasibleParams,
    NonConvergence,
    ParseError,
    UnknownType,
    require_finite,
)
from .pentagon import (
    ANGLE_SUM,
    CORNERS,
    EDGES,
    FIT_TOL,
    LABELINGS,
    VARIABLES,
    ConstraintTable,
    LinearEquation,
    Pentagon,
    edge_directions,
    make_pentagon,
)

TYPE_IDS = tuple(range(1, 16))

CONSTRAINT_TOL = 1e-9       # accepted residual for a solved instance
TARGET_RESIDUAL = 1e-12     # Newton aims lower than the acceptance bound
MAX_ITERATIONS = 100


def _class_equations(edge_class: Sequence[str]):
    """An equality class {a,d,e} expands to the chain a=d, d=e."""
    for left, right in zip(edge_class, edge_class[1:]):
        yield LinearEquation.parse(f"{left} = {right}")


@dataclass(frozen=True)
class TypeSpec:
    """Constraint system of one Type: angle equations, edge equalities, dof."""

    id: int
    angle_eqs: tuple[LinearEquation, ...]
    edge_classes: tuple[tuple[str, ...], ...]
    edge_eqs: tuple[LinearEquation, ...]
    dof: int
    default_params: Mapping[str, float]
    note: str = ""

    @functools.cached_property
    def constraint_rows(self) -> tuple[LinearEquation, ...]:
        rows = list(self.angle_eqs)
        for cls in self.edge_classes:
            rows.extend(_class_equations(cls))
        rows.extend(self.edge_eqs)
        return tuple(rows)

    @functools.cached_property
    def table(self) -> ConstraintTable:
        """This Type's rows as a ConstraintTable of one group."""
        return ConstraintTable.of(self.constraint_rows,
                                  [self.id] * len(self.constraint_rows))

    def residuals(self, pentagon: Pentagon) -> np.ndarray:
        values = np.concatenate([pentagon.angles, pentagon.edges])
        return self.table.residuals(values[None])[0]

    def satisfied_by(self, pentagon: Pentagon, tol: float = FIT_TOL) -> bool:
        """True when every constraint row holds, edge rows relative to scale;
        ParseError unless tol is finite and positive."""
        return bool(self.table.fits(pentagon, tol, LABELINGS[:1])[0, 0])


@dataclass(frozen=True)
class RepresentativeInstance:
    type_id: int
    pentagon: Pentagon
    note: str


@functools.lru_cache(maxsize=1)
def _load_catalog() -> dict[int, TypeSpec]:
    path = resources.files("pentile.data").joinpath("type_specs.json")
    raw = json.loads(path.read_text())
    catalog = {}
    for entry in raw:
        params = {}
        for name, value in entry.get("default_params", {}).items():
            if name not in VARIABLES:
                raise ParseError(f"unknown parameter {name!r} in type data")
            params[name] = math.radians(value) if name in CORNERS else float(value)
        spec = TypeSpec(
            id=int(entry["id"]),
            angle_eqs=tuple(LinearEquation.parse(t) for t in entry["angle_eqs"]),
            edge_classes=tuple(tuple(c) for c in entry.get("edge_classes", [])),
            edge_eqs=tuple(LinearEquation.parse(t) for t in entry.get("edge_eqs", [])),
            dof=int(entry["dof"]),
            default_params=params,
            note=entry.get("note", ""),
        )
        catalog[spec.id] = spec
    return catalog


@functools.lru_cache(maxsize=1)
def _catalog_table() -> ConstraintTable:
    """Every Type's rows in one table, grouped by Type in TYPE_IDS order."""
    specs = [get_type_spec(tid) for tid in TYPE_IDS]
    return ConstraintTable.of(
        [eq for spec in specs for eq in spec.constraint_rows],
        [spec.id for spec in specs for _ in spec.constraint_rows])


def get_type_spec(type_id: int) -> TypeSpec:
    catalog = _load_catalog()
    try:
        return catalog[int(type_id)]
    except (KeyError, TypeError, ValueError):
        raise UnknownType(f"no Type {type_id!r}; known ids are 1..15") from None


# --- instance solving -------------------------------------------------------

_ANGLE_SUM_ROW = LinearEquation.parse("A + B + C + D + E = 540")
# mean edge length pinned to 1 so instances come out at a canonical scale
_SCALE_ROW = LinearEquation.parse("0.2a + 0.2b + 0.2c + 0.2d + 0.2e = 1")


def _pin_row(name: str, value: float) -> LinearEquation:
    coeffs = [0.0] * 10
    coeffs[VARIABLES.index(name)] = 1.0
    return LinearEquation(text=f"{name} = {value:g}", coeffs=tuple(coeffs),
                          constant=float(value))


def _closure(x: np.ndarray) -> np.ndarray:
    return np.asarray(x[5:]) @ edge_directions(x[:5])


def _closure_jacobian(x: np.ndarray) -> np.ndarray:
    angles, edges = x[:5], x[5:]
    dirs = edge_directions(angles)
    normals = np.column_stack([-dirs[:, 1], dirs[:, 0]])
    jac = np.zeros((2, 10))
    # heading of edge k involves angles 1..k, with d(heading)/d(angle) = -1
    for j in range(1, 5):
        jac[:, j] = -(edges[j:, None] * normals[j:]).sum(axis=0)
    jac[:, 5:] = dirs.T
    return jac


def _system_table(spec: TypeSpec, free_params: Mapping[str, float]
                  ) -> ConstraintTable:
    """The solver's linear rows: the angle sum, the Type's rows, the scale
    and one pin per free parameter."""
    rows = [_ANGLE_SUM_ROW, *spec.constraint_rows, _SCALE_ROW]
    rows.extend(_pin_row(name, value) for name, value in sorted(free_params.items()))
    return ConstraintTable.of(rows, [spec.id] * len(rows))


def _full_residual(table: ConstraintTable, x: np.ndarray) -> np.ndarray:
    return np.concatenate([table.residuals(x[None])[0], _closure(x)])


def _kernel(matrix: np.ndarray) -> np.ndarray:
    """An orthonormal basis of matrix's null space, one column per vector:
    the right singular vectors past its rank, the count of singular values
    above eps · max(shape) of the largest (numpy.linalg.matrix_rank's rule).
    """
    _, sv, vt = np.linalg.svd(matrix)
    rank = int(np.sum(sv > sv.max(initial=0.0)
                      * (np.finfo(float).eps * max(matrix.shape))))
    return vt[rank:].T


def _initial_guess(table: ConstraintTable) -> np.ndarray:
    """Stage the start point: angles from the linear angle rows, then edges.

    When the angle rows leave a one-parameter family (Types whose remaining
    angle is pinned only through closure), scan along the family for the
    smallest full residual instead of guessing.
    """
    angle_rows = table.angle_rows
    m_ang = table.coeffs[angle_rows, :5]
    b_ang = table.constants[angle_rows]
    anchor = np.full(5, ANGLE_SUM / 5.0)
    correction, *_ = np.linalg.lstsq(m_ang, b_ang - m_ang @ anchor, rcond=None)
    base = anchor + correction
    kernel = _kernel(m_ang)
    if kernel.shape[1] == 1:
        ts = np.linspace(-2.5, 2.5, 101)
        candidates = [base + t * kernel[:, 0] for t in ts]
    else:
        candidates = [base]

    m_len = table.coeffs[~angle_rows, 5:]
    b_edge = np.concatenate([table.constants[~angle_rows], np.zeros(2)])
    best = None
    for ang in candidates:
        if np.any(ang < 0.02) or np.any(ang > math.pi - 0.02):
            continue
        ang = ang * (ANGLE_SUM / ang.sum())
        m_edge = np.vstack([m_len, edge_directions(ang).T])
        lengths, *_ = np.linalg.lstsq(m_edge, b_edge, rcond=None)
        lengths = np.maximum(lengths, 0.05)
        x = np.concatenate([ang, lengths])
        score = np.max(np.abs(_full_residual(table, x)))
        if best is None or score < best[0]:
            best = (score, x)
    if best is None:
        raise InfeasibleParams("no convex start point for the angle system")
    return best[1]


def solve_instance(spec: TypeSpec, free_params: Mapping[str, float]) -> Pentagon:
    """Solve one Type's constraint system for concrete pentagon coordinates.

    free_params assigns exactly spec.dof of the letters A..E (radians) and
    a..e (lengths); the remaining quantities follow from the Type equations,
    the closure condition, and the mean-edge-1 scale convention. Damped
    Gauss-Newton, damping 0.5 on residual increase, at most 100 iterations;
    the result must reach max residual 1e-9 or NonConvergence is raised.
    A free parameter that is not a finite real number is a ParseError: a
    string, even a numeric one, None, a boolean and numpy's bool included.
    """
    unknown = set(free_params) - set(VARIABLES)
    if unknown:
        raise ParseError(f"unknown free parameters: {sorted(unknown)}")
    if len(free_params) != spec.dof:
        raise ParseError(
            f"Type {spec.id} needs exactly {spec.dof} free parameters, "
            f"got {len(free_params)}")
    bad = sorted(name for name, value in free_params.items()
                 if isinstance(value, bool)
                 or not isinstance(value, numbers.Real))
    if bad:
        raise ParseError(f"free parameters {bad} must be real numbers")
    try:
        free_params = {name: float(value)
                       for name, value in free_params.items()}
    except OverflowError as exc:
        raise ParseError(f"free parameters: {exc}") from None
    require_finite("free parameters", list(free_params.values()))
    for name, value in free_params.items():
        if name in CORNERS and not 0.0 < value < math.pi:
            raise InfeasibleParams(
                f"angle {name}={value:.6g} rad outside the convex range (0, pi)")
        if name in EDGES and value <= 0.0:
            raise InfeasibleParams(f"edge {name}={value:.6g} must be positive")

    table = _system_table(spec, free_params)
    x = _initial_guess(table)
    residual = _full_residual(table, x)
    norm = np.max(np.abs(residual))
    for _ in range(MAX_ITERATIONS):
        if norm < TARGET_RESIDUAL:
            break
        jac = np.vstack([table.coeffs, _closure_jacobian(x)])
        step, *_ = np.linalg.lstsq(jac, -residual, rcond=None)
        scale = 1.0
        while scale > 1e-6:
            trial = x + scale * step
            trial_residual = _full_residual(table, trial)
            trial_norm = np.max(np.abs(trial_residual))
            if trial_norm < norm:
                break
            scale *= 0.5
        else:
            break
        x, residual, norm = trial, trial_residual, trial_norm
    if norm > CONSTRAINT_TOL:
        raise NonConvergence(
            f"constraint residual stuck at {norm:.3e} for Type {spec.id}; "
            "the free parameters may conflict with the Type equations")

    angles, edges = x[:5], x[5:]
    if np.any(edges <= 1e-9):
        raise InfeasibleParams(
            f"Type {spec.id} has no pentagon with these parameters "
            "(an edge length collapses to zero or below)")
    if np.any(angles <= 1e-9) or np.any(angles >= math.pi - 1e-9):
        raise InfeasibleParams(
            f"Type {spec.id} parameters force a non-convex corner")
    pentagon = make_pentagon(angles, edges)
    return pentagon.scaled(1.0 / pentagon.mean_edge())


@functools.lru_cache(maxsize=None)
def representative(type_id: int) -> RepresentativeInstance:
    """One concrete pentagon per Type, solved from stored default parameters."""
    spec = get_type_spec(type_id)
    pentagon = solve_instance(spec, dict(spec.default_params))
    if spec.dof == 0:
        note = "fixed by the Type equations up to scale"
    else:
        shown = ", ".join(f"{k}={math.degrees(v):g}" if k in CORNERS
                          else f"{k}={v:g}"
                          for k, v in sorted(spec.default_params.items()))
        note = f"solved with {shown}"
    return RepresentativeInstance(type_id=spec.id, pentagon=pentagon, note=note)


def classify(pentagon: Pentagon, tol: float = FIT_TOL) -> list[int]:
    """All Type ids whose full constraint system the pentagon satisfies.

    Families overlap, so the result may hold several ids; a pentagon that
    tiles in no known way gives an empty list. Every corner relabeling (five
    rotations, each with and without reflection) is tried, since Type
    membership is a property of the shape, not of the labeling: one test of
    the catalog's stacked rows (`ConstraintTable.fits`) under all ten index
    permutations, with no relabeled Pentagon built. ParseError unless tol is
    finite and positive.
    """
    table = _catalog_table()
    hits = table.fits(pentagon, tol).any(axis=0)
    return [tid for tid, hit in zip(table.ids, hits) if hit]
