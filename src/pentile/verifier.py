"""Checks that a recipe or a generated patch really is a tiling.

Overlap, coverage and periodicity are each checked two ways where practical:
an exact area computation and an independent point-sampling route, so a bug
in one route cannot silently pass the other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInnerRadius, require_positive
from .geometry import (
    convex_overlap_area,
    largest_inscribed_circle,
    points_in_convex_polygon,
    polygon_area,
    polygon_centroid,
    polygon_disk_overlap_area,
    smallest_enclosing_circle,
)

AREA_TOL = 1e-9          # relative to a tile / disk / cell area
SAMPLE_DIVISOR = 4.0     # grid pitch = tile inradius / SAMPLE_DIVISOR
WINDOW = (-1, 0, 1)      # lattice offsets of the 3x3 periodicity window


@dataclass
class CheckReport:
    name: str
    ok: bool
    violations: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ok = bool(self.ok)  # numpy comparisons give numpy.bool_

    def merge(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(name=f"{self.name}+{other.name}",
                           ok=self.ok and other.ok,
                           violations=self.violations + other.violations,
                           metrics={**self.metrics, **other.metrics})


def _pairwise_overlap(polys):
    """Worst pairwise overlap area among convex polygons, with its pair."""
    if len(polys) < 2:
        return 0.0, None
    # any center gives a true bounding circle; the corner mean is cheapest
    centers = np.array([p.mean(axis=0) for p in polys])
    radii = np.array([np.linalg.norm(p - c, axis=1).max()
                      for p, c in zip(polys, centers)])
    tree = cKDTree(centers)
    worst, worst_pair = 0.0, None
    r_max = radii.max()
    for i, j in tree.query_pairs(2.0 * r_max):
        if np.linalg.norm(centers[i] - centers[j]) > radii[i] + radii[j]:
            continue
        a = convex_overlap_area(polys[i], polys[j])
        if a > worst:
            worst, worst_pair = a, (i, j)
    return worst, worst_pair


def check_no_overlap(patch, tol: float = AREA_TOL) -> CheckReport:
    """No two patch tiles may share interior area beyond tol x tile area."""
    require_positive("tol", tol)
    polys = [t.polygon for t in patch.tiles]
    areas = [abs(polygon_area(p)) for p in polys]
    ref = min(areas) if areas else 1.0
    worst, pair = _pairwise_overlap(polys)
    ok = worst <= tol * ref
    violations = []
    if not ok:
        violations.append(
            f"tiles {pair[0]} and {pair[1]} overlap by area {worst:.3e} "
            f"({worst / ref:.3e} of a tile)")
    return CheckReport(name="no_overlap", ok=ok, violations=violations,
                       metrics={"max_overlap_area": worst,
                                "max_overlap_fraction": worst / ref})


def _grid_cover_check(polys, region_mask, lo, hi, pitch, eps):
    """Sampling route: every grid point passing region_mask must lie in a
    tile. Returns (#tested, #missed, an example miss or None)."""
    xs = np.arange(lo[0], hi[0] + pitch, pitch)
    ys = np.arange(lo[1], hi[1] + pitch, pitch)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[region_mask(pts)]
    covered = np.zeros(len(pts), dtype=bool)
    if len(pts) == 0:
        return 0, 0, None
    tree = cKDTree(pts)
    for poly in polys:
        c = poly.mean(axis=0)
        rad = np.linalg.norm(poly - c, axis=1).max()
        idx = tree.query_ball_point(c, rad + pitch)
        if not idx:
            continue
        idx = np.asarray(idx)
        sub = idx[~covered[idx]]
        if len(sub) == 0:
            continue
        covered[sub] = points_in_convex_polygon(pts[sub], poly, eps=eps)
    missed = int((~covered).sum())
    example = tuple(pts[~covered][0].tolist()) if missed else None
    return len(pts), missed, example


def check_coverage(patch, r_inner: float | None = None,
                   tol: float = AREA_TOL) -> CheckReport:
    """The inner disk D(r_inner, M) must be covered by the patch tiles.

    r_inner has to stay at least one tile circumradius short of the patch
    radius; beyond that the rim tiles themselves determine coverage and the
    check would be meaningless. That is InvalidInnerRadius.

    Two routes: exact circular-segment areas summed per tile, and an
    independent grid sample at a quarter of the tile inradius. An inner
    disk holding less area than one tile fails as vacuous.
    """
    require_positive("tol", tol)
    if patch.r is None or patch.center is None:
        raise InvalidInnerRadius("patch carries no disk; nothing to cover")
    if not patch.tiles:
        raise InvalidInnerRadius("patch holds no tiles; nothing covers")
    polys = [t.polygon for t in patch.tiles]
    diam = max(float(np.linalg.norm(p[:, None] - p[None], axis=-1).max())
               for p in polys)
    # patch tiles are congruent; one circumradius bounds them all
    circumradius = smallest_enclosing_circle(polys[0])[1]
    if r_inner is None:
        r_inner = patch.r - diam
    if not 0 < r_inner <= patch.r - circumradius + 1e-12:
        raise InvalidInnerRadius(
            f"inner radius {r_inner} not in (0, r - tile circumradius] "
            f"= (0, {patch.r - circumradius:.6g}]")
    center = np.asarray(patch.center)
    disk_area = math.pi * r_inner ** 2
    tile_area = abs(polygon_area(polys[0]))

    covered_area = sum(polygon_disk_overlap_area(p, center, r_inner)
                       for p in polys)
    gap = disk_area - covered_area
    ok_area = abs(gap) <= tol * disk_area

    # patch tiles are congruent, so one inradius sets the sampling pitch
    inradius = largest_inscribed_circle(polys[0])[1]
    pitch = inradius / SAMPLE_DIVISOR
    eps = 1e-9 * diam

    def in_disk(pts):
        return np.linalg.norm(pts - center, axis=1) <= r_inner - eps

    tested, missed, example = _grid_cover_check(
        polys, in_disk, center - r_inner, center + r_inner, pitch, eps)
    ok_grid = missed == 0

    # an inner disk smaller than one tile tests next to nothing
    ok_size = disk_area >= tile_area
    violations = []
    if not ok_size:
        violations.append(
            f"vacuous: inner disk r = {r_inner:.6g} holds area "
            f"{disk_area:.6g}, less than one tile ({tile_area:.6g})")
    if not ok_area:
        violations.append(
            f"covered area misses disk area by {gap:.3e} "
            f"({gap / disk_area:.3e} of the disk)")
    if not ok_grid:
        violations.append(
            f"{missed} of {tested} sample points uncovered, "
            f"first at {example}")
    return CheckReport(
        name="coverage", ok=ok_size and ok_area and ok_grid,
        violations=violations,
        metrics={"r_inner": r_inner, "area_gap": gap,
                 "area_gap_fraction": gap / disk_area,
                 "sample_points": tested, "sample_misses": missed})


def check_periodicity(recipe, tol: float = AREA_TOL) -> CheckReport:
    """A recipe tiles the plane iff the region tiles one lattice cell.

    Checks, on a 3x3 block of cells: the region area equals the cell area,
    no two placed tiles overlap, and the central cell parallelogram is
    covered exactly.
    """
    require_positive("tol", tol)
    base = recipe.region_polygons()
    u = np.asarray(recipe.u)
    v = np.asarray(recipe.v)
    cell_area = recipe.cell_area()
    region_area = sum(abs(polygon_area(p)) for p in base)
    ok_area = abs(region_area - cell_area) <= tol * cell_area

    polys = [p + m * u + n * v for m in WINDOW for n in WINDOW for p in base]
    # region tiles are congruent copies of the pentagon; measure it once
    tile = recipe.pentagon.vertices
    tile_area = abs(polygon_area(tile))
    worst, pair = _pairwise_overlap(polys)
    ok_overlap = worst <= tol * tile_area

    # probe cell centered on the region itself; any lattice translate of
    # the parallelogram is a fundamental domain
    anchor = np.mean([polygon_centroid(p) for p in base], axis=0)
    p0 = anchor - (u + v) / 2.0
    cell = np.array([p0, p0 + u, p0 + u + v, p0 + v])
    if polygon_area(cell) < 0:
        cell = cell[::-1]
    clipped = sum(convex_overlap_area(p, cell) for p in polys)
    ok_cell = abs(clipped - cell_area) <= tol * cell_area

    inradius = largest_inscribed_circle(tile)[1]
    pitch = inradius / SAMPLE_DIVISOR
    eps = 1e-9 * math.sqrt(cell_area)
    lo = cell.min(axis=0)
    hi = cell.max(axis=0)

    def in_cell(pts):
        return points_in_convex_polygon(pts, cell, eps=-eps)

    tested, missed, example = _grid_cover_check(
        polys, in_cell, lo, hi, pitch, eps)
    ok_grid = missed == 0

    violations = []
    if not ok_area:
        violations.append(
            f"region area {region_area:.9g} != lattice cell area "
            f"{cell_area:.9g}")
    if not ok_overlap:
        violations.append(
            f"window tiles {pair[0]} and {pair[1]} overlap by {worst:.3e}")
    if not ok_cell:
        violations.append(
            f"window covers {clipped:.9g} of the central cell, "
            f"expected {cell_area:.9g}")
    if not ok_grid:
        violations.append(
            f"{missed} of {tested} cell sample points uncovered, "
            f"first at {example}")
    return CheckReport(
        name="periodicity",
        ok=ok_area and ok_overlap and ok_cell and ok_grid,
        violations=violations,
        metrics={"region_area": region_area, "cell_area": cell_area,
                 "max_overlap_area": worst, "central_cell_covered": clipped,
                 "sample_points": tested, "sample_misses": missed})


@dataclass(frozen=True)
class NormalityWitness:
    """Radii certifying the tiles are uniformly bounded: every tile contains
    a disk of the inradius and fits in one of the circumradius."""
    inradius: float
    incenter: tuple[float, float]
    circumradius: float
    circumcenter: tuple[float, float]

    @property
    def ratio(self) -> float:
        return self.circumradius / self.inradius


def normality_witness(pentagon) -> NormalityWitness:
    poly = pentagon.vertices
    in_center, in_r = largest_inscribed_circle(poly)
    out_center, out_r = smallest_enclosing_circle(poly)
    return NormalityWitness(inradius=in_r, incenter=tuple(in_center),
                            circumradius=out_r,
                            circumcenter=tuple(out_center))


def verify_patch(patch, tol: float = AREA_TOL) -> CheckReport:
    """Overlap plus coverage in one report; the standard patch health check."""
    report = check_no_overlap(patch, tol=tol)
    return report.merge(check_coverage(patch, tol=tol))
