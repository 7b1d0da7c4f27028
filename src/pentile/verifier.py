"""Checks that a recipe or a generated patch really is a tiling.

Overlap, coverage and periodicity are each checked two ways where practical:
an exact area computation and an independent point-sampling route, so a bug
in one route cannot silently pass the other.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTile, InvalidInnerRadius
from .geometry import (
    ccw,
    close_pairs,
    convex_overlap_areas,
    largest_inscribed_circle,
    points_in_convex_polygon,
    polygon_area,
    polygon_areas,
    polygon_disk_overlap_areas,
    smallest_enclosing_circle,
    stack_polygons,
)
from .tiling import near_translates

AREA_TOL = 1e-9          # relative to a tile / disk / cell area
SAMPLE_DIVISOR = 4.0     # grid pitch = tile inradius / SAMPLE_DIVISOR
GRID_POINTS_PER_TILE = 1024  # coverage grid bound; past it the pitch widens
CHUNK = 1024             # rows per stacked pass, to bound its scratch memory
SLACK = 1e-12            # separating-axis slack, per unit of a mean side


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


def _bounding_circles(stacked, counts):
    """A bounding circle per stacked polygon: any center gives one, and the
    corner mean is cheapest."""
    centers = np.empty((len(stacked), 2))
    for c in np.unique(counts):
        rows = counts == c
        centers[rows] = stacked[rows, :c].mean(axis=1)
    radii = np.linalg.norm(stacked - centers[:, None], axis=2).max(axis=1)
    return centers, radii


def _side_lines(stacked):
    """Each stacked ccw polygon's side lines, for the separating-axis test:
    unit outward normals (N, 2, K), each side's offset along its normal
    from the polygon's first corner (N, K), and the slack δ = SLACK × the
    mean side (N,). Side k runs from corner k to corner k + 1 of the padded
    stack, so the padding's sides have zero length; their offset is +inf,
    and no corner lies beyond them."""
    side = np.roll(stacked, -1, axis=1) - stacked
    length = np.hypot(side[..., 0], side[..., 1])
    real = length > 0.0
    normals = (np.stack([side[..., 1], -side[..., 0]], axis=1)
               / np.where(real, length, 1.0)[:, None])
    rel = stacked - stacked[:, :1]
    offsets = np.where(real, normals[:, 0] * rel[..., 0]
                       + normals[:, 1] * rel[..., 1], np.inf)
    slack = SLACK * length.sum(axis=1) / real.sum(axis=1)
    return normals, offsets, slack


def _separated(stacked, lines, a, b):
    """Mask of the pairs (a[k], b[k]) in which some side line of polygon
    a[k] has every corner of polygon b[k] beyond it, or at most a[k]'s
    slack δ short of it: one (P, K, 2) @ (P, 2, K) matmul of corners
    against normals. Convex polygons so placed share at most a strip δ wide
    along that line, an area of at most δ · diam of either. Distances are
    taken from a[k]'s first corner, so they round at the pair's size
    wherever it lies."""
    normals, offsets, slack = lines
    dist = np.matmul(stacked[b] - stacked[a, :1], normals[a])
    # the least over corners, one corner at a time: a numpy reduction over
    # so short an axis costs several times more
    least = functools.reduce(np.minimum, dist.transpose(1, 0, 2))
    beyond = least - offsets[a]
    return (beyond >= -slack[a, None]).any(axis=1)


def _pairwise_overlap(stacked, counts):
    """Worst pairwise overlap area among stacked ccw convex polygons, with
    its pair, among the close pairs of corner-mean centres.

    Each CHUNK of pairs first runs the separating-axis test, _separated:
    the side lines of i against the corners of j, then those of j against
    the corners of i for the pairs still open. A certified pair shares at
    most δ · diam of the polygon owning the line, with δ = SLACK × its mean
    side: about 1000 times below AREA_TOL of a tile. Only the other pairs
    are clipped. The result is the first maximum in (i, j) order among the
    clipped pairs, and 0.0 with no pair when none is clipped or every clip
    is empty. A pair sharing more than δ · diam cannot be certified, so an
    overlap past AREA_TOL gets the same pair and area as a clip of every
    candidate pair would give."""
    if len(stacked) < 2:
        return 0.0, None
    centers, radii = _bounding_circles(stacked, counts)
    i, j = close_pairs(centers, 2.0 * radii.max())
    lines = _side_lines(stacked)
    areas = np.zeros(len(i))
    for start in range(0, len(i), CHUNK):
        a, b = i[start:start + CHUNK], j[start:start + CHUNK]
        clip = ~_separated(stacked, lines, a, b)
        clip[clip] = ~_separated(stacked, lines, b[clip], a[clip])
        if clip.any():
            a, b = a[clip], b[clip]
            areas[start + np.flatnonzero(clip)] = convex_overlap_areas(
                stacked[a], counts[a], stacked[b])
    k = int(np.argmax(areas)) if len(areas) else 0
    if not len(areas) or not areas[k] > 0.0:
        return 0.0, None
    return float(areas[k]), (int(i[k]), int(j[k]))


def check_no_overlap(patch) -> CheckReport:
    """No two patch tiles may share more than AREA_TOL of a tile's area.

    _pairwise_overlap certifies the pairs that a side line of one tile
    separates from the other, to within δ = SLACK × a mean side, and clips
    the rest; max_overlap_area is the largest clip, and 0.0 when every
    pair is certified. A certified pair shares at most δ · diam, far below
    the bound. Areas and clips are taken relative to the disk center, when
    the patch has one: their rounding then scales with the tiles, not with
    how far the disk lies from the origin. A tile of zero area, or one so
    small that the overlap over its area is not finite, is DegenerateTile.
    """
    stacked, counts = stack_polygons([t.polygon for t in patch.tiles])
    if patch.center is not None:
        stacked = stacked - np.asarray(patch.center, dtype=float)
    areas = np.abs(polygon_areas(stacked, counts))
    ref = float(areas.min()) if len(areas) else 1.0
    if ref == 0.0:
        raise DegenerateTile(f"tile {int(np.argmin(areas))} has zero area")
    worst, pair = _pairwise_overlap(stacked, counts)
    if not math.isfinite(worst / ref):
        raise DegenerateTile(
            f"tile {int(np.argmin(areas))} has area {ref:.3e}, too small "
            f"for the overlap {worst:.3e} to be a finite fraction of it")
    ok = worst <= AREA_TOL * ref
    violations = []
    if not ok:
        violations.append(
            f"tiles {pair[0]} and {pair[1]} overlap by area {worst:.3e} "
            f"({worst / ref:.3e} of a tile)")
    return CheckReport(name="no_overlap", ok=ok, violations=violations,
                       metrics={"max_overlap_area": worst,
                                "max_overlap_fraction": worst / ref})


def _grid_cover_check(stacked, region_mask, lo, hi, pitch, eps):
    """Sampling route: every grid point passing region_mask must lie in a
    tile. Returns (#tested, #missed, the first miss in row-major order or
    None).

    The grid is held only as its axes xs and ys: region_mask(px, py) takes
    the row xs (1, nx) against the column ys (ny, 1), and no point array is
    built. Each tile runs points_in_convex_polygon(..., eps) on the grid
    points of its index box, one index wider than its corners each way
    (padding repeats corners, so it moves no box), as a column ys[iy]
    (B, wy, 1) against a row xs[ix] (B, 1, wx). The eps band reaches
    eps / sin(theta / 2) past a corner of angle theta; with the checks'
    eps, 1e-9 of the tile or cell size, that is far less than one index.
    So the box holds every point the tile can, and the covered set is the
    union of that test over all tiles."""
    xs = np.arange(lo[0], hi[0] + pitch, pitch)
    ys = np.arange(lo[1], hi[1] + pitch, pitch)
    wanted = region_mask(xs[None, :], ys[:, None])
    size = np.array([len(xs), len(ys)])
    first = np.floor((stacked.min(axis=1) - lo) / pitch) - 1
    last = np.floor((stacked.max(axis=1) - lo) / pitch) + 1
    meets = np.all((last >= 0) & (first < size), axis=1)
    polys = stacked[meets]
    first = np.clip(first[meets], 0, size - 1).astype(np.intp)
    last = np.clip(last[meets], 0, size - 1).astype(np.intp)
    covered = np.zeros(wanted.shape, dtype=bool)
    # boxes padded to the largest, whose padding retests grid points; a
    # pass holds up to CHUNK box rows
    wx, wy = (last - first).max(axis=0, initial=0) + 1
    step = max(1, CHUNK // wy)
    for start in range(0, len(polys), step):
        box_lo = first[start:start + step]
        ix = np.minimum(box_lo[:, None, :1] + np.arange(wx), size[0] - 1)
        iy = np.minimum(box_lo[:, 1:, None] + np.arange(wy)[:, None],
                        size[1] - 1)
        hit = points_in_convex_polygon(
            xs[ix], ys[iy], polys[start:start + step, None, None], eps=eps)
        covered[np.broadcast_to(iy, hit.shape)[hit],
                np.broadcast_to(ix, hit.shape)[hit]] = True
    miss = wanted & ~covered
    missed = int(np.count_nonzero(miss))
    row, col = divmod(int(np.argmax(miss)), len(xs))
    example = (float(xs[col]), float(ys[row])) if missed else None
    return int(np.count_nonzero(wanted)), missed, example


def _in_disk(px, py, radius):
    """Bit for bit np.linalg.norm of the points (px, py), broadcast, <=
    radius, with one array of the broadcast shape."""
    norm = px * px + py * py
    return np.sqrt(norm, out=norm) <= radius


def check_coverage(patch, r_inner: float | None = None) -> CheckReport:
    """The inner disk D(r_inner, M) must be covered by the patch tiles.

    r_inner has to stay at least one tile circumradius short of the patch
    radius; beyond that the rim tiles themselves determine coverage and the
    check would be meaningless. That is InvalidInnerRadius.

    Two routes: exact circular-segment areas summed per tile, and an
    independent grid sample at a quarter of the tile inradius. An inner
    disk holding less area than one tile fails as vacuous. The first tile
    sets the grid pitch; when as many copies of it as there are tiles hold
    less area than the inner disk, the check fails without a grid sample.
    Where the grid would hold more than GRID_POINTS_PER_TILE points per
    tile, as for long, thin tiles, its pitch widens to keep to that bound.

    Everything is measured relative to the disk center, as in
    check_no_overlap, and the reported first miss is moved back.
    """
    if patch.r is None or patch.center is None:
        raise InvalidInnerRadius("patch carries no disk; nothing to cover")
    if not patch.tiles:
        raise InvalidInnerRadius("patch holds no tiles; nothing covers")
    center = np.asarray(patch.center, dtype=float)
    stacked, counts = stack_polygons([t.polygon for t in patch.tiles])
    stacked = stacked - center
    first = stacked[0, :counts[0]]
    # one pair of corner slots at a time, with no (N, K, K, 2) temporary
    diam = float(functools.reduce(np.maximum, (
        np.linalg.norm(stacked[:, k] - stacked[:, l], axis=-1)
        for k, l in itertools.combinations(range(stacked.shape[1]), 2))).max())
    # patch tiles are congruent; one circumradius bounds them all
    circumradius = smallest_enclosing_circle(first)[1]
    if r_inner is None:
        r_inner = patch.r - diam
    if not 0 < r_inner <= patch.r - circumradius + 1e-12:
        raise InvalidInnerRadius(
            f"inner radius {r_inner} not in (0, r - tile circumradius] "
            f"= (0, {patch.r - circumradius:.6g}]")
    disk_area = math.pi * r_inner ** 2
    tile_area = abs(polygon_area(first))

    covered_area = sum(polygon_disk_overlap_areas(stacked, counts, (0.0, 0.0),
                                                  r_inner))
    gap = disk_area - covered_area
    ok_area = abs(gap) <= AREA_TOL * disk_area

    # patch tiles are congruent, so one inradius sets the sampling pitch;
    # the grid, of at most (2·r_inner / pitch + 2)² points, keeps to its
    # bound by a wider pitch
    inradius = largest_inscribed_circle(first)[1]
    pitch = inradius / SAMPLE_DIVISOR
    side = math.sqrt(GRID_POINTS_PER_TILE * len(stacked))
    if 2.0 * (r_inner + pitch) > side * pitch:
        pitch = 2.0 * r_inner / (side - 2.0)
    eps = 1e-9 * diam

    # the first tile sets the pitch, so as many copies of it as there are
    # tiles must hold the disk's area before the grid is sampled
    tiles_area = len(stacked) * tile_area
    ok_tiles_area = tiles_area >= disk_area
    tested, missed, example = 0, 0, None
    if ok_tiles_area:
        tested, missed, example = _grid_cover_check(
            stacked, functools.partial(_in_disk, radius=r_inner - eps),
            np.full(2, -r_inner), np.full(2, r_inner), pitch, eps)
    if example is not None:
        example = tuple((center + example).tolist())
    ok_grid = missed == 0

    # an inner disk smaller than one tile tests next to nothing
    ok_size = disk_area >= tile_area
    violations = []
    if not ok_size:
        violations.append(
            f"vacuous: inner disk r = {r_inner:.6g} holds area "
            f"{disk_area:.6g}, less than one tile ({tile_area:.6g})")
    if not ok_tiles_area:
        violations.append(
            f"{len(stacked)} tiles of the first tile's area hold "
            f"{tiles_area:.6g}, less than the inner disk's {disk_area:.6g}; "
            f"grid sample skipped")
    if not ok_area:
        violations.append(
            f"covered area misses disk area by {gap:.3e} "
            f"({gap / disk_area:.3e} of the disk)")
    if not ok_grid:
        violations.append(
            f"{missed} of {tested} sample points uncovered, "
            f"first at {example}")
    return CheckReport(
        name="coverage", ok=ok_size and ok_tiles_area and ok_area and ok_grid,
        violations=violations,
        metrics={"r_inner": r_inner, "area_gap": gap,
                 "area_gap_fraction": gap / disk_area,
                 "sample_points": tested, "sample_misses": missed})


def check_periodicity(recipe) -> CheckReport:
    """A recipe tiles the plane iff the region tiles one lattice cell.

    The region area must equal the cell area; only then is the window built,
    as a cell the region does not fill can need an unbounded one. The window
    (`near_translates`) is every translate whose centroid lies within half
    the probe cell's longer diagonal, plus `recipe.radius` and the merge
    distance, of the cell's centre, the mean of the region centroids: every
    translate meeting the cell, and so a translate of every overlapping
    pair. A lattice box over MAX_TRANSLATES raises ParseError. The clips of
    a complete window sum to the region area for any recipe, as
    sum_t area((T + t) ∩ C) = area(T) over the lattice translations t, so
    the cell clip checks that the window is complete, the grid sample that
    the cell is covered, and the overlap check that no two tiles overlap.
    """
    cell_area = recipe.cell_area()
    region_area = sum(abs(polygon_area(p)) for p in recipe.region_corners)
    metrics = {"region_area": region_area, "cell_area": cell_area,
               "max_overlap_area": 0.0, "central_cell_covered": 0.0,
               "sample_points": 0, "sample_misses": 0}
    if not abs(region_area - cell_area) <= AREA_TOL * cell_area:
        return CheckReport(
            name="periodicity", ok=False, metrics=metrics, violations=[
                f"region area {region_area:.9g} != lattice cell area "
                f"{cell_area:.9g}; window not checked"])

    u, v = np.asarray(recipe.u), np.asarray(recipe.v)
    anchor = recipe.region_centroids.mean(axis=0)
    p0 = anchor - (u + v) / 2.0
    cell = ccw(np.array([p0, p0 + u, p0 + u + v, p0 + v]))
    reach = (max(np.linalg.norm(u + v), np.linalg.norm(u - v)) / 2.0
             + recipe.radius + recipe.merge_distance)
    _, stacked = near_translates(recipe, anchor[None], reach)
    counts = np.full(len(stacked), stacked.shape[1])

    # region tiles are congruent copies of the pentagon; measure it once
    tile = recipe.pentagon.vertices
    worst, pair = _pairwise_overlap(stacked, counts)
    ok_overlap = worst <= AREA_TOL * abs(polygon_area(tile))
    clipped = sum(convex_overlap_areas(
        stacked, counts, np.broadcast_to(cell, (len(stacked), 4, 2))).tolist())
    ok_cell = abs(clipped - cell_area) <= AREA_TOL * cell_area

    pitch = largest_inscribed_circle(tile)[1] / SAMPLE_DIVISOR
    eps = 1e-9 * math.sqrt(cell_area)

    def in_cell(px, py):
        return points_in_convex_polygon(px, py, cell, eps=-eps)

    tested, missed, example = _grid_cover_check(
        stacked, in_cell, cell.min(axis=0), cell.max(axis=0), pitch, eps)

    violations = []
    if not ok_overlap:
        violations.append(
            f"window tiles {pair[0]} and {pair[1]} overlap by {worst:.3e}")
    if not ok_cell:
        violations.append(
            f"window covers {clipped:.9g} of the central cell, "
            f"expected {cell_area:.9g}")
    if missed:
        violations.append(
            f"{missed} of {tested} cell sample points uncovered, "
            f"first at {example}")
    metrics.update(max_overlap_area=worst, central_cell_covered=clipped,
                   sample_points=tested, sample_misses=missed)
    return CheckReport(name="periodicity",
                       ok=ok_overlap and ok_cell and not missed,
                       violations=violations, metrics=metrics)


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


def verify_patch(patch) -> CheckReport:
    """Overlap plus coverage in one report; the standard patch health check."""
    return check_no_overlap(patch).merge(check_coverage(patch))
