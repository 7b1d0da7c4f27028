"""Checks that a recipe or a generated patch really is a tiling.

A patch's coverage is checked two ways, an exact area computation and an
independent point-sampling route, so a bug in one route cannot silently
pass the other. Its overlap has one route: a separating-axis test
certifies the pairs it can, and an exact clip measures the rest. A
recipe's periodicity is its area test and a gluing certificate read off
its orbit star, the one record of its lattice cell, with no window of
translates placed (`check_periodicity` gives the argument and each
tolerance). Each check names its metrics, and merging two reports refuses
a name both hold.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTile, InvalidInnerRadius
from .geometry import (
    close_pairs,
    corner_angles,
    convex_overlap_areas,
    farthest_distances,
    largest_inscribed_circle,
    points_in_convex_polygon,
    polygon_area,
    polygon_areas,
    polygon_disk_overlap_areas,
    smallest_enclosing_circle,
)

AREA_TOL = 1e-9          # relative to a tile / disk / cell area
SAMPLE_DIVISOR = 4.0     # grid pitch = tile inradius / SAMPLE_DIVISOR
GRID_POINTS_PER_TILE = 1024  # coverage grid bound; past it the pitch widens
CHUNK = 1024             # rows per stacked pass, to bound its scratch memory
SLACK = 1e-12            # separating-axis slack, per unit of a mean side
COVER_MARGIN = 1e-9      # coverage runs' margin, per unit of the grid's extent


@dataclass
class CheckReport:
    name: str
    ok: bool
    violations: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ok = bool(self.ok)  # numpy comparisons give numpy.bool_

    def merge(self, other: "CheckReport") -> "CheckReport":
        """Both reports in one; ValueError when both hold a metric of one
        name, which one would overwrite."""
        shared = sorted(self.metrics.keys() & other.metrics.keys())
        if shared:
            raise ValueError(f"reports {self.name} and {other.name} both "
                             f"hold the metrics {shared}")
        return CheckReport(name=f"{self.name}+{other.name}",
                           ok=self.ok and other.ok,
                           violations=self.violations + other.violations,
                           metrics={**self.metrics, **other.metrics})


def _bounding_circles(stacked, counts):
    """A bounding circle per stacked polygon: any center gives one, and the
    corner mean is cheapest; its radius is the farthest corner's
    distance."""
    centers = np.empty((len(stacked), 2))
    for c in np.flatnonzero(np.bincount(counts)):
        rows = counts == c
        centers[rows] = stacked[rows, :c].mean(axis=1)
    return centers, farthest_distances(centers, stacked)


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
    stacked, counts = patch.polygons, patch.counts
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


def _run_bounds(polys, r_inner, pitch, delta):
    """Each side's bound, in grid indices, on the grid points δ inside it.
    Side k of a tile runs from a to a + d; on the ideal grid X = -r_inner +
    ix·pitch, Y = -r_inner + iy·pitch its value s = dx(Y - ay) - dy(X - ax)
    is at least δ·|d| where dy·ix <= dx·iy + h / pitch, with h = dx(-r_inner
    - ay) - dy(-r_inner - ax) - δ·|d|. On row iy that is ix >= slope·iy +
    offset for dy < 0 and ix <= for dy > 0: (slope, offset) of the lower
    and of the upper bounds, each (K, N), 0 and ∓inf for the other sides.
    A side with dy = 0 is constant along a row, and bounds the rows
    instead: iy >= or <= -h / (pitch·dx) for dx > 0 or < 0, the rows' least
    and greatest (N,). A side of zero length, the padding's, has s and h
    0, and bounds nothing."""
    d = np.roll(polys, -1, axis=1) - polys
    dx, dy = d[..., 0].T, d[..., 1].T
    h = (dx * (-r_inner - polys[..., 1].T) - dy * (-r_inner - polys[..., 0].T)
         - delta * np.hypot(dx, dy))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope, offset, row = dx / dy, h / (pitch * dy), -h / (pitch * dx)
    flat = dy == 0.0
    return (np.where(dy < 0.0, slope, 0.0),
            np.where(dy < 0.0, offset, -np.inf),
            np.where(dy > 0.0, slope, 0.0),
            np.where(dy > 0.0, offset, np.inf),
            np.where(flat & (dx > 0.0), row, -np.inf).max(axis=0),
            np.where(flat & (dx < 0.0), row, np.inf).min(axis=0))


def _run_points(at, n):
    """The flat indices at[i], at[i] + 1, ..., at[i] + n[i] - 1 of each run,
    in order."""
    return np.repeat(at - np.cumsum(n) + n, n) + np.arange(n.sum())


def _passes(n, size):
    """Slices of the runs of n[i] points, in order, each of about size
    points: a pass ends with the last run done by the next multiple of
    size, so it holds at most size points past its first run's."""
    cuts = np.searchsorted(np.cumsum(n), np.arange(size, n.sum(), size),
                           side="right")
    return map(slice, [0, *cuts], [*cuts, len(n)])


def _grid_cover_check(stacked, r_inner, pitch, eps):
    """Sampling route: every point of the grid of this pitch from -r_inner
    to r_inner on both axes that lies within r_inner - eps of the origin
    (`_in_disk`) must lie in a tile by points_in_convex_polygon(..., eps),
    eps >= 0. Returns (#tested, #missed, the first miss in row-major order
    or None).

    The grid is held as its axes xs and ys and one bool per point, set
    where a run covers it. A tile's index box runs from ceil(min' - 1/2)
    to floor(max' + 1/2), min' and max' being the corners' extremes in
    indices (padding repeats corners, so it moves no box). The eps band
    reaches eps / sin(theta / 2) past a corner of angle theta; with the
    check's eps, 1e-9 of the tile size, that is far less than half an
    index. So the box holds every point the tile's test can pass, and the
    covered set is the union of that test over the tiles' boxes.

    Most of it is certified by rows, by scan conversion (Foley, van Dam,
    Feiner & Hughes, Computer Graphics, 2nd ed., 1990, §3.6): on each row
    of a tile's box, the run of columns δ inside every side (`_run_bounds`)
    is marked covered, a pass of tiles at a time, each tile's rows padded
    to the tallest box's. δ is COVER_MARGIN × S, with S = r_inner + pitch +
    the largest |coordinate|, and u below is the unit roundoff, 1.1e-16.
    Every point of a run passes the test:

    - the test takes s on the float xs[ix] and ys[iy] in a few roundings,
      each under 2u·|d|·S, against a band -eps·|d| <= 0;
    - np.arange makes xs[i] as -r_inner + i·step', step' within u·r_inner
      of the pitch, so the axes stray from the ideal grid by at most
      (n + 3)·u·S on a grid of n points a side;
    - a bound's slope·iy + offset, taken back to s by pitch·|dy|, rounds by
      a few u·|d|·S however small dy is; ceil and floor are exact.

    On a grid under 10⁶ points a side that moves s by less than a quarter of
    δ·|d| (1e-9·|d|·S), so every point of a run lies inside the tile, in its
    box, and passes. A bound that is not a number (a side too short for its
    quotients to be finite) leaves its run empty.

    Then one pass over bands of rows: a band's disk points that no run
    covers, the holes and the points within δ of a side, are left. Each is
    joined to the tiles whose box holds it, a box row's left points being
    one searchsorted slice of the band's sorted flat indices, and takes
    points_in_convex_polygon(..., eps) against each. The test is
    elementwise, so each point gets the bits the box scan gave it, and
    every box holding a left point takes part: the returned triple is the
    one the test on every box gives, and the first band holding a miss
    gives the first miss. Passes hold about 64 K box-row sides, 64 K
    points of runs, 64 K points of a band or 16 K points of the exact
    test.
    """
    xs = np.arange(-r_inner, r_inner + pitch, pitch)
    ys = np.arange(-r_inner, r_inner + pitch, pitch)
    nx = len(xs)
    size = np.array([nx, len(ys)])
    # the extremes one corner at a time: a numpy reduction over so short an
    # axis costs several times more
    corners = stacked.transpose(1, 0, 2)
    first = np.ceil((functools.reduce(np.minimum, corners) + r_inner) / pitch
                    - 0.5)
    last = np.floor((functools.reduce(np.maximum, corners) + r_inner) / pitch
                    + 0.5)
    meets = np.all((last >= 0) & (first < size), axis=1)
    polys = stacked[meets]
    first = np.clip(first[meets], 0, size - 1).astype(np.intp)
    last = np.clip(last[meets], 0, size - 1).astype(np.intp)
    covered = np.zeros(len(ys) * nx, dtype=bool)

    delta = COVER_MARGIN * (r_inner + pitch
                            + float(np.abs(polys).max(initial=0.0)))
    lo_slope, lo_offset, hi_slope, hi_offset, row_lo, row_hi = _run_bounds(
        polys, r_inner, pitch, delta)
    bottom = np.maximum(first[:, 1], row_lo)
    top = np.minimum(last[:, 1], row_hi)
    # each tile's rows padded to the tallest box's, as its own first rows
    # plus 0, 1, ...
    rows = np.arange((last - first)[:, 1].max(initial=0) + 1)
    sides = range(polys.shape[1])
    step = max(1, 64 * CHUNK // (len(rows) * len(sides)))
    for start in range(0, len(polys), step):
        part = slice(start, start + step)
        y = (first[part, 1:] + rows).astype(float)
        with np.errstate(invalid="ignore"):
            lo = functools.reduce(np.maximum, (
                lo_slope[k, part, None] * y + lo_offset[k, part, None]
                for k in sides))
            hi = functools.reduce(np.minimum, (
                hi_slope[k, part, None] * y + hi_offset[k, part, None]
                for k in sides))
        lo = np.maximum(np.ceil(lo), 0.0)
        hi = np.minimum(np.floor(hi), nx - 1.0)
        run = (lo <= hi) & (bottom[part, None] <= y) & (y <= top[part, None])
        lo = lo[run].astype(np.intp)
        n = hi[run].astype(np.intp) - lo + 1
        at = y[run].astype(np.intp) * nx + lo
        # a long thin tile's runs hold many points for few box-row sides
        for runs in _passes(n, 64 * CHUNK):
            covered[_run_points(at[runs], n[runs])] = True

    tested, missed, example = 0, 0, None
    band = max(1, 64 * CHUNK // nx)
    for start in range(0, len(ys), band):
        stop = start + band
        # the disk a band of rows at a time, as its norms are floats
        disk = _in_disk(xs[None, :], ys[start:stop, None],
                        r_inner - eps).ravel()
        tested += int(np.count_nonzero(disk))
        left = start * nx + np.flatnonzero(
            np.greater(disk, covered[start * nx:stop * nx], out=disk))
        if not len(left):
            continue
        # the rows of each box within the band, and each row's left points
        tile = np.flatnonzero((first[:, 1] < stop) & (last[:, 1] >= start))
        low = np.maximum(first[tile, 1], start)
        height = np.minimum(last[tile, 1], stop - 1) - low + 1
        tile = np.repeat(tile, height)
        row = _run_points(low, height) * nx
        at = np.searchsorted(left, row + first[tile, 0])
        n = np.searchsorted(left, row + last[tile, 0], side="right") - at
        hit = np.zeros(len(left), dtype=bool)
        for part in _passes(n, 16 * CHUNK):
            k = _run_points(at[part], n[part])
            inside = points_in_convex_polygon(
                xs[left[k] % nx], ys[left[k] // nx],
                polys[np.repeat(tile[part], n[part])], eps=eps)
            hit[k[inside]] = True
        miss = left[~hit]
        if len(miss) and example is None:
            iy, ix = divmod(int(miss[0]), nx)
            example = (float(xs[ix]), float(ys[iy]))
        missed += len(miss)
    return tested, missed, example


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
    if not len(patch.counts):
        raise InvalidInnerRadius("patch holds no tiles; nothing covers")
    center = np.asarray(patch.center, dtype=float)
    stacked, counts = patch.polygons - center, patch.counts
    first = stacked[0, :counts[0]]
    # the farthest corner from each corner slot in turn, with no
    # (N, K, K, 2) temporary: the largest norm of a pair's difference
    diam = float(functools.reduce(np.maximum, (
        farthest_distances(stacked[:, k], stacked)
        for k in range(stacked.shape[1]))).max())
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

    # the exact areas in slices of 4·CHUNK tiles, to bound their scratch
    # memory, added in tile order as one sum over them all adds them
    step = 4 * CHUNK
    covered_area = sum(itertools.chain.from_iterable(
        polygon_disk_overlap_areas(stacked[s:s + step], counts[s:s + step],
                                   (0.0, 0.0), r_inner)
        for s in range(0, len(stacked), step)))
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
        tested, missed, example = _grid_cover_check(stacked, r_inner, pitch,
                                                    eps)
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


def area_mismatch(recipe) -> str | None:
    """None when the region area (`TilingRecipe.region_area`) is the cell
    area to AREA_TOL of it, else the violation."""
    region, cell = recipe.region_area, recipe.cell_area()
    if abs(region - cell) <= AREA_TOL * cell:
        return None
    return (f"region area {region:.9g} != lattice cell area {cell:.9g}; "
            f"gluing not checked")


def check_periodicity(recipe) -> CheckReport:
    """A recipe tiles the plane iff its region tiles glue into one copy of
    the torus R²/<u, v>: the area test (`area_mismatch`), then a
    certificate read off the recipe's orbit star.

    Glue the region tiles along the boundary steps the star pairs. If each
    step has exactly one reversed partner, a step of a lattice translate
    of a tile lying along it, each vertex orbit's corner angles, plus pi
    per stop inside a side, sum to 2pi, and each orbit's corners coincide,
    the glued tiles form a closed flat surface with no cone point. Placing
    the tiles maps it onto the torus by a local isometry, a covering of
    degree region area / cell area, which the area test makes 1 (Thurston,
    Three-Dimensional Geometry and Topology I, 1997; Grünbaum & Shephard,
    Tilings and Patterns, 1987, ch. 3). Each test's tolerance comes from
    the bound check_no_overlap puts on two tiles, AREA_TOL of the tile
    area A, with L the longest side and l the shortest:

    - unpaired_steps, the steps whose `OrbitStar.paired` is not 1: none;
    - max_seam_gap, the farthest end of a glued step's partner from the
      step's side line (a stop inside a side sits at its stop_param), at
      most tau = AREA_TOL·A / L: the two differ by a strip tau wide and at
      most L long;
    - max_angle_residual, the largest |angle sum - 2pi|, at most
      2·AREA_TOL·A / l², where a wedge between two sides l long holds
      AREA_TOL·A;
    - max_corner_spread, the farthest corner from its orbit's mean, at
      most sigma = sqrt(AREA_TOL·A / (2·pi)), whose disk holds half of
      AREA_TOL·A. Across their sides the seam test bounds the corners; the
      arrangement merges vertices that lie apart along them by less than
      the merge distance, as a pentagon drawn near a Type's default has;
    - each stop inside a side has its stop_param in (0, 1).

    When the area test fails, only region_area and cell_area are reported.
    """
    from .arrangement import _next_corners, orbit_vertices

    metrics = {"region_area": recipe.region_area,
               "cell_area": recipe.cell_area()}
    mismatch = area_mismatch(recipe)
    if mismatch:
        return CheckReport(name="periodicity", ok=False,
                           violations=[mismatch], metrics=metrics)
    star = recipe.orbit_star
    count, k = recipe.region_corners.shape[:2]
    flat = recipe.region_corners.reshape(-1, 2)
    nxt = _next_corners(np.arange(count + 1) * k)
    side = flat[nxt] - flat
    angle = np.full(len(star.stop_tile), math.pi)
    angle[star.corner] = corner_angles(side, nxt)
    turn = np.abs(np.bincount(star.stop_vertex[:, 2], angle) - 2.0 * math.pi)

    # each stop placed on its tile's boundary, and each glued step's
    # partner's ends measured from the step's side line
    on = np.cumsum(star.corner) - 1
    at = flat[on] + star.stop_param[:, None] * side[on]
    step = np.flatnonzero(star.paired == 1)
    t = star.partner[step]
    shift = (star.stop_vertex[step, :2]
             - star.stop_vertex[star.next_stop[t], :2])
    ends = recipe.moved(np.stack([at[t], at[star.next_stop[t]]], axis=1),
                        shift[:, :1], shift[:, 1:]) - flat[on[step], None]
    line = side[on[step]] / np.hypot(*side[on[step]].T)[:, None]
    seam = np.abs(ends[..., 0] * line[:, 1, None]
                  - ends[..., 1] * line[:, 0, None]).max(axis=1)

    vertex = star.stop_vertex[star.corner]
    home, mean = orbit_vertices(recipe, vertex)
    spread = np.hypot(*(home - mean[vertex[:, 2]]).T)

    unpaired = int(np.count_nonzero(star.paired != 1))
    metrics["unpaired_steps"] = unpaired
    violations = [f"{unpaired} of {len(star.paired)} boundary steps glue to "
                  f"no reversed step or to several"] if unpaired else []
    # the region tiles are congruent, and their areas the cell's
    area, edges = recipe.region_area / count, recipe.pentagon.edges
    for name, residual, bound, worst in (
            ("max_seam_gap", seam, AREA_TOL * area / max(edges),
             lambda i: f"a step along side {on[step[i]] % k} of region "
                       f"tile {on[step[i]] // k} and the step glued to it "
                       f"lie apart by"),
            ("max_angle_residual", turn, 2.0 * AREA_TOL * area
             / min(edges) ** 2,
             lambda i: f"the angles at vertex orbit {i} miss 2pi by"),
            ("max_corner_spread", spread,
             math.sqrt(AREA_TOL * area / (2.0 * math.pi)),
             lambda i: f"corner {i % k} of region tile {i // k} lies off "
                       f"its vertex by")):
        metrics[name] = float(residual.max(initial=0.0))
        if not metrics[name] <= bound:
            violations.append(f"{worst(int(np.argmax(residual)))} "
                              f"{metrics[name]:.3e}, over {bound:.3e}")
    split = star.corner | (star.stop_param > 0.0) & (star.stop_param < 1.0)
    if not split.all():
        h = int(np.argmin(split))
        violations.append(
            f"vertex {tuple(star.stop_vertex[h].tolist())} splits side "
            f"{on[h] % k} of region tile {on[h] // k} at "
            f"{star.stop_param[h]:.9g}, outside (0, 1)")
    return CheckReport(name="periodicity", ok=not violations,
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
