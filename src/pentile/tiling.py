"""Periodic tilings as fundamental-region recipes, and disk-generated patches.

A recipe is one pentagon, a list of isometries placing the tiles of a
fundamental region, and two lattice translation vectors. Replicating the
region over the lattice tiles the plane; a patch is the finite piece of that
tiling generated by a disk.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .catalog import get_type_spec
from .errors import (
    ParseError,
    RecipeInvalid,
    TypeMismatch,
    UnknownType,
    number,
    require_finite,
    require_positive,
)
from .geometry import (
    component_labels,
    farthest_distances,
    interior_angles,
    polygon_areas,
    polygon_centroids,
    polygon_distances,
    polygon_edge_lengths,
    rot_matrix,
)
from .pentagon import Pentagon, pentagon_from_json_dict

# TilingRecipe.periodicity and generate_patch import check_periodicity and
# Patch in their bodies: verifier and arrangement import this module, and a
# name looked up at call time is the one a tracer that replaces module
# attributes (perfbench/spans.py) installed, so the calls made inside the
# library are traced too.

LATTICE_TOL = 1e-12        # |u x v| below this (relative) means parallel
SNAP_FACTOR = 1e-7         # vertex merge radius, relative to mean edge
# largest magnitude of a recipe's region translations and of a patch
# document's numbers: the enclosing circle's product of three stays finite
COORD_LIMIT = 1e100
RECIPE_CACHE_SIZE = 64     # checked built-in recipes kept for reuse
# most lattice translates near_translates scans. It bounds the scan, not a
# run's memory: generate_patch peaks at about 1 370 B per tile (tracemalloc,
# Type 4 at r = 300), and writing the patch's document takes more, so a
# disk this bound admits can still need more memory than a machine has
MAX_TRANSLATES = 2_000_000
# patch_rows' F1 margin on centroid distances, relative to the disk's size
# and its centre's distance from the origin: far beyond their rounding
BAND_MARGIN = 1e-9


@dataclass(frozen=True)
class Isometry:
    """Plane isometry: reflect across the x-axis, rotate, then translate."""

    rotation: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)
    reflect: bool = False

    @classmethod
    def rotation_about(cls, angle: float, center) -> "Isometry":
        c = np.asarray(center, dtype=float)
        t = c - rot_matrix(angle) @ c
        return cls(rotation=angle, translation=tuple(t))

    @classmethod
    def match_segment(cls, p0, p1, q0, q1, reflect: bool = False) -> "Isometry":
        """The isometry sending segment p0-p1 onto segment q0-q1.

        Segments must have equal length; with reflect=True the map reverses
        orientation.
        """
        p0, p1, q0, q1 = (np.asarray(x, dtype=float) for x in (p0, p1, q0, q1))
        lp, lq = np.linalg.norm(p1 - p0), np.linalg.norm(q1 - q0)
        if abs(lp - lq) > 1e-9 * max(lp, lq):
            raise ValueError(f"segment lengths differ: {lp} vs {lq}")
        ang_p = math.atan2(*(p1 - p0)[::-1])
        ang_q = math.atan2(*(q1 - q0)[::-1])
        rotation = ang_q + ang_p if reflect else ang_q - ang_p
        iso = cls(rotation=rotation, reflect=reflect)
        t = q0 - iso.apply(p0)
        return cls(rotation=rotation, translation=tuple(t), reflect=reflect)

    def matrix(self) -> np.ndarray:
        m = rot_matrix(self.rotation)
        if self.reflect:
            m = m @ np.diag([1.0, -1.0])
        return m

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix().T + np.asarray(self.translation)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other)).apply(x) = self(other(x))."""
        rotation = self.rotation + (-other.rotation if self.reflect
                                    else other.rotation)
        return Isometry(rotation=rotation,
                        translation=tuple(self.apply(other.translation)),
                        reflect=self.reflect ^ other.reflect)

    def to_json_dict(self) -> dict:
        return {"rot_deg": math.degrees(self.rotation),
                "tx": self.translation[0], "ty": self.translation[1],
                "reflect": self.reflect}

    @classmethod
    def from_json_dict(cls, record: Mapping) -> "Isometry":
        try:
            rot_deg, tx, ty = (number(record[k])
                               for k in ("rot_deg", "tx", "ty"))
            require_finite("isometry record", (rot_deg, tx, ty))
            if max(abs(tx), abs(ty)) > COORD_LIMIT:
                raise ValueError(f"translation beyond {COORD_LIMIT:g}")
            reflect = record.get("reflect", False)
            if not isinstance(reflect, bool):
                raise TypeError(f"reflect {reflect!r} is not true or false")
            return cls(rotation=math.radians(rot_deg), translation=(tx, ty),
                       reflect=reflect)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ParseError(f"bad isometry record: {exc}") from None


@dataclass(frozen=True)
class TilingRecipe:
    pentagon: Pentagon
    region: tuple[Isometry, ...]
    u: tuple[float, float]
    v: tuple[float, float]

    def __post_init__(self):
        require_finite("lattice vectors and cell area",
                       (*self.u, *self.v, self.cell_area()))
        scale = self.pentagon.mean_edge() ** 2
        if self.cell_area() <= LATTICE_TOL * max(scale, 1e-30):
            raise RecipeInvalid("lattice vectors u, v are parallel")
        if not self.region:
            raise RecipeInvalid("fundamental region holds no tiles")
        # a translation far beyond the tile's size rounds its area to 0
        with np.errstate(all="ignore"):
            c = self.region_centroids
        if not np.isfinite(c).all():
            raise RecipeInvalid("a region tile has no finite centroid")

    def region_polygons(self) -> list[np.ndarray]:
        """Region tiles as ccw polygons: the rows of region_corners."""
        return list(self.region_corners)

    def corners(self, rows: np.ndarray) -> np.ndarray:
        """The (N, K, 2) corners of the translates in rows, (m, n, j) each:
        region tile j's corners moved by m·u + n·v (`moved`)."""
        return self.moved(self.region_corners.take(rows[:, 2], axis=0),
                          rows[:, :1], rows[:, 1:2])

    def moved(self, points: np.ndarray, m, n) -> np.ndarray:
        """points, (..., 2), moved in place by m·u + n·v, m and n
        broadcasting against points[..., 0]: each coordinate plus
        m·u[a] + n·v[a], a shift rounded as `near_translates` rounds it for
        a tile's centroid. The one placement rule for lattice translates."""
        u, v = np.asarray(self.u), np.asarray(self.v)
        for a in (0, 1):
            points[..., a] += m * u[a] + n * v[a]
        return points

    @functools.cached_property
    def region_corners(self) -> np.ndarray:
        """The region tiles as one (k, 5, 2) stack of ccw polygons: the
        pentagon times every isometry's transposed matrix in one matmul,
        plus the translations. Reflected placements come out clockwise and
        are reversed."""
        turns = np.array([iso.matrix() for iso in self.region])
        shifts = np.array([iso.translation for iso in self.region])
        placed = (np.matmul(self.pentagon.vertices, turns.transpose(0, 2, 1))
                  + shifts[:, None])
        flip = ~(polygon_areas(placed, np.full(len(placed), 5)) >= 0)
        placed[flip] = placed[flip, ::-1]
        return placed

    @functools.cached_property
    def region_area(self) -> float:
        """The region tiles' total area. Each tile's shoelace sum is taken
        about its own first corner, so it rounds at the tile's size however
        far out the recipe places the tile."""
        corners = self.region_corners
        return sum(np.abs(polygon_areas(
            corners - corners[:, :1],
            np.full(len(corners), corners.shape[1]))).tolist())

    @functools.cached_property
    def region_centroids(self) -> np.ndarray:
        """Centroid of each region tile, (k, 2)."""
        return polygon_centroids(self.region_corners)

    @property
    def merge_distance(self) -> float:
        """Corners closer than this are one vertex."""
        return SNAP_FACTOR * self.pentagon.mean_edge()

    @functools.cached_property
    def radius(self) -> float:
        """How far a region tile reaches from its centroid: the largest
        corner distance over the region tiles."""
        return float(farthest_distances(self.region_centroids,
                                        self.region_corners).max())

    @functools.cached_property
    def periodicity(self):
        """`verifier.check_periodicity` of the recipe, run once: the one
        rule for whether the recipe tiles."""
        from .verifier import check_periodicity

        return check_periodicity(self)

    @functools.cached_property
    def orbit_star(self):
        """The recipe's one lattice cell, `arrangement.cell_arrangement`,
        built once; RecipeInvalid when the region area is not the cell area
        (`verifier.area_mismatch`), as such a cell can need an unbounded
        lattice join. The rest of the periodicity check reads it."""
        from .arrangement import cell_arrangement
        from .verifier import area_mismatch

        mismatch = area_mismatch(self)
        if mismatch:
            raise RecipeInvalid(f"recipe does not tile: {[mismatch]}")
        return cell_arrangement(self)

    @functools.cached_property
    def lattice_bins(self) -> tuple[np.ndarray, np.ndarray]:
        """The region as `near_translates` scans it, made once: the matrix
        taking a point to its lattice coefficients (a, b), and the region
        centroids' coefficients binned by whole cells, as each bin's
        largest a, -a, b + κ·a and -(b + κ·a), κ = (u·v)/|v|²."""
        u, v = np.asarray(self.u), np.asarray(self.v)
        with np.errstate(all="ignore"):
            inv = np.linalg.inv(np.column_stack([u, v]))
            g = self.region_centroids @ inv.T
            g = g[np.lexsort(np.floor(g).T)]
            cell = np.floor(g)
            bins = np.flatnonzero(np.concatenate(
                [[True], (cell[1:] != cell[:-1]).any(axis=1)]))
            axis = g[:, 1] + float(u @ v) / float(v @ v) * g[:, 0]
            return inv, np.maximum.reduceat(
                np.column_stack([g[:, 0], -g[:, 0], axis, -axis]), bins)

    def cell_area(self) -> float:
        return abs(self.u[0] * self.v[1] - self.u[1] * self.v[0])

    def to_json_dict(self) -> dict:
        return {"pentagon": self.pentagon.to_json_dict(),
                "region": [iso.to_json_dict() for iso in self.region],
                "lattice": [list(self.u), list(self.v)]}


def load_recipe(document) -> TilingRecipe:
    """The recipe of a parsed recipe document, as `to_json_dict` gives it;
    ParseError when it is not one."""
    if not isinstance(document, Mapping):
        raise ParseError("recipe document must be a JSON object")
    try:
        pentagon_doc = document["pentagon"]
        region_docs = list(document["region"])
        (ux, uy), (vx, vy) = document["lattice"]
        u, v = (number(ux), number(uy)), (number(vx), number(vy))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"bad recipe document: {exc}") from None
    pentagon = pentagon_from_json_dict(pentagon_doc)
    region = tuple(Isometry.from_json_dict(r) for r in region_docs)
    return TilingRecipe(pentagon=pentagon, region=region, u=u, v=v)


@dataclass(frozen=True)
class PlacedTile:
    cell: tuple[int, int]
    polygon: np.ndarray        # counterclockwise, even for reflected tiles
    zone: str = ""             # F1, F2 or F3 once patch-classified


# --- built-in fundamental regions for Types 1, 2, 4 and 5 ------------------
#
# each builder returns candidate (region, u, v) triples, best first; the
# first one that passes verification wins

def _type1_region(p: Pentagon):
    """Pair a pentagon with a half-turned copy; two ways.

    Gluing along side b interlocks straight rows that may slide freely, so
    row offsets avoid corner-on-corner contact; it only closes up for
    special shapes like the house pentagon. Gluing along side d always
    works: D + E = 180 makes that union a centrally symmetric hexagon,
    which tiles by translation.
    """
    vv = p.vertices
    u = vv[2] - vv[0]
    candidates = []
    mid_b = (vv[1] + vv[2]) / 2.0
    row_pair = (Isometry(), Isometry.rotation_about(math.pi, mid_b))
    for slide in (0.25, 1.0 / 3.0):
        v = (vv[1] + vv[2] - 2.0 * vv[3]) + slide * u
        candidates.append((row_pair, u, v))
    mid_d = (vv[3] + vv[4]) / 2.0
    hex_pair = (Isometry(), Isometry.rotation_about(math.pi, mid_d))
    candidates.append((hex_pair, u, (2.0 * mid_d - vv[1]) - vv[2]))
    return candidates

def _type2_region(p: Pentagon):
    """Four tiles: a reflected copy glued a-onto-d, plus half turns of both.

    Needs a = d and A + D = 180 (the Type 2 conditions) so the glue seam is
    flat; the pair then repeats by a glide and a translation.
    """
    vv = p.vertices
    flip = Isometry.match_segment(vv[0], vv[1], vv[3], vv[4], reflect=True)
    mid_pb = (vv[1] + vv[2]) / 2.0
    mid_qb = (flip.apply(vv[1]) + flip.apply(vv[2])) / 2.0
    glide = Isometry.rotation_about(math.pi, mid_qb).compose(flip)
    half_b = Isometry.rotation_about(math.pi, mid_pb)
    region = (Isometry(), flip, glide, half_b)
    u = 2.0 * (mid_pb - mid_qb)
    doubled = glide.compose(glide)
    v = np.asarray(doubled.translation)
    return [(region, u, v)]

def _pivot_region(p: Pentagon, around_a: int, around_c: int):
    """around_a tiles turned about corner A, of angle 2π / around_a; the
    C corners, of angle 2π / around_c, pivot likewise, so u and v are
    (I - R(±2π / around_c))·(C - A). Type 4 puts four tiles about a right
    angle, Type 5 six about 60 degrees."""
    vv = p.vertices
    region = tuple(Isometry.rotation_about(k * 2 * math.pi / around_a, vv[0])
                   for k in range(around_a))
    c_rel = vv[2] - vv[0]
    eye = np.eye(2)
    u, v = ((eye - rot_matrix(turn * 2 * math.pi / around_c)) @ c_rel
            for turn in (1, -1))
    return [(region, u, v)]

_REGION_BUILDERS = {
    1: _type1_region, 2: _type2_region,
    4: functools.partial(_pivot_region, around_a=4, around_c=4),
    5: functools.partial(_pivot_region, around_a=6, around_c=3)}

BUILTIN_RECIPE_TYPES = tuple(sorted(_REGION_BUILDERS))


@functools.lru_cache(maxsize=RECIPE_CACHE_SIZE)
def builtin_recipe(type_id: int, pentagon: Pentagon) -> TilingRecipe:
    """Ready-made periodic tiling recipe for Types 1, 2, 4 and 5.

    The pentagon may be labeled any way round; it is relabeled to the
    canonical corner order of its Type first. Each candidate must pass its
    `periodicity` check, kept on the recipe, before it is returned. Recipes
    are frozen, so a repeated call hands back the one already checked.
    """
    if type_id not in _REGION_BUILDERS:
        raise UnknownType(
            f"no built-in recipe for Type {type_id!r}; "
            f"available: {BUILTIN_RECIPE_TYPES}")
    fitting = np.flatnonzero(get_type_spec(type_id).table.fits(pentagon)[:, 0])
    fits = [pentagon.relabeled(rotation=k % 5, reflect=k >= 5)
            for k in fitting.tolist()]
    if not fits:
        raise TypeMismatch(
            f"pentagon does not satisfy the Type {type_id} constraints")

    failure = None
    for q in fits:
        try:
            candidates = _REGION_BUILDERS[type_id](q)
        except ValueError as exc:
            # the Type's equal sides are equal to FIT_TOL but not to
            # the precision a glue isometry needs
            failure = [str(exc)]
            continue
        for region, u, v in candidates:
            recipe = TilingRecipe(pentagon=q, region=region,
                                  u=tuple(u), v=tuple(v))
            if recipe.periodicity.ok:
                return recipe
            failure = recipe.periodicity.violations
    raise RecipeInvalid(
        f"Type {type_id} recipe failed verification: {failure}")


# --- patch generation -------------------------------------------------------

def near_translates(recipe: TilingRecipe, center: np.ndarray,
                    reach: float):
    """The translates (m, n, j), region tile j moved by m·u + n·v, whose
    centroid lies within reach of the centre: their (N, 3) rows in
    (m, n, j) order, and each one's centroid distance from the centre, as
    np.linalg.norm rounds it. `TilingRecipe.corners` places them.

    Each lattice row m is scanned, for every j, over the n that the disk
    about the centre, less some region centroid, can meet in that row, one
    more each way for rounding, and the distance test picks from those.
    Raises ParseError, before any translate is allocated, when the rows do
    not fit int64 or the scan holds more than MAX_TRANSLATES translates."""
    u, v = np.asarray(recipe.u), np.asarray(recipe.v)
    k = len(recipe.region)
    vv = float(v @ v)
    kappa = float(u @ v) / vv
    det = abs(float(u[0] * v[1] - u[1] * v[0]))
    # in lattice coefficients (s, t) about the centre less a region
    # centroid, at (a, b), the disk is |s·u + t·v| <= reach: it spans the
    # rows |s| <= reach·|v| / det, and row s holds t = -s·κ ±
    # sqrt(reach²|v|² - s²det²)/|v|², widest at s = 0, κ = (u·v)/|v|².
    # The disks about the centre less the region centroids of one bin
    # (`TilingRecipe.lattice_bins`) are scanned together: their rows, each
    # with the hull of their n ranges at its least |s|, about the axis
    # t = b + κ·a - κ·m. Bounded in float first, where an overflow is inf
    # and fails the tests below
    inv, extent = recipe.lattice_bins
    with np.errstate(all="ignore"):
        a, b = inv @ center
        a_lo, a_hi = a - extent[:, 0], a + extent[:, 1]
        axis = b + kappa * a
        axis_lo, axis_hi = axis - extent[:, 2], axis + extent[:, 3]
        slack = reach * math.sqrt(vv) / det
        first, last = np.floor(a_lo - slack), np.ceil(a_hi + slack)
        spans = last - first + 1
    if not (-2.0 ** 62 < first.min() and last.max() < 2.0 ** 62):
        raise _scan_error(reach, "does not fit int64")
    # each of the rows one group of disks spans scans at least one n for
    # each j, and the floor(slack) of them within slack / 2 of one disk's
    # centre at least sqrt(3)·reach / |v| each, the chord there
    least = k * max(float(spans.max()),
                    math.floor(slack) * math.sqrt(3.0 / vv) * reach)
    if least > MAX_TRANSLATES:
        raise _scan_error(reach, f"holds at least {least:.3g} translates, "
                                 f"over MAX_TRANSLATES = {MAX_TRANSLATES:,}")
    spans = spans.astype(np.intp)
    group = np.repeat(np.arange(len(spans)), spans)
    m = first[group] + _ranks(spans)
    s = np.maximum(np.maximum(a_lo[group] - m, m - a_hi[group]), 0.0)
    with np.errstate(all="ignore"):
        half = np.sqrt(np.maximum(reach * reach * vv - s * s * det * det,
                                  0.0)) / vv
        lo = np.floor(axis_lo[group] - m * kappa - half) - 1.0
        hi = np.ceil(axis_hi[group] - m * kappa + half) + 1.0
    if not (-2.0 ** 62 < lo.min() and hi.max() < 2.0 ** 62):
        raise _scan_error(reach, "does not fit int64")
    # one n range per row: the hull of the groups' ranges in it
    order = np.argsort(m, kind="stable")
    m, lo, hi = m[order], lo[order], hi[order]
    fresh = np.flatnonzero(np.concatenate([[True], m[1:] != m[:-1]]))
    m = m[fresh].astype(np.intp)
    lo = np.minimum.reduceat(lo, fresh).astype(np.intp)
    width = np.maximum.reduceat(hi, fresh).astype(np.intp) - lo + 1
    count = float(width.sum(dtype=float)) * k
    if count > MAX_TRANSLATES:
        raise _scan_error(reach, f"holds {count:.3g} translates, over "
                                 f"MAX_TRANSLATES = {MAX_TRANSLATES:,}")
    m, n = np.repeat(m, width), np.repeat(lo, width) + _ranks(width)
    m, n, j = np.repeat(m, k), np.repeat(n, k), np.tile(np.arange(k), len(n))
    # the centroids as x and y arrays, each placed as `TilingRecipe.corners`
    # places a corner; a distance is the root of dx² + dy², the sum
    # np.linalg.norm makes over a 2-long axis
    dx, dy = (recipe.region_centroids[j, a] + (m * u[a] + n * v[a])
              - center[a] for a in (0, 1))
    gap = np.sqrt(dx * dx + dy * dy)
    near = gap <= reach
    return np.column_stack([m[near], n[near], j[near]]), gap[near]


def _scan_error(reach: float, what: str) -> ParseError:
    return ParseError(f"the lattice scan within {reach:.6g} of the centre "
                      f"{what}")


def _ranks(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., length - 1 for each of the lengths in turn."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths,
                                                lengths)


def _flood_reach(recipe: TilingRecipe, r: float) -> tuple[float, float]:
    """rho = r + diam + 2·eps, beyond which a tile's corner makes it open,
    and rho + radius + eps, how far the centroids of the tiles meeting the
    disk of radius rho lie from its centre (`generate_patch`)."""
    eps = recipe.merge_distance
    rho = r + recipe.pentagon.diameter + 2.0 * eps
    return rho, rho + recipe.radius + eps


def generate_patch(recipe: TilingRecipe, r: float, M=(0.0, 0.0)):
    """The patch A(r, M): tiles inside the disk, tiles meeting its boundary,
    and tiles surrounded by those, as a Patch on the recipe's lattice.

    Intended for disks larger than a single tile (r above one tile diameter);
    smaller disks still produce a patch but it may hold a tile or none.
    Raises RecipeInvalid, before any lattice scan, when the recipe does not
    tile (`TilingRecipe.periodicity`), and ParseError, naming r, when
    the candidates' lattice scan is over MAX_TRANSLATES (`near_translates`).

    F1 and F2 lie within r + eps + diam of M (eps the merge distance, diam
    the tile diameter), and so does every tile they enclose. With
    rho = r + diam + 2·eps, an outer tile with a corner beyond rho reaches
    the exterior of that disk, connected and free of F1 and F2, so it is
    open, and a touching chain out from any other open tile stays in the
    disk until it meets such a tile. So the flood starts from those tiles
    and needs only the tiles meeting that disk. A tile reaches at most
    `recipe.radius` from its centroid, so those lie among the translates
    whose centroid is within rho + radius of M (`near_translates`); the
    extra eps keeps the float comparison from dropping one at the bound.
    `patch_rows` picks the tiles. It places corners only for those near
    the rim: a tile whose centroid lies a margin δ, far beyond rounding,
    inside r - eps - `recipe.radius` is F1 by its centroid distance alone
    (the `patch_rows` docstring gives the argument).

    Every candidate is a translate (m, n) of a region tile, so its
    vertices are integer keys (m, n, orbit) read off the recipe's cell
    arrangement, built once per recipe from its region's corners. The
    flood fill's touch graph (tiles sharing a vertex) and the patch's
    arrangement (`Patch.from_cells`) both read these keys as
    `vertex_labels`, so they are the lattice's relations at any centre and
    no candidate pair is measured. Snapping the same tiles
    (`Patch.from_tiles`) gives the same arrays. The patch is its (m, n, j)
    rows, zones and recipe: its polygons are placed and its arrangement
    looked up when first read, and stats.compute_stats counts it on the
    recipe's orbit star with neither built.
    """
    from .arrangement import Patch

    require_positive("disk radius", r)
    center = np.asarray(M, dtype=float)
    require_finite("disk centre", center)
    [(rows, sizes)] = patch_rows(recipe, [r], center)
    zones = np.repeat(np.array(["F1", "F2", "F3"]), sizes)
    return Patch.from_cells(rows, zones, recipe, r=r, center=tuple(center))


def patch_rows(recipe: TilingRecipe, radii: Sequence[float],
               center: np.ndarray) -> list[tuple[np.ndarray, tuple]]:
    """The tiles of generate_patch's patch A(r, center) for each r in
    radii, in the order given: their (m, n, j) rows, in near_translates'
    order, F1 first, then F2, then F3, and the three zone sizes.

    Raises RecipeInvalid, naming the checks that failed, before any scan,
    when the recipe does not tile (`TilingRecipe.periodicity`). Then the
    lattice is scanned once, at the flood reach of the largest radius, and
    ParseError naming that radius refuses a scan over MAX_TRANSLATES
    (`near_translates`). The largest radius takes the scan as it is; each
    smaller one keeps the rows whose centroid distance is within its own
    reach, the rows and distances near_translates gives at that reach, as
    the distance is the one it measures.

    A tile is F1 when its farthest corner lies within r - eps of the
    centre, eps the merge distance. That corner lies within g + radius of
    it, g the centroid distance near_translates measures and radius
    `recipe.radius`, so a tile with g + radius <= r - eps - δ is F1 with
    no corner placed. The coordinates these distances are taken from, a
    corner's and a centroid's less the centre, round with errors of a few
    units in the last place of r + radius + |M|, under 1e-15 of it: a
    corner and its centroid add one rounded shift, and radius is measured
    on the region's corners less their centroids. δ, BAND_MARGIN times
    r + radius + |M|∞, is a million times that, so no rounding puts such
    a tile's computed farthest corner beyond r - eps. The other tiles, a
    band along the rim, are placed (`TilingRecipe.corners`), and their
    farthest corners, their distances from the centre and the F3 flood
    are measured as they were on every candidate.
    """
    if not recipe.periodicity.ok:
        raise RecipeInvalid(f"recipe does not tile: "
                            f"{recipe.periodicity.violations}")
    top = max(radii)
    try:
        scanned, gaps = near_translates(recipe, center,
                                        _flood_reach(recipe, top)[1])
    except ParseError as exc:
        raise ParseError(f"disk radius {top:g}: {exc}") from None

    eps = recipe.merge_distance
    patches = []
    for r in radii:
        rho, reach = _flood_reach(recipe, r)
        rows, gap = scanned, gaps
        if r < top:
            keep = gaps <= reach
            rows, gap = scanned[keep], gaps[keep]
        margin = BAND_MARGIN * (r + recipe.radius
                                + float(np.abs(center).max()))
        inner = gap + recipe.radius <= r - eps - margin
        band = np.flatnonzero(~inner)
        polys = recipe.corners(rows[band])
        d_max = farthest_distances(center, polys)
        near = d_max <= r - eps
        inner[band] = near
        rest, polys, d_max = band[~near], polys[~near], d_max[~near]
        meets = polygon_distances(center, polys) <= r + eps
        outer = rest[~meets]
        f3 = outer[_enclosed_tiles(rows[outer], d_max[~meets] > rho, recipe)]
        order = np.concatenate([np.flatnonzero(inner), rest[meets], f3])
        patches.append((rows[order], (np.count_nonzero(inner),
                                      np.count_nonzero(meets), len(f3))))
    return patches


def _enclosed_tiles(cells: np.ndarray, is_open: np.ndarray,
                    recipe: TilingRecipe) -> np.ndarray:
    """The F3 set: indices of the outside tiles, each given by its cell
    (m, n, region index), that no chain of touching tiles joins to a tile
    is_open marks. Two tiles touch when they share a vertex, as corner or
    side split: in sorted `vertex_labels` order each tile joins the next
    with its label, so no array is sized by label values, and the flood is
    the union of the touch graph's components that hold an open tile.
    """
    from .arrangement import vertex_labels

    if not len(cells):
        return np.zeros(0, dtype=int)
    labels, tile, _ = vertex_labels(cells, recipe.orbit_star)
    order = np.argsort(labels)
    labels, tile = labels[order], tile[order]
    same = labels[1:] == labels[:-1]
    component = component_labels(len(cells), tile[:-1][same], tile[1:][same])
    flooded = np.isin(component, component[is_open])
    return np.nonzero(~flooded)[0]


def congruence_defect(polygon: np.ndarray, pentagon: Pentagon) -> float:
    """Largest deviation of a placed tile polygon's edge lengths and angles
    from the recipe pentagon's, as multisets."""
    edges = np.sort(polygon_edge_lengths(polygon))
    angles = np.sort(interior_angles(polygon))
    return max(float(np.max(np.abs(edges - np.sort(pentagon.edges)))),
               float(np.max(np.abs(angles - np.sort(pentagon.angles)))))
