"""Planar arrangement of placed tiles.

Merges near-coincident tile corners into shared vertices, splits tile sides
at the vertices lying on them, and records incidence: which tiles meet at
each vertex, which tiles border each edge, which tiles share an edge.

A Patch keeps the arrangement as arrays: vertex rows (vertex_xy, pseudo,
complete), edge rows (edge_vertices) and four incidence relations as Csrs of
ascending id rows, except corner_vertices, which keeps polygon order.
vertex_tiles is the one tile-vertex incidence: a tile's vertices are the
rows that list it. Statistics count on the arrays; the vertices and edges
records are built one at a time as they are read, so a large patch holds no
object per vertex or edge for the garbage collector to walk.

The work runs on one flat array of all tile corners, with per-tile offsets so
polygons of different corner counts can mix; corner i opens side i. One of
two finders says which vertex each corner is and which vertices lie inside
each side; one assembly builds every array from that.

- Snapping (`Patch.from_tiles`, for documents and hand-built polygons):
  corners within eps of each other, chains included, are the connected
  components (`geometry.component_labels`) of the close pairs a grid
  neighbour search finds (`geometry.close_pairs`), and one more search,
  from the side midpoints to the vertices, finds the vertices lying inside
  sides.
- Lookup (`Patch.from_cells`, for generated patches): the recipe's
  CellArrangement, snapped once on one lattice cell's window, gives each
  region corner's vertex orbit and each region side's inner vertices, so a
  tile of cell (m, n) finds them by integer key, with no distance measured.
  `vertex_labels` turns each key into one integer label; generate_patch's
  flood fill joins the tiles that share a label.

Either way vertices are numbered by first corner occurrence and placed at
the mean of their corners. The assembly orders the stops along every side
with one lexsort, and edges, their owners and every incidence row come from
sorted unique (key, value) rows. A vertex is complete, surrounded by tiles,
when every edge at it borders two tiles: an integer test on edge_tiles,
with no angle and no tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ParseError
from .geometry import (
    close_pairs,
    component_labels,
    corner_angles,
    segment_distances,
)
from .tiling import COORD_LIMIT, SNAP_FACTOR, PlacedTile, near_translates

# a patch document's corners have nine significant digits: two copies of
# one corner differ by at most a unit in the ninth digit, 1e-8 |x|, per
# axis, so by under 2e-8 of the largest coordinate
DOCUMENT_PRECISION = 2e-8


@dataclass(frozen=True, eq=False)
class Csr:
    """Compressed rows of ids: row i is indices[indptr[i]:indptr[i + 1]]."""
    indptr: np.ndarray
    indices: np.ndarray

    def rows(self) -> list[tuple[int, ...]]:
        return list(map(self.row_getter(), range(len(self.indptr) - 1)))

    def row_getter(self) -> Callable[[int], tuple[int, ...]]:
        """row(i) as a tuple, read off two lists made once."""
        bounds, ids = self.indptr.tolist(), self.indices.tolist()
        return lambda i: tuple(ids[bounds[i]:bounds[i + 1]])


def _csr(rows, ids, n_rows: int) -> Csr:
    """Rows 0..n_rows-1 from (row, id) pairs sorted by row."""
    return Csr(np.searchsorted(rows, np.arange(n_rows + 1)), ids)


class PatchVertex(NamedTuple):
    xy: tuple[float, float]
    tiles: tuple[int, ...]
    valence: int          # number of incident tiles
    pseudo: bool          # lies inside some incident tile's side
    complete: bool        # every edge at it borders two tiles


class PatchEdge(NamedTuple):
    vertices: tuple[int, int]
    tiles: tuple[int, ...]


class Records(Sequence):
    """A read-only sequence of records, each made by make(i) when read.

    Compares equal to the tuple of its records.
    """

    def __init__(self, count: int, make: Callable[[int], tuple]):
        self._count, self._make = count, make

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._make, range(*i.indices(self._count))))
        k = range(self._count)[i]     # IndexError and TypeError as a tuple's
        return self._make(k)

    def __iter__(self):
        return map(self._make, range(self._count))

    def __eq__(self, other):
        if isinstance(other, (tuple, Records)):
            return tuple(self) == tuple(other)
        return NotImplemented


@dataclass(frozen=True, eq=False)
class Patch:
    tiles: tuple[PlacedTile, ...]
    vertex_xy: np.ndarray        # (V, 2)
    pseudo: np.ndarray           # (V,) lies inside some incident tile's side
    complete: np.ndarray         # (V,) every edge at it borders two tiles
    edge_vertices: np.ndarray    # (E, 2) vertex ids, lower first
    corner_vertices: Csr         # tile -> corner vertex ids, polygon order
    tile_adjacents: Csr          # tile -> tiles sharing an edge with it
    vertex_tiles: Csr            # vertex -> incident tiles
    edge_tiles: Csr              # edge -> tiles it borders
    r: float | None = None
    center: tuple[float, float] | None = None

    def interior_tile_ids(self) -> np.ndarray:
        """Tiles whose whole boundary is surrounded by patch tiles: those
        that no incomplete vertex lists in vertex_tiles."""
        vt = self.vertex_tiles
        open_tiles = vt.indices[np.repeat(~self.complete, np.diff(vt.indptr))]
        return np.flatnonzero(
            np.bincount(open_tiles, minlength=len(self.tiles)) == 0)

    @cached_property
    def vertices(self) -> Records:
        """One PatchVertex per vertex, built when read."""
        xy = self.vertex_xy.ravel().tolist()
        row = self.vertex_tiles.row_getter()
        pseudo, complete = self.pseudo.tolist(), self.complete.tolist()

        def record(i):
            tiles = row(i)
            return PatchVertex((xy[2 * i], xy[2 * i + 1]), tiles, len(tiles),
                               pseudo[i], complete[i])
        return Records(len(pseudo), record)

    @cached_property
    def edges(self) -> Records:
        """One PatchEdge per edge, built when read."""
        ends = self.edge_vertices.ravel().tolist()
        row = self.edge_tiles.row_getter()
        return Records(len(ends) // 2, lambda i: PatchEdge(
            (ends[2 * i], ends[2 * i + 1]), row(i)))

    @classmethod
    def from_polygons(cls, polygons: Iterable, r: float | None = None,
                      center=None) -> "Patch":
        """Arrangement of raw polygons; convenience for hand-built patches."""
        tiles = [PlacedTile(cell=(0, 0), polygon=np.asarray(p, dtype=float))
                 for p in polygons]
        return cls.from_tiles(tiles, r=r, center=center)

    @classmethod
    def from_tiles(cls, tiles: Sequence[PlacedTile], r: float | None = None,
                   center=None, precision: float = 0.0) -> "Patch":
        """Snap the tiles' corners into vertices and find the vertices
        inside their sides by distance. precision: the corners' relative
        error (DOCUMENT_PRECISION for a document's); the merge distance
        widens to match."""
        tiles = tuple(tiles)
        center = tuple(center) if center is not None else None
        if not tiles:
            none = np.zeros(0, dtype=np.intp)
            flags, rows = none.astype(bool), _csr(none, none, 0)
            return cls((), np.zeros((0, 2)), flags, flags,
                       none.reshape(0, 2), *[rows] * 4, r=r, center=center)
        points, offsets, nxt = _flat_corners(
            [np.asarray(t.polygon, dtype=float) for t in tiles])
        return cls._assembled(tiles, points, offsets, nxt,
                              *_snapped_incidence(points, nxt, precision),
                              r=r, center=center)

    @classmethod
    def from_cells(cls, tiles: Sequence[PlacedTile], corners: np.ndarray,
                   cells: np.ndarray, cell: "CellArrangement",
                   r: float | None = None, center=None) -> "Patch":
        """The arrangement of lattice translates of a recipe's region tiles,
        looked up in the recipe's cell arrangement: no snapping and no
        distances. corners is the tiles' (N, K, 2) corner stack and cells
        each tile's (m, n, region index); tiles holds at least one tile."""
        points, offsets, nxt = _stacked_corners(corners)
        return cls._assembled(tuple(tiles), points, offsets, nxt,
                              *_looked_up_incidence(points, cells, cell), r=r,
                              center=None if center is None else tuple(center))

    @classmethod
    def _assembled(cls, tiles, points, offsets, nxt, corner_vid, vertex_xy,
                   hits, r, center) -> "Patch":
        """The patch from either incidence finder: each corner's vertex id
        and each vertex's position, and the (side, vertex, param) of every
        vertex inside a side."""
        owner = np.repeat(np.arange(len(tiles)), np.diff(offsets))
        n_vertices = len(vertex_xy)

        # vertices sitting inside a side split it; the tile counts as
        # incident there
        hit_side, hit_vid, hit_param = hits
        split_vid, split_tile = _unique_rows(hit_vid, owner[hit_side])
        pseudo = np.zeros(n_vertices, dtype=bool)
        pseudo[split_vid] = True
        inc_vid, inc_tile = _unique_rows(
            np.concatenate([corner_vid, split_vid]),
            np.concatenate([owner, split_tile]))

        # each side's stops in order: its start corner, the vertices inside
        # it by parameter, its end corner; consecutive stops bound an edge
        n_sides = len(points)
        stop_side = np.concatenate([np.arange(n_sides), np.arange(n_sides),
                                    hit_side])
        stop_param = np.concatenate([np.full(n_sides, -np.inf),
                                     np.full(n_sides, np.inf), hit_param])
        stop_vid = np.concatenate([corner_vid, corner_vid[nxt], hit_vid])
        order = np.lexsort((stop_vid, stop_param, stop_side))
        stop_side, stop_vid = stop_side[order], stop_vid[order]
        same = stop_side[:-1] == stop_side[1:]
        v1, v2 = stop_vid[:-1][same], stop_vid[1:][same]
        edge_lo, edge_hi, edge_tile = _unique_rows(
            np.minimum(v1, v2), np.maximum(v1, v2),
            owner[stop_side[:-1][same]])
        new_edge = np.concatenate([[True], (edge_lo[1:] != edge_lo[:-1])
                                   | (edge_hi[1:] != edge_hi[:-1])])
        edge_id = np.cumsum(new_edge) - 1
        edge_tiles = _csr(edge_id, edge_tile, int(new_edge.sum()))
        edge_vertices = np.column_stack([edge_lo, edge_hi])[new_edge]

        # tiles surround a vertex exactly when its link closes: every edge
        # at it borders two tiles
        complete = np.ones(n_vertices, dtype=bool)
        complete[edge_vertices[np.diff(edge_tiles.indptr) != 2]] = False

        return cls(tiles=tiles, vertex_xy=vertex_xy, pseudo=pseudo,
                   complete=complete, edge_vertices=edge_vertices,
                   corner_vertices=Csr(offsets, corner_vid),
                   tile_adjacents=_sharing(edge_tiles, len(tiles)),
                   vertex_tiles=_csr(inc_vid, inc_tile, n_vertices),
                   edge_tiles=edge_tiles, r=r, center=center)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "center": list(self.center) if self.center else None,
            "tiles": [{"cell": list(t.cell), "zone": t.zone,
                       "polygon": np.asarray(t.polygon, dtype=float).tolist()}
                      for t in self.tiles],
            "vertices": [{"xy": xy, "valence": valence, "pseudo": pseudo,
                          "complete": complete}
                         for xy, valence, pseudo, complete in zip(
                             self.vertex_xy.tolist(),
                             np.diff(self.vertex_tiles.indptr).tolist(),
                             self.pseudo.tolist(), self.complete.tolist())],
            "edges": [{"vertices": ends, "tiles": list(tiles)}
                      for ends, tiles in zip(self.edge_vertices.tolist(),
                                             self.edge_tiles.rows())],
        }


def _flat_corners(polys):
    """All corners in one flat array, each polygon's offset into it plus the
    end, and nxt: corner i opens side i, which runs to corner nxt[i]."""
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in polys])])
    return np.concatenate(polys), offsets, _next_corners(offsets)


def _stacked_corners(corners):
    """`_flat_corners` of an (N, K, 2) stack of polygons, without a copy."""
    offsets = corners.shape[1] * np.arange(len(corners) + 1)
    return corners.reshape(-1, 2), offsets, _next_corners(offsets)


def _next_corners(offsets):
    nxt = np.arange(1, offsets[-1] + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    return nxt


def _snapped_incidence(points, nxt, precision):
    """The snapping finder: corners within eps of each other merge, chains
    included, and a vertex within eps of a side, ends excluded, lies inside
    it. Returns each corner's vertex id, each vertex's position and the
    (side, vertex, param) hits."""
    side = points[nxt] - points
    side_lengths = np.linalg.norm(side, axis=1)
    slack = precision * float(np.abs(points).max()) if precision else 0.0
    eps = max(SNAP_FACTOR * float(side_lengths.mean()), slack)
    corner_vid, vertex_xy = _vertices(
        component_labels(len(points), *close_pairs(points, eps)), points)[:2]
    return corner_vid, vertex_xy, _side_interior_incidence(
        points, nxt, side_lengths, corner_vid, vertex_xy, eps)


def _vertices(label, points):
    """Vertices from each corner's vertex label: each corner's vertex id,
    numbered by first corner occurrence, each vertex's position, the mean
    of its corners, and the sorted distinct labels with their vertex ids."""
    labels, first, inverse = np.unique(label, return_index=True,
                                       return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    corner_vid = rank[inverse]

    counts = np.bincount(corner_vid)
    vertex_xy = np.column_stack([np.bincount(corner_vid, weights=points[:, k])
                                 for k in (0, 1)]) / counts[:, None]
    return corner_vid, vertex_xy, labels, rank


def _side_interior_incidence(points, nxt, side_lengths, corner_vid,
                             vertex_xy, eps):
    """Find vertices lying strictly inside a tile side.

    Side i runs from corner i to corner nxt[i]. Returns the (side, vertex,
    param) of each hit, param running from 0 at the side's start to 1 at
    its end.
    """
    ends = points[nxt]
    # candidates: vertices within half a side (plus slack) of its midpoint
    reach = side_lengths / 2.0 + 2 * eps
    mid = (points + ends) / 2.0
    sid, vid = close_pairs(mid, float(reach.max()), vertex_xy)
    # rounded as close_pairs and a k-d tree round it, not as np.hypot
    gap = mid[sid] - vertex_xy[vid]
    dist = np.sqrt(gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1])
    keep = ((dist <= reach[sid]) & (vid != corner_vid[sid])
            & (vid != corner_vid[nxt[sid]]))
    vid, sid = vid[keep], sid[keep]
    a, b, p = points[sid], ends[sid], vertex_xy[vid]
    on = segment_distances(p, a, b) <= eps
    vid, sid, a, b, p = vid[on], sid[on], a[on], b[on], p[on]
    d = b - a
    param = np.sum((p - a) * d, axis=1) / np.sum(d * d, axis=1)
    return sid, vid, param


class CellArrangement(NamedTuple):
    """A periodic tiling's arrangement reduced to one lattice cell.

    Vertex (m, n, o) is vertex orbit o moved by m·u + n·v. Corner c of
    region tile i placed in cell (m, n) is vertex (m, n, 0) +
    corner_vertex[i, c]. Rows hit_ptr[i]:hit_ptr[i + 1] of the hit arrays
    are the vertices inside region tile i's sides: the side opened by
    corner hit_corner holds vertex (m, n, 0) + hit_vertex at hit_param
    along it. Two placed tiles touch exactly when they share a vertex,
    as corner or side split.
    """
    orbits: int
    corner_vertex: np.ndarray    # (k, K, 3)
    hit_ptr: np.ndarray          # (k + 1,)
    hit_corner: np.ndarray       # (H,)
    hit_vertex: np.ndarray       # (H, 3)
    hit_param: np.ndarray        # (H,)


def cell_arrangement(recipe) -> CellArrangement:
    """The recipe's cell arrangement, from the snapping finder run once on
    one window: the region tiles and every translate (m, n, j) of a region
    tile whose centroid lies within two tile radii (`TilingRecipe.radius`)
    plus the merge distance of some region tile's centroid. Those include
    all the tiles meeting a region tile, so every vertex of a region tile
    and every vertex inside its sides is in the window.

    The lattice acts on the window's vertex ids: corner c of window tile
    (m, n, j) is the vertex of region corner (j, c) moved by (m, n). The
    orbits are the classes this relation joins, numbered by first region
    corner, so no coordinate is rounded.
    """
    window, corners = near_translates(
        recipe, recipe.region_centroids,
        2.0 * recipe.radius + recipe.merge_distance)
    # the region tiles (0, 0, j) first, in order, then the rest in
    # (m, n, j) order
    first = np.argsort(window[:, :2].any(axis=1), kind="stable")
    window, corners = window[first], corners[first]
    count = len(recipe.region)
    points, _, nxt = _stacked_corners(corners)
    corner_vid, vertex_xy, (side, hit_vid, param) = _snapped_incidence(
        points, nxt, 0.0)
    k = corners.shape[1]
    vid = corner_vid.reshape(-1, k)

    # region corner (j, c) links to corner c of window tile (m, n, j), (m, n)
    # away; an orbit's smallest vertex id is its first region corner's
    a = np.concatenate([vid[window[:, 2]].ravel(), vid.ravel()])
    b = np.concatenate([vid.ravel(), vid[window[:, 2]].ravel()])
    step = np.repeat(window[:, :2], k, axis=0)
    step = np.concatenate([step, -step])
    roots, orbit = np.unique(component_labels(len(vertex_xy), a, b),
                             return_inverse=True)
    # walk out from each orbit's root, one link further per pass
    shift = np.zeros((len(vertex_xy), 2), dtype=np.intp)
    known = np.isin(np.arange(len(vertex_xy)), roots)
    while not known.all():
        ahead = known[a] & ~known[b]
        new, at = np.unique(b[ahead], return_index=True)
        shift[new] = shift[a[ahead][at]] + step[ahead][at]
        known[new] = True
    placed = np.column_stack([shift, orbit])

    on_region = side < count * k
    order = np.lexsort((param[on_region], side[on_region]))
    side, hit_vid = side[on_region][order], hit_vid[on_region][order]
    return CellArrangement(
        orbits=len(roots), corner_vertex=placed[vid[:count]],
        hit_ptr=np.searchsorted(side // k, np.arange(count + 1)),
        hit_corner=side % k, hit_vertex=placed[hit_vid],
        hit_param=param[on_region][order])


def vertex_labels(cells: np.ndarray, cell: CellArrangement):
    """One integer label per vertex key (m, n, orbit) of the translates in
    cells, given as (m, n, region index) rows: the corner labels in tile
    order, then the labels of the vertices inside their sides. Returns the
    labels, each label's tile and each side hit's row in the cell's hit
    arrays.

    A label is ((m - lo_m)·width + n - lo_n)·orbits + orbit over the cells'
    (m, n) box padded by the cell's largest step, so labels are
    non-negative and two are equal exactly when their keys are."""
    idx = cells[:, 2]
    per_tile = np.diff(cell.hit_ptr)[idx]
    tiles = np.arange(len(cells))
    row = np.arange(per_tile.sum()) + np.repeat(
        cell.hit_ptr[idx] - np.cumsum(per_tile) + per_tile, per_tile)
    tile = np.concatenate([np.repeat(tiles, cell.corner_vertex.shape[1]),
                           np.repeat(tiles, per_tile)])
    key = np.concatenate([cell.corner_vertex[idx].reshape(-1, 3),
                          cell.hit_vertex[row]])
    pad = max(np.abs(cell.corner_vertex[..., :2]).max(),
              np.abs(cell.hit_vertex[:, :2]).max(initial=0))
    lo = cells[:, :2].min(axis=0) - pad
    width = cells[:, 1].max() - lo[1] + pad + 1
    m = cells[tile, 0] + key[:, 0] - lo[0]
    n = cells[tile, 1] + key[:, 1] - lo[1]
    return (m * width + n) * cell.orbits + key[:, 2], tile, row


def _looked_up_incidence(points, cells, cell: CellArrangement):
    """The lookup finder: each corner's vertex is a `vertex_labels` label
    read off the cell arrangement, and a cell hit counts when its vertex is
    a corner of some tile too. Returns what the snapping finder does, with
    vertices numbered and placed the same way."""
    labels, tile, row = vertex_labels(cells, cell)
    n_corners = len(points)
    corner_vid, vertex_xy, distinct, rank = _vertices(labels[:n_corners],
                                                      points)
    hit_label = labels[n_corners:]
    at = np.minimum(np.searchsorted(distinct, hit_label), len(distinct) - 1)
    found = distinct[at] == hit_label
    row = row[found]
    return corner_vid, vertex_xy, (
        tile[n_corners:][found] * cell.corner_vertex.shape[1]
        + cell.hit_corner[row], rank[at[found]], cell.hit_param[row])


def _unique_rows(*columns):
    """Distinct rows of equal-length integer columns, sorted row-wise."""
    order = np.lexsort(columns[::-1])
    columns = [c[order] for c in columns]
    fresh = np.zeros(len(order), dtype=bool)
    fresh[:1] = True
    for c in columns:
        fresh[1:] |= c[1:] != c[:-1]
    return tuple(c[fresh] for c in columns)


def _sharing(rows: Csr, n: int) -> Csr:
    """For each id 0..n-1, the other ids sharing some row of rows with it:
    the ordered pairs of distinct ids in one row, made unique. Rows of one
    length c give their c·(c - 1) pairs in one indexing step."""
    length = np.diff(rows.indptr)
    a, b = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for c in np.unique(length[length > 1]).tolist():
        ids = rows.indices[rows.indptr[:-1][length == c, None] + np.arange(c)]
        x, y = np.nonzero(~np.eye(c, dtype=bool))
        a.append(ids[:, x].ravel())
        b.append(ids[:, y].ravel())
    a, b = np.concatenate(a), np.concatenate(b)
    return _csr(*_unique_rows(a[a != b], b[a != b]), n)


def patch_from_json_dict(document: dict) -> Patch:
    """Rebuild a Patch from its JSON export; the arrangement is recomputed
    from the polygons. Raises ParseError unless r is positive, the centre is
    two numbers and every polygon is at least 3 points that turn strictly
    counter-clockwise at every corner, once around; every number is finite
    and at most COORD_LIMIT in magnitude."""
    try:
        tiles = [PlacedTile(cell=tuple(rec.get("cell", (0, 0))),
                            polygon=np.asarray(rec["polygon"], dtype=float),
                            zone=rec.get("zone", ""))
                 for rec in document["tiles"]]
        r, center = document.get("r"), document.get("center")
        r = None if r is None else float(r)
        center = None if center is None else tuple(float(x) for x in center)
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ParseError(f"bad patch document: {exc}") from None
    if r is not None and not 0 < r <= COORD_LIMIT:
        raise ParseError(f"patch radius must be in (0, {COORD_LIMIT:g}], "
                         f"got {r}")
    if center is not None and (len(center) != 2 or not (
            np.abs(center) <= COORD_LIMIT).all()):
        raise ParseError(f"patch centre must be two numbers in "
                         f"[-{COORD_LIMIT:g}, {COORD_LIMIT:g}], "
                         f"got {list(center)}")
    polys = [tile.polygon for tile in tiles]
    bad = [p for p in polys if p.ndim != 2 or p.shape[1] != 2 or len(p) < 3]
    if polys and not bad:
        # every angle in (0, pi) and the corners wind once around, as the
        # arrangement's angles and the verifier's clipping assume
        points, offsets, nxt = _flat_corners(polys)
        # corners past COORD_LIMIT may overflow here; the bound fails them
        with np.errstate(over="ignore", invalid="ignore"):
            angles = corner_angles(points[nxt] - points, nxt)
        fit = ((np.abs(points) <= COORD_LIMIT).all(axis=1)
               & (angles > 0) & (angles < math.pi))
        fit = (np.logical_and.reduceat(fit, offsets[:-1])
               & (np.add.reduceat(angles, offsets[:-1])
                  > (np.diff(offsets) - 3) * math.pi))
        bad = [p for p, ok in zip(polys, fit) if not ok]
    if bad:
        raise ParseError(f"tile polygon must be at least 3 points "
                         f"with coordinates in [-{COORD_LIMIT:g}, "
                         f"{COORD_LIMIT:g}], in convex counter-clockwise "
                         f"order, got {bad[0].tolist()}")
    return Patch.from_tiles(tiles, r=r, center=center,
                            precision=DOCUMENT_PRECISION)
