"""Planar arrangement of placed tiles.

Merges near-coincident tile corners into shared vertices, splits tile sides
at the vertices lying on them, and records incidence: which tiles meet at
each vertex, which tiles border each edge, which tiles share an edge.

A Patch keeps its tiles and their arrangement as arrays: the tiles stacked
as polygons, counts, cells and zones; vertex rows (vertex_xy, pseudo,
complete), edge rows (edge_vertices) and four incidence relations as Csrs of
ascending id rows, except corner_vertices, which keeps polygon order.
vertex_tiles is the one tile-vertex incidence: a tile's vertices are the
rows that list it. Statistics, the verifier, the writer and the renderer
read the arrays; the tiles, vertices and edges records are built as they
are read, so a large patch holds no object per tile, vertex or edge for the
garbage collector to walk.

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

The same CellArrangement, read per vertex orbit and per region tile, is the
tiling's `orbit_star`: each region tile's boundary stops, the tiles meeting
each orbit and each region tile's edge neighbours. stats.limit_sweep counts
a patch's interior on it, with no Patch built.

Either way vertices are numbered by first corner occurrence and placed at
the mean of their corners. The assembly sorts only the side hits, by
(side, param, vertex), and places every side's stops around them in one
pass; edges, their owners and every incidence row come from distinct rows,
each row sorted as one int64 key (`_row_key`). A vertex is complete,
surrounded by tiles, when every edge at it borders two tiles: an integer
test on edge_tiles, with no angle and no tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ParseError, number
from .geometry import (
    close_pairs,
    component_labels,
    corner_angles,
    segment_distances,
    stack_polygons,
)
from .tiling import COORD_LIMIT, SNAP_FACTOR, PlacedTile, near_translates

# a patch document's corners have nine significant digits: two copies of
# one corner differ by at most a unit in the ninth digit, 1e-8 |x|, per
# axis, so by under 2e-8 of the largest coordinate
DOCUMENT_PRECISION = 2e-8
INT64_MAX = 2 ** 63 - 1


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
    """Placed tiles and their arrangement, all as arrays.

    The tiles are stacked in the `stack_polygons` layout, so tiles of
    different corner counts mix: polygons[i, :counts[i]] are tile i's
    corners, counter-clockwise, cells[i] its lattice cell and zones[i] its
    zone (F1, F2, F3, or "" outside a generated patch). tiles, vertices and
    edges give records made when read.
    """
    polygons: np.ndarray         # (N, K, 2), padded by each last corner
    counts: np.ndarray           # (N,) corners of each tile
    cells: np.ndarray            # (N, 2) int lattice cell (m, n)
    zones: np.ndarray            # (N,) str
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
            np.bincount(open_tiles, minlength=len(self.counts)) == 0)

    @cached_property
    def tiles(self) -> tuple[PlacedTile, ...]:
        """One PlacedTile per tile, built when first read; each polygon is
        a view of its row of polygons."""
        return tuple(
            PlacedTile(tuple(cell), polygon[:count], zone)
            for cell, polygon, count, zone in zip(
                self.cells.tolist(), self.polygons, self.counts.tolist(),
                self.zones.tolist()))

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
        """Stack the tiles, snap their corners into vertices and find the
        vertices inside their sides by distance. precision: the corners'
        relative error (DOCUMENT_PRECISION for a document's); the merge
        distance widens to match."""
        tiles = tuple(tiles)
        polygons, counts = stack_polygons(
            [np.asarray(t.polygon, dtype=float) for t in tiles])
        cells = np.array([t.cell for t in tiles], dtype=np.intp).reshape(-1, 2)
        zones = np.array([t.zone for t in tiles], dtype=str)
        center = tuple(center) if center is not None else None
        if not len(counts):
            none = np.zeros(0, dtype=np.intp)
            flags, rows = none.astype(bool), _csr(none, none, 0)
            return cls(polygons, counts, cells, zones, np.zeros((0, 2)),
                       flags, flags, none.reshape(0, 2), *[rows] * 4, r=r,
                       center=center)
        points, offsets, nxt = _stacked_corners(polygons, counts)
        return cls._assembled(polygons, counts, cells, zones, offsets, nxt,
                              *_snapped_incidence(points, nxt, precision),
                              r=r, center=center)

    @classmethod
    def from_cells(cls, corners: np.ndarray, cells: np.ndarray,
                   zones: np.ndarray, cell: "CellArrangement",
                   r: float | None = None, center=None) -> "Patch":
        """The arrangement of lattice translates of a recipe's region tiles,
        looked up in the recipe's cell arrangement: no snapping and no
        distances. corners is the tiles' (N, K, 2) corner stack, cells each
        tile's (m, n, region index) and zones each tile's zone; N is at
        least 1."""
        counts = np.full(len(corners), corners.shape[1])
        points, offsets, nxt = _stacked_corners(corners, counts)
        return cls._assembled(corners, counts, cells[:, :2], zones, offsets,
                              nxt, *_looked_up_incidence(points, cells, cell),
                              r=r,
                              center=None if center is None else tuple(center))

    @classmethod
    def _assembled(cls, polygons, counts, cells, zones, offsets, nxt,
                   corner_vid, vertex_xy, hits, r, center) -> "Patch":
        """The patch from either incidence finder: each corner's vertex id
        and each vertex's position, and the (side, vertex, param) of every
        vertex inside a side."""
        n_tiles = len(counts)
        owner = np.repeat(np.arange(n_tiles), counts)
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
        # it by (param, vertex), its end corner; consecutive stops bound an
        # edge. Hit k in (side, param, vertex) order, on side s, comes after
        # the two corners of each side before s and s's start corner
        order = np.lexsort((hit_vid, hit_param, hit_side))
        hit_side, hit_vid = hit_side[order], hit_vid[order]
        n_sides = len(nxt)
        per_side = np.bincount(hit_side, minlength=n_sides) + 2
        end = np.cumsum(per_side) - 1
        stop_vid = np.empty(end[-1] + 1, dtype=corner_vid.dtype)
        stop_vid[end - per_side + 1] = corner_vid
        stop_vid[end] = corner_vid[nxt]
        stop_vid[np.arange(len(hit_side)) + 2 * hit_side + 1] = hit_vid
        opens = np.ones(len(stop_vid) - 1, dtype=bool)
        opens[end[:-1]] = False
        v1, v2 = stop_vid[:-1][opens], stop_vid[1:][opens]
        edge_lo, edge_hi, edge_tile = _unique_rows(
            np.minimum(v1, v2), np.maximum(v1, v2),
            np.repeat(owner, per_side - 1))
        new_edge = np.concatenate([[True], (edge_lo[1:] != edge_lo[:-1])
                                   | (edge_hi[1:] != edge_hi[:-1])])
        edge_id = np.cumsum(new_edge) - 1
        edge_tiles = _csr(edge_id, edge_tile, int(new_edge.sum()))
        edge_vertices = np.column_stack([edge_lo, edge_hi])[new_edge]

        # tiles surround a vertex exactly when its link closes: every edge
        # at it borders two tiles
        complete = np.ones(n_vertices, dtype=bool)
        complete[edge_vertices[np.diff(edge_tiles.indptr) != 2]] = False

        return cls(polygons=polygons, counts=counts, cells=cells,
                   zones=zones, vertex_xy=vertex_xy, pseudo=pseudo,
                   complete=complete, edge_vertices=edge_vertices,
                   corner_vertices=Csr(offsets, corner_vid),
                   tile_adjacents=_sharing(edge_tiles, n_tiles),
                   vertex_tiles=_csr(inc_vid, inc_tile, n_vertices),
                   edge_tiles=edge_tiles, r=r, center=center)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "center": list(self.center) if self.center else None,
            "tiles": [{"cell": cell, "zone": zone,
                       "polygon": polygon[:count].tolist()}
                      for cell, zone, polygon, count in zip(
                          self.cells.tolist(), self.zones.tolist(),
                          self.polygons, self.counts.tolist())],
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


def _stacked_corners(polygons, counts):
    """All corners of a `stack_polygons` stack in one flat array (a view
    when no polygon is padded), each polygon's offset into it plus the end,
    and nxt: corner i opens side i, which runs to corner nxt[i]."""
    k = polygons.shape[1]
    points = (polygons.reshape(-1, 2) if (counts == k).all()
              else polygons[np.arange(k) < counts[:, None]])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return points, offsets, _next_corners(offsets)


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
    order = np.argsort(label)
    fresh = _fresh(label[order])
    # a label's first corner is the least index among its sorted corners
    first = np.minimum.reduceat(order, np.flatnonzero(fresh))
    labels = label[first]
    is_first = np.zeros(len(label), dtype=bool)
    is_first[first] = True
    rank = (np.cumsum(is_first) - 1)[first]
    corner_vid = np.empty(len(label), dtype=np.intp)
    corner_vid[order] = rank[np.cumsum(fresh) - 1]

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
    points, _, nxt = _stacked_corners(
        corners, np.full(len(corners), corners.shape[1]))
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


class OrbitStar(NamedTuple):
    """A periodic tiling's incidence per vertex orbit and per region tile,
    read off its CellArrangement (`orbit_star`).

    A stop is a vertex key (Δm, Δn, orbit) on a region tile's boundary,
    from the tile's own cell. Rows stop_ptr[j]:stop_ptr[j + 1] are region
    tile j's stops in boundary order: corner c, then the vertices inside
    the side it opens by hit_param. A stop and next_stop of it bound an
    edge. Row o of star lists the stops at orbit o: vertex (0, 0, o) is met
    by each of their region tiles moved by minus its (Δm, Δn), so a row's
    length is the orbit's valence. neighbours[j] counts the tiles sharing
    an edge with region tile j. No stop is more than reach cells away in m
    or in n.
    """
    stop_ptr: np.ndarray         # (k + 1,)
    stop_tile: np.ndarray        # (S,) region tile of each stop
    stop_vertex: np.ndarray      # (S, 3) vertex key (Δm, Δn, orbit)
    next_stop: np.ndarray        # (S,)
    star: Csr                    # orbit -> stop rows
    neighbours: np.ndarray       # (k,)
    reach: int


def orbit_star(cell: CellArrangement) -> OrbitStar:
    """The cell's stops, its star and each region tile's edge neighbours.

    The hits are sorted by side, then param, so the h-th hit, on side g,
    follows g + 1 corners and h hits. Two tiles share an edge exactly when
    their stops run along it in turn: a step p -> q of one tile and, moved
    by some (Δm, Δn), a step q -> p of another. Keyed by (orbit of p, orbit
    of q, Δq - Δp) as `_row_key` rows, the steps and the same steps
    reversed join in one sort, so the cost grows with the stops, not with
    their pairs.
    """
    k, corners = cell.corner_vertex.shape[:2]
    per_tile = np.diff(cell.hit_ptr)
    hit_side = (np.repeat(np.arange(k), per_tile) * corners
                + cell.hit_corner)
    sides = np.arange(k * corners)
    stop_vertex = np.empty((len(sides) + len(hit_side), 3), dtype=np.intp)
    stop_vertex[sides + np.searchsorted(hit_side, sides)] = \
        cell.corner_vertex.reshape(-1, 3)
    stop_vertex[hit_side + np.arange(len(hit_side)) + 1] = cell.hit_vertex
    stop_ptr = np.arange(k + 1) * corners + cell.hit_ptr
    stop_tile = np.repeat(np.arange(k), corners + per_tile)
    next_stop = _next_corners(stop_ptr)
    orbit = stop_vertex[:, 2]
    at_orbit = np.argsort(orbit, kind="stable")

    p, q = stop_vertex, stop_vertex[next_stop]
    d = q[:, :2] - p[:, :2]
    key = _row_key([np.concatenate(pair) for pair in (
        (p[:, 2], q[:, 2]), (q[:, 2], p[:, 2]), (d[:, 0], -d[:, 0]),
        (d[:, 1], -d[:, 1]))])
    ahead, back = key[:len(p)], key[len(p):]
    by_back = np.argsort(back, kind="stable")
    lo = np.searchsorted(back[by_back], ahead, "left")
    found = np.searchsorted(back[by_back], ahead, "right") - lo
    # step s meets the reversed steps by_back[lo[s]:lo[s] + found[s]]
    s = np.repeat(np.arange(len(p)), found)
    t = by_back[np.arange(len(s))
                + np.repeat(lo - np.cumsum(found) + found, found)]
    shift = p[s, :2] - q[t, :2]
    tile = _unique_rows(stop_tile[s], shift[:, 0], shift[:, 1],
                        stop_tile[t])[0]
    return OrbitStar(
        stop_ptr=stop_ptr, stop_tile=stop_tile, stop_vertex=stop_vertex,
        next_stop=next_stop,
        star=_csr(orbit[at_orbit], at_orbit, cell.orbits),
        neighbours=np.bincount(tile, minlength=k),
        reach=int(np.abs(stop_vertex[:, :2]).max()))


def vertex_labels(cells: np.ndarray, cell: CellArrangement):
    """One integer label per vertex key (m, n, orbit) of the translates in
    cells, given as (m, n, region index) rows: the corner labels in tile
    order, then the labels of the vertices inside their sides. Returns the
    labels, each label's tile and each side hit's row in the cell's hit
    arrays.

    A label is ((m - lo_m)·width + n - lo_n)·orbits + orbit over the keys'
    own (m, n) box, so labels are non-negative and two are equal exactly
    when their keys are."""
    idx = cells[:, 2]
    per_tile = np.diff(cell.hit_ptr)[idx]
    tiles = np.arange(len(cells))
    row = np.arange(per_tile.sum()) + np.repeat(
        cell.hit_ptr[idx] - np.cumsum(per_tile) + per_tile, per_tile)
    tile = np.concatenate([np.repeat(tiles, cell.corner_vertex.shape[1]),
                           np.repeat(tiles, per_tile)])
    key = np.concatenate([cell.corner_vertex[idx].reshape(-1, 3),
                          cell.hit_vertex[row]])
    m = cells[tile, 0] + key[:, 0]
    n = cells[tile, 1] + key[:, 1]
    m, n = m - m.min(), n - n.min()
    return (m * (n.max() + 1) + n) * cell.orbits + key[:, 2], tile, row


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


def _fresh(ordered):
    """Mask of the entries of a sorted array that differ from the last."""
    return np.concatenate([[True], ordered[1:] != ordered[:-1]])


def _unique_rows(*columns):
    """Distinct rows of equal-length integer columns, sorted row-wise: one
    unstable argsort of `_row_key`, as distinct keys have one order."""
    if not len(columns[0]):
        return columns
    key = _row_key(columns)
    order = np.argsort(key)
    keep = order[_fresh(key[order])]
    return tuple(c[keep] for c in columns)


def _row_key(columns):
    """One int64 per row, ordered as the rows are row-wise: each column
    less its minimum, scaled by the spans of the columns after it. Where
    that product would pass int64, the key so far and the next column are
    first replaced by their ranks among their distinct values, which keeps
    the order and bounds each span by the row count."""
    key, span = np.zeros(len(columns[0]), dtype=np.int64), 1
    for column in columns:
        lo, hi = int(column.min()), int(column.max())
        if span * (hi - lo + 1) > INT64_MAX:
            key = np.unique(key, return_inverse=True)[1]
            span = int(key.max()) + 1
            column = np.unique(column, return_inverse=True)[1]
            lo, hi = 0, int(column.max())
        key = key * (hi - lo + 1) + (column - lo)
        span *= hi - lo + 1
    return key


def _sharing(rows: Csr, n: int) -> Csr:
    """For each id 0..n-1, the other ids sharing some row of rows with it:
    the ordered pairs of distinct ids in one row, made unique. Rows of one
    length c give their c·(c - 1) pairs in one indexing step."""
    length = np.diff(rows.indptr)
    a, b = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for c in np.flatnonzero(np.bincount(length[length > 1])).tolist():
        ids = rows.indices[rows.indptr[:-1][length == c, None] + np.arange(c)]
        x, y = np.nonzero(~np.eye(c, dtype=bool))
        a.append(ids[:, x].ravel())
        b.append(ids[:, y].ravel())
    a, b = np.concatenate(a), np.concatenate(b)
    return _csr(*_unique_rows(a[a != b], b[a != b]), n)


def patch_from_json_dict(document: dict) -> Patch:
    """Rebuild a Patch from its JSON export; the arrangement is recomputed
    from the polygons. Raises ParseError unless r is positive, the centre is
    two numbers, every tile's cell and zone are as `_document_tile` says,
    and every polygon is at least 3 points that turn strictly
    counter-clockwise at every corner, once around; every number is finite
    and at most COORD_LIMIT in magnitude."""
    try:
        tiles = [_document_tile(record) for record in document["tiles"]]
        r, center = document.get("r"), document.get("center")
        r = None if r is None else number(r)
        center = None if center is None else tuple(map(number, center))
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
        points, offsets, nxt = _stacked_corners(*stack_polygons(polys))
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


def _document_tile(record) -> PlacedTile:
    """A patch document's tile record as a PlacedTile. TypeError unless its
    cell is two JSON integers (a float or a boolean is none) that fit int64
    and its zone a string; each defaults as in a hand-built tile."""
    cell, zone = record.get("cell", [0, 0]), record.get("zone", "")
    if not (isinstance(cell, list) and len(cell) == 2 and all(
            type(k) is int and -INT64_MAX - 1 <= k <= INT64_MAX
            for k in cell)):
        raise TypeError(f"tile cell {cell!r} is not two int64 integers")
    if not isinstance(zone, str):
        raise TypeError(f"tile zone {zone!r} is not a string")
    return PlacedTile(tuple(cell), np.array([list(map(number, point))
                                             for point in record["polygon"]]),
                      zone)
