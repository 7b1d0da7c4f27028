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
garbage collector to walk. A generated patch places its polygons from its
lattice rows on their first read, and the eight arrangement arrays are
assembled together on the first read of any: the verifier and the renderer
read only the tiles, and stats.compute_stats counts a generated patch on
its lattice, so generating and counting a patch places no polygon, and
verifying it, or verifying and rendering a document, builds no
arrangement.

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
  OrbitStar, the one record of its tiling's lattice cell, lists each region
  tile's boundary stops, its corners' vertex keys and the vertices inside
  its sides, so a tile of cell (m, n) finds them by integer key, with no
  distance measured. `vertex_labels` turns each key into one integer
  label; generate_patch's flood fill joins the tiles that share a label.
  `cell_arrangement` builds the star once per recipe on the lattice, from
  the region's own corners, with no window and nothing snapped: every
  vertex is a translate of a region corner, and it makes the snapping
  finder's merge and side tests on coordinates placed by the one placement
  rule, `TilingRecipe.corners`, so it finds the vertices that snapping a
  window of translates finds.

The same stops, read per vertex orbit, give the tiles meeting each orbit
and each region tile's edge neighbours (`orbit_star`). stats.compute_stats
counts a generated patch on them in both modes, and stats.limit_sweep each
radius, with no arrangement built: the counts are the ones the arrangement
gives (`stats._lattice_stats`). The periodicity certificate reads the same
stops and their places along the sides.

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
from .tiling import (
    COORD_LIMIT,
    MAX_TRANSLATES,
    SNAP_FACTOR,
    PlacedTile,
    TilingRecipe,
    _ranks,
)

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


class Arrangement(NamedTuple):
    """A patch's vertex, edge and incidence arrays (`_assembled`)."""
    vertex_xy: np.ndarray        # (V, 2)
    pseudo: np.ndarray           # (V,) lies inside some incident tile's side
    complete: np.ndarray         # (V,) every edge at it borders two tiles
    edge_vertices: np.ndarray    # (E, 2) vertex ids, lower first
    corner_vertices: Csr         # tile -> corner vertex ids, polygon order
    tile_adjacents: Csr          # tile -> tiles sharing an edge with it
    vertex_tiles: Csr            # vertex -> incident tiles
    edge_tiles: Csr              # edge -> tiles it borders


class Lattice(NamedTuple):
    """Where a generated patch's tiles lie in their recipe's tiling:
    Patch.polygons places the rows, and the lookup finder and
    stats.compute_stats read the recipe's orbit star."""
    rows: np.ndarray             # (N, 3) each tile's (m, n, region index)
    recipe: TilingRecipe


def _arranged() -> cached_property:
    """A Patch arrangement array. All eight are assembled together on the
    first read of any (`Patch._arrangement`)."""
    array = cached_property(
        lambda patch: getattr(patch._arrangement, array.attrname))
    return array


@dataclass(frozen=True, eq=False)
class Patch:
    """Placed tiles and their arrangement, all as arrays.

    The tiles are stacked in the `stack_polygons` layout, so tiles of
    different corner counts mix: polygons[i, :counts[i]] are tile i's
    corners, counter-clockwise, cells[i] its lattice cell and zones[i] its
    zone (F1, F2, F3, or "" outside a generated patch). tiles, vertices and
    edges give records made when read.

    A generated patch is its lattice rows: its polygons are placed from
    them (`TilingRecipe.corners`) on the first read, and any other patch
    holds the stack it was built from. The eight arrangement arrays are
    assembled on the first read of any, from what the patch's finder
    needs: a generated patch's lattice, or the snapping precision of any
    other. A reader of the tiles alone, such as verify_patch and the
    renderer, snaps nothing, and stats.compute_stats counts a generated
    patch on its lattice, so generating a patch and counting it in both
    modes places no polygon and builds no arrangement.
    """
    counts: np.ndarray           # (N,) corners of each tile
    cells: np.ndarray            # (N, 2) int lattice cell (m, n)
    zones: np.ndarray            # (N,) str
    r: float | None = None
    center: tuple[float, float] | None = None
    lattice: Lattice | None = None   # a generated patch's place in its tiling
    precision: float = 0.0       # the corners' relative error, for snapping
    stack: np.ndarray | None = None  # the polygons, unless lattice places them

    vertex_xy = _arranged()          # (V, 2)
    pseudo = _arranged()             # (V,) inside some incident tile's side
    complete = _arranged()           # (V,) every edge at it borders two tiles
    edge_vertices = _arranged()      # (E, 2) vertex ids, lower first
    corner_vertices = _arranged()    # tile -> corner vertex ids, in order
    tile_adjacents = _arranged()     # tile -> tiles sharing an edge with it
    vertex_tiles = _arranged()       # vertex -> incident tiles
    edge_tiles = _arranged()         # edge -> tiles it borders

    @cached_property
    def polygons(self) -> np.ndarray:
        """(N, K, 2), padded by each last corner: the stack, or the lattice
        rows placed by the recipe, bit for bit the corners generate_patch
        measures."""
        if self.stack is not None:
            return self.stack
        rows, recipe = self.lattice
        return recipe.corners(rows)

    @cached_property
    def _arrangement(self) -> Arrangement:
        """The arrangement, from the lookup finder on a generated patch's
        lattice, else from the snapping finder."""
        if not len(self.counts):
            none = np.zeros(0, dtype=np.intp)
            flags = none.astype(bool)
            return Arrangement(np.zeros((0, 2)), flags, flags,
                               none.reshape(0, 2), *[_csr(none, none, 0)] * 4)
        points, offsets, nxt = _stacked_corners(self.polygons, self.counts)
        if self.lattice is None:
            incidence = _snapped_incidence(points, nxt, self.precision)
        else:
            rows, recipe = self.lattice
            incidence = _looked_up_incidence(points, rows, recipe.orbit_star)
        return _assembled(self.counts, offsets, nxt, *incidence)

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
        """Stack the tiles. Their corners are snapped into vertices, and the
        vertices inside their sides found by distance, when the arrangement
        is first read. precision: the corners' relative error
        (DOCUMENT_PRECISION for a document's); the merge distance widens to
        match."""
        tiles = tuple(tiles)
        polygons, counts = stack_polygons(
            [np.asarray(t.polygon, dtype=float) for t in tiles])
        cells = np.array([t.cell for t in tiles], dtype=np.intp).reshape(-1, 2)
        zones = np.array([t.zone for t in tiles], dtype=str)
        return cls(counts, cells, zones, r=r,
                   center=None if center is None else tuple(center),
                   precision=precision, stack=polygons)

    @classmethod
    def from_cells(cls, rows: np.ndarray, zones: np.ndarray,
                   recipe: TilingRecipe, r: float | None = None,
                   center=None) -> "Patch":
        """Lattice translates of the recipe's region tiles, given as their
        (m, n, region index) rows, with each tile's zone. Their polygons
        are placed and their arrangement looked up in the recipe's orbit
        star when first read: no snapping and no distances."""
        return cls(np.full(len(rows), recipe.region_corners.shape[1]),
                   rows[:, :2], zones, r=r,
                   center=None if center is None else tuple(center),
                   lattice=Lattice(rows, recipe))

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


def _assembled(counts, offsets, nxt, corner_vid, vertex_xy,
               hits) -> Arrangement:
    """The arrangement from either incidence finder: each corner's vertex
    id and each vertex's position, and the (side, vertex, param) of every
    vertex inside a side."""
    n_tiles = len(counts)
    owner = np.repeat(np.arange(n_tiles), counts)
    n_vertices = len(vertex_xy)

    # vertices sitting inside a side split it; the tile counts as
    # incident there
    hit_side, hit_vid, param = hits
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
    order = np.lexsort((hit_vid, param, hit_side))
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
    return Arrangement(
        vertex_xy=vertex_xy, pseudo=pseudo, complete=complete,
        edge_vertices=edge_vertices, corner_vertices=Csr(offsets, corner_vid),
        tile_adjacents=_sharing(edge_tiles, n_tiles),
        vertex_tiles=_csr(inc_vid, inc_tile, n_vertices),
        edge_tiles=edge_tiles)


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


def cell_arrangement(recipe) -> OrbitStar:
    """The recipe's tiling reduced to one lattice cell, as its `orbit_star`:
    each region corner's vertex key and each vertex inside a region side,
    found from the region's own k·K corners, with no window of translates
    placed and nothing snapped.

    Every vertex of the tiling is a translate of a region corner. So each
    corner is paired with the translates (m, n) of the corners whose
    lattice coefficients lie near its own (`_lattice_join`), and a pair
    merges when the translate lies within the merge distance of it, the
    test two snapped corners pass. The orbits are the classes the merged
    pairs join, chains included, numbered by their first region corner,
    the root; each corner's (m, n) from its root is walked along the pairs
    (`_walked`), so no coordinate is rounded to find it. Each orbit's
    vertex lies at the mean of the corners meeting there, where snapping
    puts it. A vertex lies inside a region side when it lies within the
    merge distance of the side, its own end vertices excluded, by the
    snapping finder's segment-distance test; the candidates are the
    translates of the orbits' vertices whose coefficients fall in the
    side's lattice box. Both tests are made on coordinates placed by the
    one placement rule (`TilingRecipe.moved`), the rule that places the
    window a snapping finder would snap, so they find its vertices. The
    work grows with the corners and with the sides' lattice boxes, not
    with k².
    """
    corners = recipe.region_corners
    count, k = corners.shape[:2]
    points = corners.reshape(-1, 2)
    eps = recipe.merge_distance
    inv = recipe.lattice_bins[0]
    g = points @ inv.T
    # a point within eps lies within eps·|row| in each coefficient; the
    # rest covers the rounding of g and of the placed coordinates
    pad = 2.0 * eps * np.hypot(inv[:, 0], inv[:, 1]) + 2.0 ** -40 * (
        1.0 + np.abs(g).max())

    i, j, shift = _lattice_join(g, g - pad, g + pad)
    gap = points[i] - recipe.moved(points[j], *shift.T)
    near = gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1] <= eps * eps
    # corner i is corner j moved by shift; a root, its orbit's smallest
    # corner, sits at (0, 0)
    a = np.concatenate([j[near], i[near]])
    b = np.concatenate([i[near], j[near]])
    step = np.concatenate([shift[near], -shift[near]])
    roots, orbit = np.unique(component_labels(len(points), a, b),
                             return_inverse=True)
    known = np.zeros(len(points), dtype=bool)
    known[roots] = True
    vertex = np.column_stack([_walked(a, b, step, known), orbit])
    mean = orbit_vertices(recipe, vertex)[1]

    nxt = _next_corners(np.arange(count + 1) * k)
    lo, hi = np.minimum(g, g[nxt]) - pad, np.maximum(g, g[nxt]) + pad
    side, root, shift = _lattice_join(g[roots], lo, hi)
    key = np.column_stack([shift, root])
    start, end = points[side], points[nxt[side]]
    at = recipe.moved(mean[root], *shift.T)
    on = ((key != vertex[side]).any(axis=1)
          & (key != vertex[nxt[side]]).any(axis=1)
          & (segment_distances(at, start, end) <= eps))
    side, key, start, end, at = (side[on], key[on], start[on], end[on],
                                 at[on])
    d = end - start
    param = np.sum((at - start) * d, axis=1) / np.sum(d * d, axis=1)
    order = np.lexsort((param, side))
    return orbit_star(vertex.reshape(count, k, 3), side[order], key[order],
                      param[order])


def orbit_vertices(recipe, vertex):
    """Each region corner moved back by its cell shift into cell (0, 0),
    given each corner's vertex key (m, n, orbit) in region order, and each
    orbit's vertex there, where snapping places it: at the mean of the
    corners meeting there."""
    home = recipe.moved(recipe.region_corners.reshape(-1, 2).copy(),
                        -vertex[:, 0], -vertex[:, 1])
    orbit = vertex[:, 2]
    mean = np.column_stack([np.bincount(orbit, home[:, c]) for c in (0, 1)])
    mean /= np.bincount(orbit)[:, None]
    return home, mean


def _lattice_join(g, lo, hi):
    """Every (box, point, (m, n)) with g[point] + (m, n) inside the box
    [lo[box], hi[box]], all in lattice coefficients, and some near it: the
    pairs of a sort join on bins of whole cells. Each cell is cut into
    B0 × B1 bins, each at least as wide as the widest box and in all at
    most about len(g), so a box spans at most two bins each way in each
    cell it meets. A point is keyed by its bin within its cell, and each
    bin a box spans takes the points of its key, moved by the whole cells
    between them. The work grows with the points in the bins the boxes
    span, not with boxes × points. ParseError, before their rows are
    made, when the boxes span or the pairs number more than
    MAX_TRANSLATES, as on a basis sheared so far that a side crosses
    millions of cells."""
    def bound(count, what):
        if not count <= MAX_TRANSLATES:
            raise ParseError(f"the cell arrangement's lattice join holds "
                             f"{count:.3g} {what}, over MAX_TRANSLATES = "
                             f"{MAX_TRANSLATES:,}")

    bins = np.clip(np.floor(1.0 / (hi - lo).max(axis=0)), 1.0,
                   max(1.0, math.isqrt(len(g))))
    first, last = np.floor(lo * bins), np.floor(hi * bins)
    bound(float(np.prod(last - first + 1.0, axis=1).sum()), "bins")
    at = np.floor(g * bins).astype(np.intp)
    bins = bins.astype(np.intp)
    key = (at[:, 0] % bins[0]) * bins[1] + at[:, 1] % bins[1]
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    first = first.astype(np.intp)
    spans = last.astype(np.intp) - first + 1
    box = np.repeat(np.arange(len(lo)), spans[:, 0] * spans[:, 1])
    rank = _ranks(spans[:, 0] * spans[:, 1])
    b0 = first[box, 0] + rank // spans[box, 1]
    b1 = first[box, 1] + rank % spans[box, 1]
    wanted = (b0 % bins[0]) * bins[1] + b1 % bins[1]
    begin = np.searchsorted(key, wanted)
    found = np.searchsorted(key, wanted, "right") - begin
    bound(float(found.sum()), "pairs")
    point = by_key[np.repeat(begin, found) + _ranks(found)]
    m = np.repeat(b0 // bins[0], found) - at[point, 0] // bins[0]
    n = np.repeat(b1 // bins[1], found) - at[point, 1] // bins[1]
    return np.repeat(box, found), point, np.column_stack([m, n])


def _walked(a, b, step, known) -> np.ndarray:
    """Each node's (m, n) offset along the links a -> b, node b lying at
    node a's offset plus step, walked out from the known nodes, at (0, 0),
    one link further per pass; a node no walk reaches stays at (0, 0)."""
    shift = np.zeros((len(known), 2), dtype=np.intp)
    while True:
        ahead = known[a] & ~known[b]
        if not ahead.any():
            return shift
        new, at = np.unique(b[ahead], return_index=True)
        shift[new] = shift[a[ahead][at]] + step[ahead][at]
        known[new] = True


class OrbitStar(NamedTuple):
    """A periodic tiling reduced to one lattice cell: its incidence per
    region tile and per vertex orbit (`orbit_star`).

    Vertex (m, n, o) is vertex orbit o moved by m·u + n·v. A stop is a
    vertex key (Δm, Δn, orbit) on a region tile's boundary, from the tile's
    own cell: region tile j placed in cell (m, n) meets vertex (m, n, 0) +
    stop_vertex[s] there. Rows stop_ptr[j]:stop_ptr[j + 1] are region tile
    j's stops in boundary order: corner c, then the vertices inside the
    side it opens by stop_param, their place along it (0 at a corner).
    corner marks the corners, so stop_vertex[corner] is every region
    corner's key in region order. Two placed tiles touch exactly when they
    share a vertex, as corner or side split. A stop and next_stop of it
    bound an edge. Row o of star lists the stops at orbit o, one of orbits:
    vertex (0, 0, o) is met by each of their region tiles moved by minus
    its (Δm, Δn), so a row's length is the orbit's valence. paired[s]
    counts the steps of other tiles that run back along the step from stop
    s to next_stop[s], the edge's other side, and partner[s] is one of
    them, -1 when there is none. Rows
    neighbour_ptr[j]:neighbour_ptr[j + 1] of neighbour are the tiles
    (Δm, Δn, j') sharing an edge with region tile j, from its own cell, and
    neighbours[j] counts them.

    stats._lattice_stats counts on moved cells: tile_cell[j] moves region
    tile j, and some cell each orbit's vertex (0, 0, o), so that each stop
    lies step cells from its tile. However far apart the recipe lists its
    region tiles, and a stop's Δ can then be thousands, step is a few. No
    step is more than reach cells in m or in n.
    """
    stop_ptr: np.ndarray         # (k + 1,)
    stop_tile: np.ndarray        # (S,) region tile of each stop
    stop_vertex: np.ndarray      # (S, 3) vertex key (Δm, Δn, orbit)
    corner: np.ndarray           # (S,) the stop is its tile's corner
    stop_param: np.ndarray       # (S,) place along its side, 0 at a corner
    next_stop: np.ndarray        # (S,)
    orbits: int
    star: Csr                    # orbit -> stop rows
    paired: np.ndarray           # (S,) reversed steps meeting each step
    partner: np.ndarray          # (S,) one of them, or -1
    neighbour_ptr: np.ndarray    # (k + 1,)
    neighbour: np.ndarray        # (A, 3) tile key (Δm, Δn, j')
    reach: int
    tile_cell: np.ndarray        # (k, 2)
    step: np.ndarray             # (S, 2)

    @property
    def neighbours(self) -> np.ndarray:
        return np.diff(self.neighbour_ptr)


def orbit_star(corner_key, side, side_key, param) -> OrbitStar:
    """The cell's stops, its star and each region tile's edge neighbours,
    from each region corner's vertex key, (k, K, 3) in region order, and
    the side hits: hit h lies inside the side that flat corner side[h]
    opens, as vertex side_key[h] at param[h] along it. The hits come sorted
    by side, then param, so the h-th, on side g, follows g + 1 corners and
    h hits.

    Two tiles share an edge exactly when their stops run along it in turn:
    a step p -> q of one tile and, moved by some (Δm, Δn), a step q -> p of
    another. Keyed by (orbit of p, orbit of q, Δq - Δp) as `_row_key` rows,
    the steps and the same steps reversed join in one sort, so the cost
    grows with the stops, not with their pairs. The moved cells come from
    one walk over the links between tiles and the orbits of their stops,
    from region tile 0, which sets each stop it walks to 0 cells from its
    tile; they are kept when they bring the farthest stop nearer than the
    cells as listed do, which cannot be when it is one cell away.
    """
    k, corners = corner_key.shape[:2]
    corner = np.ones(k * corners + len(side), dtype=bool)
    corner[side + np.arange(len(side)) + 1] = False
    stop_vertex = np.empty((len(corner), 3), dtype=np.intp)
    stop_vertex[corner] = corner_key.reshape(-1, 3)
    stop_vertex[~corner] = side_key
    stop_param = np.zeros(len(corner))
    stop_param[~corner] = param
    stop_tile = (np.cumsum(corner) - 1) // corners
    stop_ptr = np.searchsorted(stop_tile, np.arange(k + 1))
    next_stop = _next_corners(stop_ptr)
    orbit = stop_vertex[:, 2]
    orbits = int(orbit.max()) + 1
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
    partner = np.full(len(p), -1)
    partner[s] = t
    shift = p[s, :2] - q[t, :2]
    tile, *neighbour = _unique_rows(stop_tile[s], shift[:, 0], shift[:, 1],
                                    stop_tile[t])
    moved, step = np.zeros((k, 2), dtype=np.intp), p[:, :2]
    reach = int(np.abs(step).max())
    if reach > 1:
        known = np.zeros(k + orbits, dtype=bool)
        known[0] = True
        walked = _walked(np.concatenate([stop_tile, k + orbit]),
                         np.concatenate([k + orbit, stop_tile]),
                         np.concatenate([-step, step]), known)
        nearer = step + walked[k + orbit] - walked[stop_tile]
        if np.abs(nearer).max() < reach:
            moved, step = walked[:k], nearer
            reach = int(np.abs(step).max())
    return OrbitStar(
        stop_ptr=stop_ptr, stop_tile=stop_tile, stop_vertex=stop_vertex,
        corner=corner, stop_param=stop_param, next_stop=next_stop,
        orbits=orbits, star=_csr(orbit[at_orbit], at_orbit, orbits),
        paired=found, partner=partner,
        neighbour_ptr=np.searchsorted(tile, np.arange(k + 1)),
        neighbour=np.column_stack(neighbour),
        reach=reach, tile_cell=moved, step=step)


def vertex_labels(cells: np.ndarray, star: OrbitStar):
    """One integer label per vertex key (m, n, orbit) of the translates in
    cells, given as (m, n, region index) rows: each tile's stops in
    boundary order, tile by tile. Returns the labels, each label's tile
    and its stop's row in the star.

    A label is ((m - lo_m)·width + n - lo_n)·orbits + orbit over the cells'
    (m, n) box widened by the stops' (Δm, Δn), so labels are non-negative
    and two are equal exactly when their keys are. It is a part per cell
    plus a part per stop, each made once."""
    idx = cells[:, 2]
    per_tile = np.diff(star.stop_ptr)[idx]
    tile = np.repeat(np.arange(len(cells)), per_tile)
    row = np.arange(len(tile)) + np.repeat(
        star.stop_ptr[idx] - np.cumsum(per_tile) + per_tile, per_tile)
    key = star.stop_vertex
    lo = cells[:, :2].min(axis=0) + key[:, :2].min(axis=0)
    width = cells[:, 1].max() + key[:, 1].max() - lo[1] + 1
    at_cell = ((cells[:, 0] - lo[0]) * width + cells[:, 1] - lo[1]) * (
        star.orbits)
    at_stop = (key[:, 0] * width + key[:, 1]) * star.orbits + key[:, 2]
    return at_cell[tile] + at_stop[row], tile, row


def _looked_up_incidence(points, cells, star: OrbitStar):
    """The lookup finder: each corner's vertex is a `vertex_labels` label
    read off the orbit star, and a stop inside a side counts when its
    vertex is a corner of some tile too. Returns what the snapping finder
    does, with vertices numbered and placed the same way."""
    labels, _, row = vertex_labels(cells, star)
    corner = star.corner[row]
    corner_vid, vertex_xy, distinct, rank = _vertices(labels[corner], points)
    # a stop inside a side follows the corner that opens it
    side = (np.cumsum(corner) - 1)[~corner]
    hit_label, row = labels[~corner], row[~corner]
    at = np.minimum(np.searchsorted(distinct, hit_label), len(distinct) - 1)
    found = distinct[at] == hit_label
    return corner_vid, vertex_xy, (side[found], rank[at[found]],
                                   star.stop_param[row[found]])


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
    from the polygons, stacked once for their checks and the patch alike.
    Raises ParseError unless r is positive, the centre is two numbers,
    every tile's cell and zone are as `_document_tile` says, and every
    polygon is at least 3 points that turn strictly counter-clockwise at
    every corner, once around; every number is finite and at most
    COORD_LIMIT in magnitude."""
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
    cells, polys, zones = zip(*tiles) if tiles else ((), (), ())
    bad = [p for p in polys if p.ndim != 2 or p.shape[1] != 2 or len(p) < 3]
    if not bad:
        stack, counts = stack_polygons(polys)
    if polys and not bad:
        # every angle in (0, pi) and the corners wind once around, as the
        # arrangement's angles and the verifier's clipping assume
        points, offsets, nxt = _stacked_corners(stack, counts)
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
    return Patch(counts, np.array(cells, dtype=np.intp).reshape(-1, 2),
                 np.array(zones, dtype=str), r=r, center=center,
                 precision=DOCUMENT_PRECISION, stack=stack)


def _document_tile(record) -> tuple:
    """A patch document's tile record as its (cell, polygon, zone).
    TypeError unless its cell is two JSON integers (a float or a boolean is
    none) that fit int64 and its zone a string; each defaults as in a
    hand-built tile."""
    cell, zone = record.get("cell", [0, 0]), record.get("zone", "")
    if not (isinstance(cell, list) and len(cell) == 2 and all(
            type(k) is int and -INT64_MAX - 1 <= k <= INT64_MAX
            for k in cell)):
        raise TypeError(f"tile cell {cell!r} is not two int64 integers")
    if not isinstance(zone, str):
        raise TypeError(f"tile zone {zone!r} is not a string")
    return tuple(cell), np.array([list(map(number, point))
                                  for point in record["polygon"]]), zone
