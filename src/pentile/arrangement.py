"""Planar arrangement of placed tiles.

Merges near-coincident tile corners into shared vertices, splits tile sides
at the vertices lying on them, and records incidence: which tiles meet at
each vertex, which tiles border each edge, who is adjacent to whom.

The work runs on one flat array of all tile corners, with per-tile offsets so
polygons of different corner counts can mix; corner i opens side i. Corners
within eps of each other, chains included, are the connected components of a
cKDTree pair search, numbered by first corner occurrence. One neighbour query
around the side midpoints finds the vertices lying inside sides. The stops
along every side are ordered with one lexsort, and edges, their owners and
all incidence sets come from sorted unique (key, value) rows. Only the final
Patch fields are built as Python objects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParseError, require_positive
from .geometry import segment_distances
from .tiling import PlacedTile

SNAP_FACTOR = 1e-7           # vertex merge radius, relative to mean edge
COMPLETE_ANGLE_TOL = 1e-6    # rad; full 360-degree surround test


@dataclass(frozen=True)
class PatchVertex:
    xy: tuple[float, float]
    tiles: frozenset[int]
    valence: int          # number of incident tiles
    pseudo: bool          # lies inside some incident tile's side
    complete: bool        # incident angles close up to a full turn


@dataclass(frozen=True)
class PatchEdge:
    vertices: tuple[int, int]
    tiles: frozenset[int]


@dataclass(frozen=True)
class Patch:
    tiles: tuple[PlacedTile, ...]
    vertices: tuple[PatchVertex, ...]
    edges: tuple[PatchEdge, ...]
    corner_vertices: tuple[tuple[int, ...], ...]
    tile_vertices: tuple[frozenset[int], ...]
    adjacents: tuple[frozenset[int], ...]
    neighbors: tuple[frozenset[int], ...]
    r: float | None = None
    center: tuple[float, float] | None = None

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.tile_count

    def interior_tile_ids(self) -> tuple[int, ...]:
        """Tiles whose whole boundary is surrounded by patch tiles."""
        return tuple(t for t in range(len(self.tiles))
                     if all(self.vertices[v].complete
                            for v in self.tile_vertices[t]))

    def complete_vertex_ids(self) -> tuple[int, ...]:
        return tuple(v for v, rec in enumerate(self.vertices) if rec.complete)

    @classmethod
    def from_polygons(cls, polygons: Iterable, r: float | None = None,
                      center=None, snap_eps: float | None = None) -> "Patch":
        """Arrangement of raw polygons; convenience for hand-built patches."""
        tiles = [PlacedTile(cell=(0, 0), polygon=np.asarray(p, dtype=float))
                 for p in polygons]
        return cls.from_tiles(tiles, r=r, center=center, snap_eps=snap_eps)

    @classmethod
    def from_tiles(cls, tiles: Sequence[PlacedTile], r: float | None = None,
                   center=None, snap_eps: float | None = None) -> "Patch":
        if snap_eps is not None:
            require_positive("snap_eps", snap_eps)
        tiles = tuple(tiles)
        center = tuple(center) if center is not None else None
        if not tiles:
            return cls(tiles=(), vertices=(), edges=(), corner_vertices=(),
                       tile_vertices=(), adjacents=(), neighbors=(),
                       r=r, center=center)

        # all corners in one flat array; corner i opens side i, which runs
        # to corner nxt[i] of the same tile
        polys = [np.asarray(t.polygon, dtype=float) for t in tiles]
        sizes = np.array([len(p) for p in polys])
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        points = np.concatenate(polys)
        owner = np.repeat(np.arange(len(tiles)), sizes)
        nxt = np.arange(1, len(points) + 1)
        nxt[offsets[1:] - 1] = offsets[:-1]
        side = points[nxt] - points
        side_lengths = np.linalg.norm(side, axis=1)
        eps = (snap_eps if snap_eps is not None
               else SNAP_FACTOR * float(side_lengths.mean()))

        corner_vid, vertex_xy = _snap_corners(points, eps)
        n_vertices = len(vertex_xy)
        angles = _corner_angles(side, nxt)

        # vertices sitting inside a side split it; the tile counts as
        # incident there and contributes a straight angle
        hit_side, hit_vid, hit_param = _side_interior_incidence(
            points, nxt, side_lengths, corner_vid, vertex_xy, eps)
        split_vid, split_tile = _unique_rows(hit_vid, owner[hit_side])

        angle_sum = (np.bincount(corner_vid, weights=angles,
                                 minlength=n_vertices)
                     + math.pi * np.bincount(split_vid, minlength=n_vertices))
        pseudo = np.zeros(n_vertices, dtype=bool)
        pseudo[split_vid] = True
        complete = np.abs(angle_sum - 2 * math.pi) <= COMPLETE_ANGLE_TOL

        # one Python int per id, shared by every field that names it; a
        # fresh int per mention grows a patch's memory by about a quarter
        tile_id = np.arange(len(tiles)).astype(object)
        vertex_id = np.arange(n_vertices).astype(object)
        inc_vid, inc_tile = _unique_rows(
            np.concatenate([corner_vid, split_vid]),
            np.concatenate([owner, split_tile]))
        tile_sets = _grouped_sets(inc_vid, tile_id[inc_tile], n_vertices)
        vertices = tuple(
            PatchVertex(xy=(x, y), tiles=ts, valence=len(ts), pseudo=ps,
                        complete=cp)
            for (x, y), ts, ps, cp in zip(vertex_xy.tolist(), tile_sets,
                                          pseudo.tolist(), complete.tolist()))

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
        edges = tuple(
            PatchEdge(vertices=(lo, hi), tiles=owners)
            for lo, hi, owners in zip(
                vertex_id[edge_lo[new_edge]].tolist(),
                vertex_id[edge_hi[new_edge]].tolist(),
                _grouped_sets(edge_id, tile_id[edge_tile],
                              int(new_edge.sum()))))

        tile_vid, vid_tile = _unique_rows(inc_tile, inc_vid)
        bounds = offsets.tolist()
        vids = vertex_id[corner_vid].tolist()
        return cls(tiles=tiles, vertices=vertices, edges=edges,
                   corner_vertices=tuple(tuple(vids[a:b]) for a, b
                                         in zip(bounds, bounds[1:])),
                   tile_vertices=_grouped_sets(tile_vid, vertex_id[vid_tile],
                                               len(tiles)),
                   adjacents=_sharing_sets(edge_id, edge_tile, tile_id),
                   neighbors=_sharing_sets(inc_vid, inc_tile, tile_id),
                   r=r, center=center)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "center": list(self.center) if self.center else None,
            "tiles": [{"cell": list(t.cell), "zone": t.zone,
                       "polygon": [[float(x), float(y)]
                                   for x, y in t.polygon]}
                      for t in self.tiles],
            "vertices": [{"xy": [v.xy[0], v.xy[1]], "valence": v.valence,
                          "pseudo": v.pseudo, "complete": v.complete}
                         for v in self.vertices],
            "edges": [{"vertices": list(e.vertices),
                       "tiles": sorted(e.tiles)} for e in self.edges],
        }


def _snap_corners(points, eps):
    """Merge corners lying within eps of each other, chains included.

    Returns each corner's vertex id, numbered by first corner occurrence,
    and each vertex's position, the mean of its corners.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(points)
    pairs = cKDTree(points).query_pairs(eps, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    _, label = connected_components(graph, directed=False)
    _, first, inverse = np.unique(label, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    corner_vid = rank[inverse]

    counts = np.bincount(corner_vid)
    vertex_xy = np.column_stack([np.bincount(corner_vid, weights=points[:, k])
                                 for k in (0, 1)]) / counts[:, None]
    return corner_vid, vertex_xy


def _corner_angles(side, nxt):
    """Interior angle at every corner of ccw polygons, via the turn from
    the side coming in to the side going out; side i ends at corner nxt[i]."""
    d_in = np.empty_like(side)
    d_in[nxt] = side
    cross = d_in[:, 0] * side[:, 1] - d_in[:, 1] * side[:, 0]
    dot = np.sum(d_in * side, axis=1)
    return math.pi - np.arctan2(cross, dot)


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
    near = cKDTree((points + ends) / 2.0).sparse_distance_matrix(
        cKDTree(vertex_xy), float(reach.max()), output_type="ndarray")
    sid, vid = near["i"], near["j"]
    keep = ((near["v"] <= reach[sid]) & (vid != corner_vid[sid])
            & (vid != corner_vid[nxt[sid]]))
    vid, sid = vid[keep], sid[keep]
    a, b, p = points[sid], ends[sid], vertex_xy[vid]
    on = segment_distances(p, a, b) <= eps
    vid, sid, a, b, p = vid[on], sid[on], a[on], b[on], p[on]
    d = b - a
    param = np.sum((p - a) * d, axis=1) / np.sum(d * d, axis=1)
    return sid, vid, param


def _unique_rows(*columns):
    """Distinct rows of equal-length integer columns, sorted row-wise."""
    order = np.lexsort(columns[::-1])
    columns = [c[order] for c in columns]
    fresh = np.zeros(len(order), dtype=bool)
    fresh[:1] = True
    for c in columns:
        fresh[1:] |= c[1:] != c[:-1]
    return tuple(c[fresh] for c in columns)


def _grouped_sets(keys, values, n):
    """One frozenset of values per key 0..n-1; keys must be sorted and
    values is an object array of the same length."""
    bounds = np.searchsorted(keys, np.arange(n + 1)).tolist()
    values = values.tolist()
    # copied from a set, a frozenset gets a table sized to its members; one
    # filled from a list keeps the room a growing set would have
    return tuple(frozenset(set(values[a:b]))
                 for a, b in zip(bounds, bounds[1:]))


def _sharing_sets(group, member, member_id):
    """For each member, the other members sharing a group with it, as
    member_id objects; rows (group, member) must be sorted by group."""
    starts = np.flatnonzero(np.concatenate([[True], group[1:] != group[:-1]]))
    sizes = np.diff(np.concatenate([starts, [len(group)]]))
    # pair every row with every row of its group
    reps = np.repeat(sizes, sizes)
    left = np.repeat(np.arange(len(group)), reps)
    right = (np.repeat(np.repeat(starts, sizes), reps) + np.arange(len(left))
             - np.repeat(np.cumsum(reps) - reps, reps))
    a, b = member[left], member[right]
    keep = a != b
    a, b = _unique_rows(a[keep], b[keep])
    return _grouped_sets(a, member_id[b], len(member_id))


def patch_from_json_dict(document: dict, snap_eps: float | None = None
                         ) -> Patch:
    """Rebuild a Patch from its JSON export; the arrangement is recomputed
    from the polygons. Raises ParseError unless r is positive, the centre is
    two finite numbers and every polygon is at least 3 finite points."""
    try:
        tiles = [PlacedTile(cell=tuple(rec.get("cell", (0, 0))),
                            polygon=np.asarray(rec["polygon"], dtype=float),
                            zone=rec.get("zone", ""))
                 for rec in document["tiles"]]
        r, center = document.get("r"), document.get("center")
        r = None if r is None else float(r)
        center = None if center is None else tuple(float(x) for x in center)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad patch document: {exc}") from None
    if r is not None:
        require_positive("patch radius", r)
    if center is not None and (len(center) != 2
                               or not all(map(math.isfinite, center))):
        raise ParseError(f"patch centre must be two finite numbers, "
                         f"got {list(center)}")
    for tile in tiles:
        poly = tile.polygon
        if (poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 3
                or not np.isfinite(poly).all()):
            raise ParseError(f"tile polygon must be at least 3 finite "
                             f"points, got {poly.tolist()}")
    return Patch.from_tiles(tiles, r=r, center=center, snap_eps=snap_eps)
