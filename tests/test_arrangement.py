"""The arrangement built on flat corner arrays, against a loop reference."""
import gc
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import pentile
from pentile.arrangement import (SNAP_FACTOR, Patch, PatchEdge, PatchVertex,
                                 _row_key, _unique_rows, cell_arrangement,
                                 orbit_star, patch_from_json_dict,
                                 vertex_labels)
from pentile.geometry import close_pairs, component_labels, interior_angles
from pentile.jsontext import dumps, patch_document
from pentile.pentagon import pentagon_from_json_dict
from pentile.stats import (FULL, INTERIOR, PatchStats, _arrangement_stats,
                           compute_stats, euler_residual, limit_sweep)
from pentile.tiling import (Isometry, TilingRecipe, builtin_recipe,
                            generate_patch, patch_rows)

DATA = Path(__file__).parent / "data"


def square(x, y, size=1.0):
    return np.array([(x, y), (x + size, y), (x + size, y + size),
                     (x, y + size)], dtype=float)


def point_segment_distance(p, a, b) -> float:
    """Distance from one point to one segment, one at a time: the scalar
    reference beside geometry.segment_distances."""
    d = b - a
    dd = float(d @ d)
    if dd < 1e-30:
        return math.hypot(*(p - a))
    t = float((p - a) @ d) / dd
    t = min(1.0, max(0.0, t))
    return math.hypot(*(p - (a + t * d)))


def reference_arrangement(polys, eps):
    """Corner by corner and side by side: the arrangement from_tiles must
    reproduce, relation for relation, each row in ascending order."""
    points = np.concatenate(polys)
    close = np.linalg.norm(points[:, None] - points[None], axis=-1) <= eps
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(close)):
        parent[find(i)] = find(j)
    vid_of_root, members = {}, []
    for i in range(len(points)):
        vid = vid_of_root.setdefault(find(i), len(members))
        if vid == len(members):
            members.append([])
        members[vid].append(i)
    point_vid = {i: v for v, m in enumerate(members) for i in m}
    xy = [tuple(float(c) for c in points[m].mean(axis=0)) for m in members]

    starts = np.cumsum([0] + [len(p) for p in polys])
    corner_vertices = [[point_vid[s + k] for k in range(len(p))]
                       for s, p in zip(starts, polys)]
    tiles_at = [set() for _ in members]
    angle_sum = [0.0] * len(members)
    pseudo = [False] * len(members)
    for t, p in enumerate(polys):
        for k, angle in enumerate(interior_angles(p)):
            tiles_at[corner_vertices[t][k]].add(t)
            angle_sum[corner_vertices[t][k]] += angle
    edge_tiles = {}
    xy_array = np.array(xy)
    for t, p in enumerate(polys):
        for k in range(len(p)):
            a, b = p[k], p[(k + 1) % len(p)]
            va, vb = corner_vertices[t][k], corner_vertices[t][(k + 1) % len(p)]
            near = np.linalg.norm(xy_array - (a + b) / 2, axis=1) <= (
                np.linalg.norm(b - a) / 2 + eps)
            inside = sorted(
                (float((xy_array[v] - a) @ (b - a) / ((b - a) @ (b - a))), v)
                for v in np.flatnonzero(near).tolist() if v not in (va, vb)
                and point_segment_distance(xy_array[v], a, b) <= eps)
            for _, v in inside:
                if t not in tiles_at[v]:
                    angle_sum[v] += math.pi
                tiles_at[v].add(t)
                pseudo[v] = True
            stops = [va] + [v for _, v in inside] + [vb]
            for v1, v2 in zip(stops, stops[1:]):
                edge_tiles.setdefault((min(v1, v2), max(v1, v2)), set()).add(t)
    return {
        "vertices": [(xy[v], tuple(sorted(tiles_at[v])), pseudo[v],
                      abs(angle_sum[v] - 2 * math.pi) <= 1e-6)
                     for v in range(len(members))],
        "edges": [(key, tuple(sorted(owners)))
                  for key, owners in sorted(edge_tiles.items())],
        "corner_vertices": [tuple(c) for c in corner_vertices],
        "adjacents": [tuple(sorted({o for owners in edge_tiles.values()
                                    if t in owners for o in owners} - {t}))
                      for t in range(len(polys))],
    }


def reference_stats(ref, mode, r):
    """compute_stats counted off the loop reference."""
    vertices = range(len(ref["vertices"]))
    tiles = range(len(ref["adjacents"]))
    edges = ref["edges"]
    if mode == INTERIOR:
        vertices = {v for v in vertices if ref["vertices"][v][3]}
        tiles = [t for t in tiles if vertices >= {
            v for v, record in enumerate(ref["vertices"]) if t in record[1]}]
        edges = [e for e in edges if vertices >= set(e[0])]
    t_h, v_j = {}, {}
    for t in tiles:
        h = len(ref["adjacents"][t])
        t_h[h] = t_h.get(h, 0) + 1
    for v in vertices:
        j = len(ref["vertices"][v][1])
        v_j[j] = v_j.get(j, 0) + 1
    return PatchStats(v=len(vertices), e=len(edges), t=len(tiles), t_h=t_h,
                      v_j=v_j, r=r, mode=mode)


def patch_fields(patch):
    """Every relation of the patch, read off its arrays."""
    return {
        "vertices": [(tuple(xy), tiles, pseudo, complete)
                     for xy, tiles, pseudo, complete in zip(
                         patch.vertex_xy.tolist(), patch.vertex_tiles.rows(),
                         patch.pseudo.tolist(), patch.complete.tolist())],
        "edges": [(tuple(ends), tiles) for ends, tiles in zip(
            patch.edge_vertices.tolist(), patch.edge_tiles.rows())],
        "corner_vertices": patch.corner_vertices.rows(),
        "adjacents": patch.tile_adjacents.rows(),
    }


@pytest.mark.parametrize("type_id, center", [
    (1, (0.0, 0.0)), (2, (0.37, -1.21)), (4, (0.0, 0.0)), (5, (0.37, -1.21))])
def test_generated_patch_matches_loop_reference(type_id, center):
    house = json.loads((DATA / "house.json").read_text())
    pentagon = (pentagon_from_json_dict(house) if type_id == 1
                else pentile.representative(type_id).pentagon)
    patch = generate_patch(builtin_recipe(type_id, pentagon), 5.0, center)
    polys = [t.polygon for t in patch.tiles]
    eps = SNAP_FACTOR * float(np.mean(np.concatenate(
        [np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=1) for p in polys])))
    ref = reference_arrangement(polys, eps)
    assert patch_fields(patch) == ref
    assert [(v.xy, v.tiles, v.pseudo, v.complete)
            for v in patch.vertices] == ref["vertices"]
    assert [(e.vertices, e.tiles) for e in patch.edges] == ref["edges"]
    assert all(v.valence == len(v.tiles) for v in patch.vertices)
    for mode in (FULL, INTERIOR):
        assert compute_stats(patch, mode) == reference_stats(ref, mode, 5.0)


def test_chained_corners_merge_into_one_vertex_at_their_mean():
    """Corners 0.6 of the merge distance apart chain together, although the
    outer two are 1.2 of it apart. Every side is 1 long to within 2e-7, so
    the merge distance is SNAP_FACTOR to within as little of itself."""
    eps = SNAP_FACTOR
    tips = [np.array([0.6 * eps * i, 0.0]) for i in range(3)]
    triangles = []
    for i, tip in enumerate(tips):
        turn = 2 * math.pi * i / 3
        far = [(math.cos(turn + a), math.sin(turn + a))
               for a in (0.0, math.pi / 3)]
        triangles.append(np.vstack([tip, far]))
    patch = Patch.from_polygons(triangles)
    assert [row[0] for row in patch.corner_vertices.rows()] == [0, 0, 0]
    assert len(patch.vertex_xy) == 1 + 2 * 3
    assert patch.vertices[0].xy == pytest.approx(tuple(np.mean(tips, axis=0)),
                                                 abs=1e-15)
    assert patch.vertices[0].tiles == (0, 1, 2)


def test_mixed_squares_and_pentagons():
    pentagon = np.array([(1, 0), (2, 0), (2, 1), (1.5, 1.5), (1, 1)],
                        dtype=float)
    patch = Patch.from_polygons([square(0, 0), pentagon])
    assert [len(c) for c in patch.corner_vertices.rows()] == [4, 5]
    assert (len(patch.vertex_xy), len(patch.edge_vertices)) == (7, 8)
    assert euler_residual(compute_stats(patch)) == 0
    assert patch.tile_adjacents.rows() == [(1,), (0,)]
    shared = [e for e in patch.edges if e.tiles == (0, 1)]
    assert [e.vertices for e in shared] == [(1, 2)]


def test_side_with_two_inner_vertices_splits_in_parameter_order():
    """The long bottom side of tile 0 carries (2, 0), numbered first, and
    (1, 0); its edges must run (0,0)-(1,0)-(2,0)-(3,0), not by vertex id."""
    slab = np.array([(0, 0), (3, 0), (3, 1), (0, 1)], dtype=float)
    patch = Patch.from_polygons([slab, square(2, -1), square(1, -1),
                                 square(0, -1)])
    ids = {v.xy: i for i, v in enumerate(patch.vertices)}
    stops = [ids[(float(x), 0.0)] for x in range(4)]
    assert stops[2] < stops[1]
    bottom = {e.vertices for e in patch.edges if 0 in e.tiles
              and all(patch.vertices[v].xy[1] == 0.0 for v in e.vertices)}
    assert bottom == {tuple(sorted(pair)) for pair in zip(stops, stops[1:])}
    assert patch.vertices[stops[1]].pseudo and patch.vertices[stops[2]].pseudo
    assert patch.tile_adjacents.rows()[0] == (1, 2, 3)
    vertex_tiles = patch.vertex_tiles.rows()
    assert 0 in vertex_tiles[stops[1]] and 0 in vertex_tiles[stops[2]]


@pytest.mark.parametrize("gap_filled", [False, True])
def test_interior_tiles_need_every_boundary_vertex_complete(gap_filled):
    """A slab [0, 3] x [0, 1] ringed by unit squares, but for the square
    above its middle: its four corners close up to full turns, yet the
    corners of the squares above split its top side at (1, 1) and (2, 1),
    which the gap leaves open. So the slab is not interior, although a rule
    over its corners alone would take it. Filling the gap makes it interior;
    every ring square has an open outer corner."""
    slab = np.array([(0, 0), (3, 0), (3, 1), (0, 1)], dtype=float)
    ring = [(x, y) for x in range(-1, 4) for y in (-1, 1)
            if gap_filled or (x, y) != (1, 1)] + [(-1, 0), (3, 0)]
    patch = Patch.from_polygons([slab] + [square(x, y) for x, y in ring])
    assert patch.complete[list(patch.corner_vertices.rows()[0])].all()
    ids = {tuple(xy): i for i, xy in enumerate(patch.vertex_xy.tolist())}
    assert patch.complete[[ids[(1.0, 1.0)], ids[(2.0, 1.0)]]].all() == (
        gap_filled)
    assert patch.interior_tile_ids().tolist() == ([0] if gap_filled else [])


def test_no_polygons_make_an_empty_patch():
    patch = Patch.from_polygons([])
    assert (len(patch.tiles), len(patch.vertex_xy),
            len(patch.edge_vertices)) == (0, 0, 0)
    for rows in (patch.corner_vertices, patch.tile_adjacents,
                 patch.vertex_tiles, patch.edge_tiles):
        assert rows.rows() == []
    assert (patch.vertices, patch.edges) == ((), ())
    assert len(patch.interior_tile_ids()) == 0


def test_records_read_like_a_tuple_of_records():
    """vertices and edges are read-only sequences equal to the tuples of
    records made from the arrays in one pass."""
    patch = generate_patch(builtin_recipe(4, pentile.representative(4).pentagon),
                           5.0, (0.3, -0.2))
    vertex_tiles = patch.vertex_tiles.rows()
    vertices = tuple(map(PatchVertex, map(tuple, patch.vertex_xy.tolist()),
                         vertex_tiles, map(len, vertex_tiles),
                         patch.pseudo.tolist(), patch.complete.tolist()))
    edges = tuple(map(PatchEdge, map(tuple, patch.edge_vertices.tolist()),
                      patch.edge_tiles.rows()))
    for records, ref in ((patch.vertices, vertices), (patch.edges, edges)):
        assert records == ref and ref == records and tuple(records) == ref
        assert records != ref[:-1] and records != list(ref)
        assert len(records) == len(ref)
        assert records[-1] == ref[-1] and records[3] == ref[3]
        assert records[2:9:3] == ref[2:9:3] and records[::-1] == ref[::-1]
        with pytest.raises(IndexError):
            records[len(ref)]
        with pytest.raises(TypeError):
            records[1.0]
        assert records.index(ref[5]) == 5 and ref[7] in records


def test_reading_records_leaves_no_objects_behind():
    """Records are made as they are read: walking every vertex and edge of
    an r = 20 patch (1 317 and 2 136 of them) holds no object per
    record afterwards."""
    patch = generate_patch(builtin_recipe(4, pentile.representative(4).pentagon),
                           20.0)
    gc.collect()
    before = len(gc.get_objects())
    assert sum(1 for v in patch.vertices if v.pseudo) >= 0
    assert sum(1 for e in patch.edges if len(e.tiles) > 2) == 0
    gc.collect()
    assert len(patch.edge_vertices) > 2000
    assert len(gc.get_objects()) - before < 50


def test_vertex_ids_follow_first_corner_occurrence():
    recipe = builtin_recipe(4, pentile.representative(4).pentagon)
    patch = generate_patch(recipe, 6.0)
    assert patch.corner_vertices.rows()[0] == (0, 1, 2, 3, 4)
    order = []
    for vids in patch.corner_vertices.rows():
        order += [v for v in vids if v not in order]
    assert order == list(range(len(patch.vertex_xy)))


def test_tile_duplicated_in_place_crowds_its_shared_edge():
    patch = Patch.from_polygons([square(0, 0), square(0, 0), square(1, 0)])
    crowded = [e for e in patch.edges if len(e.tiles) == 3]
    assert [e.tiles for e in crowded] == [(0, 1, 2)]


def records_document(patch):
    """Reference: the patch document built from the tile, vertex and edge
    records."""
    return {
        "r": patch.r,
        "center": list(patch.center) if patch.center else None,
        "tiles": [{"cell": list(t.cell), "zone": t.zone,
                   "polygon": [[float(x), float(y)] for x, y in t.polygon]}
                  for t in patch.tiles],
        "vertices": [{"xy": [v.xy[0], v.xy[1]], "valence": v.valence,
                      "pseudo": v.pseudo, "complete": v.complete}
                     for v in patch.vertices],
        "edges": [{"vertices": list(e.vertices), "tiles": list(e.tiles)}
                  for e in patch.edges],
    }


@pytest.mark.parametrize("type_id", [1, 2, 4, 5, None])
def test_document_is_read_off_the_arrays(type_id):
    """The same bytes as the records give, without building the records;
    None is a hand-built patch with pseudo-vertices and no disk."""
    if type_id is None:
        slab = np.array([(0, 0), (3, 0), (3, 1), (0, 1)], dtype=float)
        patch = Patch.from_polygons([slab, square(2, -1), square(1, -1)])
    else:
        recipe = builtin_recipe(type_id,
                                pentile.representative(type_id).pentagon)
        patch = generate_patch(recipe, 6.0, (0.37, -1.21))
        assert (recipe.to_json_dict()["pentagon"]
                == recipe.pentagon.to_json_dict())
    document = json.dumps(patch.to_json_dict())
    assert "vertices" not in patch.__dict__
    assert "edges" not in patch.__dict__
    assert document == json.dumps(records_document(patch))


@pytest.mark.parametrize("center", [(0.0, 0.0), (150.0, 0.0), (1e4, 3e3),
                                    (-2.5e3, 7.5e2), (2e4, -2e4), (-3e4, 0.0)],
                         ids="{0[0]:g},{0[1]:g}".format)
@pytest.mark.parametrize("type_id", [1, 2, 4, 5])
def test_nine_digit_document_gives_the_generated_stats(type_id, center):
    """A patch document carries nine significant digits, so far from the
    origin two copies of one corner differ by more than SNAP_FACTOR of a
    side; reading it back must still merge them and close full turns."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    patch = generate_patch(recipe, 8.0, center)
    document = patch_from_json_dict(json.loads(dumps(patch_document(patch))))
    for mode in (FULL, INTERIOR):
        assert compute_stats(document, mode) == compute_stats(patch, mode)


@pytest.mark.parametrize("type_id, tve", [(1, (2, 4, 6)), (2, (4, 8, 12)),
                                          (4, (4, 6, 10)), (5, (6, 9, 15))])
def test_cell_arrangement_closes_on_the_torus(type_id, tve):
    """One lattice cell of the tiling is a map on the torus: t region tiles,
    v vertex orbits and e = (5t + side hits) / 2 edges, each edge bordering
    two tiles, with v - e + t = 0. The corners of one orbit, moved back by
    their shifts, are one point."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    star = recipe.orbit_star
    t = len(recipe.region)
    e, odd = divmod(5 * t + np.count_nonzero(~star.corner), 2)
    assert odd == 0
    assert (t, star.orbits, e) == tve
    assert star.orbits - e + t == 0
    assert star.stop_ptr[-1] == len(star.corner)
    assert not star.stop_param[star.corner].any()

    lattice = np.column_stack([recipe.u, recipe.v])
    key = star.stop_vertex[star.corner]
    home = recipe.region_corners.reshape(-1, 2) - key[:, :2] @ lattice.T
    orbit = key[:, 2]
    assert sorted(set(orbit.tolist())) == list(range(star.orbits))
    for o in range(star.orbits):
        spread = home[orbit == o] - home[orbit == o][0]
        assert np.abs(spread).max() <= 1e-9


@pytest.mark.parametrize("type_id, ve", [(1, (4, 6)), (2, (8, 12)),
                                         (4, (6, 10)), (5, (9, 15))])
def test_orbit_star_closes_on_the_torus(type_id, ve):
    """The star's rows are the orbits and hold 5k + side hits stops in
    all, so v orbits, e = (5k + hits) / 2 edges and the k region tiles give
    v - e + t = 0, with (v, e) as the one-cell limits. Each region tile's
    stops lie on its boundary and walk it once round, and each edge has a
    neighbour on its other side."""
    recipe = builtin_recipe(type_id, pentile.representative(type_id).pentagon)
    star = recipe.orbit_star
    k = len(recipe.region)
    sizes = np.diff(star.star.indptr)
    assert len(sizes) == star.orbits
    assert sizes.sum() == 5 * k + np.count_nonzero(~star.corner)
    e, odd = divmod(int(sizes.sum()), 2)
    assert odd == 0
    assert (star.orbits, e) == ve
    assert star.orbits - e + k == 0
    assert np.array_equal(star.stop_vertex[star.star.indices, 2],
                          np.repeat(np.arange(star.orbits), sizes))
    assert star.neighbours.sum() == 2 * e
    assert star.reach == np.abs(star.step).max()
    assert star.reach <= np.abs(star.stop_vertex[:, :2]).max()

    lattice = np.column_stack([recipe.u, recipe.v])
    key = star.stop_vertex[star.corner]
    home = np.empty((star.orbits, 2))
    home[key[:, 2]] = (recipe.region_corners.reshape(-1, 2)
                       - key[:, :2] @ lattice.T)
    at = home[star.stop_vertex[:, 2]] + star.stop_vertex[:, :2] @ lattice.T
    for j, polygon in enumerate(recipe.region_corners):
        stops = np.arange(star.stop_ptr[j], star.stop_ptr[j + 1])
        assert np.array_equal(star.stop_tile[stops], np.full(len(stops), j))
        assert np.array_equal(star.next_stop[stops], np.roll(stops, -1))
        assert all(min(point_segment_distance(p, a, b) for a, b in zip(
            polygon, np.roll(polygon, -1, axis=0))) <= 1e-9 for p in at[stops])
        walked = np.linalg.norm(at[np.roll(stops, -1)] - at[stops], axis=1)
        perimeter = np.linalg.norm(np.roll(polygon, -1, axis=0) - polygon,
                                   axis=1)
        assert abs(walked.sum() - perimeter.sum()) <= 1e-9


def test_orbit_star_of_a_many_tile_supercell():
    """Type 1's two-tile region repeated 100 times along u, a 200-tile
    region: every region tile has the edge neighbours the generated patch
    gives its interior translates, the sweep's lattice counts are the
    counts of the patch's looked-up arrangement, and the star's steps are
    matched in memory linear in its S stops, well below one flag per pair
    of them: the star is laid out again from the corner keys and side
    stops read back off it."""
    base = builtin_recipe(1, pentile.representative(1).pentagon)
    u = np.asarray(base.u)
    region = tuple(
        Isometry(iso.rotation, tuple(np.asarray(iso.translation) + i * u),
                 iso.reflect)
        for i in range(100) for iso in base.region)
    recipe = TilingRecipe(base.pentagon, region, tuple(100 * u), base.v)
    built, inside = recipe.orbit_star, ~recipe.orbit_star.corner
    read_back = (built.stop_vertex[built.corner].reshape(len(region), 5, 3),
                 (np.cumsum(built.corner) - 1)[inside],
                 built.stop_vertex[inside], built.stop_param[inside])
    tracemalloc.start()
    try:
        star = orbit_star(*read_back)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stops = len(star.stop_tile)
    assert stops == 5 * len(region) + np.count_nonzero(inside)
    assert peak < 1000 * stops < stops * stops
    assert np.array_equal(star.neighbour, built.neighbour)

    r = 2.0 * recipe.pentagon.diameter + 4.0
    patch = generate_patch(recipe, r)
    tile = patch_rows(recipe, r, np.zeros(2))[0][:, 2]
    inside = patch.interior_tile_ids()
    assert len(inside) and len(set(tile[inside].tolist())) > 1
    assert np.array_equal(np.diff(patch.tile_adjacents.indptr)[inside],
                          star.neighbours[tile[inside]])
    radii = r - np.array([3.0, 2.5, 0.0])
    for counted, r in zip(limit_sweep(recipe, radii).stats, radii.tolist()):
        assert counted == _arrangement_stats(generate_patch(recipe, r),
                                             INTERIOR)


def test_cell_arrangement_of_an_800_tile_region_stays_small():
    """Type 1's two-tile region repeated 20 × 20 times, 800 region tiles:
    the corners and the sides' lattice boxes are joined on whole lattice
    cells, not every corner against every other, so the cell arrangement
    is built under 200 MB traced, its orbit star included. It has 400
    times the region's orbits."""
    base = builtin_recipe(1, pentile.representative(1).pentagon)
    u, v = np.asarray(base.u), np.asarray(base.v)
    region = tuple(
        Isometry(iso.rotation,
                 tuple(np.asarray(iso.translation) + i * u + j * v),
                 iso.reflect)
        for i in range(20) for j in range(20) for iso in base.region)
    recipe = TilingRecipe(base.pentagon, region, tuple(20 * u),
                          tuple(20 * v))
    tracemalloc.start()
    try:
        star = cell_arrangement(recipe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 << 20
    assert star.orbits == 400 * base.orbit_star.orbits


@st.composite
def drawn_cells(draw):
    """The orbit star of up to three region tiles of three corners and up
    to twice as many stops inside their sides, every key a step in [-2, 2]²
    to one of up to three orbits, with the corner keys drawn; and distinct
    translates (m, n, region index) of it."""
    orbits, count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    key = st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                    st.integers(0, orbits - 1))
    corner_vertex = np.array(draw(st.lists(key, min_size=3 * count,
                                           max_size=3 * count)))
    hit_side = np.sort(np.array(draw(st.lists(
        st.integers(0, 3 * count - 1), max_size=2 * count)), dtype=np.intp))
    hit_vertex = np.array(draw(st.lists(key, min_size=len(hit_side),
                                        max_size=len(hit_side))),
                          dtype=int).reshape(-1, 3)
    star = orbit_star(corner_vertex.reshape(count, 3, 3), hit_side,
                      hit_vertex, np.full(len(hit_side), 0.5))
    cells = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                    st.integers(0, count - 1)),
                          min_size=1, unique=True))
    return np.array(cells), star, corner_vertex.reshape(count, 3, 3)


@given(drawn_cells())
def test_vertex_labels_are_equal_exactly_when_keys_are(drawn):
    """Each tile's stops in boundary order, tile by tile, their corners
    the drawn corner keys in order; two labels are equal exactly when their
    keys (m, n, orbit) are."""
    cells, star, corner_vertex = drawn
    labels, tile, row = vertex_labels(cells, star)
    stops = [np.arange(star.stop_ptr[j], star.stop_ptr[j + 1])
             for j in cells[:, 2]]
    assert np.array_equal(tile, np.repeat(np.arange(len(cells)),
                                          [len(s) for s in stops]))
    assert np.array_equal(row, np.concatenate(stops))
    keys = star.stop_vertex[row]
    assert np.array_equal(keys[star.corner[row]],
                          corner_vertex[cells[:, 2]].reshape(-1, 3))
    keys[:, :2] += cells[tile, :2]
    distinct = len(np.unique(keys, axis=0))
    assert len(np.unique(labels)) == distinct
    assert len(np.unique(np.column_stack([labels, keys]), axis=0)) == distinct
    assert labels.min() >= 0


# --- neighbour search and component labelling, against scipy ---------------

@st.composite
def clustered_points(draw, max_size=40):
    """Points on a lattice of pitch 2**k, so many pairs lie exactly 1, 2, 3
    or 5 pitches apart (3-4-5 triangles), with exact duplicates, chains
    along rows, jittered copies and a common offset; and a reach of 0 to 6
    pitches."""
    pitch = 2.0 ** draw(st.integers(-6, 3))
    grid = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    cells = draw(st.lists(grid, max_size=max_size))
    cells += draw(st.lists(st.sampled_from(cells), max_size=10)) if cells \
        else []
    pts = pitch * np.array(cells, dtype=float).reshape(-1, 2)
    jitter = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * len(pts),
                           max_size=2 * len(pts)))
    scale = draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-3, 0.5]))
    pts = pts + scale * pitch * np.array(jitter).reshape(-1, 2)
    offset = draw(st.sampled_from([0.0, 0.0, 3.7, -1e3, 1e9]))
    reach = pitch * draw(st.sampled_from([0, 0.5, 1, 2, 2.5, 3, 5, 6]))
    return pts + offset, reach


def pair_list(i, j):
    return list(zip(i.tolist(), j.tolist()))


@given(clustered_points(), st.data())
def test_close_pairs_are_the_kd_tree_pairs(case, data):
    """Within one set: cKDTree.query_pairs' set. Across the set's first k
    points and the rest: the entries of cKDTree.sparse_distance_matrix.
    Both sorted by (i, j)."""
    pts, reach = case
    found = pair_list(*close_pairs(pts, reach))
    assert found == sorted(cKDTree(pts).query_pairs(reach))
    k = data.draw(st.integers(0, len(pts)))
    found = pair_list(*close_pairs(pts[:k], reach, pts[k:]))
    if 0 < k < len(pts):
        near = cKDTree(pts[:k]).sparse_distance_matrix(
            cKDTree(pts[k:]), reach, output_type="ndarray")
        assert found == sorted(pair_list(near["i"], near["j"]))
    else:
        assert found == []


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0))),
                         max_size=3 * n if n else 0))))
def test_component_labels_are_the_connected_components(graph):
    """The partition of scipy's connected_components, each part labelled
    by its smallest node."""
    n, edges = graph
    a, b = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    label = component_labels(n, a, b)
    _, component = connected_components(
        coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n)), directed=False)
    smallest = {}
    for node, part in enumerate(component.tolist()):
        smallest.setdefault(part, node)
    assert label.tolist() == [smallest[part] for part in component.tolist()]


def unique_rows_list(*columns):
    columns = [np.array(c, dtype=np.int64) for c in columns]
    found = _unique_rows(*columns)
    assert [c.dtype for c in found] == [c.dtype for c in columns]
    return list(zip(*(c.tolist() for c in found)))


def rows_reference(*columns):
    return sorted(set(zip(*columns)))


@pytest.mark.parametrize("scale", [1, 2 ** 40])
def test_unique_rows_are_sorted_and_distinct(scale):
    """Rows come back distinct and in row-wise order, for small ids and
    for ids of order 2**40."""
    a = scale * np.array([3, 0, 3, 5, 0, 3])
    b = scale * np.array([1, 2, 1, 0, 2, -4])
    rows = list(zip(*(c.tolist() for c in _unique_rows(a, b))))
    assert rows == sorted(set(zip(a.tolist(), b.tolist())))


BIG = 2 ** 62
UNIQUE_ROW_CASES = {
    "three-columns": ([2, 0, 2, 1, 2, 0], [5, 5, 5, 4, 3, 5],
                      [0, 1, 0, 0, 7, 0]),
    "empty": ([], [], []),
    "one-row": ([7], [-3]),
    "mixed-sign": ([-3, 4, -3, 0, 4, -3], [2, -9, 2, 0, -9, -1]),
    # each span fits int64, their product does not
    "spans-pass-int64": ([0, 2 ** 40, 0, 5, 2 ** 40], [2 ** 30, 0, 2 ** 30,
                                                       1, -2 ** 30],
                         [2 ** 20, 0, 2 ** 20, 3, 0]),
    # one column's span alone, max - min, passes int64
    "one-span-passes-int64": ([-BIG, BIG, 0, BIG, -BIG], [1, 0, 0, 0, 1]),
}


@pytest.mark.parametrize("columns", UNIQUE_ROW_CASES.values(),
                         ids=UNIQUE_ROW_CASES)
def test_unique_rows_match_the_sorted_set(columns):
    assert unique_rows_list(*columns) == rows_reference(*columns)


@pytest.mark.parametrize("case", [c for c in UNIQUE_ROW_CASES
                                  if c != "empty"])
def test_row_keys_are_taken_over_ranks_only_past_int64(case):
    """The key is built over ranks (two np.unique calls) exactly where the
    spans' product passes int64, and either way it keeps the rows' order."""
    columns = [np.array(c, dtype=np.int64) for c in UNIQUE_ROW_CASES[case]]
    with mock.patch.object(np, "unique", wraps=np.unique) as ranks:
        key = _row_key(columns)
    assert ranks.call_count == (2 if "int64" in case else 0)
    rows = list(zip(*(c.tolist() for c in columns)))
    assert sorted(range(len(rows)), key=lambda i: (rows[i], i)) == sorted(
        range(len(rows)), key=lambda i: (key[i], i))


big_ids = st.one_of(st.integers(-4, 4), st.integers(-BIG, BIG))


@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.tuples(*[big_ids] * width), max_size=40)))
def test_unique_rows_property(rows):
    """Any rows, small ids beside ids up to ±2**62, come back as the sorted
    set of rows."""
    width = len(rows[0]) if rows else 2
    columns = list(zip(*rows)) if rows else [()] * width
    assert unique_rows_list(*columns) == rows_reference(*columns)
