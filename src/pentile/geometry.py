"""Low-level planar geometry helpers: areas, clipping, enclosing/inscribed circles.

Everything works on (n, 2) float arrays of polygon vertices in counterclockwise
order unless stated otherwise, and on numpy alone: both circles are in closed
form, picked from a few candidates, not a linear program or a search.

The verifier's many-polygon work runs on stacks: stack_polygons puts N
polygons of any corner counts in one (N, K, 2) array, and polygon_areas,
convex_overlap_areas, polygon_disk_overlap_areas and points_in_convex_polygon
take such stacks. Each gives, bit for bit, what a loop over one polygon (or
one side) at a time gives, kept in the tests as the reference: the same
elementwise float operations in the same order, and sums added in the order
np.sum or a left-to-right loop adds them. Where numpy rounds otherwise than
the scalar call, the stack makes that call: a batched matmul for a 2-vector
dot, and math.hypot and math.atan2 on lists. The verifier's reported
rounding noise stays the same to the last digit.

Two helpers serve the arrangement's snapping and side incidence, the
overlap check and the F3 flood fill: close_pairs, a uniform-grid search for
the pairs of points within a reach, and component_labels, the connected
components of a graph given as an edge list.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def rot_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def polygon_area(poly: np.ndarray) -> float:
    """Signed shoelace area; positive for counterclockwise vertex order."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroids(stacked: np.ndarray) -> np.ndarray:
    """Centroid of each of N polygons of K corners, (N, K, 2) -> (N, 2), by
    the shoelace formula: each row's terms are added by np.sum over K-long
    rows, so as np.sum adds one polygon's."""
    x, y = stacked[..., 0], stacked[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    six_area = (6.0 * (0.5 * np.sum(cross, axis=-1)))[:, None]
    return np.column_stack([np.sum((x + xn) * cross, axis=-1),
                            np.sum((y + yn) * cross, axis=-1)]) / six_area


def polygon_edge_lengths(poly: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.roll(poly, -1, axis=0) - poly, axis=1)


def corner_angles(side: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Interior angle at every corner of ccw polygons laid out flat: side i
    runs from corner i to corner nxt[i]. Each angle is pi less the turn
    from the side coming in to the side going out."""
    d_in = np.empty_like(side)
    d_in[nxt] = side
    cross = d_in[:, 0] * side[:, 1] - d_in[:, 1] * side[:, 0]
    dot = np.sum(d_in * side, axis=1)
    return math.pi - np.arctan2(cross, dot)


def interior_angles(poly: np.ndarray) -> np.ndarray:
    """Interior angles of a simple ccw polygon, via exterior turning angles."""
    nxt = np.roll(np.arange(len(poly)), -1)
    return corner_angles(poly[nxt] - poly, nxt)


def stack_polygons(polys) -> tuple[np.ndarray, np.ndarray]:
    """Polygons as one (N, K, 2) array and their (N,) corner counts. Each is
    padded to K corners by repeating its last corner: the zero-length sides
    this adds clip nothing, exclude no point and move no bounding circle."""
    counts = np.array([len(p) for p in polys], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    corner = np.minimum(np.arange(counts.max(initial=0)), counts[:, None] - 1)
    flat = np.concatenate([np.zeros((0, 2)), *polys])
    return flat[starts[:, None] + corner], counts


def _following(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """values[:, k + 1] beside each column k, wrapping at each row's count:
    a roll when every row has all its columns."""
    if (counts == values.shape[1]).all():
        return np.roll(values, -1, axis=1)
    k = np.arange(values.shape[1])
    nxt = np.where(k + 1 < counts[:, None], k + 1, 0)
    return np.take_along_axis(values, nxt, axis=1)


def polygon_areas(stacked: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """polygon_area of each stacked polygon, bit for bit: the shoelace terms
    of a c-corner polygon are added by np.sum over c-long rows, so in its
    order (sequential below 8 terms, 8 accumulators from 8 up). Rows of
    fewer than 3 corners have area 0."""
    x, y = stacked[..., 0], stacked[..., 1]
    terms = x * _following(y, counts) - _following(x, counts) * y
    sums = np.zeros(len(counts))
    for c in np.flatnonzero(np.bincount(counts[counts >= 3])):
        rows = counts == c
        sums[rows] = np.sum(terms[rows, :c], axis=1)
    return 0.5 * sums


def convex_overlap_areas(subjects: np.ndarray, counts: np.ndarray,
                         clips: np.ndarray) -> np.ndarray:
    """Area of each subject polygon clipped to the convex ccw polygon in the
    same row of clips, both stacked as by stack_polygons.

    Sutherland & Hodgman's clip (CACM 1974) on every row at once: each clip
    side keeps, per row, the corners on its inner side and the crossings
    into or out of it, in corner order. Every row sees the float operations
    of a one-pair clip loop in the same order, so its area is bit for bit
    that loop's.
    """
    pts, n = subjects, counts
    width = clips.shape[1]
    for i in range(width):
        a = clips[:, i]
        ex = (clips[:, (i + 1) % width, 0] - a[:, 0])[:, None]
        ey = (clips[:, (i + 1) % width, 1] - a[:, 1])[:, None]
        ax, ay = a[:, 0, None], a[:, 1, None]
        x, y = pts[..., 0], pts[..., 1]
        k = np.arange(x.shape[1])
        live = k < n[:, None]
        inside = ex * (y - ay) - ey * (x - ax) >= 0.0
        prev = np.where(k == 0, n[:, None] - 1, k - 1)
        px = np.take_along_axis(x, prev, axis=1)
        py = np.take_along_axis(y, prev, axis=1)
        dx, dy = x - px, y - py
        denom = ex * dy - ey * dx
        cut = (live & (inside != np.take_along_axis(inside, prev, axis=1))
               & (np.abs(denom) > 1e-30))
        keep = live & inside
        # a crossing goes just before its corner, in the corner's place
        emitted = cut.astype(np.intp) + keep
        slot = np.cumsum(emitted, axis=1) - emitted
        n = emitted.sum(axis=1)
        out = np.zeros((len(pts), n.max(initial=0), 2))
        r, c = np.nonzero(cut)
        t = ((ex[r, 0] * (ay[r, 0] - py[r, c])
              - ey[r, 0] * (ax[r, 0] - px[r, c])) / denom[r, c])
        out[r, slot[r, c], 0] = px[r, c] + t * dx[r, c]
        out[r, slot[r, c], 1] = py[r, c] + t * dy[r, c]
        r, c = np.nonzero(keep)
        out[r, slot[r, c] + cut[r, c]] = pts[r, c]
        pts = out
    return np.abs(polygon_areas(pts, n))


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """float(u[i] @ v[i]) for each row of two (P, 2) arrays, bit for bit: a
    batched matmul calls the same BLAS dot as @ and np.linalg.norm, which
    may round otherwise than x * x + y * y."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _sectors(u: np.ndarray, v: np.ndarray, r: float) -> np.ndarray:
    """Signed area of the sector of disk(0, r) from each u[i] to v[i].
    math.atan2 on each pair: np.arctan2 may round otherwise."""
    cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    ang = [math.atan2(y, x)
           for y, x in zip(cross.tolist(), row_dots(u, v).tolist())]
    return 0.5 * r * r * np.array(ang, dtype=float)


def _disk_segment_terms(a: np.ndarray, b: np.ndarray, ra: np.ndarray,
                        rb: np.ndarray, r: float) -> np.ndarray:
    """Signed area of disk(0, r) intersected with each triangle (0, a, b),
    for (P, 2) corners a and b at distances ra and rb from the origin, each
    on the side of r that math.hypot's distance is.

    The side p(t) = a + t (b - a) is clipped to the circle; what lies inside
    is a triangle with the origin, what lies outside a sector. Masks send
    each side down the branch a one-side rule takes (whole triangle, zero
    length, chord line or chord missing the side, clipped chord plus
    sectors), and sectors are computed only for the sides that need them.
    Every float operation is that rule's, in its order, so every term is
    its to the last bit.
    """
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    whole = (ra <= r) & (rb <= r)
    d = b - a
    dd = row_dots(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = -row_dots(a, d) / dd
        p0 = a + t0[:, None] * d
        h2 = r * r - row_dots(p0, p0)
        dt = np.sqrt(h2 / dd)
    t1, t2 = t0 - dt, t0 + dt
    t1c = np.where(0.0 > t1, 0.0, t1)    # as max(t1, 0.0) and min(t2, 1.0)
    t2c = np.where(t2 > 1.0, 1.0, t2)
    live = ~whole & ~(dd < 1e-30)
    arc = live & ((h2 <= 0.0) | (t1c >= t2c))  # the chord misses the side
    chord = live & ~arc
    p1 = a + t1c[:, None] * d
    p2 = a + t2c[:, None] * d
    terms = np.where(whole, 0.5 * cross, 0.0)
    terms[arc] = _sectors(a[arc], b[arc], r)
    area = 0.5 * (p1[:, 0] * p2[:, 1] - p1[:, 1] * p2[:, 0])
    enter = chord & (t1c > 0.0)
    area[enter] += _sectors(a[enter], p1[enter], r)
    leave = chord & (t2c < 1.0)
    area[leave] += _sectors(p2[leave], b[leave], r)
    terms[chord] = area[chord]
    return terms


def polygon_disk_overlap_areas(stacked: np.ndarray, counts: np.ndarray,
                               center: np.ndarray, r: float) -> np.ndarray:
    """Exact area of each stacked simple ccw polygon within disk(center, r):
    the sum over its sides of the disk's share of the triangle from the
    center to that side, added side by side.

    A polygon with every corner inside the disk has only whole triangle
    terms. np.hypot may round a corner's distance otherwise than math.hypot,
    so that test keeps a relative margin no rounding crosses. The other
    polygons, at the rim, take every side's term in one _disk_segment_terms
    pass. Their corners' distances only decide whether a side's triangle is
    whole, by distance <= r, so they are np.hypot's, and math.hypot's within
    1e-12·r of the circle, the same margin: np.hypot's rounding, an ulp or
    two, cannot carry a corner across r from farther out.
    """
    rel = stacked - np.asarray(center, dtype=float)
    x, y = rel[..., 0], rel[..., 1]
    inside = np.all(np.hypot(x, y) <= r * (1.0 - 1e-12), axis=1)
    terms = 0.5 * (x * _following(y, counts) - y * _following(x, counts))
    # the sides of the rim polygons, row by row
    row, col = np.nonzero(np.arange(rel.shape[1]) < counts[~inside, None])
    row = np.flatnonzero(~inside)[row]
    nxt = np.where(col + 1 < counts[row], col + 1, 0)
    a = rel[row, col]
    ra = np.hypot(a[:, 0], a[:, 1])
    near = np.flatnonzero(np.abs(ra - r) <= 1e-12 * r)
    ra[near] = [math.hypot(*p) for p in a[near].tolist()]
    rb = ra[np.arange(len(col)) - col + nxt]
    terms[row, col] = _disk_segment_terms(a, rel[row, nxt], ra, rb, r)
    total = np.zeros(len(stacked))
    for k in range(stacked.shape[1]):
        total = np.where(k < counts, total + terms[:, k], total)
    return total


def smallest_enclosing_circle(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimal covering circle of a few points, such as a polygon's corners.

    Its center is the midpoint of two points or the circumcenter of three
    (Welzl, "Smallest enclosing disks", 1991). Each such candidate center
    takes the distance to its farthest point as radius, and the smallest
    radius wins. Computed relative to the first point, so a far offset
    costs no precision.
    """
    pts = np.asarray(points, dtype=float)
    rel = pts - pts[0]
    pairs = np.array(list(itertools.combinations(range(len(pts)), 2)))
    triples = np.array(list(itertools.combinations(range(len(pts)), 3)),
                       dtype=np.intp).reshape(-1, 3)
    a = rel[triples[:, 0]]
    b, c = rel[triples[:, 1]] - a, rel[triples[:, 2]] - a
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    line = d == 0    # three points on a line have no circumcenter
    a, b, c, d = a[~line], b[~line], c[~line], d[~line]
    bb, cc = np.sum(b * b, axis=1), np.sum(c * c, axis=1)
    circum = a + np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                                  b[:, 0] * cc - c[:, 0] * bb]) / d[:, None]
    centers = np.concatenate([0.5 * (rel[pairs[:, 0]] + rel[pairs[:, 1]]),
                              circum])
    gap = rel[None] - centers[:, None]
    radii = np.hypot(gap[..., 0], gap[..., 1]).max(axis=1)
    best = int(np.argmin(radii))
    return pts[0] + centers[best], float(radii[best])


def largest_inscribed_circle(poly: np.ndarray) -> tuple[np.ndarray, float]:
    """Chebyshev center and radius of a strictly convex ccw polygon: of the
    circles tangent to three side lines, the center deepest inside, with its
    distance to the nearest side as radius (the optimum touches three sides;
    Boyd & Vandenberghe, Convex Optimization, 2004, sec. 8.5.1). With
    parallel sides the center is not unique; the radius is."""
    d = np.roll(poly, -1, axis=0) - poly
    length = np.hypot(d[:, 0], d[:, 1])[:, None]
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / length  # outward, ccw
    offsets = np.sum(normals * poly, axis=1)
    # each triple's center and radius solve n . x + r = n . p on its sides
    triples = np.array(list(itertools.combinations(range(len(poly)), 3)))
    lhs = np.dstack([normals[triples], np.ones(triples.shape)])
    centers = np.linalg.solve(lhs, offsets[triples][..., None])[:, :2, 0]
    depth = (offsets - centers @ normals.T).min(axis=1)
    best = int(np.argmax(depth))
    return centers[best], float(depth[best])


def points_in_convex_polygon(px: np.ndarray, py: np.ndarray,
                             poly: np.ndarray, eps: float = 0.0
                             ) -> np.ndarray:
    """Mask of points (px, py) inside a convex ccw polygon, boundary band
    eps wide. The coordinates broadcast against each other and against
    polygons (..., n, 2), as stacked by stack_polygons: a row of x against
    a column of y tests a grid, and each side's px - a_x and py - a_y are
    then taken on the row and the column only. Every side's difference,
    its two products and its band are taken in one array each before the
    side loop, which only subtracts, compares and ands."""
    px, py = np.asarray(px, dtype=float), np.asarray(py, dtype=float)
    n = poly.shape[-2]
    d = poly.take((np.arange(n) + 1) % n, axis=-2) - poly
    rise = d[..., 0] * (py[..., None] - poly[..., 1])
    run = d[..., 1] * (px[..., None] - poly[..., 0])
    # with eps 0 the band is zero wide, whatever the side's length
    bound = -eps * np.hypot(d[..., 0], d[..., 1]) if eps else np.zeros(n)
    inside = rise[..., 0] - run[..., 0] >= bound[..., 0]
    for k in range(1, n):
        inside &= rise[..., k] - run[..., k] >= bound[..., k]
    return inside


def segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray
                      ) -> np.ndarray:
    """Distances from points to segments a-b, broadcast over leading axes
    (vectorized). Taken on x and y arrays: each 2-term dot is the sum
    np.sum makes over a 2-long axis, in its order."""
    points = np.asarray(points, dtype=float)
    dx, dy = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    rx, ry = points[..., 0] - a[..., 0], points[..., 1] - a[..., 1]
    dd = np.maximum(dx * dx + dy * dy, 1e-30)
    t = np.clip((rx * dx + ry * dy) / dd, 0.0, 1.0)
    return np.hypot(rx - t * dx, ry - t * dy)


def polygon_distances(point: np.ndarray, polys: np.ndarray) -> np.ndarray:
    """Distance from a point to each of many convex ccw polygons, given as an
    (N, n, 2) array; 0 for the polygons that contain it. The least over
    the sides is taken one side at a time, as a numpy reduction over so
    short an axis costs several times more; a least is exact in any
    order."""
    a = np.asarray(polys, dtype=float)
    x, y = np.asarray(point, dtype=float)
    inside = points_in_convex_polygon(x, y, a)
    dist = functools.reduce(np.minimum, segment_distances(
        point, a, np.roll(a, -1, axis=1)).T)
    return np.where(inside, 0.0, dist)


def farthest_distances(points: np.ndarray, polys: np.ndarray) -> np.ndarray:
    """Each polygon's farthest corner distance from its point, the point
    broadcast against the (..., n, 2) polygons: bit for bit
    np.linalg.norm(polys - points[..., None, :], axis=-1).max(axis=-1).
    That norm is the root of dx² + dy² over a 2-long axis, and the root is
    monotone, so the largest distance is the root of the largest sum,
    taken one corner at a time with no numpy reduction over the short
    axes."""
    p = np.asarray(points, dtype=float)[..., None, :]
    dx, dy = polys[..., 0] - p[..., 0], polys[..., 1] - p[..., 1]
    return np.sqrt(functools.reduce(np.maximum,
                                    np.moveaxis(dx * dx + dy * dy, -1, 0)))


def close_pairs(points: np.ndarray, reach: float, others=None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), sorted by (i, j), of points at most reach apart:
    i < j within points, or point i and point j of others when given. A pair
    counts when dx * dx + dy * dy <= reach * reach, the test a k-d tree's
    pair search makes.

    Points are binned on a uniform grid of cells a hair wider than reach
    (and never finer than 2**-30 of the points' span, so cell numbers stay
    small), so a close pair lies in one cell or in two neighbouring ones.
    Cells are numbered column by column with a spare row between columns,
    so a run of neighbouring cells is a run of cell numbers, found by
    searchsorted in the sorted cell numbers of the other set: the 3x3 block
    around a cell is three runs. Within points, each pair is found once
    from its lower-numbered cell, searching the cell itself and its four
    forward neighbours, above it and in the next column: two runs.
    """
    # x and y as contiguous rows: reductions and gathers stride slowly down
    # the columns of an (n, 2) array
    a = np.ascontiguousarray(np.asarray(points, dtype=float).reshape(-1, 2).T)
    b = a if others is None else np.ascontiguousarray(
        np.asarray(others, dtype=float).reshape(-1, 2).T)
    none = np.zeros(0, dtype=np.intp)
    if not a.shape[1] or not b.shape[1]:
        return none, none
    lo = [min(a[k].min(), b[k].min()) for k in (0, 1)]
    span = max(max(a[k].max(), b[k].max()) - lo[k] for k in (0, 1))
    # the margin outgrows the rounding of (x - lo) / width, a few ulp of span
    width = max(reach, span * 2.0 ** -30) + span * 2.0 ** -40 or 1.0

    def cells(p):
        return [np.floor((p[k] - lo[k]) / width).astype(np.intp)
                for k in (0, 1)]

    col_a, row_a = cells(a)
    col_b, row_b = (col_a, row_a) if others is None else cells(b)
    rows = int(max(row_a.max(), row_b.max())) + 2
    key_b = col_b * rows + row_b
    by_b = np.argsort(key_b)
    keys = key_b[by_b]
    # queries in ascending order, which searchsorted answers fastest
    key_a = col_a * rows + row_a
    by_a = np.argsort(key_a)
    key_a = key_a[by_a]
    # each run of cell numbers as its first and last offset from the cell's
    runs = (((0, 1), (rows - 1, rows + 1)) if others is None else
            ((-rows - 1, -rows + 1), (-1, 1), (rows - 1, rows + 1)))
    start = np.column_stack([np.searchsorted(keys, key_a + first)
                             for first, _ in runs]).ravel()
    count = np.column_stack([
        np.searchsorted(keys, key_a + last, side="right")
        for _, last in runs]).ravel() - start
    i = np.repeat(by_a, count.reshape(-1, len(runs)).sum(axis=1))
    j = by_b[np.arange(len(i)) + np.repeat(start - np.cumsum(count) + count,
                                           count)]
    if others is None:
        # a pair within one cell is found both ways round
        keep = (i < j) | (key_b[i] != key_b[j])
        i, j = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
    (ax, ay), (bx, by) = a, b
    dx, dy = ax[i] - bx[j], ay[i] - by[j]
    near = dx * dx + dy * dy <= reach * reach
    i, j = i[near], j[near]
    order = np.argsort(i * b.shape[1] + j)
    return i[order], j[order]


def component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each of n nodes' connected component under the edges (a[k], b[k]),
    labelled by its smallest node.

    Hook and shortcut: every edge between two labels hooks the larger
    label's root under the smaller (np.minimum.at), then every node jumps
    to its root; repeated on the edges still between two labels until none
    is. A node's label never rises and is never above the node, so it ends
    at its component's smallest node.
    """
    label = np.arange(n)
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            return label
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
