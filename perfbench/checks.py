"""Checks of pentile's outputs, each against an independent computation or a
property the method guarantees, never against a stored copy of an output.

Every check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import json
import math

import numpy as np

AREA_TOL = 1e-9            # relative to a tile or to the disk, as pentile's
CONGRUENCE_TOL = 1e-9
BALANCE_TOL = 0.05
VALENCE_SLACK = 0.1        # the acceptance gate's slack on Proposition 1
TORUS_EULER_TOL = 0.05     # |v_limit - e_limit + 1| from the a + b/r fit
SAMPLE_DIVISOR = 4.0       # pentile samples at a quarter of the inradius


# --- independent geometry ---------------------------------------------------

def shoelace(polys) -> np.ndarray:
    """Signed areas of an (N, k, 2) stack of polygons."""
    p = np.asarray(polys, dtype=float)
    q = np.roll(p, -1, axis=1)
    return 0.5 * (p[..., 0] * q[..., 1] - q[..., 0] * p[..., 1]).sum(axis=1)


def _sector(x, y, r: float) -> float:
    return 0.5 * r * r * math.atan2(x[0] * y[1] - x[1] * y[0],
                                    x[0] * y[0] + x[1] * y[1])


def _triangle_disk_area(p, q, r: float) -> float:
    """Signed area of the triangle (0, p, q) cut by the disk |x| <= r."""
    d = (q[0] - p[0], q[1] - p[1])
    a = d[0] * d[0] + d[1] * d[1]
    b = p[0] * d[0] + p[1] * d[1]
    c = p[0] * p[0] + p[1] * p[1] - r * r
    disc = b * b - a * c
    if a == 0.0 or disc <= 0.0:
        return _sector(p, q, r)
    s = math.sqrt(disc)
    t1, t2 = (-b - s) / a, (-b + s) / a
    if t1 >= 1.0 or t2 <= 0.0:
        return _sector(p, q, r)
    t1, t2 = max(t1, 0.0), min(t2, 1.0)
    e1 = (p[0] + t1 * d[0], p[1] + t1 * d[1])
    e2 = (p[0] + t2 * d[0], p[1] + t2 * d[1])
    return (_sector(p, e1, r) + 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
            + _sector(e2, q, r))


def disk_overlap_area(poly, center, r: float) -> float:
    """Area of a polygon inside the disk D(r, center), either orientation."""
    rel = [(float(x) - center[0], float(y) - center[1]) for x, y in poly]
    total = sum(_triangle_disk_area(rel[k], rel[(k + 1) % len(rel)], r)
                for k in range(len(rel)))
    return abs(total)


def inradius(poly) -> float:
    """Radius of the largest disk inside a convex polygon (Chebyshev LP)."""
    from scipy.optimize import linprog

    p = np.asarray(poly, dtype=float)
    if shoelace(p[None])[0] < 0:
        p = p[::-1]
    d = np.roll(p, -1, axis=0) - p
    normal = np.column_stack([d[:, 1], -d[:, 0]])
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    a_ub = np.column_stack([normal, np.ones(len(p))])
    b_ub = (normal * p).sum(axis=1)
    res = linprog([0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None), (None, None), (0.0, None)])
    return float(res.x[2])


def polygon_diameter(poly) -> float:
    p = np.asarray(poly, dtype=float)
    return float(np.linalg.norm(p[:, None] - p[None], axis=2).max())


def grid_count_bracket(center, r_inner: float, pitch: float, eps: float):
    """Points of the square grid of the given pitch, anchored at
    center - r_inner, inside the disk of radius r_inner - eps.

    Returns a (low, high) bracket: the pitch is recomputed here, so points
    within 1e-6 pitch of the circle may fall either way.
    """
    xs = np.arange(center[0] - r_inner, center[0] + r_inner + pitch, pitch)
    ys = np.arange(center[1] - r_inner, center[1] + r_inner + pitch, pitch)
    dist = np.hypot(xs[:, None] - center[0], ys[None, :] - center[1])
    slack = 1e-6 * pitch
    return (int((dist <= r_inner - eps - slack).sum()),
            int((dist <= r_inner - eps + slack).sum()))


def _angles(polys) -> np.ndarray:
    """Interior angles of an (N, 5, 2) stack of ccw convex polygons."""
    d_out = np.roll(polys, -1, axis=1) - polys
    d_in = polys - np.roll(polys, 1, axis=1)
    cross = d_in[..., 0] * d_out[..., 1] - d_in[..., 1] * d_out[..., 0]
    dot = (d_in * d_out).sum(axis=2)
    return math.pi - np.arctan2(cross, dot)


# --- patch workload ---------------------------------------------------------

def check_patch(patch, pentagon, full, interior) -> list[str]:
    """A generated patch and its full / interior statistics."""
    problems = []
    tiles, vertices = len(patch.tiles), len(patch.vertices)
    edges = len(patch.edges)
    if (full.v, full.e, full.t) != (vertices, edges, tiles):
        problems.append(f"full stats count {(full.v, full.e, full.t)}, "
                        f"patch holds {(vertices, edges, tiles)}")
    residual = full.v - full.e + full.t - 1
    if residual != 0:
        problems.append(f"Euler residual v - e + t - 1 = {residual}")
    crowded = sum(1 for e in patch.edges if len(e.tiles) > 2)
    if crowded:
        problems.append(f"{crowded} edges border more than two tiles")
    if not (interior.t <= full.t and interior.v <= full.v
            and interior.e <= full.e):
        problems.append("interior counts exceed the full counts")

    polys = np.array([t.polygon for t in patch.tiles], dtype=float)
    areas = shoelace(polys)
    if (areas <= 0).any():
        problems.append(f"{int((areas <= 0).sum())} tiles are not ccw")
    lengths = np.sort(np.linalg.norm(np.roll(polys, -1, axis=1) - polys,
                                     axis=2), axis=1)
    angles = np.sort(_angles(polys), axis=1)
    defect = max(float(np.abs(lengths - np.sort(pentagon.edges)).max()),
                 float(np.abs(angles - np.sort(pentagon.angles)).max()))
    if defect > CONGRUENCE_TOL:
        problems.append(f"a tile deviates from the pentagon by {defect:.3e}")
    problems += check_area_bracket(patch, areas)
    return problems


def check_area_bracket(patch, areas) -> list[str]:
    """area(F1) <= area(F1) + area(F2 inside D) = pi r^2 <= area(patch),
    given the tiles' shoelace areas.

    The middle equality holds only if the tiles cover the disk without
    overlap, so one missing or doubled tile breaks it.
    """
    areas = np.abs(areas)
    zones = np.array([t.zone for t in patch.tiles])
    disk = math.pi * patch.r ** 2
    f1 = float(areas[zones == "F1"].sum())
    inside = f1 + sum(disk_overlap_area(t.polygon, patch.center, patch.r)
                      for t in patch.tiles if t.zone == "F2")
    total = float(areas.sum())
    problems = []
    if f1 > disk * (1 + AREA_TOL):
        problems.append(f"F1 area {f1:.9g} exceeds the disk {disk:.9g}")
    if abs(inside - disk) > AREA_TOL * disk:
        problems.append(f"tiles cover {inside:.12g} of the disk "
                        f"{disk:.12g}")
    if total < disk * (1 - AREA_TOL):
        problems.append(f"patch area {total:.9g} below the disk {disk:.9g}")
    return problems


# --- verify workload --------------------------------------------------------

def check_honest_verify(report, patch) -> list[str]:
    """An honest patch passes, by a margin and on a non-vacuous sample."""
    problems = [] if report.ok else [f"honest patch rejected: "
                                     f"{report.violations}"]
    m = report.metrics
    if m["max_overlap_fraction"] > AREA_TOL:
        problems.append(f"overlap {m['max_overlap_fraction']:.3e} of a tile")
    if abs(m["area_gap_fraction"]) > AREA_TOL:
        problems.append(f"area gap {m['area_gap_fraction']:.3e} of the disk")
    problems += check_not_vacuous(report, patch)
    poly = patch.tiles[0].polygon
    pitch = inradius(poly) / SAMPLE_DIVISOR
    eps = 1e-9 * polygon_diameter(poly)
    low, high = grid_count_bracket(patch.center, m["r_inner"], pitch, eps)
    if not low <= m["sample_points"] <= high:
        problems.append(f"{m['sample_points']} sample points, the grid "
                        f"holds {low}..{high}")
    return problems


def check_not_vacuous(report, patch) -> list[str]:
    """A coverage pass must rest on an inner disk of at least one tile."""
    r_inner = report.metrics.get("r_inner")
    tile = abs(float(shoelace([patch.tiles[0].polygon])[0]))
    if report.ok and r_inner is not None and math.pi * r_inner ** 2 < tile:
        return [f"vacuous pass: inner disk r = {r_inner:.3g} holds "
                f"{math.pi * r_inner ** 2:.3g} < one tile ({tile:.3g}), "
                f"{report.metrics.get('sample_points')} sample points"]
    return []


def check_dropped_tile_caught(report) -> list[str]:
    """A patch missing an inner tile fails both coverage routes."""
    m = report.metrics
    problems = []
    if report.ok:
        problems.append("patch with a dropped tile passed")
    if not m.get("area_gap_fraction", 0.0) > AREA_TOL:
        problems.append("exact-area route missed the dropped tile")
    if not m.get("sample_misses", 0) > 0:
        problems.append("grid-sample route missed the dropped tile")
    return problems


def check_duplicate_caught(report) -> list[str]:
    problems = [] if not report.ok else ["patch with a duplicate passed"]
    if not report.metrics.get("max_overlap_fraction", 0.0) > AREA_TOL:
        problems.append("overlap check missed the duplicate tile")
    return problems


def check_periodicity_report(report, recipe) -> list[str]:
    problems = [] if report.ok else [f"recipe rejected: {report.violations}"]
    region = float(np.abs(shoelace(recipe.region_polygons())).sum())
    cell = abs(recipe.u[0] * recipe.v[1] - recipe.u[1] * recipe.v[0])
    if abs(region - cell) > AREA_TOL * cell:
        problems.append(f"region area {region:.12g} != cell area {cell:.12g}")
    return problems


# --- family-sweep workload --------------------------------------------------

def balance(limit) -> float:
    """|1/avg valence + 1/avg adjacents - 1/2| from the limit histograms."""
    v = limit.v_j_limit
    t = limit.t_h_limit
    av = sum(j * x for j, x in v.items()) / sum(v.values())
    ah = sum(h * x for h, x in t.items()) / sum(t.values())
    return abs(1.0 / av + 1.0 / ah - 0.5)


def check_limit(limit, reported_balance: float) -> list[str]:
    """Large-radius limits of one sweep against the paper's identities."""
    problems = []
    res = balance(limit)
    if abs(res - reported_balance) > 1e-12:
        problems.append(f"balance residual {reported_balance} != {res}")
    if not res < BALANCE_TOL:
        problems.append(f"balance residual {res:.4g} >= {BALANCE_TOL}")
    v = limit.v_j_limit
    valence = sum(j * x for j, x in v.items()) / sum(v.values())
    if not 3.0 - VALENCE_SLACK <= valence <= 10.0 / 3.0 + VALENCE_SLACK:
        problems.append(f"average valence {valence:.6g} outside "
                        f"[3, 10/3] +- {VALENCE_SLACK}")
    torus = limit.v_limit - limit.e_limit + 1.0
    if abs(torus) > TORUS_EULER_TOL:
        problems.append(f"v_limit - e_limit + 1 = {torus:.4g}")
    return problems


# --- command line -------------------------------------------------------------

def round9(obj):
    """Every float to 9 significant digits, as the pentile CLI prints them."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.9g}")
    if isinstance(obj, dict):
        return {str(k): round9(x) for k, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(x) for x in obj]
    return obj


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def first_difference(a, b, path="$"):
    """Path of the first place two JSON documents differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} != {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if a == b and type(a) is type(b) else f"{path}: {a!r} != {b!r}"


def check_cli(proc, output_text: str, library_document) -> list[str]:
    """The CLI exits 0, prints strict JSON, and agrees with the library."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        document = strict_json(output_text)
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    where = first_difference(round9(document), round9(library_document))
    return [] if where is None else [f"CLI and library differ at {where}"]
