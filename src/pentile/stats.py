"""Combinatorial statistics of patches and their large-radius limits.

Counts vertices, edges and tiles, with valence and adjacency histograms, in
two modes: the full patch for the exact Euler identity, and interior-only
for ratio estimators that converge as the patch grows. A sweep over
increasing radii counts each radius' interior on the lattice, from the
recipe's orbit star, extrapolates the ratios to the infinite tiling and
checks the balance identity 1/(avg valence) + 1/(avg adjacents) = 1/2.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateLimit,
    EmptyModel,
    EmptyPatch,
    ModeMismatch,
    ParseError,
    require_positive,
)

FULL = "full"
INTERIOR = "interior"


@dataclass(frozen=True)
class PatchStats:
    v: int
    e: int
    t: int
    t_h: dict[int, int]      # tile count by number of adjacents
    v_j: dict[int, int]      # vertex count by valence
    r: float | None
    mode: str = FULL

    def __post_init__(self):
        if self.mode not in (FULL, INTERIOR):
            raise ModeMismatch(f"unknown counting mode {self.mode!r}")


def compute_stats(patch, mode: str = FULL) -> PatchStats:
    """Count vertices, edges, tiles and their histograms.

    full mode counts everything in the patch, rim included, and satisfies
    v - e + t = 1. interior mode keeps only tiles and vertices whose whole
    surroundings lie inside the patch, and edges between such vertices.
    """
    tile_h = np.diff(patch.tile_adjacents.indptr)
    vertex_j = np.diff(patch.vertex_tiles.indptr)
    edge_count = len(patch.edge_vertices)
    if mode == INTERIOR:
        tile_h = tile_h[patch.interior_tile_ids()]
        vertex_j = vertex_j[patch.complete]
        edge_count = int(patch.complete[patch.edge_vertices].all(axis=1).sum())
    # PatchStats rejects a mode other than FULL and INTERIOR
    return PatchStats(v=len(vertex_j), e=edge_count, t=len(tile_h),
                      t_h=_histogram(tile_h), v_j=_histogram(vertex_j),
                      r=patch.r, mode=mode)


def _histogram(values) -> dict[int, int]:
    """How many times each value occurs, for the values that do."""
    return {k: n for k, n in enumerate(np.bincount(values).tolist()) if n}


def euler_residual(stats: PatchStats) -> int:
    """v - e + t - 1; zero for every valid full patch."""
    if stats.mode != FULL:
        raise ModeMismatch(
            "Euler residual needs full-mode counts; interior counts drop "
            "rim objects and break the identity")
    return stats.v - stats.e + stats.t - 1


def _histogram_mean(histogram: Mapping, empty: Exception) -> float:
    """Mean of the values a histogram counts, summed in dict order."""
    total = sum(histogram.values())
    if total <= 0:
        raise empty
    return sum(k * n for k, n in histogram.items()) / total


def average_valence(stats: PatchStats) -> float:
    return _histogram_mean(stats.v_j,
                           EmptyPatch("no vertices to average over"))


def average_adjacents(stats: PatchStats) -> float:
    return _histogram_mean(stats.t_h, EmptyPatch("no tiles to average over"))


@dataclass(frozen=True)
class LimitEstimate:
    """Per-radius interior ratios and their r -> infinity extrapolation."""
    radii: tuple[float, ...]
    stats: tuple[PatchStats, ...]
    v_per_t: tuple[float, ...]
    e_per_t: tuple[float, ...]
    t_h_per_t: tuple[dict[int, float], ...]
    v_j_per_t: tuple[dict[int, float], ...]
    v_limit: float
    e_limit: float
    t_h_limit: dict[int, float]
    v_j_limit: dict[int, float]

    @property
    def w_j(self) -> dict[int, float]:
        """Limit fraction of vertices with each valence."""
        if self.v_limit <= 0:
            raise DegenerateLimit("vertex density limit is not positive")
        return {j: x / self.v_limit for j, x in self.v_j_limit.items()}

    def average_valence(self) -> float:
        return _histogram_mean(self.v_j_limit,
                               DegenerateLimit("no vertices in the limit"))

    def average_adjacents(self) -> float:
        return _histogram_mean(self.t_h_limit,
                               DegenerateLimit("no tiles in the limit"))

    def to_json_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "v_per_t": list(self.v_per_t),
            "e_per_t": list(self.e_per_t),
            "t_h_per_t": [{str(h): x for h, x in d.items()}
                          for d in self.t_h_per_t],
            "v_j_per_t": [{str(j): x for j, x in d.items()}
                          for d in self.v_j_per_t],
            "v_limit": self.v_limit,
            "e_limit": self.e_limit,
            "t_h_limit": {str(h): x for h, x in self.t_h_limit.items()},
            "v_j_limit": {str(j): x for j, x in self.v_j_limit.items()},
            "w_j": {str(j): x for j, x in self.w_j.items()},
            "average_valence": self.average_valence(),
            "average_adjacents": self.average_adjacents(),
            "balance_residual": balance_residual(self),
        }


def synthetic_limit(w_j: Mapping[int, float],
                    t_h: Mapping[int, float]) -> LimitEstimate:
    """A LimitEstimate from bare histogram fractions, for what-if checks."""
    v_limit = float(sum(w_j.values()))
    return LimitEstimate(
        radii=(), stats=(), v_per_t=(), e_per_t=(),
        t_h_per_t=(), v_j_per_t=(),
        v_limit=v_limit, e_limit=0.0,
        t_h_limit=dict(t_h), v_j_limit=dict(w_j))


def _balance(av: float, ah: float) -> float:
    """Distance of 1/av + 1/ah from 1/2."""
    return abs(1.0 / av + 1.0 / ah - 0.5)


def balance_residual(limit: LimitEstimate) -> float:
    """Distance from the strongly-balanced identity
    1/(avg valence) + 1/(avg adjacents) = 1/2."""
    av = limit.average_valence()
    ah = limit.average_adjacents()
    if av <= 0 or ah <= 0:
        raise DegenerateLimit("averages must be positive")
    return _balance(av, ah)


def proposition1_check(limit: LimitEstimate, slack: float = 0.0):
    """Average valence of a pentagon tiling must lie in [3, 10/3]."""
    from .verifier import CheckReport

    av = limit.average_valence()
    lo, hi = 3.0 - slack, 10.0 / 3.0 + slack
    ok = lo <= av <= hi
    violations = [] if ok else [
        f"average valence {av:.9g} outside [{lo:.9g}, {hi:.9g}]"]
    return CheckReport(name="proposition1", ok=ok, violations=violations,
                       metrics={"average_valence": av,
                                "lower": lo, "upper": hi})


def proof_model_average_valence(n3: float, n4: float) -> float:
    """Average valence when 3-valent pseudo-vertices and 4-valent vertices
    occur with weights n3 : n4."""
    total = n3 + n4
    if total <= 0:
        raise EmptyModel("vertex weights sum to zero")
    return (3.0 * n3 + 4.0 * n4) / total


def _fit_limit(radii, values) -> float:
    """Extrapolate y(r) = a + b/r to r -> infinity by least squares."""
    r = np.asarray(radii, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(r) == 1:
        return float(y[0])
    design = np.column_stack([np.ones_like(r), 1.0 / r])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0])


def limit_sweep(recipe, radii: Sequence[float]) -> LimitEstimate:
    """Sweep origin-centered patches over radii; extrapolate interior ratios.

    Radii must increase and start above twice the tile diameter so every
    patch has an interior to count. The candidates are scanned and measured
    once, for the largest radius (`tiling.candidate_window`), and each
    radius keeps the rows that generate_patch's patch holds
    (`tiling.patch_rows`), so a radius over `tiling.MAX_TRANSLATES` is
    refused before any radius is counted.

    Each radius is counted on the lattice (`_lattice_stats`), from the
    recipe's orbit star, with no patch built; the counts are
    compute_stats(generate_patch(recipe, r), INTERIOR)'s. A patch's
    vertices are its tiles' corners, and a vertex is complete when every
    edge at it borders two patch tiles. That holds exactly when every tile
    of its star is present: a missing one leaves an edge at the vertex
    with one tile, and when none is missing, the next vertex along each
    side from it is a corner of one of the side's two tiles, both in the
    star, so each edge at it is a tiling edge and borders both. Walking
    each side of a tile from its start corner this way shows that its
    patch vertices are all complete exactly when all its stops are, every
    stop then being a corner of a present tile; the tile is then interior,
    and its edges are tiling edges, so it has its region tile's count of
    edge neighbours. An edge between complete vertices is a tiling edge,
    one segment of each of its two present tiles, so e is half the
    segments of present tiles whose two ends are complete.
    """
    from .tiling import candidate_window, patch_rows

    radii = [float(r) for r in radii]
    require_positive("radii", radii)
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ParseError("radii must be a strictly increasing list")
    diam = recipe.pentagon.diameter
    if radii[0] <= 2.0 * diam:
        raise ParseError(
            f"smallest radius {radii[0]} must exceed twice the tile "
            f"diameter {diam:.6g}")

    window = candidate_window(recipe, radii[-1])
    center, star = np.asarray(window.center), recipe.orbit_star
    stats = [_lattice_stats(star, patch_rows(recipe, r, center, window)[0],
                            r) for r in radii]

    v_per_t = tuple(s.v / s.t for s in stats)
    e_per_t = tuple(s.e / s.t for s in stats)
    t_h_per_t = tuple({h: n / s.t for h, n in s.t_h.items()} for s in stats)
    v_j_per_t = tuple({j: n / s.t for j, n in s.v_j.items()} for s in stats)

    all_h = sorted({h for d in t_h_per_t for h in d})
    all_j = sorted({j for d in v_j_per_t for j in d})
    t_h_limit = {h: _fit_limit(radii, [d.get(h, 0.0) for d in t_h_per_t])
                 for h in all_h}
    v_j_limit = {j: _fit_limit(radii, [d.get(j, 0.0) for d in v_j_per_t])
                 for j in all_j}
    return LimitEstimate(
        radii=tuple(radii), stats=tuple(stats),
        v_per_t=v_per_t, e_per_t=e_per_t,
        t_h_per_t=t_h_per_t, v_j_per_t=v_j_per_t,
        v_limit=_fit_limit(radii, v_per_t),
        e_limit=_fit_limit(radii, e_per_t),
        t_h_limit=t_h_limit, v_j_limit=v_j_limit)


def _lattice_stats(star, cells: np.ndarray, r: float) -> PatchStats:
    """INTERIOR statistics of the patch whose tiles are the translates in
    cells, (m, n, j) rows, counted on the lattice from the recipe's orbit
    star (`limit_sweep` gives the argument).

    present holds one flag per translate (m, n, j) of the cells' (m, n) box
    widened by twice the star's reach, flat, j·size + (m - m0)·width +
    n - n0, so a step (Δm, Δn) is the one offset Δm·width + Δn. Vertex
    (m, n, o) is complete when every tile of o's star is present: a vertex
    nearer the box's edge than the reach reads a padding flag or, stepping
    off its row, one of the next row's, and is left incomplete. A complete
    stop's star holds its tile, so a tile with one is present.
    """
    pad = star.reach
    lo = cells[:, :2].min(axis=0) - 2 * pad
    height, width = (cells[:, :2].max(axis=0) - lo + 1 + 2 * pad).tolist()
    size = height * width
    present = np.zeros(len(star.neighbours) * size, dtype=bool)
    present[(cells[:, 2] * height + cells[:, 0] - lo[0]) * width
            + cells[:, 1] - lo[1]] = True
    step = star.stop_vertex[:, 0] * width + star.stop_vertex[:, 1]

    orbits = len(star.star.indptr) - 1
    complete = np.zeros((orbits, size), dtype=bool)
    q = np.arange(pad * (width + 1), size - pad * (width + 1))
    entry = star.star.indices
    complete[:, q] = np.logical_and.reduceat(
        present[(star.stop_tile[entry] * size - step[entry])[:, None] + q],
        star.star.indptr[:-1], axis=0)
    # whether each stop of each tile in the rows that may hold one is
    # complete
    p = np.arange(2 * pad * width, size - 2 * pad * width)
    at_stop = complete.ravel()[
        (star.stop_vertex[:, 2] * size + step)[:, None] + p]
    interior = np.logical_and.reduceat(at_stop, star.stop_ptr[:-1], axis=0)

    per_orbit = np.count_nonzero(complete, axis=1)
    per_tile = np.count_nonzero(interior, axis=1)
    return PatchStats(
        v=int(per_orbit.sum()),
        e=np.count_nonzero(at_stop & at_stop[star.next_stop]) // 2,
        t=int(per_tile.sum()),
        t_h=_histogram(np.repeat(star.neighbours, per_tile)),
        v_j=_histogram(np.repeat(np.diff(star.star.indptr), per_orbit)),
        r=r, mode=INTERIOR)


def per_radius_balance_residuals(limit: LimitEstimate) -> list[float]:
    """Finite-radius balance residuals, one per sweep radius."""
    return [_balance(average_valence(s), average_adjacents(s))
            for s in limit.stats]


def write_sweep_csv(limit: LimitEstimate, stream: IO[str]) -> None:
    """One row per radius: counts, ratios, averages, residual, histograms."""
    all_h = sorted({h for s in limit.stats for h in s.t_h})
    all_j = sorted({j for s in limit.stats for j in s.v_j})
    header = (["r", "v", "e", "t", "v_per_t", "e_per_t", "avg_valence",
               "avg_adjacents", "balance_residual"]
              + [f"t_{h}" for h in all_h] + [f"v_{j}" for j in all_j])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    residuals = per_radius_balance_residuals(limit)
    for i, s in enumerate(limit.stats):
        row = [f"{limit.radii[i]:.9g}", s.v, s.e, s.t,
               f"{limit.v_per_t[i]:.9g}", f"{limit.e_per_t[i]:.9g}",
               f"{average_valence(s):.9g}", f"{average_adjacents(s):.9g}",
               f"{residuals[i]:.9g}"]
        row += [s.t_h.get(h, 0) for h in all_h]
        row += [s.v_j.get(j, 0) for j in all_j]
        writer.writerow(row)
