"""Acceptance gate: the headline guarantees, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the same condition, so `pytest -v` shows one verdict per
criterion.
"""
import itertools
import json
import math
import time
from pathlib import Path

import pytest

import pentile
from pentile.stats import (
    FULL,
    compute_stats,
    euler_residual,
    limit_sweep,
    per_radius_balance_residuals,
    proof_model_average_valence,
    proposition1_check,
)
from pentile.tiling import BUILTIN_RECIPE_TYPES, builtin_recipe, generate_patch
from pentile.verifier import (
    check_coverage,
    check_no_overlap,
    normality_witness,
)

DATA = Path(__file__).parent / "data"
SWEEP_RADII = [5.0, 10.0, 20.0, 40.0]


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def house():
    return pentile.pentagon_from_json_dict(
        json.loads((DATA / "house.json").read_text()))


@pytest.fixture(scope="module")
def recipes():
    out = {}
    for tid in sorted(BUILTIN_RECIPE_TYPES):
        p = house() if tid == 1 else pentile.representative(tid).pentagon
        out[tid] = builtin_recipe(tid, p)
    return out


@pytest.fixture(scope="module")
def sweeps(recipes):
    return {tid: limit_sweep(recipe, SWEEP_RADII)
            for tid, recipe in recipes.items()}


def test_c1_theorem1_holds_for_all_representatives():
    start = time.perf_counter()
    tol = 1e-6
    failing = [tid for tid in range(1, 16)
               if not pentile.has_theorem1_property(
                   pentile.representative(tid).pentagon, tol=tol)]
    regular = pentile.make_pentagon([math.radians(108)] * 5, [1.0] * 5)
    regular_ok = not pentile.has_theorem1_property(regular, tol=tol)
    elapsed = time.perf_counter() - start
    ok = not failing and regular_ok and elapsed < 1.0
    verdict(ok, "theorem1 sweep",
            f"failing types {failing or 'none'}, regular pentagon "
            f"{'excluded' if regular_ok else 'WRONGLY INCLUDED'}, "
            f"{elapsed:.3f}s")


def test_c2_relation_list_matches_published_enumeration():
    published = """
        A+B+C B+C+D C+D+E D+E+A E+A+B A+B+D B+C+E C+D+A D+E+B E+A+C
        2A+B 2A+C 2A+D 2A+E 2B+A 2B+C 2B+D 2B+E 2C+A 2C+B 2C+D 2C+E
        2D+A 2D+B 2D+C 2D+E 2E+A 2E+B 2E+C 2E+D 3A 3B 3C 3D 3E
    """.split()

    def multiset(text: str) -> tuple[int, ...]:
        counts = {c: 0 for c in "ABCDE"}
        for term in text.split("+"):
            mult = int(term[0]) if term[0].isdigit() else 1
            counts[term[-1]] += mult
        return tuple(counts[c] for c in "ABCDE")

    ours = pentile.RELATION_NAMES
    rows = [tuple(row[:5].tolist())
            for row in pentile.pentagon._relation_table().coeffs]
    expected = {multiset(t) for t in published}
    got = set(rows)
    ok = (len(ours) == 35 and len(expected) == 35 and got == expected
          and rows == [multiset(name) for name in ours])
    verdict(ok, "relation enumeration",
            f"{len(ours)} relations, multiset match: {got == expected}")


def test_c3_house_pentagon_satisfied_set():
    p = house()
    tol = 1e-6
    reported = set(pentile.satisfied_relations(p, tol=tol))

    # independent oracle: exhaustive sweep of all 35 three-corner sums
    oracle = set()
    for combo in itertools.combinations_with_replacement(range(5), 3):
        if abs(sum(p.angles[i] for i in combo) - 2 * math.pi) <= tol:
            counts = [combo.count(i) for i in range(5)]
            if 3 in counts:
                name = "3" + "ABCDE"[counts.index(3)]
            elif 2 in counts:
                name = (f"2{'ABCDE'[counts.index(2)]}"
                        f"+{'ABCDE'[counts.index(1)]}")
            else:
                # three distinct corners: a consecutive pair x, x+1 and
                # the corner two or three on from x, named from x onward
                name = next(
                    "+".join("ABCDE"[(x + k) % 5] for k in (0, 1, gap))
                    for x in range(5) for gap in (2, 3)
                    if {x, (x + 1) % 5, (x + gap) % 5} == set(combo))
            oracle.add(name)

    expected = {"E+A+B", "2B+A", "2E+A"}
    ok = reported == expected and oracle == expected
    verdict(ok, "house satisfied set",
            f"library {sorted(reported)}, oracle {sorted(oracle)}")


def test_c4_euler_identity_across_builtins(recipes):
    start = time.perf_counter()
    bad = []
    for tid, recipe in recipes.items():
        for r in (5.0, 10.0, 20.0, 40.0):
            st = compute_stats(generate_patch(recipe, r), mode=FULL)
            if euler_residual(st) != 0:
                bad.append((tid, r, euler_residual(st)))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    verdict(ok, "Euler identity",
            f"nonzero residuals {bad or 'none'}, {elapsed:.1f}s")


def test_c5_overlap_and_coverage_at_r20(recipes):
    worst = []
    for tid, recipe in recipes.items():
        patch = generate_patch(recipe, 20.0)
        overlap = check_no_overlap(patch)
        big_u = normality_witness(recipe.pentagon).circumradius
        coverage = check_coverage(patch, r_inner=20.0 - big_u)
        if not (overlap.ok and coverage.ok):
            worst.append((tid, overlap.violations + coverage.violations))
    verdict(not worst, "verifier at r=20",
            f"violations {worst or 'none'}")


def test_c6_balance_identity_types_1_and_4(sweeps):
    problems = []
    targets = {1: (3.0, 6.0), 4: (10.0 / 3.0, 5.0)}
    for tid, (valence, adjacents) in targets.items():
        limit = sweeps[tid]
        if abs(limit.average_valence() - valence) > 0.05:
            problems.append(f"type {tid} valence {limit.average_valence()}")
        if abs(limit.average_adjacents() - adjacents) > 0.05:
            problems.append(
                f"type {tid} adjacents {limit.average_adjacents()}")
        residuals = per_radius_balance_residuals(limit)
        if residuals[-1] >= 0.05:
            problems.append(f"type {tid} residual at r=40: {residuals[-1]}")
        # decreasing trend, one noisy step allowed over the doubling schedule
        ups = sum(b > a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        if ups > 1 or residuals[-1] > residuals[0] + 1e-12:
            problems.append(f"type {tid} residuals not decreasing "
                            f"{residuals}")
    verdict(not problems, "balance identity", f"{problems or 'clean'}")


def test_c7_proposition1_bounds_and_proof_model(sweeps):
    problems = []
    for tid, limit in sweeps.items():
        valence = limit.average_valence()
        if not (2.9 <= valence <= 10.0 / 3.0 + 0.1):
            problems.append(f"type {tid} average valence {valence}")
    model = proof_model_average_valence(1, 2)
    if model != 11.0 / 3.0:
        problems.append(f"proof model value {model}")
    from pentile.stats import synthetic_limit
    contradiction = synthetic_limit({3: 1 / 3, 4: 2 / 3}, {5: 1.0})
    if proposition1_check(contradiction, slack=0.1).ok:
        problems.append("valence 11/3 passed the bound it must violate")
    verdict(not problems, "proposition 1", f"{problems or 'clean'}")


def test_c8_type14_angle_anchor():
    target = math.acos((3.0 * math.sqrt(57.0) - 17.0) / 16.0)
    got = pentile.representative(14).pentagon.angles[2]
    ok = abs(got - target) <= 1e-6
    verdict(ok, "type 14 anchor",
            f"C = {got:.9f} rad vs arccos((3*sqrt(57)-17)/16) = "
            f"{target:.9f} rad")
