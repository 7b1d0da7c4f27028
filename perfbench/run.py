"""Benchmark of pentile: large patches, patch verification, family sweeps.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload patch --seed 1 --seconds 15 --trace 0

Workloads are ``patch``, ``verify`` and ``family-sweep`` (see README.md);
``--workload all`` runs the three in turn. Progress and a table of the
metrics go to stderr. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Each
run also writes a fuller record to ``perfbench/results/`` or to ``--out``.

The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

TYPES = (1, 2, 4, 5)
SETUP_SAMPLES = 3        # set-ups per run: this process plus two children
CLI_SAMPLES = 5
CHILD_TIMEOUT_S = 120
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# the house pentagon of the source paper: Type 1 with A + B + C = 360
HOUSE = {"angles_deg": [60.0, 150.0, 90.0, 90.0, 150.0],
         "edges": [1.0, 1.0, 1.0, 1.0, 1.0]}


@dataclass
class Op:
    """One timed call into pentile, and how to judge its result."""
    run: Callable[[], object]
    check: Callable[[object], list]
    tiles: Callable[[object], int]
    label: str
    fault: bool = False      # a known fault: failed when its check fires


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _import_pentile():
    """Import pentile from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pentile

    if Path(pentile.__file__).resolve().parent != SRC / "pentile":
        raise RuntimeError(f"pentile imported from {pentile.__file__}, "
                           f"not from {SRC}")


def _centre(rng: random.Random):
    return (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))


def _builtin_recipes() -> dict:
    from pentile import catalog, tiling
    from pentile.pentagon import pentagon_from_json_dict

    recipes = {}
    for tid in TYPES:
        pentagon = (pentagon_from_json_dict(HOUSE) if tid == 1
                    else catalog.representative(tid).pentagon)
        recipes[tid] = tiling.builtin_recipe(tid, pentagon)
    return recipes


# --- workloads ----------------------------------------------------------------

class PatchWorkload:
    """generate_patch over large disks, then compute_stats full and interior.

    A round is one disk per Type at fresh seeded centres.
    """
    RADIUS = 40.0
    CLI_RADIUS = 20.0
    ROUND_S = 10.6           # paced seconds of one round, see timed_phase

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.recipes = _builtin_recipes()
        self.workdir = workdir

    def round(self, k: int):
        from pentile import stats, tiling
        import checks

        for tid in TYPES:
            recipe, centre = self.recipes[tid], _centre(self.rng)

            def run(recipe=recipe, centre=centre):
                patch = tiling.generate_patch(recipe, self.RADIUS, centre)
                return (patch, stats.compute_stats(patch, stats.FULL),
                        stats.compute_stats(patch, stats.INTERIOR))

            yield Op(run=run,
                     check=lambda res, recipe=recipe: checks.check_patch(
                         res[0], recipe.pentagon, res[1], res[2]),
                     tiles=lambda res: len(res[0].tiles), label=f"type{tid}")

    def cli(self):
        from pentile import catalog, tiling

        out = self.workdir / "tile.json"
        args = ["tile", "--type", "4", "--r", f"{self.CLI_RADIUS:g}",
                "--out", str(out)]

        def reference():
            recipe = tiling.builtin_recipe(4, catalog.representative(4).pentagon)
            document = tiling.generate_patch(recipe, self.CLI_RADIUS).to_json_dict()
            document["recipe"] = recipe.to_json_dict()
            return document

        return args, lambda proc: out.read_text(), reference


class VerifyWorkload:
    """verify_patch on patches built during set-up, check_periodicity on each
    recipe, planted-defect copies that must be rejected, and one known
    vacuous pass.

    A round is, per Type: the honest patch, its dropped-tile and duplicate
    copies, and the recipe; then the Type 4 patch at r = 2.
    """
    RADIUS = 20.0
    ROUND_S = 3.2
    DEFECT_RADIUS = 10.0
    FAULT_RADIUS = 2.0

    def __init__(self, seed: int, workdir: Path):
        from pentile import arrangement, tiling

        rng = random.Random(seed)
        self.recipes = _builtin_recipes()
        self.honest, self.dropped, self.doubled = {}, {}, {}
        for tid in TYPES:
            centre = _centre(rng)
            patch = tiling.generate_patch(self.recipes[tid], self.RADIUS, centre)
            self.honest[tid] = patch
            self.dropped[tid], self.doubled[tid] = self._defects(
                arrangement, patch, centre, rng)
        # not seeded, so that this operation fails alike in every run
        self.fault = tiling.generate_patch(self.recipes[4], self.FAULT_RADIUS)
        self.patch_file = workdir / "patch4.json"
        self.patch_file.write_text(json.dumps(self.honest[4].to_json_dict()))

    def _defects(self, arrangement, patch, centre, rng):
        """Copies over the disk of DEFECT_RADIUS: one without an inner tile,
        one with an inner tile doubled and shifted a quarter inradius."""
        import numpy as np
        import checks

        diam = checks.polygon_diameter(patch.tiles[0].polygon)
        near, inner = [], []
        for tile in patch.tiles:
            dist = np.linalg.norm(tile.polygon - np.asarray(centre), axis=1)
            if dist.min() <= self.DEFECT_RADIUS + diam:
                if dist.max() < self.DEFECT_RADIUS - 2.0 * diam:
                    inner.append(len(near))
                near.append(tile.polygon)
        drop, dup = rng.choice(inner), rng.choice(inner)
        shift = np.array([checks.inradius(near[dup]) / 4.0, 0.0])
        dropped = arrangement.Patch.from_polygons(
            near[:drop] + near[drop + 1:], r=self.DEFECT_RADIUS, center=centre)
        doubled = arrangement.Patch.from_polygons(
            near + [near[dup] + shift], r=self.DEFECT_RADIUS, center=centre)
        return dropped, doubled

    def round(self, k: int):
        from pentile import verifier
        import checks

        def tiles(patch):
            return lambda res: len(patch.tiles)

        for tid in TYPES:
            honest, recipe = self.honest[tid], self.recipes[tid]
            yield Op(run=lambda p=honest: verifier.verify_patch(p),
                     check=lambda rep, p=honest: checks.check_honest_verify(
                         rep, p),
                     tiles=tiles(honest), label=f"honest{tid}")
            yield Op(run=lambda p=self.dropped[tid]: verifier.verify_patch(p),
                     check=checks.check_dropped_tile_caught,
                     tiles=tiles(self.dropped[tid]), label=f"dropped{tid}")
            yield Op(run=lambda p=self.doubled[tid]: verifier.verify_patch(p),
                     check=checks.check_duplicate_caught,
                     tiles=tiles(self.doubled[tid]), label=f"doubled{tid}")
            yield Op(run=lambda r=recipe: verifier.check_periodicity(r),
                     check=lambda rep, r=recipe: checks.check_periodicity_report(
                         rep, r),
                     tiles=lambda rep, r=recipe: 9 * len(r.region),
                     label=f"periodicity{tid}")
        yield Op(run=lambda: verifier.verify_patch(self.fault),
                 check=lambda rep: checks.check_not_vacuous(rep, self.fault),
                 tiles=tiles(self.fault), label="vacuous4", fault=True)

    def cli(self):
        from pentile import verifier

        args = ["verify", "--patch", str(self.patch_file)]

        def reference():
            report = verifier.verify_patch(self.honest[4])
            return {"pass": report.ok, "violations": report.violations,
                    "metrics": report.metrics}

        return args, lambda proc: proc.stdout, reference


class SweepWorkload:
    """One operation per pentagon: free parameters drawn around a Type's
    defaults, then solve_instance, classify, builtin_recipe and limit_sweep
    over small doubling radii. A round is one pentagon per Type.
    """
    RADII = (5.0, 10.0, 20.0)
    ROUND_S = 4.6
    ANGLE_SPREAD_DEG = 8.0
    EDGE_SPREAD = 0.1

    def __init__(self, seed: int, workdir: Path):
        from pentile import catalog

        rng = random.Random(seed)
        self.specs = {tid: catalog.get_type_spec(tid) for tid in TYPES}
        self.offsets = {(tid, name): rng.random() for tid in TYPES
                        for name in sorted(self.specs[tid].default_params)}

    def _draw(self, tid: int, k: int) -> dict:
        """Free parameters of the k-th pentagon of a Type.

        Each parameter steps through its range by the golden ratio from a
        seeded offset, so every run spreads its pentagons evenly over the
        range, whatever the seed and however many rounds it makes.
        """
        from pentile.pentagon import CORNERS

        params = {}
        for name, value in self.specs[tid].default_params.items():
            x = 2.0 * ((self.offsets[(tid, name)] + k * GOLDEN) % 1.0) - 1.0
            params[name] = (value + math.radians(x * self.ANGLE_SPREAD_DEG)
                            if name in CORNERS
                            else value * (1.0 + x * self.EDGE_SPREAD))
        return params

    def round(self, k: int):
        from pentile import catalog, stats, tiling
        import checks

        for tid in TYPES:
            spec, params = self.specs[tid], self._draw(tid, k)

            def run(tid=tid, spec=spec, params=params):
                pentagon = catalog.solve_instance(spec, params)
                types = catalog.classify(pentagon)
                recipe = tiling.builtin_recipe(tid, pentagon)
                return types, stats.limit_sweep(recipe, self.RADII)

            def check(res, tid=tid):
                types, limit = res
                problems = [] if tid in types else [
                    f"classify gave {types} for a Type {tid} pentagon"]
                return problems + checks.check_limit(
                    limit, stats.balance_residual(limit))

            yield Op(run=run, check=check,
                     tiles=lambda res: sum(s.t for s in res[1].stats),
                     label=f"type{tid}")

    def cli(self):
        from pentile import catalog, stats, tiling

        radii = ",".join(f"{r:g}" for r in self.RADII)
        args = ["sweep", "--type", "5", "--radii", radii]

        def reference():
            recipe = tiling.builtin_recipe(5, catalog.representative(5).pentagon)
            limit = stats.limit_sweep(recipe, self.RADII)
            document = limit.to_json_dict()
            document["per_radius_balance_residual"] = (
                stats.per_radius_balance_residuals(limit))
            return document

        return args, lambda proc: proc.stdout, reference


WORKLOADS = {"patch": PatchWorkload, "verify": VerifyWorkload,
             "family-sweep": SweepWorkload}


# --- measurement --------------------------------------------------------------

def set_up(name: str, seed: int, workdir: Path):
    """Import pentile and build the workload's inputs; returns the workload
    and the seconds this took, from before the first import of pentile."""
    start = time.perf_counter()
    _import_pentile()
    workload = WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


def timed_phase(workload, seconds: float, tracer=None) -> dict:
    """The fewest whole rounds of operations that take at least `seconds`
    of paced operation time, at the workload's ROUND_S per round.

    The number of rounds is fixed by `seconds` alone, so that every run of
    a workload does the same operations whatever the machine's speed. ROUND_S
    is the paced time of one round measured on the machine under
    *Environment* in README.md.

    The pace kernel runs between operations; `times` holds each operation's
    wall time at reference speed, `wall` its wall time as measured. The
    fault operation counts in attempted and failed only.
    """
    times, wall, labels, problems = [], [], [], []
    tiles = attempted = failed = rounds = 0
    busy = busy_wall = 0.0
    first_round_spans = 0
    before = pace.kernel()
    while rounds < max(1, math.ceil(seconds / workload.ROUND_S)):
        for op in workload.round(rounds):
            attempted += 1
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:          # a failed operation, not a crash
                elapsed, after = time.perf_counter() - start, pace.kernel()
                busy += pace.scaled(elapsed, before, after)
                busy_wall += elapsed
                before = after
                failed += 1
                problems.append(f"raised {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            after = pace.kernel()
            scaled = pace.scaled(elapsed, before, after)
            busy += scaled
            busy_wall += elapsed
            before = after
            issues = op.check(result)
            if op.fault:
                failed += bool(issues)
                continue
            problems += issues
            times.append(scaled)
            wall.append(elapsed)
            labels.append(op.label)
            tiles += op.tiles(result)
        rounds += 1
        if tracer is not None and rounds == 1:
            first_round_spans = len(tracer.spans)
    return {"times": times, "wall": wall, "labels": labels, "tiles": tiles,
            "busy": busy, "busy_wall": busy_wall,
            "attempted": attempted, "failed": failed, "rounds": rounds,
            "problems": problems, "first_round_spans": first_round_spans}


def _run_child(args: list, cwd: Path):
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=cwd, env=_env_with_src(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - start


def child_phase(workload, name: str, seed: int, workdir: Path) -> dict:
    """The workload's pentile command CLI_SAMPLES times, then set-up in
    fresh child processes, each child between two runs of the reference
    child. Returns paced and wall times of both, and problems.

    A set-up child times its own set-up, from before it imports pentile;
    its pacing factor is that of its whole run.
    """
    import checks

    args, read_output, reference = workload.cli()
    command = [sys.executable, "-m", "pentile.cli"] + args
    setup = [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--setup-only"]
    expected = reference()
    out = {"cli": [], "cli_wall": [], "setup": [], "setup_wall": [],
           "problems": []}
    before = pace.child()
    for k in range(CLI_SAMPLES + SETUP_SAMPLES - 1):
        is_cli = k < CLI_SAMPLES
        proc, elapsed = _run_child(command if is_cli else setup,
                                   workdir if is_cli else ROOT)
        after = pace.child()
        factor = pace.child_factor(before, after)
        before = after
        if is_cli:
            out["cli"].append(elapsed * factor)
            out["cli_wall"].append(elapsed)
            output = read_output(proc) if proc.returncode == 0 else ""
            out["problems"] += checks.check_cli(proc, output, expected)
            continue
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
        setup_s = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
        out["setup"].append(setup_s * factor)
        out["setup_wall"].append(setup_s)
    return out


def import_cost() -> float:
    """Fresh-interpreter `import pentile` minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(CLI_SAMPLES):
        bare.append(_run_child([sys.executable, "-c", "pass"], ROOT)[1])
        full.append(_run_child([sys.executable, "-c", "import pentile"],
                               ROOT)[1])
    return statistics.median(full) - statistics.median(bare)


LAYER_TIMES = ("catalog.solve_instance", "catalog.classify",
               "verifier.check_periodicity", "arrangement.from_tiles",
               "verifier.check_no_overlap", "verifier.check_coverage",
               "stats.compute_stats")
LAYER_SELF_TIMES = ("tiling.builtin_recipe", "tiling.generate_patch",
                    "verifier.verify_patch", "stats.limit_sweep")
PER_TILE = {"tiling.generate_patch": "tiling.generate_patch.self_us_per_tile",
            "arrangement.from_tiles": "arrangement.from_tiles_us_per_tile"}
PER_TILE_RADII = (5.0, 10.0, 20.0, 40.0)
COUNTS = ("tiling.tiles", "tiling.tiles_F1", "tiling.tiles_F2",
          "tiling.tiles_F3", "arrangement.vertices", "arrangement.edges",
          "arrangement.pseudo_vertices", "verifier.sample_points")


def layer_metrics(tracer, phase: dict) -> dict:
    """Per-layer metrics: self seconds per round over all rounds, µs per
    tile per disk radius, and work counts of the first round."""
    import spans

    rounds = phase["rounds"]
    every = spans.summarize(tracer.spans)
    first = spans.summarize(tracer.spans[:phase["first_round_spans"]])
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in LAYER_TIMES:
        put(f"{name}_s", every["self_s"].get(name, 0.0) / rounds, "s")
    for name in LAYER_SELF_TIMES:
        put(f"{name}.self_s", every["self_s"].get(name, 0.0) / rounds, "s")
    for name, label in PER_TILE.items():
        for r in PER_TILE_RADII:
            seconds, tiles = every["by_radius"].get((name, r), (0.0, 0))
            put(f"{label}.r{r:g}", 1e6 * seconds / tiles if tiles else 0.0,
                "us/tile")
    for name in COUNTS:
        put(name, first["counts"].get(name, 0), "count")
    for name in spans.TARGETS:
        put(f"calls.{name}", first["calls"].get(name, 0), "count")
    put("trace.self_sum_s", sum(every["self_s"].values()) / rounds, "s")
    put("trace.op_s", phase["busy_wall"] / rounds, "s")
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "cpu": model,
            "platform": platform.platform()}


def report(result: dict, prefix: str = "") -> None:
    """Each metric by name and unit, then the operation counts, to stderr."""
    for name, metric in result["metrics"].items():
        print(f"  {prefix}{name:<44} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(f"  {prefix}attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}", file=sys.stderr)


def run_all(args) -> int:
    """Every workload in turn, each in its own process as a single-workload
    run would be; the last line merges their results under workload-prefixed
    names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE,
            text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result JSON path (default: "
                        "perfbench/results/<workload>-seed<n>-trace<t>.json)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "pentile" / "__init__.py").is_file():
        print(f"no pentile sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paced_setup = not (args.setup_only or args.trace)
        before = pace.child() if paced_setup else None
        workload, setup_s = set_up(args.workload, args.seed, workdir)
        after = pace.child() if paced_setup else None
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        import spans

        print(f"{args.workload} seed {args.seed}: set-up {setup_s:.3f} s",
              file=sys.stderr)
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            with tracer.installed():
                phase = timed_phase(workload, args.seconds, tracer)
        else:
            phase = timed_phase(workload, args.seconds)
        print(f"  {phase['rounds']} rounds, {len(phase['times'])} timed ops, "
              f"{sum(phase['times']):.3f} s", file=sys.stderr)
        problems = list(phase["problems"])
        record = {}
        if tracer is not None:
            metrics = layer_metrics(tracer, phase)
            metrics["cli.import_s"] = {"value": import_cost(), "unit": "s"}
        else:
            children = child_phase(workload, args.workload, args.seed,
                                   workdir)
            problems += children["problems"]
            setups = ([setup_s * pace.child_factor(before, after)]
                      + children["setup"])
            cli_times = children["cli"]
            record["setup_samples_s"] = setups
            record["cli_samples_s"] = cli_times
            record["wall"] = {
                "tiles_per_s": phase["tiles"] / sum(phase["wall"]),
                "op_p50_s": statistics.median(phase["wall"]),
                "cli_s": statistics.median(children["cli_wall"]),
                "setup_s": statistics.median([setup_s]
                                             + children["setup_wall"]),
                "cli_samples_s": children["cli_wall"],
                "setup_samples_s": [setup_s] + children["setup_wall"]}
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "tiles_per_s": {"value": phase["tiles"] / sum(phase["times"]),
                                "unit": "tiles/s"},
                "op_p50_s": {"value": statistics.median(phase["times"]),
                             "unit": "s"},
                "cli_s": {"value": statistics.median(cli_times), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MiB"},
            }
        for problem in problems:
            print(f"  PROBLEM: {problem}", file=sys.stderr)
        result = {"correct": not problems, "attempted": phase["attempted"],
                  "failed": phase["failed"], "metrics": metrics}
        report(result)
        record.update(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      rounds=phase["rounds"], timed_ops=len(phase["times"]),
                      op_s_per_round=phase["busy"] / phase["rounds"],
                      op_wall_s_per_round=phase["busy_wall"] / phase["rounds"],
                      tiles=phase["tiles"], problems=problems,
                      op_times_s=list(zip(phase["labels"], phase["times"])),
                      op_wall_s=phase["wall"],
                      environment=environment())
        out = Path(args.out) if args.out else (
            BENCH_DIR / "results"
            / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
