"""Spans around the public functions of pentile's layers, for traced runs.

A traced run replaces module attributes with wrappers that record one span
per call: its name, start, end and parent span. pentile looks these names up
at call time (``generate_patch`` imports ``Patch`` in its body,
``limit_sweep`` imports ``generate_patch``, ``builtin_recipe`` imports
``check_periodicity``, and ``verify_patch`` reaches both checks through its
module globals), so calls made inside the program are traced as well as the
benchmark's own. Nothing in ``src/`` changes.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module under pentile, attribute path)
TARGETS = {
    "catalog.solve_instance": ("catalog", "solve_instance"),
    "catalog.classify": ("catalog", "classify"),
    "tiling.builtin_recipe": ("tiling", "builtin_recipe"),
    "tiling.generate_patch": ("tiling", "generate_patch"),
    "arrangement.from_tiles": ("arrangement", "Patch.from_tiles"),
    "verifier.check_periodicity": ("verifier", "check_periodicity"),
    "verifier.check_no_overlap": ("verifier", "check_no_overlap"),
    "verifier.check_coverage": ("verifier", "check_coverage"),
    "verifier.verify_patch": ("verifier", "verify_patch"),
    "stats.compute_stats": ("stats", "compute_stats"),
    "stats.limit_sweep": ("stats", "limit_sweep"),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "r", "tiles", "counts")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.r = None          # disk radius of a patch-building call
        self.tiles = 0         # tiles that call placed or arranged
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _radius(name, args, kwargs):
    """The disk radius of a generate_patch or from_tiles call, if any."""
    if name == "tiling.generate_patch":
        return kwargs.get("r", args[1] if len(args) > 1 else None)
    if name == "arrangement.from_tiles":
        return kwargs.get("r", args[2] if len(args) > 2 else None)
    return None


def _result_counts(name, result) -> dict:
    """Work counts read off a layer's return value."""
    if name == "tiling.generate_patch":
        zones = defaultdict(int)
        for tile in result.tiles:
            zones[tile.zone] += 1
        return {"tiling.tiles": len(result.tiles),
                "tiling.tiles_F1": zones["F1"],
                "tiling.tiles_F2": zones["F2"],
                "tiling.tiles_F3": zones["F3"]}
    if name == "arrangement.from_tiles":
        return {"arrangement.vertices": len(result.vertices),
                "arrangement.edges": len(result.edges),
                "arrangement.pseudo_vertices":
                    sum(1 for v in result.vertices if v.pseudo)}
    if name == "verifier.check_coverage":
        return {"verifier.sample_points":
                int(result.metrics.get("sample_points", 0))}
    return {}


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            span.r = _radius(name, args, kwargs)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.counts = _result_counts(name, result)
            if span.r is not None:
                span.tiles = len(result.tiles)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every TARGETS attribute with its wrapper; restore on exit."""
        import importlib

        saved = []
        try:
            for name, (module, path) in TARGETS.items():
                owner = importlib.import_module(f"pentile.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(
                        self._wrap(name, original.__func__))
                else:
                    replacement = self._wrap(name, original)
                setattr(owner, attr, replacement)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def summarize(spans: list[Span]) -> dict:
    """Self time, calls and counts per span name, plus per-radius totals.

    A span's self time is its duration minus the durations of its child
    spans; children of one call run one after another, so they never
    overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    by_radius = defaultdict(lambda: [0.0, 0])   # (name, r) -> [self s, tiles]
    for i, span in enumerate(spans):
        own = span.duration - child_time[i]
        self_s[span.name] += own
        calls[span.name] += 1
        for key, n in span.counts.items():
            counts[key] += n
        if span.r is not None:
            entry = by_radius[(span.name, float(span.r))]
            entry[0] += own
            entry[1] += span.tiles
    return {"self_s": dict(self_s), "calls": dict(calls),
            "counts": dict(counts), "by_radius": dict(by_radius)}
