"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the same pentile call can take a third longer for minutes
at a time, while neighbours load the machine. Wall times taken minutes apart
then differ by more than any change to pentile would. The benchmark runs
this kernel right before and right after every stretch it times and scales
that stretch by

    REFERENCE_S / (mean of the two kernel times),

which gives the seconds the stretch would have taken with the machine at
its reference speed: the speed at which the kernel takes REFERENCE_S. The
kernel does the kind of work pentile does (interpreter loops, dicts, small
numpy arrays of polygon vertices) and none of pentile's own code, so a
change to pentile moves the scaled times and leaves the kernel alone.

Child processes (the CLI, set-ups) spend much of their time starting an
interpreter and importing numpy and scipy, which the in-process kernel does
not exercise. They are paced by a reference child instead, run right before
and right after each of them: a fresh interpreter that imports numpy,
scipy.linalg and scipy.spatial and then runs the kernel CHILD_KERNELS
times, so that it has both parts of a child's work and nothing of pentile.
Its reference time is CHILD_REFERENCE_S.

Run ``python3 perfbench/pace.py`` to print both reference times here.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# typical kernel time on the machine under *Environment* in README.md, whose
# medians over 200 runs ranged from 13 to 26 ms in one day
REFERENCE_S = 0.015
# typical time of the reference child on the same machine
CHILD_REFERENCE_S = 0.7
CHILD_KERNELS = 10
CHILD_TIMEOUT_S = 60

_STATE = {}


def _inputs():
    import numpy as np

    if not _STATE:
        angles = np.linspace(0.0, 2.0 * math.pi, 6)[:-1]
        pentagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        offsets = np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0)),
                           axis=-1).reshape(-1, 1, 2)
        _STATE["polygons"] = pentagon[None, :, :] + offsets
    return _STATE["polygons"]


def kernel() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    import numpy as np

    polygons = _inputs()
    start = time.perf_counter()
    total = 0.0
    keys = {}
    for i, polygon in enumerate(polygons):
        x, y = polygon[:, 0], polygon[:, 1]
        total += 0.5 * abs(float(np.dot(x, np.roll(y, -1))
                                 - np.dot(np.roll(x, -1), y)))
        total += float(np.linalg.norm(polygon - polygon.mean(axis=0),
                                      axis=1).max())
        for vx, vy in polygon.round(6).tolist():
            keys.setdefault((vx, vy), []).append(i)
    total += len(keys)
    for i in range(20000):
        total += math.hypot(i % 17, i % 13) * 1e-9
    if not total > 0.0:
        raise RuntimeError("reference kernel lost its inputs")
    return time.perf_counter() - start


def child() -> float:
    """Run the reference child once; returns its wall time in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--child"], check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def scaled(elapsed: float, before: float, after: float) -> float:
    """A stretch's wall time at reference speed, from the kernel times
    measured right before and right after it."""
    return elapsed * REFERENCE_S / (0.5 * (before + after))


def child_factor(before: float, after: float) -> float:
    """What turns a child process's wall time into time at reference speed,
    from the reference child's times right before and right after it."""
    return CHILD_REFERENCE_S / (0.5 * (before + after))


def _child_main() -> None:
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.spatial  # noqa: F401

    for _ in range(CHILD_KERNELS):
        kernel()


if __name__ == "__main__" and sys.argv[1:] == ["--child"]:
    _child_main()
elif __name__ == "__main__":
    kernel()
    times = [kernel() for _ in range(200)]
    print(f"kernel median {statistics.median(times) * 1e3:.3f} ms, "
          f"min {min(times) * 1e3:.3f} ms over {len(times)} runs")
    times = [child() for _ in range(10)]
    print(f"reference child median {statistics.median(times):.3f} s, "
          f"min {min(times):.3f} s over {len(times)} runs")
