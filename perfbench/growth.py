"""Reference figures: µs per tile of the tiling and arrangement layers as the
disk grows, from one traced generate_patch per radius (Type 4, centre 0).

    python3 perfbench/growth.py

A stage whose µs per tile rises with r costs more than linear in the tile
count. Prints one JSON line per radius.
"""
import json
import sys
from pathlib import Path

import spans

SRC = Path(__file__).resolve().parents[1] / "src"
RADII = (10.0, 20.0, 40.0, 80.0)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from pentile import catalog, tiling

    recipe = tiling.builtin_recipe(4, catalog.representative(4).pentagon)
    for r in RADII:
        tracer = spans.Tracer()
        with tracer.installed():
            patch = tiling.generate_patch(recipe, r)
        summary = spans.summarize(tracer.spans)
        row = {"r": r, "tiles": len(patch.tiles),
               "vertices": len(patch.vertices)}
        for name in ("tiling.generate_patch", "arrangement.from_tiles"):
            seconds = summary["self_s"][name]
            row[f"{name}.self_s"] = seconds
            row[f"{name}.self_us_per_tile"] = 1e6 * seconds / len(patch.tiles)
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
