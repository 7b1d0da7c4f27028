"""SVG rendering of patches: one polygon per tile, fundamental region tinted."""
from __future__ import annotations

import numpy as np

TILE_FILL = "#ffffff"
REGION_FILL = "#d8d8d8"     # pale gray for the cell (0,0) tiles
STROKE = "#303030"
DISK_STROKE = "#b02020"
WIDTH = 720.0               # SVG viewBox width; the height keeps the aspect


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def patch_to_svg(patch) -> str:
    """Render every tile as one <polygon>; cell-(0,0) tiles are tinted.

    Output is a pure function of the patch, so identical patches give
    identical bytes.
    """
    if not len(patch.counts):
        return ('<svg xmlns="http://www.w3.org/2000/svg" '
                'viewBox="0 0 1 1"></svg>\n')
    # the stack's padding repeats corners, so it moves no bound
    points = patch.polygons.reshape(-1, 2)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = hi - lo
    pad = 0.02 * max(span)
    scale = WIDTH / (max(span) + 2 * pad)
    height = (span[1] + 2 * pad) * scale

    def to_px(xy):
        x = (xy[0] - lo[0] + pad) * scale
        y = (hi[1] - xy[1] + pad) * scale     # flip: SVG y grows downward
        return x, y

    stroke_w = _fmt(max(0.75, 0.012 * scale))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(height)}">',
        f'<g stroke="{STROKE}" stroke-width="{stroke_w}" '
        f'stroke-linejoin="round">',
    ]
    x, y = to_px(patch.polygons.transpose(2, 0, 1))
    region = (patch.cells == 0).all(axis=1).tolist()
    for xs, ys, count, tinted in zip(x.tolist(), y.tolist(),
                                     patch.counts.tolist(), region):
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}"
                          for px, py in zip(xs[:count], ys[:count]))
        fill = REGION_FILL if tinted else TILE_FILL
        parts.append(f'<polygon points="{coords}" fill="{fill}"/>')
    parts.append("</g>")
    if patch.r is not None and patch.center is not None:
        cx, cy = to_px(patch.center)
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(patch.r * scale)}" fill="none" '
            f'stroke="{DISK_STROKE}" stroke-width="{stroke_w}" '
            f'stroke-dasharray="6 4"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
