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
    if not patch.tiles:
        return ('<svg xmlns="http://www.w3.org/2000/svg" '
                'viewBox="0 0 1 1"></svg>\n')
    points = np.vstack([t.polygon for t in patch.tiles])
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
    for tile in patch.tiles:
        fill = REGION_FILL if tile.cell == (0, 0) else TILE_FILL
        coords = " ".join("%s,%s" % tuple(map(_fmt, to_px(p)))
                          for p in tile.polygon)
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
