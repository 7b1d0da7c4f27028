"""Strict JSON text at nine significant digits: the CLI's one output format.

A float is written as repr(float(f"{x:.9g}")), which is what json.dumps
prints for x rounded to nine significant digits; ints, bools, None and
strings (ASCII-escaped) as json.dumps writes them. A non-finite number
raises ValueError. `dumps` lays a document out as json.dumps(sort_keys=True,
indent=2) does.

`patch_document` reads a patch's tiles, vertices and edges straight off its
arrays: every float is formatted in one bulk pass, and each record is one
line template, itself laid out by `dumps`, filled with %.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as ascii_string

import numpy as np

INDENT = "  "


class Raw(str):
    """Text already laid out as JSON for its place in the document."""


SLOT = Raw("%s")


def float_texts(values) -> list[str]:
    """Every float of values as the document writes it, in one pass."""
    values = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    # a positional .9g text already is repr's: the same nine or fewer digits
    # round-trip; integral, exponent and subnormal texts go through repr
    return [s if "." in s and "e" not in s else repr(float(s))
            for s in map("{:.9g}".format, values.tolist())]


def dumps(document) -> str:
    """document in json.dumps's sort_keys=True, indent=2 layout, its floats
    at nine significant digits; Raw values go in as they are."""
    return _text(document, 0)


def _text(value, depth: int) -> str:
    if isinstance(value, str):
        return value if isinstance(value, Raw) else ascii_string(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float_texts(value)[0]
    if value is None:
        return "null"
    if isinstance(value, dict):
        return _block("{", [f"{ascii_string(key)}: {_text(x, depth + 1)}"
                            for key, x in sorted(value.items())], "}", depth)
    if isinstance(value, (list, tuple)):
        return _block("[", [_text(x, depth + 1) for x in value], "]", depth)
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


def _block(opening: str, items: list[str], closing: str, depth: int) -> str:
    if not items:
        return opening + closing
    pad = "\n" + INDENT * (depth + 1)
    return (opening + pad + ("," + pad).join(items) + "\n" + INDENT * depth
            + closing)


def patch_document(patch) -> dict:
    """patch.to_json_dict() as a document for `dumps`: r and center as
    values, the tiles, vertices and edges sections as Raw text."""
    return {"r": patch.r,
            "center": list(patch.center) if patch.center else None,
            "tiles": _section(_tile_records(patch)),
            "vertices": _section(_vertex_records(patch)),
            "edges": _section(_edge_records(patch))}


def _section(records: list[str]) -> Raw:
    """A top-level list of records laid out at depth 2."""
    return Raw(_block("[", records, "]", 1))


def _tile_records(patch) -> list[str]:
    """Tile i's corners are the first counts[i] of its row of the padded
    stack, whose 2·K texts start at 2·K·i."""
    row = 2 * patch.polygons.shape[1]
    coords = float_texts(patch.polygons)
    templates, records = {}, []
    for i, ((m, n), count, zone) in enumerate(zip(
            patch.cells.tolist(), patch.counts.tolist(),
            patch.zones.tolist())):
        if count not in templates:
            templates[count] = _text({"cell": [SLOT, SLOT],
                                      "polygon": [[SLOT, SLOT]] * count,
                                      "zone": SLOT}, 2)
        at = row * i
        records.append(templates[count] % (
            m, n, *coords[at:at + 2 * count], ascii_string(zone)))
    return records


def _vertex_records(patch) -> list[str]:
    template = _text({"complete": SLOT, "pseudo": SLOT, "valence": SLOT,
                      "xy": [SLOT, SLOT]}, 2)
    xy = float_texts(patch.vertex_xy)
    flag = ("false", "true")
    return [template % (flag[complete], flag[pseudo], valence, x, y)
            for complete, pseudo, valence, x, y in zip(
                patch.complete.tolist(), patch.pseudo.tolist(),
                np.diff(patch.vertex_tiles.indptr).tolist(),
                xy[0::2], xy[1::2])]


def _edge_records(patch) -> list[str]:
    templates, records = {}, []
    for (lo, hi), tiles in zip(patch.edge_vertices.tolist(),
                               patch.edge_tiles.rows()):
        if len(tiles) not in templates:
            templates[len(tiles)] = _text(
                {"tiles": [SLOT] * len(tiles), "vertices": [SLOT, SLOT]}, 2)
        records.append(templates[len(tiles)] % (*tiles, lo, hi))
    return records
