"""Loss-free, byte-reproducible output formats.

report.json: canonical JSON with keys sorted alphabetically and every float
printed with 17 significant digits (round-trips exactly).  Field dumps use the
ASCII ``.fld`` layout:

    vortexfld 1
    nx ny
    x0 y0 hx hy
    <nx*ny values, row-major, one per line>
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .discretization import Grid2D, GridKind, ScalarField


_FLOAT_FORMAT = "%.17g"


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("refusing to serialize a non-finite number")
    return _FLOAT_FORMAT % x


def _serialize(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _serialize(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _serialize(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    parts: list[str] = []
    _serialize(obj, parts)
    parts.append("\n")
    return "".join(parts)


def write_json(path: Path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj), encoding="ascii")


def write_fld(path: Path, field: ScalarField) -> None:
    grid = field.grid
    values = field.values
    if not np.all(np.isfinite(values)):
        raise ValueError("refusing to serialize a non-finite number")
    with open(path, "w", encoding="ascii") as f:
        f.write("vortexfld 1\n")
        f.write(f"{grid.nx} {grid.ny}\n")
        f.write(f"{format_float(grid.x0)} {format_float(grid.y0)} "
                f"{format_float(grid.hx)} {format_float(grid.hy)}\n")
        # row by row, as Python floats: the bytes of format_float per value
        # without its per-value checks, and one row of strings alive at a time
        for row in values:
            f.write("\n".join(map(_FLOAT_FORMAT.__mod__, row.tolist())))
            f.write("\n")


def read_fld(path: Path, kind: GridKind) -> ScalarField:
    """Read a ``.fld`` dump; the v1 header does not record the grid kind."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if lines[0] != "vortexfld 1":
        raise ValueError(f"not a vortexfld file: {path}")
    nx, ny = (int(t) for t in lines[1].split())
    x0, y0, hx, hy = (float(t) for t in lines[2].split())
    values = np.array([float(t) for t in lines[3:3 + nx * ny]]).reshape(ny, nx)
    return ScalarField(Grid2D(nx, ny, x0, y0, hx, hy, kind), values)


def write_radial_profile(path: Path, radii, u1_means, u2_means, decay_means) -> None:
    rows = ["r,u1_ring_mean,u2_ring_mean,decay_quantity"]
    for r, a, b, d in zip(radii, u1_means, u2_means, decay_means):
        rows.append(",".join(format_float(v) for v in (r, a, b, d)))
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")
