"""Loss-free, byte-reproducible output formats.

report.json: canonical JSON with keys sorted alphabetically and every float
printed with 17 significant digits (round-trips exactly).  Field dumps use the
ASCII ``.fld`` layout:

    vortexfld 2 <grid kind: periodic_cell | dirichlet_square>
    nx ny
    x0 y0 hx hy
    <nx*ny values, row-major, one per line>

so a dump reads back as the same field on the same grid, kind included.
Version 1 files, whose first line is ``vortexfld 1``, are laid out the same
but do not record the kind; reading one takes it as an argument.
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
        f.write(f"vortexfld 2 {grid.kind.value}\n")
        f.write(f"{grid.nx} {grid.ny}\n")
        f.write(f"{format_float(grid.x0)} {format_float(grid.y0)} "
                f"{format_float(grid.hx)} {format_float(grid.hy)}\n")
        # one format call per row, on Python floats: the bytes of format_float
        # per value without its per-value checks, and one row string at a time
        row_format = (_FLOAT_FORMAT + "\n") * grid.nx
        for row in values:
            f.write(row_format % tuple(row.tolist()))


def read_fld(path: Path, kind: GridKind | None = None) -> ScalarField:
    """Read a ``.fld`` dump.

    A v2 file carries its grid kind; ``kind``, if given, must agree with it.
    A v1 file does not, so ``kind`` is required there.
    """
    lines = Path(path).read_text(encoding="ascii").splitlines()
    header = lines[0].split(" ") if lines else []
    if header[:2] == ["vortexfld", "2"] and len(header) == 3:
        stored = GridKind(header[2])
        if kind not in (None, stored):
            raise ValueError(f"{path} holds a {stored.value} grid, not {kind.value}")
        kind = stored
    elif header != ["vortexfld", "1"]:
        raise ValueError(f"not a vortexfld file: {path}")
    elif kind is None:
        raise ValueError(f"{path} is a v1 .fld file, which does not record its grid kind: pass kind")
    nx, ny = (int(t) for t in lines[1].split())
    x0, y0, hx, hy = (float(t) for t in lines[2].split())
    values = np.array([float(t) for t in lines[3:3 + nx * ny]]).reshape(ny, nx)
    return ScalarField(Grid2D(nx, ny, x0, y0, hx, hy, kind), values)


def write_radial_profile(path: Path, radii, u1_means, u2_means, decay_means) -> None:
    rows = ["r,u1_ring_mean,u2_ring_mean,decay_quantity"]
    for r, a, b, d in zip(radii, u1_means, u2_means, decay_means):
        rows.append(",".join(format_float(v) for v in (r, a, b, d)))
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")
