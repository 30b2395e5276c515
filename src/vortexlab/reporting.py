"""Loss-free, byte-reproducible output formats.

report.json: canonical JSON with keys sorted alphabetically and every float
printed with 17 significant digits (round-trips exactly).  Field dumps use the
ASCII ``.fld`` layout:

    vortexfld 2 <grid kind: periodic_cell | dirichlet_square>
    nx ny
    x0 y0 hx hy
    <nx*ny values, row-major, one per line>

Each value, like each number of the header's third line, is written as
``"%.17g"``: 17 significant digits, exact on read.  So a dump reads back as
the same field on the same grid, kind included.  ``read_fld`` refuses a
grid line that no grid of its kind has, and a file whose count of values is
not nx*ny.  Version 1 files, whose first line is ``vortexfld 1``, are laid
out the same but do not record the kind; reading one takes it as an argument.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .discretization import Grid2D, GridKind, ScalarField
from .fldtext import format_values, parse_values


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


_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"  # line breaks str.splitlines honours besides "\n"
_TO_NEWLINE = bytes.maketrans(_BREAKS, b"\n" * len(_BREAKS))


def write_fld(path: Path, field: ScalarField) -> None:
    grid = field.grid
    if not np.all(np.isfinite(field.values)):
        raise ValueError("refusing to serialize a non-finite number")
    with open(path, "wb") as f:
        f.write(f"vortexfld 2 {grid.kind.value}\n{grid.nx} {grid.ny}\n"
                f"{format_float(grid.x0)} {format_float(grid.y0)} "
                f"{format_float(grid.hx)} {format_float(grid.hy)}\n".encode("ascii"))
        for text in format_values(field.values):
            f.write(text)


def _header_numbers(path, line: bytes, convert, names: str) -> list:
    tokens = line.split()
    try:
        if len(tokens) == len(names.split()):
            return [convert(t) for t in tokens]
    except ValueError:
        pass
    raise ValueError(f"{path}: expected '{names}' in the header, found {line.decode()!r}")


def read_fld(path: Path, kind: GridKind | None = None) -> ScalarField:
    """Read a ``.fld`` dump.

    A v2 file carries its grid kind; ``kind``, if given, must agree with it.
    A v1 file does not, so ``kind`` is required there.  The node counts and
    spacings must suit the grid kind, and the file must hold exactly nx*ny
    values.
    """
    data = Path(path).read_bytes()
    if not data.isascii():
        raise ValueError(f"{path} is not an ASCII file")
    if any(c in data for c in _BREAKS):
        data = data.replace(b"\r\n", b"\n").translate(_TO_NEWLINE)
    lines = data.split(b"\n", 3)
    header = lines[0].decode().split(" ")
    if header[:2] == ["vortexfld", "2"] and len(header) == 3:
        try:
            stored = GridKind(header[2])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if kind not in (None, stored):
            raise ValueError(f"{path} holds a {stored.value} grid, not {kind.value}")
        kind = stored
    elif header != ["vortexfld", "1"]:
        raise ValueError(f"not a vortexfld file: {path}")
    elif kind is None:
        raise ValueError(f"{path} is a v1 .fld file, which does not record its grid kind: pass kind")
    if len(lines) < 3:
        raise ValueError(f"{path}: the header ends before its grid line")
    nx, ny = _header_numbers(path, lines[1], int, "nx ny")
    x0, y0, hx, hy = _header_numbers(path, lines[2], float, "x0 y0 hx hy")
    try:
        grid = Grid2D(nx, ny, x0, y0, hx, hy, kind)
        values = parse_values(lines[3] if len(lines) == 4 else b"", nx * ny)
        return ScalarField(grid, values.reshape(grid.shape))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_radial_profile(path: Path, radii, u1_means, u2_means, decay_means) -> None:
    rows = ["r,u1_ring_mean,u2_ring_mean,decay_quantity"]
    for r, a, b, d in zip(radii, u1_means, u2_means, decay_means):
        rows.append(",".join(format_float(v) for v in (r, a, b, d)))
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")
