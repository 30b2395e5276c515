"""The value lines of ``.fld`` files: ``"%.17g"`` text from and to float64 arrays.

``format_values`` gives, byte for byte, ``"%.17g\n" % x`` for each value, and
``parse_values`` gives exactly ``float(line)`` for each line, as numpy kernels
over blocks of _BLOCK values, so that their temporaries stay under about
1 MB.  Each value is scaled by a power of ten held as a double-double
(hi + lo, exact to about 2**-106) with Dekker's exact product, which decides
the 17 digits of a value, or the double nearest a line, except next to a
tie: those values, those beyond 1e+-280 where the products would leave the
normal range, and lines of any shape the kernel does not parse go through
Python's own conversion one at a time.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

_BLOCK = 1 << 13
_WIDTH = 24  # the longest "%.17g" text: "-2.2250738585072014e-308"
_FILL = 0  # filler byte of the fixed-width lines, dropped when they are joined
_KERNEL_MAX = 1e280
_TEN_MAX = 300  # the power-of-ten table spans 10**-300 .. 10**300
_PARSE_TEN_MAX = 290  # 10**-290 keeps its lo part a normal number
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's split into 26-bit halves
_BITS = np.array([2.0**c for c in range(_WIDTH)], np.float32)  # a line's column c as bit c
# the 4-digit groups and exponent of _line_shape to upper 10 digits, lower 8, exponent
_HALVES = np.array([[0, 1, 0], [0, 1e4, 0], [1, 0, 0], [1e4, 0, 0], [1e8, 0, 0], [0, 0, 0], [0, 0, 1]])


@functools.cache
def _tables():
    """10**e for |e| <= _TEN_MAX as (hi, lo) arrays, and two 4-digit tables.

    ``quads[q]`` is the ASCII text of ``"%04d" % q`` as a little-endian
    uint32, ``trimmed[q]`` the same with its trailing zeros as filler.
    Built on first use: the exact integer arithmetic costs milliseconds.
    """
    hi = np.empty(2 * _TEN_MAX + 1)
    lo = np.empty_like(hi)
    for i, e in enumerate(range(-_TEN_MAX, _TEN_MAX + 1)):
        if e >= 0:
            hi[i] = h = float(10**e)
            lo[i] = float(10**e - int(h))
        else:
            q = 10**-e
            hi[i] = h = 1 / q
            num, den = h.as_integer_ratio()
            lo[i] = (den - num * q) / (den * q)  # 1/q - h, correctly rounded
    q = np.arange(10000)
    quads = np.empty((10000, 4), np.uint8)
    trimmed = np.empty_like(quads)
    zero_after = np.ones(10000, bool)
    for j, place in zip((3, 2, 1, 0), (1, 10, 100, 1000)):
        digit = q // place % 10
        quads[:, j] = digit + 48
        zero_after &= digit == 0
        trimmed[:, j] = np.where(zero_after, _FILL, digit + 48)
    for table in (hi, lo, quads, trimmed):
        table.setflags(write=False)
    return hi, lo, quads.view("<u4").ravel(), trimmed.view("<u4").ravel()


def _two_prod(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker)."""
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digits17(x, k, hi, lo):
    """n = round(x * 10**(16 - k)) for x in the kernel range.

    Also returns where that rounding is too near a tie to trust, where
    x * 10**(16 - k) < 10**16 (that is x < 10**k), and where n = 10**17.
    """
    i = 16 - k + _TEN_MAX
    p, e = _two_prod(x, hi[i])
    e += x * lo[i]
    whole = np.floor(p)
    frac = (p - whole) + e
    carry = np.floor(frac)
    frac -= carry
    n = whole.astype(np.int64) + carry.astype(np.int64) + (frac > 0.5)
    below = (p < 1e16) | ((p == 1e16) & (e < 0))
    above = (p > 1e17) | ((p == 1e17) & (e >= -0.5))
    return n, np.abs(frac - 0.5) < 1e-6, below, above


def _format_lines(v: np.ndarray) -> bytes:
    """The bytes of ``"%.17g\n" % x`` for each x of the finite 1-D array ``v``."""
    hi, lo, quads, trimmed_quads = _tables()
    m = v.size
    ax = np.abs(v)
    zero = ax == 0
    inner = (ax >= 1 / _KERNEL_MAX) & (ax <= _KERNEL_MAX)
    x = np.where(inner, ax, 1.0)
    # 17 digits n and the decimal exponent k, x ~ n * 10**(k - 16); log10 may
    # land one decade off next to a power of ten, and n may round up to 10**17
    k = np.floor(np.log10(x)).astype(np.int64)
    n, near_half, below, above = _digits17(x, k, hi, lo)
    redo = np.flatnonzero(below | above)
    if redo.size:
        k_redo = k[redo] + np.where(above[redo], 1, -1)
        n_redo, near_half[redo], _, top = _digits17(x[redo], k_redo, hi, lo)
        n[redo] = np.where(top, 10**16, n_redo)
        k[redo] = k_redo + top
    n[zero] = 0
    k[zero] = 0

    # %g's layouts: fixed notation for -4 <= k < 17 (one layout per k), else
    # d.ddde+XX or d.ddde+XXX; lines are built grouped by layout, so that
    # every slice below is static, and put back in order before they are joined
    layout = np.where((k >= -4) & (k < 17), k, 17 + (np.abs(k) >= 100))
    layout[~(inner | zero) | near_half] = 19  # Python formats these
    codes = np.flatnonzero(np.bincount(layout + 4)) - 4
    groups = [np.flatnonzero(layout == code) for code in codes]
    order = np.concatenate(groups)
    n = n[order]
    k = k[order]

    # the 17 digits as 3 filler bytes, the lead digit and 4 groups of 4
    upper = n // 10**8
    lower = n - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    q = (upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    words = np.zeros((m, 5), "<u4")
    words.view(np.uint8)[:, 3] = lead + 48
    cut = words.copy()
    zero_after = np.ones(m, bool)
    for i in (3, 2, 1, 0):
        words[:, i + 1] = quads[q[i]]
        cut[:, i + 1] = np.where(zero_after, trimmed_quads[q[i]], words[:, i + 1])
        zero_after &= q[i] == 0
    digits = words.view(np.uint8)[:, 3:]
    trimmed = cut.view(np.uint8)[:, 3:]  # the same, trailing zeros as filler

    out = np.zeros((m, _WIDTH + 1), np.uint8)
    out[:, 0] = np.where(np.signbit(v[order]), 45, _FILL)
    out[:, -1] = 10
    b = 0
    for code, group in zip(codes, groups):
        a, b = b, b + group.size
        o = out[a:b]
        if code == 19:
            for row, i in zip(o, group):
                text = ("%.17g" % v[i]).encode("ascii")
                row[:len(text)] = np.frombuffer(text, np.uint8)
        elif code < 0:  # 0.000ddd
            o[:, 1] = 48
            o[:, 2] = 46
            o[:, 3:2 - code] = 48
            o[:, 2 - code:19 - code] = trimmed[a:b]
        elif code < 17:  # ddd.ddd
            o[:, 1:code + 2] = digits[a:b, :code + 1]
            if code < 16:
                o[:, code + 2] = np.where(trimmed[a:b, code + 1] != _FILL, 46, _FILL)
                o[:, code + 3:19] = trimmed[a:b, code + 1:]
        else:  # d.ddde+XX
            o[:, 1] = digits[a:b, 0]
            o[:, 2] = np.where(trimmed[a:b, 1] != _FILL, 46, _FILL)
            o[:, 3:19] = trimmed[a:b, 1:]
            o[:, 19] = 101
            o[:, 20] = np.where(k[a:b] < 0, 45, 43)
            power = np.abs(k[a:b])
            if code == 18:
                o[:, 21] = power // 100 + 48
            o[:, code + 4] = power // 10 % 10 + 48
            o[:, code + 5] = power % 10 + 48
    lines = np.empty_like(out)
    lines.view(f"V{_WIDTH + 1}")[order] = out.view(f"V{_WIDTH + 1}")
    flat = lines.reshape(-1)
    return flat[flat != _FILL].tobytes()


@functools.lru_cache(maxsize=256)
def _line_shape(length: int, marks: int):
    """How to parse the lines of one shape, or None if the kernel cannot.

    ``marks`` has bit c set where byte c of the line is not a digit.  The
    kernel parses ``ddd`` and ``ddd.ddd`` (or ``.ddd``, ``ddd.``), either
    followed by ``e+d`` .. ``e-ddd``.  Returns a float32 weight matrix that
    turns the line's _WIDTH digit values into the mantissa's 4-digit
    groups, last first (the fifth has 2 digits), the sum of the digits above
    those 18, and the exponent, each an integer below 2**24 and so exact;
    the digits after the point; and the columns of the point and of the ``e``.
    """
    cols = [c for c in range(length) if marks >> c & 1]
    dot = exp = None
    if len(cols) >= 2 and cols[-1] == cols[-2] + 1:
        exp = cols[-2]
        del cols[-2:]
    if len(cols) == 1:
        dot = cols.pop()
    end = length if exp is None else exp
    mantissa = [c for c in range(end) if c != dot]
    power = [] if exp is None else list(range(exp + 2, length))
    if cols or not mantissa or len(power) > 3 or (exp is not None and not power):
        return None
    weights = np.zeros((_WIDTH, 7), np.float32)
    for j, c in enumerate(reversed(mantissa)):
        if j < 18:
            weights[c, j // 4] = 10 ** (j % 4)
        else:  # a line whose digits above the 18th are not all 0 goes to float()
            weights[c, 5] = 1
    for j, c in enumerate(reversed(power)):
        weights[c, 6] = 10**j
    weights.setflags(write=False)
    fraction = 0 if dot is None else end - dot - 1
    return weights, fraction, dot, exp


def _nearest_double(upper, lower, e10, hi, lo):
    """The double nearest (upper * 10**8 + lower) * 10**e10, and where it is sure.

    ``upper`` < 10**10 and ``lower`` < 10**8 are integers; upper * 1e8 needs
    at most 34 + 19 bits, so it is exact, and s + t is the mantissa exactly.
    """
    a = upper * 1e8
    s = a + lower
    t = (a - s) + lower
    in_table = np.abs(e10) <= _PARSE_TEN_MAX
    i = np.where(in_table, e10, 0) + _TEN_MAX
    ten = hi[i]
    p, e = _two_prod(s, ten)
    e += s * lo[i] + t * ten
    r = p + e
    rest = (p - r) + e
    # a residual next to half a unit in the last place (a quarter, below a
    # power of two) may round the other way with the exact product
    ulp = (r.view(np.int64) & 0x7FF0000000000000).view(np.float64) * 2.0**-52
    rest = np.abs(rest)
    tol = 2.0**-36 * ulp
    near_half = (np.abs(rest - 0.5 * ulp) < tol) | (np.abs(rest - 0.25 * ulp) < tol)
    inner = (r == 0) | ((r >= 1 / _KERNEL_MAX) & (r <= _KERNEL_MAX))
    return r, in_table & inner & ~near_half


def _parse_lines(padded: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """float(line) for the lines padded[starts:ends], and the rows to redo.

    ``padded`` holds at least _WIDTH bytes past the last line.  Lines the
    kernel cannot parse exactly are listed for ``float()``.
    """
    m = starts.size
    neg = padded[starts] == 45
    starts = starts + neg
    lengths = ends - starts
    # every _WIDTH bytes from each offset of ``padded`` as one item
    windows = np.ndarray((padded.size - _WIDTH + 1,), f"V{_WIDTH}", padded, strides=(1,))
    rows = windows[starts].view(np.uint8).reshape(m, _WIDTH)
    fits = (lengths >= 1) & (lengths <= _WIDTH)
    marks = (((rows - 48) > 9).astype(np.float32) @ _BITS).astype(np.int64)
    marks &= (1 << np.where(fits, lengths, 0)) - 1
    key = np.where(fits, lengths << _WIDTH | marks, -1)
    order = np.argsort(key)
    key = key[order]
    rows = rows.view(f"V{_WIDTH}")[order].view(np.uint8).reshape(m, _WIDTH)
    digits = (rows - 48).astype(np.float32)  # any value off the digit columns, which weigh 0
    halves = np.zeros((m, 3))  # upper 10 and lower 8 mantissa digits, exponent
    e10 = np.zeros(m, np.int64)
    ok = np.zeros(m, bool)
    cuts = np.flatnonzero(np.diff(key)) + 1
    for a, b in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [m]))):
        code = int(key[a])
        shape = None if code < 0 else _line_shape(code >> _WIDTH, code & (1 << _WIDTH) - 1)
        if shape is None:
            continue
        weights, fraction, dot, exp = shape
        g = rows[a:b]
        parts = digits[a:b] @ weights
        halves[a:b] = parts.astype(np.float64) @ _HALVES
        good = parts[:, 5] == 0
        if dot is not None:
            good &= g[:, dot] == 46
        if exp is None:
            e10[a:b] = -fraction
        else:
            sign = g[:, exp + 1]
            good &= (g[:, exp] == 101) & ((sign == 43) | (sign == 45))
            e10[a:b] = np.where(sign == 45, -halves[a:b, 2], halves[a:b, 2]) - fraction
        ok[a:b] = good
    r, sure = _nearest_double(halves[:, 0], halves[:, 1], e10, *_tables()[:2])
    values = np.empty(m)
    values[order] = r
    values[neg] *= -1
    redo = np.empty(m, bool)
    redo[order] = ~(ok & sure)
    return values, np.flatnonzero(redo)


def format_values(values: np.ndarray) -> Iterator[bytes]:
    """``"%.17g\n" % x`` for the finite values, one block of lines at a time."""
    flat = values.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        yield _format_lines(flat[start:start + _BLOCK])


def parse_values(body: bytes, count: int) -> np.ndarray:
    """``float(line)`` for each line of the ASCII text ``body``, exactly.

    Raises ValueError, before parsing any, unless ``body`` has ``count`` lines.
    """
    padded = np.zeros(len(body) + _WIDTH, np.uint8)
    padded[:len(body)] = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(padded[:len(body)] == 10)
    if body and not body.endswith(b"\n"):
        ends = np.append(ends, len(body))
    if ends.size != count:
        raise ValueError(f"{ends.size} value lines, not nx*ny = {count}")
    starts = np.concatenate(([0], ends[:-1] + 1))
    values = np.empty(ends.size)
    for first in range(0, ends.size, _BLOCK):
        block = slice(first, first + _BLOCK)
        values[block], redo = _parse_lines(padded, starts[block], ends[block])
        for i in redo + first:
            line = body[starts[i]:ends[i]].decode()
            try:
                values[i] = float(line)
            except ValueError:
                raise ValueError(f"value line {i + 1} is not a number: {line!r}") from None
    return values
