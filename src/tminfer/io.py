"""Bit-stable file formats for datasets, matrices, estimates, paths, reports.

Text formats are comma-separated with reals printed at 17 significant digits
(exact float64 round trip).  An array file's suffix is its format, for a
dataset's data file as for a matrix: ``.npy``, or else CSV (``_write_array``).
JSON artifacts embed the versions and the run-config fingerprint.  Each write
goes to a fresh temp file beside its target, is renamed onto it only when
complete and registers the sha256 it streamed in the directory's manifest,
under a lock.  Each read opens its file once and hashes the bytes it parses
(``_read_registered``); a file that is not the registered one raises its
checksum error before any parse error, so chained stages refuse tampered or
mismatched inputs, and a file replaced during a read cannot pass for the
one that was hashed.  Large tables are formatted, hashed and written in
blocks, never held whole as text.  A CSV block's text is that of
``"%.17g" % x`` for each value: a numpy kernel formats every value that
prints without an exponent (1e-4 <= |x| < 1e15, and zeros), and a row
holding any other value is one ``%``-format.  A CSV table is read back in
blocks of whole lines by the inverse kernel, exactly: each field of at most
24 bytes and 18 significant digits without an exponent (every value the
writer's kernel prints) is rounded to the nearest double in numpy, and a row
holding any other field, or a field too close to a midpoint between doubles,
is one ``np.loadtxt``; a file of another structure goes whole through
``np.loadtxt``.  Either way the table has the bits ``np.loadtxt`` gives.

A dataset's data file is its (M, 2 w**2) sample table (``Dataset.samples``),
one sample per row: ``write_dataset(ds, path, fingerprint)`` formats CSV
blocks from slices of it or streams the ``.npy`` header and its bytes, and
``read_dataset`` reads the file in one pass into one table and hands it to
``Dataset`` as its ``samples``, so neither copies them.  An array file holds
its entries only, sized by the record that reads it: a dataset's metadata,
or the run's dims for a matrix (``_read_table``).  A CSV table is allocated
at that shape, an ``.npy`` one at its header's shape once the file's size
matches it.  A file that does not parse or holds another shape, and a data
file holding a non-finite value, raise ``ChainError`` naming the file.  An
estimate is JSON of its scalars, hashes and whole arrays (``write_estimate``),
each checked whole when read.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import io as _io
import json
import math
import os
import secrets
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import SweepConfig
from .model import Dataset, Dimensions, Moments, _blas_threads, _frozen, _is_real
from .optimize import CouplingEstimate, _scope_sites
from .selection import DecimationOptions, DecimationPath

__all__ = [
    "ChainError",
    "ConfigError",
    "RunConfig",
    "config_fingerprint",
    "write_dataset",
    "verify_dataset",
    "read_dataset",
    "write_matrix",
    "read_matrix",
    "write_estimate",
    "read_estimate",
    "write_path",
    "write_json_artifact",
    "read_json_artifact",
    "write_table",
]

MANIFEST = "MANIFEST.json"
# Values formatted per block of a CSV table (a block's temporary arrays, ~280
# bytes a value, stay in cache), and bytes per read when hashing and per
# block of a streamed .npy file.
_BLOCK_VALUES = 1 << 12
_HASH_CHUNK = 1 << 20


def _versions() -> dict:
    """The ``versions`` a JSON artifact records; ``blas_pinned`` says whether
    the BLAS calls that define its bits ran on one thread (``model._one_blas_thread``)."""
    return {"tminfer": __version__, "numpy": np.__version__,
            "blas_pinned": _blas_threads() is not None}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class ChainError(ValueError):
    """Artifact fails checksum or fingerprint validation."""


# ---------------------------------------------------------------------------
# CSV text: "%.17g" of a block of values at once
#
# A value v with 1e-4 <= |v| < 1e15 prints in positional notation: its
# decimal exponent X lies in -4..14 and its 17 significant digits are
# D = round_half_even(|v| * 10**(16 - X)), written with a point after digit X
# (after "0." and -X-1 zeros when X < 0) and without trailing fractional
# zeros.  Each value's text is built in a slot of four little-endian words
# -- sign and "0.000" lead, then three words of digits and point -- padded
# with NUL bytes, which are deleted when the block is joined.  Every other
# value (smaller, larger, non-finite) prints with an exponent or as a word,
# and its row keeps one "%"-format.

_POW10 = 10.0 ** np.arange(21)  # exact: 10**q, q <= 22, is a float64
_VELTKAMP = 2.0 ** 27 + 1


def _split(a: np.ndarray):
    """Veltkamp's split of ``a`` into two halves of at most 26 bits each."""
    c = a * _VELTKAMP
    high = c - (c - a)
    return high, a - high


def _words(chars) -> np.ndarray:
    """The bytes ``chars`` (last axis a multiple of 8) as little-endian words."""
    return np.ascontiguousarray(chars, np.uint8).view("<u8").astype(np.uint64)


@functools.cache
def _text_tables():
    """The lookup tables of ``_g17_slots``, built at its first call: a run
    that writes no CSV does not pay for them."""
    v = np.arange(10000)
    digits = np.indices((10,) * 4).reshape(4, -1).T  # the 4 decimal digits of v
    # The 4-digit decimal of v, first digit in the lowest byte.
    ascii4 = ((digits + ord("0")) << np.arange(0, 32, 8)).sum(axis=1).astype(np.uint64)
    # end[i, v]: how many digits of a 17-digit number are left when its
    # digits 4i..4i+3 are v and trailing zeros are dropped (0 if v is 0).
    last = np.where(digits[:, 3] > 0, 4, np.where(digits[:, 2] > 0, 3,
                                                 np.where(digits[:, 1] > 0, 2, 1)))
    end = np.where(v > 0, last + 4 * np.arange(4)[:, None], 0).astype(np.int8)
    # low[i, t]: the bytes of word i that hold characters 0..t-1, and dot[i, t]
    # a point at character t, for t < 16, in word i.
    char = np.arange(24).reshape(3, 1, 8)
    t = np.arange(25)[:, None]
    low = _words(np.where(char < t, 0xFF, 0))[..., 0]
    dot = _words(np.where(char == t, ord("."), 0))[:2, :, 0]
    # lead[19 s + X + 4]: the sign s and, for X < 0, the "0." and zeros before
    # the digits.
    lead = _words([list((b"-"[:s] + b"\0"[s:] + b"0.000"[:1 - x] * (x < 0)).ljust(8, b"\0"))
                   for s in (0, 1) for x in range(-4, 15)])[:, 0]
    tables = ascii4, end, low, dot, lead
    for table in tables:
        table.flags.writeable = False  # one copy serves every call
    return tables


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _digits17(a: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """``round_half_even(a * 10**(16 - exp10))`` exactly, for ``a * 10**(16 -
    exp10) < 2**62``.  Dekker's product gives ``a * 10**q`` as ``p + err``
    exactly; above 2**53, ``p`` is an even integer, so ``p + rint(err)`` is
    the product rounded half to even."""
    q = 16 - exp10
    p = a * _POW10[q]
    a_high, a_low = _split(a)
    b_high, b_low = _POW10_HIGH[q], _POW10_LOW[q]
    err = ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _g17_slots(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the text ``format(v, ".17g")`` of each value ``v`` of ``x`` with
    1e-4 <= |v| < 1e15 or v == 0 into its row of ``out`` (``len(x)`` slots of
    four words), NUL-padded and with byte 31 left NUL; return the mask of
    those values.  The slots of other values hold no meaningful text."""
    ascii4, end, low, dot, lead = _text_tables()
    a = np.abs(x)
    zero = a == 0
    fits = zero | ((a >= 1e-4) & (a < 1e15))
    a[~fits | zero] = 1.0  # a stand-in that keeps the arithmetic in range
    exp10 = np.clip(np.floor(np.log10(a)), -4, 14).astype(np.int64)
    d = _digits17(a, exp10)
    # log10 can round across a power of ten; the digit count shows which way.
    off = (d >= 10 ** 17).astype(np.int64) - (d < 10 ** 16)
    redo = np.flatnonzero(off)
    exp10[redo] += off[redo]
    d[redo] = _digits17(a[redo], exp10[redo])
    d[zero] = 0
    # D = d0·10**13 + d1·10**9 + d2·10**5 + d3·10 + d4: digits 0-3, 4-7, 8-11,
    # 12-15 and 16.
    d0, d = np.divmod(d, 10 ** 13)
    d1, d = np.divmod(d, 10 ** 9)
    d2, d = np.divmod(d, 10 ** 5)
    d3, d4 = np.divmod(d, 10)
    # Keep the digits through the last nonzero one, and the integer part.
    keep = np.maximum(np.maximum(end[0].take(d0), end[1].take(d1)),
                      np.maximum(end[2].take(d2), end[3].take(d3)))
    keep = np.maximum(np.where(d4 > 0, 17, keep), exp10 + 1)
    k0, k1, k2 = low.take(keep, axis=1)
    w0 = (ascii4.take(d0) | (ascii4.take(d1) << 32)) & k0
    w1 = (ascii4.take(d2) | (ascii4.take(d3) << 32)) & k1
    w2 = (d4.astype(np.uint64) + ord("0")) & k2
    # Insert the point before character p = X + 1 if a fraction is left
    # (p = 24: no point): the characters from p on move up one byte.
    p = np.where((exp10 >= 0) & (keep > exp10 + 1), exp10 + 1, 24)
    m0, m1, m2 = low.take(p, axis=1)
    h0, h1 = w0 & ~m0, w1 & ~m1
    out[:, 0] = lead.take(19 * np.signbit(x) + exp10 + 4)
    out[:, 1] = (w0 & m0) | dot[0].take(p) | (h0 << 8)
    out[:, 2] = (w1 & m1) | dot[1].take(p) | (h1 << 8) | (h0 >> 56)
    out[:, 3] = (w2 & m2) | ((w2 & ~m2) << 8) | (h1 >> 56)
    return fits


def _csv_blocks(table: np.ndarray):
    """Encoded CSV lines of the rows of ``table``, in blocks of whole rows
    holding about ``_BLOCK_VALUES`` values: for each value the text of
    ``"%.17g" % x``, which is that of ``format(x, ".17g")``.  ``_g17_slots``
    writes a block's values in one pass; a row holding a value it does not
    write is one ``%``-format of the row."""
    rows, cols = table.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    step = max(1, _BLOCK_VALUES // cols)
    separators = np.full(cols, ord(",") << 56, np.uint64)
    separators[-1] = ord("\n") << 56
    slots = np.empty((min(step, rows), cols, 4), "<u8")  # words in text byte order
    for start in range(0, rows, step):
        block = table[start:start + step]
        text = slots[:len(block)]
        fits = _g17_slots(block.ravel(), text.reshape(-1, 4))
        text[:, :, 3] |= separators
        chars = text.view(np.uint8).reshape(len(block), -1)
        parts, done = [], 0
        for r in np.flatnonzero(~fits.reshape(block.shape).all(axis=1)):
            parts += (chars[done:r].tobytes().translate(None, b"\0"),
                      (line % tuple(block[r].tolist())).encode())
            done = r + 1
        parts.append(chars[done:].tobytes().translate(None, b"\0"))
        yield b"".join(parts)


# ---------------------------------------------------------------------------
# CSV numbers: the exact value of a block of fields at once
#
# A field of the grammar -?[0-9]*\.?[0-9]* with at least one digit, at most 24
# bytes, at most 18 significant digits and k <= 22 digits after the point is
# the decimal D * 10**-k.  Its bytes are loaded as the three little-endian
# words of the 24-byte window that ends where the field ends, so its last
# digit is the window's last byte.  The bytes before the field, and its sign,
# become "0"; the point is removed by moving the bytes before it up one; the
# SWAR multiply-shift turns each word's eight digits into a number.  Then
# D * 10**-k = (D / 5**k) * 2**-k: the quotient q = D / 5**k is rounded to
# the nearest double in double-double arithmetic (Dekker's product gives the
# remainder D - q * 5**k exactly), and the scaling by 2**-k is exact.  A
# field whose rounded sum lies within the error bound of a midpoint between
# doubles, and every field outside the grammar, leaves its row to
# ``np.loadtxt``.

# Bytes read per block of whole lines; a line longer than this leaves the
# whole file to np.loadtxt.  Fields per kernel call: its scratch arena of
# _SCRATCH_ROWS rows of this length (1.2 MB) lives as long as the read, so no
# block allocates and faults in temporaries of its own.
_CSV_CHUNK = 1 << 17
_FIELDS = 1 << 13
_SCRATCH_ROWS = 18
_WINDOW = 24
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
_POINTS = np.uint64(0x2E2E2E2E2E2E2E2E)  # "........"
_ONES = np.uint64(0x0101010101010101)
_HIGH_BITS = np.uint64(0x8080808080808080)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)
_SWAR = ((np.uint64(10), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
         (np.uint64(100), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
         (np.uint64(10000), np.uint64(32), np.uint64(0x00000000FFFFFFFF)))
_EXPONENT = np.uint64(0x7FF0000000000000)
_MANTISSA = np.uint64(0x000FFFFFFFFFFFFF)
_MIN_NORMAL = np.uint64(0x0010000000000000)
_AROUND = np.arange(-3, 1)[:, None]  # the aligned words that hold a window
_TABLE_ROWS = np.arange(0, 75, 25)[:, None]  # word i's row of a flat (3, 25) table


@functools.cache
def _number_tables():
    """The lookup tables of ``_parse_fields``, built at its first call."""
    char = np.arange(_WINDOW)
    # tail[i, c]: the bytes of word i that hold the window's last c characters.
    tail = _words(np.where(char >= _WINDOW - np.arange(25)[:, None], 0xFF, 0)).T
    five = 5.0 ** np.arange(23)  # exact: 5**22 < 2**53
    tables = (tail.ravel(), (~tail).ravel(), five, *_split(five), 2.0 ** -np.arange(23))
    for table in tables:
        table.flags.writeable = False
    return tables


def _parse_fields(words: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                  out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Write the value of each field ``chars[starts[i]:ends[i]]`` of the bytes
    ``chars`` of ``words`` (the uint64 view of a block, 24 bytes or more before
    its first field) into ``out``; return the mask of the fields read exactly,
    those of the grammar whose rounding is certain.  Other entries of ``out``
    are meaningless.  ``scratch``: uint64, ``_SCRATCH_ROWS * len(ends)`` long
    or more; every intermediate array of more than a byte per field is a row
    of it."""
    tail, head, five, five_high, five_low, half_powers = _number_tables()
    n = len(ends)
    rows = scratch[:_SCRATCH_ROWS * n].reshape(_SCRATCH_ROWS, n)
    around, x, y, mark = rows[0:4], rows[4:7], rows[7:10], rows[10:13]
    size, digits, after, k, tmp = rows[13:18].view(np.int64)
    np.subtract(ends, starts, out=size)
    negative = words.view(np.uint8).take(starts) == ord("-")
    np.subtract(size, negative, out=digits)
    np.minimum(digits, _WINDOW, out=digits)  # the characters after the sign
    # The window: bytes ends-24 .. ends-1, from the four aligned words around it.
    np.right_shift(ends, 3, out=tmp)
    np.add(tmp, _AROUND, out=rows[4:8].view(np.int64))
    words.take(rows[4:8].view(np.int64), out=around, mode="clip")
    shift = tmp.view(np.uint64)
    np.bitwise_and(ends, 7, out=tmp)
    shift <<= np.uint64(3)
    np.right_shift(around[:3], shift, out=x)
    around[1:] <<= np.uint64(1)  # two steps: a shift by 64 would be undefined
    np.subtract(np.uint64(63), shift, out=shift)
    around[1:] <<= shift
    x |= around[1:]
    np.add(digits, _TABLE_ROWS, out=mark.view(np.int64))
    tail.take(mark.view(np.int64), out=y, mode="clip")
    x ^= _ZEROS
    x &= y
    x ^= _ZEROS
    # The point's byte gets its high bit in `mark`, exact in a field with one
    # point; its position P in the window comes from the exponent of the sum.
    np.bitwise_xor(x, _POINTS, out=y)
    np.subtract(y, _ONES, out=mark)
    np.invert(y, out=y)
    mark &= y
    mark &= _HIGH_BITS
    where, part = around[:2].view(np.float64)
    np.multiply(mark[0], 2.0 ** -128, out=where)
    np.multiply(mark[1], 2.0 ** -64, out=part)
    where += part
    np.add(where, mark[2], out=where)
    point = where != 0
    # 23 - P characters follow the point; 24 stands for no point.
    np.right_shift(where.view(np.int64), 52, out=after)
    after -= 902
    after >>= 3
    np.subtract(23, after, out=after)
    np.minimum(after, 24, out=after)
    np.multiply(after, point, out=k)
    np.left_shift(x, np.uint64(8), out=y)
    y[0] |= np.uint64(ord("0"))
    np.right_shift(x[:-1], np.uint64(56), out=mark[:2])
    y[1:] |= mark[:2]
    y ^= x
    np.add(after, _TABLE_ROWS, out=mark.view(np.int64))
    head.take(mark.view(np.int64), out=around[:3], mode="clip")  # up to the point
    y &= around[:3]
    x ^= y
    ok = size <= _WINDOW
    np.subtract(digits, point, out=tmp)
    ok &= tmp >= 1
    ok &= k <= 22
    np.bitwise_and(x, _HIGH_NIBBLES, out=y)
    ok &= (y[0] == _ZEROS) & (y[1] == _ZEROS) & (y[2] == _ZEROS)
    np.add(x, _SIXES, out=y)
    y &= _HIGH_NIBBLES
    ok &= (y[0] == _ZEROS) & (y[1] == _ZEROS) & (y[2] == _ZEROS)
    x -= _ZEROS
    for scale, width, mask in _SWAR:
        np.multiply(x, scale, out=y)
        x >>= width
        x += y
        x &= mask
    ok &= x[0] < np.uint64(100)  # at most 18 digits
    d = size
    np.multiply(x[0], np.uint64(10 ** 16), out=d.view(np.uint64))
    np.multiply(x[1], np.uint64(10 ** 8), out=y[0])
    d += y[0].view(np.int64)
    d += x[2].view(np.int64)
    bad = ~ok
    d[bad] = 0
    k[bad] = 0
    high, low, f, q, q_high, q_low, f_high, f_low, p, err, rest, t, unit = \
        rows[:13].view(np.float64)
    np.copyto(high, d)
    np.copyto(tmp, high, casting="unsafe")
    np.subtract(d, tmp, out=tmp)
    np.copyto(low, tmp)  # D = high + low exactly
    five.take(k, out=f, mode="clip")
    np.divide(high, f, out=q)
    np.multiply(q, _VELTKAMP, out=q_high)  # Veltkamp's split of q
    np.subtract(q_high, q, out=q_low)
    np.subtract(q_high, q_low, out=q_high)
    np.subtract(q, q_high, out=q_low)
    five_high.take(k, out=f_high, mode="clip")
    five_low.take(k, out=f_low, mode="clip")
    np.multiply(q, f, out=p)
    # q * f == p + err exactly (Dekker's product).
    np.multiply(q_high, f_high, out=err)
    err -= p
    for a, b in ((q_high, f_low), (q_low, f_high), (q_low, f_low)):
        np.multiply(a, b, out=t)
        err += t
    np.subtract(high, p, out=rest)  # exact (Sterbenz), as is each step to D - q * f
    rest -= err
    rest += low
    rest /= f
    value = out
    np.add(q, rest, out=value)
    # value + t == q + rest exactly (Fast2Sum: |rest| is within 2 ulps of q).
    np.subtract(value, q, out=t)
    np.subtract(rest, t, out=t)
    # |t| in half-ulps of value on t's side (the ulp halves below a power of
    # two): 1 is the midpoint.  The error of `rest` is below 2**-50 of that.
    bits, unit_bits = value.view(np.uint64), unit.view(np.uint64)
    np.bitwise_and(bits, _MANTISSA, out=unit_bits)
    below = unit_bits == 0
    below &= t < 0
    np.bitwise_and(bits, _EXPONENT, out=unit_bits)
    np.maximum(unit_bits, _MIN_NORMAL, out=unit_bits)
    np.abs(t, out=t)
    t /= unit
    t *= 2.0 ** 53
    np.multiply(t, 2.0, out=t, where=below)
    t -= 1.0
    np.abs(t, out=t)
    ok &= t > 2.0 ** -40
    half_powers.take(k, out=f, mode="clip")
    value *= f
    np.negative(value, out=value, where=negative)
    return ok


def _loadtxt_rows(lines) -> np.ndarray | None:
    """``np.loadtxt`` of the text lines ``lines`` (bytes, without their
    newlines); None when it raises, or when a line is empty or holds a byte
    that ``np.loadtxt`` of the whole file may read otherwise."""
    if any(not line or b"#" in line or b"\r" in line for line in lines):
        return None
    try:
        return np.loadtxt([line.decode("ascii") for line in lines], delimiter=",", ndmin=2)
    except ValueError:  # a UnicodeDecodeError too
        return None


def _parse_block(words: np.ndarray, start: int, stop: int, out: np.ndarray,
                 flags: np.ndarray, scratch: np.ndarray) -> int | None:
    """Parse the whole lines of bytes ``start:stop`` of ``words`` (uint64 view)
    into the first rows of the 2-d ``out``; return the number of rows, or None
    when a line does not hold ``out``'s number of fields or a row left to
    ``np.loadtxt`` does not parse as a row of its own.  ``flags``: two bool
    rows as long as the block or longer; ``scratch``: ``_parse_fields``'."""
    chars = words.view(np.uint8)
    cols = out.shape[1]
    body = chars[start:stop]
    separator, newline = flags[:, :len(body)]
    np.equal(body, ord("\n"), out=newline)
    rows = np.count_nonzero(newline)
    np.equal(body, ord(","), out=separator)
    separator |= newline
    ends = np.flatnonzero(separator)
    ends += start
    if len(ends) != rows * cols or rows > len(out) \
            or not (chars[ends[cols - 1::cols]] == ord("\n")).all():
        return None
    starts = np.empty_like(ends)
    starts[0] = start
    starts[1:] = ends[:-1] + 1
    values = out[:rows].reshape(-1)
    ok = np.concatenate([
        _parse_fields(words, starts[i:i + _FIELDS], ends[i:i + _FIELDS],
                      values[i:i + _FIELDS], scratch)
        for i in range(0, len(ends), _FIELDS)])
    if not ok.all():
        slow = np.flatnonzero(~ok.reshape(rows, cols).all(axis=1))
        first, last = starts[slow * cols], ends[slow * cols + cols - 1]
        table = _loadtxt_rows([chars[a:b].tobytes() for a, b in zip(first, last)])
        if table is None or table.shape != (len(slow), cols):
            return None
        out[slow] = table
    return rows


def _read_csv(src: _HashingReader, shape: tuple[int, int]) -> np.ndarray | None:
    """The float64 table of the given ``(rows, cols)`` shape of a CSV file
    read from ``src``, whose values are comma-separated and whose every line,
    after leading '#' lines, ends with a newline and holds ``cols`` fields.
    Read in one pass, in blocks of whole lines, into a table allocated at
    ``shape`` once the first line holds ``cols`` fields; each block's fields
    go through ``_parse_fields`` and each row holding a field it does not read
    exactly through ``np.loadtxt``.  None for a file of another structure or
    shape, or whose rows ``np.loadtxt`` might read otherwise than as part of
    the whole file."""
    rows, cols = shape
    if 2 * rows * cols > src.size:  # each field takes a digit and a separator
        return None
    buf = bytearray(_WINDOW + -(-_CSV_CHUNK // 8) * 8)
    view = memoryview(buf)
    words = np.frombuffer(buf, np.uint64)
    flags = np.empty((2, len(buf)), bool)
    scratch = np.empty(_SCRATCH_ROWS * _FIELDS, np.uint64)
    table, done, held = None, 0, _WINDOW
    while True:
        held += src.readinto(view[held:])
        stop = buf.rfind(b"\n", _WINDOW, held) + 1
        if not stop:  # the end of the file, or a line longer than a block
            return table if held == _WINDOW and done == rows else None
        start = _WINDOW
        if table is None:
            while start < stop and buf[start] == ord("#"):  # the leading '#' lines
                start = buf.find(b"\n", start, stop) + 1
            if start < stop:
                if buf.count(b",", start, buf.find(b"\n", start, stop)) + 1 != cols:
                    return None
                table = np.empty(shape)
        if start < stop:
            got = _parse_block(words, start, stop, table[done:], flags, scratch)
            if got is None:
                return None
            done += got
        held -= stop - _WINDOW
        buf[_WINDOW:held] = buf[stop:stop + held - _WINDOW]


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _HashingReader(_io.RawIOBase):
    """The file ``fh`` (unbuffered, binary, closed with the reader): the bytes
    read through it go into its sha256, and ``sha256()`` reads the rest of
    the file into it, so the hash is that of the bytes a reader parsed.
    ``rewind()`` starts over from the first byte with a fresh hash."""

    def __init__(self, fh):
        self._fh = fh
        self.size = os.fstat(self._fh.fileno()).st_size
        self._hash = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        """Fill ``b``, short only at the end of the file."""
        view = memoryview(b).cast("B")
        done = 0
        while done < len(view) and (got := self._fh.readinto(view[done:])):
            done += got
        self._hash.update(view[:done])
        return done

    def tell(self) -> int:
        return self._fh.tell()

    def rewind(self) -> None:
        self._fh.seek(0)
        self._hash = hashlib.sha256()

    def sha256(self) -> str:
        block = bytearray(min(_HASH_CHUNK, max(self.size - self.tell(), 1 << 12)))
        while self.readinto(block):
            pass
        return self._hash.hexdigest()

    def close(self) -> None:
        self._fh.close()
        super().close()


@contextmanager
def _atomic_open(path: Path):
    """Binary handle on a fresh temp file beside ``path``: renamed onto
    ``path`` when the block completes, removed when it raises.  The random
    name keeps concurrent writers of one target out of each other's files."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_blocks(path: Path, blocks) -> str:
    """Write the byte ``blocks`` to ``path`` atomically; return their sha256."""
    h = hashlib.sha256()
    with _atomic_open(path) as fh:
        for block in blocks:
            h.update(block)
            fh.write(block)
    return h.hexdigest()


def _npy_blocks(a: np.ndarray):
    """The bytes ``np.save`` writes for the C-contiguous ``a``: its header,
    then slices of a view of its memory, so the data is never copied."""
    header = _io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(a))
    yield header.getvalue()
    data = memoryview(a).cast("B")
    for start in range(0, len(data), _HASH_CHUNK):
        yield data[start:start + _HASH_CHUNK]


def _load_npy(src: _HashingReader) -> np.ndarray:
    """The array of an ``.npy`` file as ``_npy_blocks`` writes it (format
    1.0, float64, C order) read from ``src``, in memory it owns, so a dataset
    can take it as its sample table (``np.load`` returns a reshaped view of
    a flat array instead).  ``ValueError`` for other content."""
    version = np.lib.format.read_magic(src)
    if version != (1, 0):
        raise ValueError(f"npy format version {version} is not 1.0")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(src)
    if fortran_order or dtype != np.float64:
        raise ValueError(f"holds a {dtype} array in {'F' if fortran_order else 'C'} "
                         "order, not float64 in C order")
    # The file's size bounds the allocation; a file that changes while it is
    # read fails its checksum.
    if 8 * math.prod(shape) != src.size - src.tell():
        raise ValueError(f"its data does not fill the {shape} array of its header")
    table = np.empty(shape)
    src.readinto(memoryview(table).cast("B"))
    return table


def _loadtxt(src: _HashingReader) -> np.ndarray:
    """``np.loadtxt(path, delimiter=",", ndmin=2)`` of the file of ``src``,
    read through ``src`` from its first byte: the same text stream that
    ``np.loadtxt`` opens on a path, so the same bits and errors."""
    src.rewind()
    text = _io.TextIOWrapper(_io.BufferedReader(src, _HASH_CHUNK))
    try:
        return np.loadtxt(text, delimiter=",", ndmin=2)
    finally:
        text.detach().detach()  # src stays open for its hash


def _load_table(src: _HashingReader, path: Path, shape: tuple[int, int]) -> np.ndarray:
    """The float64 table of the ``.npy`` or CSV file ``path`` read from
    ``src``, leading '#' lines skipped, sealed read-only so the record built
    on it adopts it (``model._frozen``); ``ChainError`` naming the file when
    it does not parse.  The caller checks its shape.

    ``shape`` is the shape the record reading the file gives: the only one
    allocated before a CSV file's data is read (an npy file's size bounds
    its allocation, ``_load_npy``).  A CSV file gives the bits and errors of
    ``np.loadtxt(path, delimiter=",", ndmin=2)``: ``_read_csv`` reads it in
    blocks into memory the table owns, as a dataset's samples need, and a
    file of another shape or structure (ragged rows, blank lines, '#' after
    the leading lines, '\\r', no final newline) goes whole through
    ``np.loadtxt`` (``_loadtxt``)."""
    try:
        if path.suffix == ".npy":
            table = _load_npy(src)
        else:
            table = _read_csv(src, shape)
            table = _loadtxt(src) if table is None else table
    except ValueError as exc:
        raise ChainError(f"{path.name} does not parse: {exc}") from None
    table.flags.writeable = False
    return table


def _write_array(path: Path, table: np.ndarray) -> str:
    """Write the C-contiguous 2-d ``table`` in the format the suffix of
    ``path`` names: ``.npy``, or else CSV, one row per line.  Register the
    file's sha256 in the manifest beside it and return that hash."""
    return _write_artifact(path, _npy_blocks(table) if path.suffix == ".npy"
                           else _csv_blocks(table))


def _write_artifact(path: Path, blocks) -> str:
    """Write the byte ``blocks`` to ``path`` atomically and register the
    sha256 they streamed in the manifest beside it; return that hash."""
    digest = _atomic_write_blocks(path, blocks)
    register_artifacts(path.parent, {path.name: digest})
    return digest


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_fingerprint(config: "RunConfig") -> str:
    """Short stable hash of the validated configuration."""
    return _sha256_bytes(_canonical_json(asdict(config)).encode())[:16]


def _load_manifest(out_dir: Path) -> dict:
    p = Path(out_dir) / MANIFEST
    with suppress(ValueError):  # not JSON, or not UTF-8
        man = json.loads(p.read_bytes()) if p.exists() else {}
        if isinstance(man, dict) and all(isinstance(v, str) for v in man.values()):
            return man
    raise ChainError(f"{p} is not a JSON object of sha256 strings; "
                     "remove it and re-run the chain from generate")


def register_artifacts(out_dir: str | Path, hashes: dict[str, str]) -> None:
    """Record the sha256 ``hashes`` of written artifacts in the manifest of
    ``out_dir``, locking the directory so concurrent stages keep every entry."""
    out = Path(out_dir)
    fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        man = _load_manifest(out)
        man.update(hashes)
        _atomic_write_blocks(out / MANIFEST, ((_canonical_json(man) + "\n").encode(),))
    finally:
        os.close(fd)


def _read_registered(path: Path, parse=None, recorded: str | None = None,
                     rewritten: str = ""):
    """``(parse(src), sha256)`` of the registered file ``path``, opened once:
    ``src`` (``_HashingReader``) hashes the bytes ``parse`` reads, then the
    rest of the file.  ChainError if ``path`` is unregistered, missing or
    not the bytes registered, or, with ``recorded``, the hash that the stage
    which wrote it recorded, not those bytes (the error says ``rewritten``);
    each of these errors wins over any that ``parse`` raised."""
    name = path.name
    registered = _load_manifest(path.parent).get(name)
    if registered is None:
        raise ChainError(f"{name} is not registered in {MANIFEST}; "
                         "run the producing stage first")
    try:
        src = _HashingReader(open(path, "rb", buffering=0))
    except FileNotFoundError:
        raise ChainError(f"{name} is registered but missing; "
                         "re-run the producing stage") from None
    with src:
        try:
            result, error = None if parse is None else parse(src), None
        except Exception as exc:
            result, error = None, exc
        digest = src.sha256()
    if digest != registered:
        raise ChainError(f"{name} fails checksum validation (file was modified "
                         "after it was produced)")
    if recorded is not None and digest != recorded:
        raise ChainError(f"{name} {rewritten}")
    if error is not None:
        raise error
    return result, digest


def verify_artifact(out_dir: str | Path, name: str, recorded: str | None = None,
                    rewritten: str = "") -> str:
    """Check ``name`` against its manifest hash and return that hash; raise
    ChainError if it is unregistered, missing or modified, or not the
    ``recorded`` hash if given (the error says ``rewritten``): ``_read_registered``."""
    return _read_registered(Path(out_dir) / name, None, recorded, rewritten)[1]


# ---------------------------------------------------------------------------
# Run configuration


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# The check of each field annotated int, float or bool, and what it expects.
_FIELD_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_real, "a finite number"),
    "bool": (lambda x: isinstance(x, bool), "true or false"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs for a whole run.  The fields are the config keys, and
    their annotations the types checked (``_FIELD_CHECKS``); unknown keys and
    mistyped values are rejected when the config is loaded, before any stage
    does work."""

    w: int
    density: float = 0.20
    m_samples: int = 500
    sigma: float = 0.0
    sigma_grid: tuple[float, ...] | None = None
    seed: int = 0
    replicates: int = 3
    scope: str = "output"
    binary_io: bool = False
    include_balance: bool = False
    decimation: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for f in fields(self):
            ok, kind = _FIELD_CHECKS.get(f.type, (lambda x: True, ""))
            if not ok(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be {kind}, got {getattr(self, f.name)!r}")
        if not isinstance(self.decimation, dict):
            raise ConfigError(f"decimation must be an object, got {self.decimation!r}")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        bad = set(self.decimation) - {f.name for f in fields(DecimationOptions)}
        if bad:
            raise ConfigError(f"unknown decimation keys: {sorted(bad)}")
        try:
            decim_opts = DecimationOptions(**self.decimation)
        except ValueError as exc:
            raise ConfigError(f"decimation: {exc}") from exc
        # The sweep's own rules hold for every stage, so a bad value stops the first.
        try:
            object.__setattr__(self, "_sweep_config", SweepConfig(
                dims=self.dims, density=self.density, m_samples=self.m_samples,
                sigma_grid=self.sigma_grid if self.sigma_grid is not None else (self.sigma,),
                master_seed=self.seed, replicates=self.replicates, scope=self.scope,
                decim_opts=decim_opts, include_balance=self.include_balance))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.sigma_grid is not None:
            object.__setattr__(self, "sigma_grid", self._sweep_config.sigma_grid)
        # Fewer samples than a full-support row's regressors interpolate them.
        regressors = self.w ** 2 if self.scope == "output" else 2 * self.w ** 2 - 1
        if self.m_samples <= regressors:
            raise ConfigError(f"m_samples must exceed the {regressors} regressors of a "
                              f"full-support {self.scope} row, got {self.m_samples}")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "w" not in raw:
            raise ConfigError("config needs a 'w' entry")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def dims(self) -> Dimensions:
        return Dimensions(w=self.w)

    def sweep_config(self) -> SweepConfig:
        """The noise sweep over ``sigma_grid`` (``sigma`` alone without one)."""
        return self._sweep_config


# ---------------------------------------------------------------------------
# Datasets


def write_dataset(ds: Dataset, path: str | Path, fingerprint: str,
                  matrix_sha256: dict | None = None) -> None:
    """Write the samples to the data file ``path`` (``_write_array``) in an
    existing directory, and their metadata to ``dataset.meta.json`` beside
    it, which records ``matrix_sha256``, the hashes of matrices written beside
    the data (the channel that ``generate`` drew), when given.  Metadata that
    JSON cannot hold is refused (``write_json_artifact``'s ValueError) before
    the data file is written or registered."""
    path, meta_path = Path(path), Path(path).with_name("dataset.meta.json")
    meta = {
        "format": "tminfer-dataset",
        "versions": _versions(),
        "w": ds.dims.w,
        "m_samples": ds.m_samples,
        "direction": ds.direction,
        "meta": ds.meta,
        "data_file": path.name,
        "data_sha256": "",
        "config_fingerprint": fingerprint,
    }
    if matrix_sha256 is not None:
        meta["matrix_sha256"] = matrix_sha256
    _json_bytes(meta, meta_path, fingerprint)
    meta["data_sha256"] = _write_array(path, ds.site_matrix())
    write_json_artifact(meta, meta_path, fingerprint)


# The fields of ``dataset.meta.json`` that the readers use, and what each must be.
_META_CHECKS = (
    ("w", lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    ("m_samples", lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    ("data_file", lambda v: isinstance(v, str) and v not in ("", ".", "..")
     and "/" not in v and os.sep not in v, "a bare file name"),
    ("data_sha256", lambda v: isinstance(v, str), "a string"),
    ("direction", lambda v: v in ("forward", "reversed"), "'forward' or 'reversed'"),
    ("meta", lambda v: isinstance(v, dict), "a JSON object"),
)
_REWRITTEN_DATA = "does not match the checksum in its metadata"


def verify_dataset(out_dir: str | Path, fingerprint: str | None = None) -> dict:
    """Check ``dataset.meta.json``, its fields (``_META_CHECKS``) and its
    data file against the manifest and against each other (and the
    fingerprint if given) without parsing the samples; return the verified
    metadata."""
    meta = read_json_artifact(Path(out_dir) / "dataset.meta.json", fingerprint, _META_CHECKS)
    verify_artifact(out_dir, meta["data_file"], meta["data_sha256"], _REWRITTEN_DATA)
    return meta


def _read_table(path: Path, shape: tuple[int, int], recorded: str | None,
                rewritten: str) -> np.ndarray:
    """The sealed table of the registered array file ``path``, read in one
    pass (``_read_registered``, which checks ``recorded`` and says
    ``rewritten``).  ``shape`` is the one its reader's record gives;
    ChainError naming the file when it does not parse or holds another."""
    def parse(src):
        table = _load_table(src, path, shape)
        if table.shape != shape:
            raise ChainError(f"{path.name} holds a {table.shape} table; its record "
                             f"gives {shape}")
        return table

    return _read_registered(path, parse, recorded, rewritten)[0]


def read_dataset(out_dir: str | Path, fingerprint: str | None = None) -> tuple[Dataset, dict]:
    """Read a dataset back, verifying checksums (and fingerprint if given).

    The data file is read in one pass at the shape ``meta`` gives
    (``_read_table``) into the table that becomes the dataset's ``samples``
    without a copy.  Returns ``(dataset, meta)``, ``meta`` being the verified
    ``dataset.meta.json`` content.  ``ChainError`` names the metadata file
    when a field it uses is malformed (``_META_CHECKS``), and the data file
    when it does not parse, holds another shape or a non-finite value.
    """
    out = Path(out_dir)
    meta = read_json_artifact(out / "dataset.meta.json", fingerprint, _META_CHECKS)
    data_name = meta["data_file"]
    dims = Dimensions(w=meta["w"])
    table = _read_table(out / data_name, (meta["m_samples"], dims.n), meta["data_sha256"],
                        _REWRITTEN_DATA)
    try:
        ds = Dataset(dims=dims, samples=table, direction=meta["direction"], meta=meta["meta"])
    except ValueError as exc:
        raise ChainError(f"{data_name}: {exc}") from None
    return ds, meta


# ---------------------------------------------------------------------------
# Matrices


def write_matrix(entries: np.ndarray, path: str | Path) -> str:
    """Write the C-contiguous 2-d ``entries`` and nothing else in the format
    their path's suffix names, as ``read_matrix`` reads them: ``.npy``, or
    else CSV, one row per line.  Return the sha256 registered for the file."""
    return _write_array(Path(path), entries)


def read_matrix(path: str | Path, dims: Dimensions, sha256: str | None = None) -> np.ndarray:
    """The sealed ``(w**2, w**2)`` entries, sized by the run's ``dims``, of
    a registered matrix file read in one pass (``_read_table``).  With
    ``sha256``, the hash that the stage which wrote the file recorded, the
    file registered now must be that one.  ``ChainError`` naming the file
    when it does not parse or holds another shape."""
    return _read_table(Path(path), (dims.n_half, dims.n_half), sha256,
                       "is not the matrix its producing stage recorded (another run "
                       "rewrote it); re-run that stage")


# ---------------------------------------------------------------------------
# Estimates and decimation paths


def write_estimate(est: CouplingEstimate, path: str | Path, fingerprint: str,
                   dataset_sha256: str, moments: Moments | None = None) -> None:
    """Write ``est`` as JSON: its scalars (``m_samples`` among them), hashes
    and arrays, ``a``, ``row_objectives``, ``support`` (the ascending flat
    indices of ``active``) and ``couplings`` (``k`` there).  With ``moments``,
    the record of the data ``est`` was fitted on, also record its exact second
    moments ``C``, all that a later fit or decimation needs to continue from
    the file without the samples.  JSON floats round-trip."""
    if moments is not None and (moments.fingerprint, moments.m_samples) != (
            est.dataset_fingerprint, est.m_samples):
        raise ValueError("moments and estimate dataset fingerprints differ")
    doc = {
        "format": "tminfer-estimate",
        "versions": _versions(),
        "w": est.dims.w,
        "scope": est.scope,
        "direction": est.direction,
        "m_samples": est.m_samples,
        "dataset_fingerprint": est.dataset_fingerprint,
        "dataset_sha256": dataset_sha256,
        "config_fingerprint": fingerprint,
        "a": est.a.tolist(),
        "row_objectives": est.row_objectives.tolist(),
        "support": np.flatnonzero(est.active).tolist(),
        "couplings": est.k[est.active].tolist(),
    }
    if moments is not None:
        doc["second_moments"] = moments.c.tolist()
    write_json_artifact(doc, path, fingerprint)


def _json_array(doc: dict, key: str, dtype, types: set) -> np.ndarray:
    """The JSON list ``doc[key]`` as a 1-d ``dtype`` array; ValueError if it
    holds a type not in ``types`` (a bool is not an int, a list not a number)."""
    values = doc[key]
    if type(values) is not list or not set(map(type, values)) <= types:
        raise ValueError(f"{key} must be a list of {dtype.__name__} values")
    return _frozen(values, dtype)


def read_estimate(path: str | Path, fingerprint: str | None = None,
                  dataset_sha256: str | None = None, with_moments: bool = False):
    """Read a registered estimate, checking the config fingerprint and the
    sha256 of the data file it was fitted on when they are given.  Arrays are
    checked whole: their types and ``support`` here, the rest by ``CouplingEstimate``.

    Returns the ``CouplingEstimate``, or ``(estimate, Moments)`` with
    ``with_moments``: the record ``write_estimate`` stored, its M checked by
    ``fields=`` (``ChainError`` if the file holds none, or one of other data).
    """
    name = Path(path).name
    moments_m = (("m_samples", _is_int, "an integer (tminfer < 0.3.0 wrote none; re-run fit)"),)
    doc = read_json_artifact(path, fingerprint, moments_m if with_moments else ())
    if doc.get("format") != "tminfer-estimate":
        raise ChainError(f"{path} is not an estimate artifact")
    if dataset_sha256 is not None and doc.get("dataset_sha256") != dataset_sha256:
        raise ChainError(f"{name} was fitted on different data")
    if "support" not in doc:
        raise ChainError(f"{name} holds the per-row layout of tminfer <= 0.11.0; re-run fit")
    if with_moments and "second_moments" not in doc:
        raise ChainError(f"{name} holds no second moments (tminfer < 0.3.0 wrote "
                         "none); re-run fit")
    try:
        dims = Dimensions(w=doc["w"])
        a = _json_array(doc, "a", np.float64, {int, float})
        support = _json_array(doc, "support", np.int64, {int})
        couplings = _json_array(doc, "couplings", np.float64, {int, float})
        if len(a) != len(_scope_sites(dims, doc["scope"])):  # before the grid is sized
            raise ValueError(f"a holds {len(a)} rows, not one per site in scope")
        k = np.zeros((len(a), dims.n - 1))
        active = np.zeros(k.shape, dtype=bool)
        if np.any(np.diff(np.r_[-1, support, k.size]) <= 0) or couplings.shape != support.shape:
            raise ValueError(f"support must ascend strictly in 0..{k.size - 1}, one coupling each")
        k.reshape(-1)[support] = couplings
        active.reshape(-1)[support] = True
        est = CouplingEstimate(
            dims=dims, scope=doc["scope"], direction=doc["direction"], a=a, k=k, active=active,
            row_objectives=_json_array(doc, "row_objectives", np.float64, {int, float}),
            # tminfer <= 0.16.0 wrote a total_pl instead, and no M into a selected estimate.
            m_samples=doc.get("m_samples"), dataset_fingerprint=doc["dataset_fingerprint"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ChainError(f"{name} holds a malformed estimate: {exc}") from exc
    if not with_moments:
        return est
    try:
        moments = Moments(dims=dims, direction=doc["direction"],
                          m_samples=doc["m_samples"],
                          c=_frozen(doc["second_moments"]))  # copied once, then adopted
    except ValueError as exc:
        raise ChainError(f"{name}: {exc}") from exc
    if moments.fingerprint != est.dataset_fingerprint:
        raise ChainError(f"{name}: second_moments do not match its dataset_fingerprint "
                         "(edited, or written by tminfer < 0.5.0); re-run fit")
    return est, moments


def write_path(path_obj: DecimationPath, path: str | Path, fingerprint: str,
               sigma: float, dataset_sha256: str) -> None:
    """Scalar decimation-path columns; the selected estimate is stored apart."""
    records = [{
        "n_couplings": r.n_couplings,
        "k_free": r.k_free,
        "total_pl": r.total_pl,
        "bic": r.bic,
    } for r in path_obj.records]
    doc = {
        "format": "tminfer-path",
        "versions": _versions(),
        "sigma": sigma,
        "selected": path_obj.selected,
        "records": records,
        "dataset_sha256": dataset_sha256,
        "config_fingerprint": fingerprint,
    }
    write_json_artifact(doc, path, fingerprint)


# ---------------------------------------------------------------------------
# Generic JSON artifacts (extraction results, eval reports, sweep reports)


def _json_bytes(doc: dict, path: Path, fingerprint: str) -> bytes:
    """The bytes ``write_json_artifact`` writes for ``doc`` at ``path``."""
    doc = dict(doc)
    doc.setdefault("versions", _versions())
    doc["config_fingerprint"] = fingerprint
    try:
        text = json.dumps(doc, indent=1, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path.name} not written: it holds a NaN or an infinity, or another "
                         f"value JSON cannot hold ({exc})") from exc
    return (text + "\n").encode()


def write_json_artifact(doc: dict, path: str | Path, fingerprint: str) -> None:
    """Write ``doc`` as JSON, adding the versions and config ``fingerprint``;
    keys ``doc`` already holds keep their place in the file.  ValueError naming
    the file, neither written nor registered, if ``doc`` holds a value JSON
    cannot hold (a NaN, an inf, a numpy integer)."""
    path = Path(path)
    _write_artifact(path, (_json_bytes(doc, path, fingerprint),))


def read_json_artifact(path: str | Path, fingerprint: str | None = None,
                       fields=()) -> dict:
    """Read a registered JSON artifact, checking ``fingerprint`` if given;
    the bytes parsed are the bytes hashed.  ChainError if it is not a JSON
    object, or for the first ``(key, ok, expected)`` of ``fields`` (the
    fields its reader uses) with ``ok(doc.get(key))`` false, naming all four."""
    path = Path(path)
    doc, _ = _read_registered(path, lambda src: json.loads(src.read()))
    if not isinstance(doc, dict):
        raise ChainError(f"{path.name} is not a JSON object")
    if fingerprint is not None and (got := doc.get("config_fingerprint")) != fingerprint:
        raise ChainError(f"{path.name} was produced under config fingerprint {got!r}, "
                         f"current config is {fingerprint!r}; refusing to mix runs")
    for key, ok, expected in fields:
        if not ok(doc.get(key)):
            raise ChainError(f"{path.name} holds a malformed {key}, {doc.get(key)!r}: "
                             f"expected {expected}")
    return doc


def write_table(path: str | Path, columns, rows) -> None:
    """A CSV report under a ``columns`` header: integers as ``str``, ``None``
    as an empty cell, other reals at 17 significant digits."""
    def cell(x) -> str:
        return "" if x is None else str(x) if isinstance(x, int) else format(x, ".17g")

    lines = [",".join(columns), *(",".join(map(cell, row)) for row in rows)]
    _write_artifact(Path(path), (("\n".join(lines) + "\n").encode(),))
