"""Canonical JSON/CSV emission and input-file parsing.

Emission is deterministic: object keys are sorted, floats are printed with 17
significant digits (lossless double round trip), and files always end with a
newline.  Identical inputs therefore produce byte-identical files, which the
command-line layer relies on for its determinism guarantee.  Keys and other
strings go through ``json.encoder.encode_basestring_ascii``, the encoder
``json.dumps`` uses for a string under its default settings, so they have
its bytes.

Floats are formatted in bulk, with the bytes of formatting each float on its
own.  A finite, non-empty 1-D or 2-D float64 array in a report is one ``%``
against a template for the whole array: each exact zero is the literal ``0``
(``-0`` when its sign bit is set) and every other entry a ``%.17g`` field.
Rows that share a zero pattern share their template text, which is joined
once per pattern: a dilation's N^2 rows follow about N patterns.  A CSV body
of fewer than ``CSV_KERNEL_MIN_VALUES`` values is one ``%`` as well; a larger
one is written by ``_csv_fields``, which finds the 17 digits of each value
with exact float64 arithmetic and assembles the text in numpy arrays.

Parsing raises InputFormatError with the dotted path of the offending field,
so callers can report exactly what is wrong with a file.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import InputFormatError
from .oscillator import HermitianMatrix
from .stochastic import Distribution, IndivisibleProcess, TransitionMatrix

FLOAT_FORMAT = "%.17g"


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return FLOAT_FORMAT % value


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj: Any, out: list[str]) -> None:
    # Floats, dicts and strings first: they are most of a report.  A subclass
    # of dict or str is none of the types tested after them.
    if type(obj) is float:
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for idx, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if idx:
                out.append(",")
            out.append(encode_basestring_ascii(key) + ":")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (np.floating, float)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, (np.integer, int)):
        out.append(str(int(obj)))
    elif isinstance(obj, np.ndarray):
        if (obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size
                and np.isfinite(obj).all()):
            out.append(_array_text(obj))
        else:  # NaN and inf reach format_float here, which names them
            _write(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, item in enumerate(obj):
            if idx:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _array_text(arr: np.ndarray) -> str:
    """JSON text of a finite, non-empty 1-D or 2-D float64 array, one ``%``.

    ``%.17g`` prints 0.0 and -0.0 as ``0`` and ``-0``, so exact zeros go into
    the template as literals and only the other entries are formatted.
    """
    rows = arr.reshape(-1, arr.shape[-1])
    zero = rows == 0.0
    if zero.any():
        # One byte per entry, 0: a field, 1: "0", 2: "-0" (a zero's 1 shifted
        # by its sign bit); a row's bytes key its text, joined once per key.
        pick = zero.view(np.uint8) << np.signbit(rows)
        raw, width = pick.tobytes(), rows.shape[1]
        keys = [raw[i:i + width] for i in range(0, len(raw), width)]
        texts = dict.fromkeys(keys)
        codes = np.frombuffer(b"".join(texts), np.uint8).reshape(-1, width)
        fields = np.array([FLOAT_FORMAT, "0", "-0"], dtype=object)[codes]
        texts = dict(zip(texts, map(",".join, fields.tolist())))
        body = "],[".join(map(texts.__getitem__, keys))
        values = rows[~zero].tolist()
    else:
        body = "],[".join([",".join([FLOAT_FORMAT] * rows.shape[1])] * len(rows))
        values = rows.ravel().tolist()
    template = "[" + body + "]" if arr.ndim == 1 else "[[" + body + "]]"
    return template % tuple(values)


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(canonical_dumps(obj) + "\n", encoding="utf-8")


# Below this many values a CSV body is one % template: the kernel costs about
# 100 us a call before its first value, a template about 0.45 us a value, and
# they break even at about 300 values (x86-64, python 3.11, numpy 2.4).
# Chunks of a few thousand values keep the kernel's temporaries in cache.
CSV_KERNEL_MIN_VALUES = 512
CSV_CHUNK_VALUES = 2048

# 10**s for s = 0..22, every one exact in float64, and Veltkamp's split of
# each into 26-bit halves (hi + lo == 10**s exactly).
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_SPLITTER = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# The ASCII digits of 0000..9999 as little-endian words, first digit lowest.
_QUADS = np.arange(10, dtype=np.uint8) + ord("0")
_QUADS = np.stack(np.meshgrid(*[_QUADS] * 4, indexing="ij"), axis=-1).reshape(
    -1, 4).view("<u4").ravel().astype(np.uint64)


def _word(text: bytes) -> int:
    """``text`` as the value of a little-endian word: its first byte lowest."""
    return int.from_bytes(text, "little")


_ASCII_ZEROS = np.uint64(_word(b"0" * 8))
# The k low bytes of a 16-byte (lo, hi) pair of words, k = 0..16.
_LOW_BYTES = [np.array([(1 << 8 * min(max(k - base, 0), 8)) - 1
                        for k in range(17)], np.uint64) for base in (0, 8)]
# "." at byte p of a (lo, hi) pair, p = 0..15; p = 16 gives no point.
_POINT_WORDS = [np.array([_word(b"\0" * (p - base) + b".") if base <= p < base + 8
                          else 0 for p in range(17)], np.uint64) for base in (0, 8)]
# Tables indexed by the decimal exponent e plus 6, e = -6..16:
# _POINT_AT, how many of the 16 digits after the first precede the point;
# _NO_POINT, e = -4..-1, whose digits all follow a "0.0..." lead instead;
# _LEADING, a value's first word: a sign byte (NUL, or "-" from index 23 on)
# and that lead; _EXPONENT_SUFFIX, "e-05" or "e-06" at bytes 2..5 of its last.
_EXPONENTS = range(-6, 17)
_POINT_AT = np.array([max(e, 0) for e in _EXPONENTS])
_NO_POINT = np.array([-4 <= e < 0 for e in _EXPONENTS])
_LEADING = np.array([_word(b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""))
                     for e in _EXPONENTS], np.uint64)
_LEADING = np.r_[_LEADING, _LEADING | np.uint64(ord("-"))]
_EXPONENT_SUFFIX = np.array([_word(b"\0\0e-0%d" % -e) if e < -4 else 0
                             for e in _EXPONENTS], np.uint64)
# Separators in the top byte of the last word.
_COMMA, _NEWLINE = (np.uint64(ord(c) << 56) for c in ",\n")
_8, _16, _32, _48, _56 = (np.uint64(b) for b in (8, 16, 32, 48, 56))


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == a * 10**s exactly, hi the rounded product (Dekker's
    TwoProduct with Veltkamp's split; no product here over- or underflows)."""
    hi = a * _POW10[s]
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _csv_fields(values: np.ndarray, ends: np.ndarray) -> bytes:
    """``%.17g`` of each finite float in ``values``, each followed by the
    separator that ``ends`` holds in its top byte.

    For 1e-6 < |x| < 1e17 the decimal exponent e lies in -6..16, so with
    s = 16 - e the power 10**s is exact and the product P = |x| * 10**s is
    exactly hi + lo.  P in [1e16, 1e17) checks e (log10 may miss it by one
    at a power of ten; those values are scaled again), and then hi >= 2**53
    is an even integer, so N = hi + rint(lo) is P rounded half to even: the
    17 significant digits that ``%.17g`` prints.  N never rounds up to 10**17:
    below each power of ten the nearest double in range leaves P at least 8
    units short of it (1e-5 and 1e-4; 11 where the power is a double).
    The text follows C's ``%g``: fixed notation for e in -4..16, else
    ``d.ddde-0X``, with trailing zeros and a bare point dropped.

    Each value is built in four little-endian words: the sign and any "0.00"
    lead, then the first digit, the point and the other 16 digits, then an
    exponent and the separator.  Unused bytes are NUL, and one
    ``bytes.translate`` drops them all (twice as fast as ``np.compress``).
    Zeros print as ``0`` or ``-0``; a value outside the range above is
    formatted on its own and its text put in its words.
    """
    n = len(values)
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e17)
    zero = a == 0.0
    a = np.where(fast, a, 1.0)  # zeros and the rest print from 1.0, then amended
    s = 16 - np.clip(np.floor(np.log10(a)).astype(np.intp), -6, 16)
    hi, lo = _scaled(a, s)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    redo = np.flatnonzero(below | above)
    if len(redo):
        s[redo] += below[redo].astype(np.intp) - above[redo]
        hi[redo], lo[redo] = _scaled(a[redo], s[redo])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    e6 = 22 - s  # the decimal exponent plus 6
    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    high8 = rest // 10 ** 8
    low8 = rest - high8 * 10 ** 8
    # The 16 digits after the first: bytes 0..7 of lo, 8..15 of hi.
    lo_w = _QUADS[high8 // 10000] | _QUADS[high8 % 10000] << _32
    hi_w = _QUADS[low8 // 10000] | _QUADS[low8 % 10000] << _32
    # The last digit that is not 0 is the top nonzero byte of the digits
    # less "0"s, read off a float's exponent (-1 when all are 0); no byte
    # exceeds 9, so rounding to float never reaches the next byte.
    f = (hi_w ^ _ASCII_ZEROS).astype(np.float64) * 2.0 ** 64 + (
        lo_w ^ _ASCII_ZEROS).astype(np.float64)
    last = np.maximum((f.view(np.int64) >> 52) - 1023, -8) >> 3
    point = _POINT_AT[e6]
    keep = np.maximum(last + 1, point)
    lo_w &= _LOW_BYTES[0][keep]
    hi_w &= _LOW_BYTES[1][keep]
    # Digits before the point stay, a point goes after them, and the digits
    # after it move up one byte.
    lo_l, hi_l = lo_w & _LOW_BYTES[0][point], hi_w & _LOW_BYTES[1][point]
    lo_r, hi_r = lo_w ^ lo_l, hi_w ^ hi_l
    dot = np.where((keep > point) & ~_NO_POINT[e6], point, 16)
    lo_l |= _POINT_WORDS[0][dot]
    hi_l |= _POINT_WORDS[1][dot]
    out = np.empty((n, 4), "<u8")
    out[:, 0] = _LEADING[e6 + 23 * np.signbit(values)]
    out[:, 1] = ((first + ord("0") - zero).astype(np.uint64)
                 | lo_l << _8 | lo_r << _16)
    out[:, 2] = hi_l << _8 | lo_l >> _56 | hi_r << _16 | lo_r >> _48
    out[:, 3] = hi_l >> _56 | hi_r >> _48 | _EXPONENT_SUFFIX[e6] | ends
    other = np.flatnonzero(~(fast | zero))
    if len(other):
        seps = (ends[other] >> _56).astype(np.uint8).tobytes().decode()
        texts = [format_float(v) + c for v, c in zip(values[other].tolist(), seps)]
        out[other] = np.array(texts, "S32").view("<u8").reshape(-1, 4)
    return out.tobytes().translate(None, b"\0")


def write_csv(path: str | Path, header: Sequence[str], rows: Any) -> None:
    """Plain numeric CSV of the 2-D array ``rows``; no rows leaves just the
    header line.

    A body of fewer than ``CSV_KERNEL_MIN_VALUES`` values is one ``%``
    against a template; a larger one goes through ``_csv_fields`` a few
    thousand values at a time, which bounds its temporaries in memory.
    Both write the bytes of ``%.17g`` on each value, a comma between the
    values of a row and a newline after each row.
    """
    table = np.asarray(rows, dtype=float)
    finite = np.isfinite(table)
    if not finite.all():
        format_float(float(table[~finite][0]))  # raises, naming the value
    with Path(path).open("wb") as f:
        f.write((",".join(header) + "\n").encode())
        if table.size < CSV_KERNEL_MIN_VALUES:
            if len(table):  # a zero-row table arrives 1-D, without a shape[1]
                line = ",".join([FLOAT_FORMAT] * table.shape[1]) + "\n"
                f.write(((line * len(table)) % tuple(table.ravel().tolist())).encode())
            return
        width = table.shape[1]
        step = max(1, CSV_CHUNK_VALUES // width)
        ends = np.full(width, _COMMA)
        ends[-1] = _NEWLINE
        ends = np.tile(ends, step)
        for start in range(0, len(table), step):
            values = table[start:start + step].ravel()
            f.write(_csv_fields(values, ends[:len(values)]))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError("<file>", f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, overlong int, too deep
        raise InputFormatError("<file>", f"invalid JSON in {path}: {exc}") from exc


def _expect_number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(field, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise InputFormatError(field, "number out of range") from None
    if not math.isfinite(number):  # the JSON NaN and Infinity literals
        raise InputFormatError(field, f"expected a finite number, got {value!r}")
    return number


def _check_numbers(row: list, field: str) -> None:
    """InputFormatError naming ``field[j]`` for the first non-number in ``row``.

    The type test runs at C speed; only a row that fails it is walked for the
    offending entry.  ``type(True) is bool``, so booleans fail it too.
    """
    if not frozenset((int, float)).issuperset(map(type, row)):
        for j, v in enumerate(row):
            _expect_number(v, f"{field}[{j}]")


def _float_array(obj: list, field: str) -> np.ndarray:
    """``obj``, already checked to hold only numbers, as a float array.

    An integer beyond the double range is reported at its own dotted path.
    """
    try:
        return np.array(obj, dtype=float)
    except OverflowError:
        for idx, v in np.ndenumerate(np.array(obj, dtype=object)):
            _expect_number(v, field + "".join(f"[{i}]" for i in idx))
        raise


def _expect_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(field, f"expected an integer, got {value!r}")
    return value


def parse_real_matrix(obj: Any, field: str, n: int | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(field, "expected a nonempty list of rows")
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise InputFormatError(f"{field}[{i}]", "expected a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputFormatError(
                f"{field}[{i}]", f"row length {len(row)} != {width}")
        _check_numbers(row, f"{field}[{i}]")
    arr = _float_array(obj, field)
    if arr.shape[0] != arr.shape[1]:
        raise InputFormatError(field, f"matrix must be square, got {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise InputFormatError(field, f"expected size {n}, got {arr.shape[0]}")
    return arr


def parse_complex_matrix(obj: Any, field: str, n: int | None = None) -> np.ndarray:
    """{"re": [[...]], "im": [[...]]} with equal square shapes."""
    if not isinstance(obj, dict):
        raise InputFormatError(field, "expected an object with re/im")
    for key in ("re", "im"):
        if key not in obj:
            raise InputFormatError(f"{field}.{key}", "missing")
    re = parse_real_matrix(obj["re"], f"{field}.re", n)
    im = parse_real_matrix(obj["im"], f"{field}.im", n)
    if re.shape != im.shape:
        raise InputFormatError(field, f"re {re.shape} and im {im.shape} differ")
    return re + 1j * im


def parse_hermitian(obj: Any, field: str = "<root>") -> HermitianMatrix:
    """{"n": N, "re": [[...]], "im": [[...]]} -> validated HermitianMatrix."""
    if not isinstance(obj, dict):
        raise InputFormatError(field, "expected an object")
    if "n" not in obj:
        raise InputFormatError(f"{field}.n", "missing")
    n = _expect_int(obj["n"], f"{field}.n")
    matrix = parse_complex_matrix(obj, field, n)
    return HermitianMatrix(matrix)


def parse_vector(obj: Any, field: str, n: int | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(field, "expected a nonempty list")
    _check_numbers(obj, field)
    vec = _float_array(obj, field)
    if n is not None and vec.shape[0] != n:
        raise InputFormatError(field, f"expected length {n}, got {vec.shape[0]}")
    return vec


def parse_process(obj: Any, field: str = "<root>") -> IndivisibleProcess:
    """Process file: n, targets, conditioning, transitions, initial."""
    if not isinstance(obj, dict):
        raise InputFormatError(field, "expected an object")
    for key in ("n", "targets", "conditioning", "transitions", "initial"):
        if key not in obj:
            raise InputFormatError(f"{field}.{key}", "missing")
    n = _expect_int(obj["n"], f"{field}.n")
    if not isinstance(obj["targets"], list):
        raise InputFormatError(f"{field}.targets", "expected a list")
    targets = tuple(_expect_number(v, f"{field}.targets[{i}]")
                    for i, v in enumerate(obj["targets"]))
    if not isinstance(obj["conditioning"], list):
        raise InputFormatError(f"{field}.conditioning", "expected a list")
    conditioning = tuple(_expect_number(v, f"{field}.conditioning[{i}]")
                         for i, v in enumerate(obj["conditioning"]))
    if not isinstance(obj["transitions"], list):
        raise InputFormatError(f"{field}.transitions", "expected a list")
    transitions = {}
    for i, entry in enumerate(obj["transitions"]):
        where = f"{field}.transitions[{i}]"
        if not isinstance(entry, dict):
            raise InputFormatError(where, "expected an object")
        for key in ("t", "t0", "matrix"):
            if key not in entry:
                raise InputFormatError(f"{where}.{key}", "missing")
        t = _expect_number(entry["t"], f"{where}.t")
        t0 = _expect_number(entry["t0"], f"{where}.t0")
        if (t, t0) in transitions:  # would replace the earlier entry
            raise InputFormatError(where, f"repeats the (t, t0) of transitions"
                                   f"[{list(transitions).index((t, t0))}]")
        matrix = parse_real_matrix(entry["matrix"], f"{where}.matrix", n)
        transitions[(t, t0)] = TransitionMatrix(matrix, t=t, t0=t0)
    initial = Distribution(parse_vector(obj["initial"], f"{field}.initial", n))
    return IndivisibleProcess(n=n, targets=targets, conditioning=conditioning,
                              transitions=transitions, initial=initial)


def complex_matrix_payload(matrix: np.ndarray) -> dict:
    """``{"re": ..., "im": ...}`` as two float arrays, for emission.

    The parts are views of ``matrix``, not JSON lists: ``canonical_dumps``
    writes each with one ``%``.  Parse the emitted text, not this payload.
    """
    m = np.asarray(matrix)
    return {"re": m.real, "im": m.imag}
