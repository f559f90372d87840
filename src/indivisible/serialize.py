"""Canonical JSON/CSV emission and input-file parsing.

Emission is deterministic: object keys are sorted, floats are printed with 17
significant digits (lossless double round trip), and files always end with a
newline.  Identical inputs therefore produce byte-identical files, which the
command-line layer relies on for its determinism guarantee.  Keys and other
strings go through ``json.encoder.encode_basestring_ascii``, the encoder
``json.dumps`` uses for a string under its default settings, so they have
its bytes.

Floats are formatted in bulk.  A finite, non-empty 1-D or 2-D float64 array
is one ``%`` against a template for the whole array: each exact zero is the
literal ``0`` (``-0`` when its sign bit is set) and every other entry a
``%.17g`` field.  Rows that share a zero pattern share their template text,
which is joined once per pattern: a dilation's N^2 rows follow about N
patterns.  The whole body of a CSV is one ``%`` as well.  Both give the
bytes of formatting each float on its own.

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


def write_csv(path: str | Path, header: Sequence[str], rows: Any) -> None:
    """Plain numeric CSV of the 2-D array ``rows``; no rows leaves just the
    header line.  The body is formatted with one ``%`` per chunk of rows."""
    table = np.asarray(rows, dtype=float)
    finite = np.isfinite(table)
    if not finite.all():
        format_float(float(table[~finite][0]))  # raises, naming the value
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        if len(table):  # a zero-row table arrives 1-D, without a shape[1]
            line = ",".join([FLOAT_FORMAT] * table.shape[1]) + "\n"
            # Chunks bound the formatted text and its argument tuple in memory.
            for start in range(0, len(table), 1 << 14):
                chunk = table[start:start + (1 << 14)]
                f.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError("<file>", f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
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
