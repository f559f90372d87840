import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from indivisible.errors import InputFormatError
from indivisible.serialize import (
    CSV_CHUNK_VALUES,
    CSV_KERNEL_MIN_VALUES,
    canonical_dumps,
    complex_matrix_payload,
    format_float,
    load_json,
    parse_complex_matrix,
    parse_hermitian,
    parse_process,
    parse_real_matrix,
    parse_vector,
    write_csv,
    write_json,
)

from oracles import reference_csv, reference_dumps


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips_exactly(x):
    assert float(format_float(x)) == x


def test_float_format_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            format_float(bad)


def test_canonical_dumps_sorts_keys_and_is_compact():
    text = canonical_dumps({"b": 1, "a": [1.5, None, True]})
    assert text == '{"a":[1.5,null,true],"b":1}'


def test_canonical_dumps_handles_numpy_types():
    obj = {"m": np.array([[1.0, 0.5]]), "k": np.int64(3), "x": np.float64(0.1),
           "f": np.bool_(False)}
    text = canonical_dumps(obj)
    assert json.loads(text) == {"m": [[1.0, 0.5]], "k": 3,
                                "x": 0.10000000000000001, "f": False}


def test_canonical_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_dumps({"x": object()})
    with pytest.raises(TypeError):
        canonical_dumps({1: "non-string key"})


def test_written_files_are_byte_identical(tmp_path):
    payload = {"gamma": np.array([[0.5, 0.5], [0.5, 0.5]]), "seed": 42}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, payload)
    write_json(b, {"seed": 42, "gamma": [[0.5, 0.5], [0.5, 0.5]]})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["t", "x"], [(0.0, 1.0), (0.5, 0.25)])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x"
    assert lines[1] == "0,1"
    assert lines[2] == "0.5,0.25"


# Finite floats with the edge cases drawn often: signed zero, the smallest
# subnormal, the extremes and integral values.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# Text drawn often from what a JSON string must escape: quotes, backslashes,
# control characters, and non-ASCII up to a lone surrogate and beyond the BMP.
TEXT = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u0393", "\u2028", "\ud800",
     "\U0001d6aa"]), max_size=4)
SCALARS = (FINITE | st.integers() | st.booleans() | st.none()
           | FINITE.map(np.float64) | TEXT)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _rows(elements):
    return st.lists(elements, max_size=12) | st.lists(elements, max_size=12).map(tuple)


@given(st.one_of(_rows(FINITE), _rows(SCALARS), st.lists(_rows(FINITE), max_size=5),
                 st.dictionaries(TEXT, _rows(SCALARS), max_size=3)))
def test_canonical_dumps_matches_per_element_reference(obj):
    assert canonical_dumps(obj) == reference_dumps(obj)


@given(st.lists(FINITE, max_size=12) | st.lists(SCALARS, max_size=12),
       NON_FINITE | NON_FINITE.map(np.float64), st.integers(min_value=0),
       st.booleans())
def test_canonical_dumps_non_finite_raises_as_reference(row, bad, at, as_tuple):
    row.insert(at % (len(row) + 1), bad)
    obj = {"rows": [[0.5], tuple(row) if as_tuple else row]}
    with pytest.raises(ValueError) as ours:
        canonical_dumps(obj)
    with pytest.raises(ValueError) as ref:
        reference_dumps(obj)
    assert str(ours.value) == str(ref.value)


TABLES = hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                            max_side=8),
                    elements=FINITE)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(TABLES, st.booleans())
def test_write_csv_matches_per_element_reference(tmp_path, table, as_lists):
    path = tmp_path / "t.csv"
    header = [f"c{j}" for j in range(table.shape[1])]
    write_csv(path, header, table.tolist() if as_lists else table)
    assert path.read_text() == reference_csv(header, table)


def test_write_csv_across_chunks_matches_per_element_reference(tmp_path):
    """A long table, through many kernel chunks and a partial last one."""
    rng = np.random.default_rng(14)
    table = rng.normal(size=(2 * (1 << 14) + 3, 3))
    path = tmp_path / "long.csv"
    write_csv(path, ["t", "x", "y"], table)
    assert path.read_text() == reference_csv(["t", "x", "y"], table)


@st.composite
def _kernel_tables(draw):
    """A table of at least CSV_KERNEL_MIN_VALUES values, so that write_csv
    takes the kernel, over one to three chunks: random 64-bit patterns
    (non-finite ones replaced), random digits at decimal exponents around the
    fixed range, or both, with up to 40 values drawn from FINITE put in."""
    width = draw(st.integers(min_value=1, max_value=9))
    size = draw(st.integers(min_value=CSV_KERNEL_MIN_VALUES,
                            max_value=2 * CSV_CHUNK_VALUES + 3 * width))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32)))
    size -= size % width
    bits = rng.integers(0, 2 ** 64, size=size, dtype=np.uint64).view(np.float64)
    bits = np.where(np.isfinite(bits), bits, 0.5)
    scaled = rng.uniform(-10, 10, size) * 10.0 ** rng.integers(-8, 19, size)
    table = draw(st.sampled_from([bits, scaled, np.where(rng.random(size) < 0.5,
                                                         bits, scaled)]))
    for value in draw(st.lists(FINITE, max_size=40)):
        table[draw(st.integers(min_value=0, max_value=size - 1))] = value
    return table.reshape(-1, width)


def _assert_csv_as_reference(tmp_path, table):
    path = tmp_path / "k.csv"
    header = [f"c{j}" for j in range(table.shape[1])]
    write_csv(path, header, table)
    assert path.read_bytes() == reference_csv(header, table).encode()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None)
@given(_kernel_tables())
def test_write_csv_kernel_matches_per_element_reference(tmp_path, table):
    _assert_csv_as_reference(tmp_path, table)


def _ties():
    """Dyadic q / 2**(s + 1), q odd, whose exact decimal expansion has 18
    significant digits ending in 5: %.17g must round each half to even.  The
    first q of each scale and the next two odd ones alternate the parity of
    the 17-digit neighbours."""
    from fractions import Fraction
    ties = []
    for s in range(1, 23):
        q = math.ceil(10 ** (16 - s) * 2 ** (s + 1)) | 1
        for odd in (q, q + 2, q + 4):
            x = odd / 2 ** (s + 1)
            assert Fraction(x) * 10 ** s % 1 == Fraction(1, 2)
            ties.append(x)
    return ties


def _kernel_edges():
    edges = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, 1.0, 0.5, 0.1, 9.5, 99.5, 1e-7, 1e18]
    for k in range(-7, 19):  # each side of every power of ten, 1e-6 and 1e17 too
        p = float(f"1e{k}")
        edges += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    for k in range(53, 58):
        p = 2.0 ** k
        edges += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    ties = _ties()
    edges += ties + [np.nextafter(x, math.inf) for x in ties]
    return np.array(edges + [-x for x in edges])


@pytest.mark.parametrize("width", [1, 3, 7])
def test_write_csv_kernel_edge_values(tmp_path, width):
    """Signed zeros, subnormals, the extremes, neighbours of the powers of ten
    that bound the kernel's range and of the powers of two around 2**53, and
    exact decimal ties, each at every column."""
    edges = _kernel_edges()
    table = np.concatenate([np.roll(edges, j) for j in range(width)])
    reps = -(-CSV_KERNEL_MIN_VALUES // len(table))
    table = np.tile(table, reps)
    _assert_csv_as_reference(tmp_path, table[:len(table) - len(table) % width]
                             .reshape(-1, width))


@pytest.mark.parametrize("width", [1, 3, 7])
def test_write_csv_kernel_values_out_of_range_at_chunk_boundaries(tmp_path, width):
    """Values formatted on their own, and zeros, at the first and last place
    of each chunk, in a last chunk of one row."""
    rows = CSV_CHUNK_VALUES // width
    table = np.random.default_rng(width).normal(size=(2 * rows + 1, width))
    for at in (rows - 1, rows, 2 * rows - 1, 2 * rows):
        table[at, 0], table[at, -1] = -1e-300, 2.5e17
    table[rows - 2, -1], table[rows + 1, 0] = -0.0, 0.0
    _assert_csv_as_reference(tmp_path, table)


def test_write_csv_keeps_small_tables_on_the_template(tmp_path, monkeypatch):
    """Below CSV_KERNEL_MIN_VALUES the kernel is not called; from it on it is."""
    import indivisible.serialize as ser
    calls = []
    kernel = ser._csv_fields
    monkeypatch.setattr(ser, "_csv_fields",
                        lambda values, ends: calls.append(len(values))
                        or kernel(values, ends))
    for size in (CSV_KERNEL_MIN_VALUES - 1, CSV_KERNEL_MIN_VALUES):
        _assert_csv_as_reference(tmp_path, np.linspace(0.1, 1.0, size)[:, None])
    assert calls == [CSV_KERNEL_MIN_VALUES]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(TABLES.filter(lambda a: a.size), NON_FINITE, st.integers(min_value=0))
def test_write_csv_non_finite_raises_as_reference(tmp_path, table, bad, at):
    table.flat[at % table.size] = bad
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError) as ours:
        write_csv(path, ["x"] * table.shape[1], table)
    with pytest.raises(ValueError) as ref:
        reference_csv(["x"] * table.shape[1], table)
    assert str(ours.value) == str(ref.value)
    assert not path.exists()


# Arrays take their own bulk path: exact zeros drawn often, since they are
# written as literals and the other entries as %.17g fields.
ZEROED = FINITE | st.sampled_from([0.0, -0.0])
NONZERO = FINITE.filter(lambda x: x != 0.0)
SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=8)


def _assert_dumps_as_reference(arr):
    assert canonical_dumps(arr) == reference_dumps(arr.tolist())


@given(hnp.arrays(np.float64, SHAPES, elements=ZEROED)
       | hnp.arrays(np.float64, SHAPES, elements=NONZERO))
def test_canonical_dumps_array_matches_per_element_reference(arr):
    _assert_dumps_as_reference(arr)
    assert canonical_dumps({"a": [arr]}) == reference_dumps({"a": [arr.tolist()]})


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                               max_side=8), elements=ZEROED),
       st.data())
def test_canonical_dumps_array_views_match_reference(re, data):
    im = data.draw(hnp.arrays(np.float64, re.shape, elements=ZEROED))
    z = np.empty(re.shape, complex)
    z.real, z.imag = re, im  # keeps every sign of zero
    for view in (z.real, z.imag, re.T, re[::2, ::-1], im[:, ::3], z.real[0]):
        _assert_dumps_as_reference(view)


@st.composite
def _patterned(draw):
    """A 2-D array whose rows follow at most 3 zero patterns: per entry, a
    finite value, 0.0 or -0.0, as dilation blocks and Kraus stacks have."""
    width = draw(st.integers(min_value=1, max_value=8))
    patterns = draw(st.lists(st.lists(st.sampled_from([0, 1, 2]), min_size=width,
                                      max_size=width), min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(patterns), min_size=1, max_size=10))
    codes = np.array(rows)
    values = draw(hnp.arrays(np.float64, codes.shape, elements=NONZERO))
    return np.where(codes == 1, 0.0, np.where(codes == 2, -0.0, values))


@given(_patterned(), _patterned())
def test_canonical_dumps_rows_sharing_a_pattern_match_reference(arr, other):
    other = np.resize(other, arr.shape)
    z = np.empty(arr.shape, complex)
    z.real, z.imag = arr, other
    flipped = np.ascontiguousarray(arr.T).T  # arr, as a transposed view
    for view in (arr, arr[0], arr[:, 0], z.real, z.imag, z.imag[-1], flipped,
                 arr.T):
        _assert_dumps_as_reference(view)


@given(hnp.arrays(np.float64, SHAPES, elements=ZEROED), NON_FINITE,
       st.integers(min_value=0))
def test_canonical_dumps_array_non_finite_raises_as_reference(arr, bad, at):
    arr.flat[at % arr.size] = bad
    with pytest.raises(ValueError) as ours:
        canonical_dumps(arr)
    with pytest.raises(ValueError) as ref:
        reference_dumps(arr.tolist())
    assert str(ours.value) == str(ref.value)


ANY_SHAPE = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


@given(hnp.arrays(np.float32, ANY_SHAPE, elements=st.floats(
                      width=32, allow_nan=False, allow_infinity=False))
       | hnp.arrays(np.int64, ANY_SHAPE) | hnp.arrays(np.bool_, ANY_SHAPE)
       | hnp.arrays(np.float64, st.just(()) | hnp.array_shapes(
                    min_dims=3, max_dims=3, min_side=1, max_side=3), elements=ZEROED)
       | hnp.arrays(np.float64, st.sampled_from([(0,), (0, 3), (3, 0), (2, 0, 2)])))
def test_canonical_dumps_other_arrays_take_the_per_item_path(arr):
    _assert_dumps_as_reference(arr)


def test_load_json_reports_problems(tmp_path):
    with pytest.raises(InputFormatError) as err:
        load_json(tmp_path / "missing.json")
    assert err.value.field == "<file>"
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InputFormatError):
        load_json(bad)


def test_load_json_names_the_path_and_the_reason(tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"law": "caf\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path, reason in ((latin, "can't decode byte 0xe9"),
                         (deep, "maximum recursion depth")):
        with pytest.raises(InputFormatError) as err:
            load_json(path)
        assert err.value.field == "<file>"
        assert str(path) in err.value.reason and reason in err.value.reason


def test_parse_real_matrix_errors_carry_dotted_paths():
    with pytest.raises(InputFormatError) as err:
        parse_real_matrix([[1.0, "x"]], "matrix")
    assert err.value.field == "matrix[0][1]"
    with pytest.raises(InputFormatError) as err:
        parse_real_matrix([[1.0, 2.0], [3.0]], "matrix")
    assert err.value.field == "matrix[1]"
    with pytest.raises(InputFormatError):
        parse_real_matrix([[1.0, 2.0]], "matrix")  # not square
    # a non-number inside an otherwise numeric row
    for row, j, value in [(0, 1, True), (1, 0, None), (1, 1, [4.0])]:
        bad = [[1.0, 2.0], [3.0, 4.0]]
        bad[row][j] = value
        with pytest.raises(InputFormatError) as err:
            parse_real_matrix(bad, "matrix")
        assert err.value.field == f"matrix[{row}][{j}]"
        assert err.value.reason == f"expected a number, got {value!r}"


def test_parse_complex_matrix_round_trips_payload():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    text = canonical_dumps(complex_matrix_payload(m))
    parsed = parse_complex_matrix(json.loads(text), "u")
    np.testing.assert_allclose(parsed, m, atol=0.0)
    with pytest.raises(InputFormatError) as err:
        parse_complex_matrix({"re": [[0.0]]}, "u")
    assert err.value.field == "u.im"


def test_parse_hermitian_requires_n_and_symmetry():
    payload = {"n": 2, "re": [[0.0, 1.0], [1.0, 0.0]],
               "im": [[0.0, 0.0], [0.0, 0.0]]}
    h = parse_hermitian(payload)
    assert h.n == 2
    with pytest.raises(InputFormatError) as err:
        parse_hermitian({"re": [[0.0]], "im": [[0.0]]})
    assert err.value.field == "<root>.n"


def test_parse_vector_length_check():
    with pytest.raises(InputFormatError):
        parse_vector([1.0, 0.0], "initial", 3)


def test_parse_process_full_round_trip():
    payload = {
        "n": 2,
        "targets": [0.0, 1.0],
        "conditioning": [0.0],
        "transitions": [
            {"t": 1.0, "t0": 0.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        ],
        "initial": [0.5, 0.5],
    }
    proc = parse_process(payload)
    assert proc.n == 2
    assert proc.transition(1.0, 0.0).t == 1.0
    missing = dict(payload)
    del missing["initial"]
    with pytest.raises(InputFormatError) as err:
        parse_process(missing)
    assert err.value.field == "<root>.initial"
    broken = dict(payload)
    broken["transitions"] = [{"t": 1.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]
    with pytest.raises(InputFormatError) as err:
        parse_process(broken)
    assert err.value.field == "<root>.transitions[0].t0"
    repeated = dict(payload)
    repeated["transitions"] = payload["transitions"] + [
        {"t": 1.0, "t0": 0.0, "matrix": [[0.0, 1.0], [1.0, 0.0]]}]
    with pytest.raises(InputFormatError) as err:
        parse_process(repeated)
    assert err.value.field == "<root>.transitions[1]"
    assert err.value.reason == "repeats the (t, t0) of transitions[0]"
