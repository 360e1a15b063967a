"""The block read of numeric CSVs against the csv-module path it falls back to.

``dbicc.cli._bulk_table`` reads a plain vector CSV, distance matrix or
series file in blocks of lines, one ``np.loadtxt`` call each, and returns
None for anything it cannot prove it reads as ``csv.reader`` and
``float`` do; the loader then takes the csv path, which reports every
error with its location.  Forcing that path must never change a result,
an exit code or a message, whatever the block size.
"""

import contextlib
import csv
import io
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbicc.cli
import dbicc.core
import dbicc.distances
from dbicc.cli import main


def _no_bulk(*args, **kwargs):
    return None


@contextlib.contextmanager
def _csv_path_only(forced):
    if forced:
        with mock.patch.object(dbicc.cli, "_bulk_table", _no_bulk):
            yield
    else:
        yield


@contextlib.contextmanager
def _field_size_limit(limit):
    old = csv.field_size_limit()
    csv.field_size_limit(limit or old)
    try:
        yield
    finally:
        csv.field_size_limit(old)


@contextlib.contextmanager
def _block_budget(chars):
    """Reads of ``chars`` characters (None: the default chunk budget)."""
    if chars is None:
        yield
    else:
        with mock.patch.object(dbicc.distances, "_CHUNK_BYTES", chars):
            yield


def _outcome(load, path):
    try:
        return "ok", load(path)
    except Exception as exc:  # every loader error is compared, type and text
        return type(exc).__name__, str(exc)


def _through_main(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    text = out.read_bytes() if code == 0 else None
    return code, err.getvalue(), text


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-1e-307, max_value=1e-307).map(repr),  # subnormals
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.sampled_from(["-0", "+.5", "1.", " 2.5 ", "\t3", "\xa04", "1E5",
                     "4.9406564584124654e-324", "1e-400"]),
)
# Flaws, one per generated file: spellings that float() and np.loadtxt
# read differently or that one or both reject, the characters that decide
# how csv.reader splits a line, line breaks of str.splitlines that are
# none to csv.reader, and malformed rows and labels.
_ODD_CELLS = [
    "1_0", "\u0661\u0662", "\uff11", "nan", "-inf", "1e400", "\x1c6", "7\x1f", "",
    " ", "x", "0x10", '"8"', '"9,1"', '""', "1#2", "\x0b", "\u2028", "5\x85",
]
_ODD_LABELS = ['"s,1"', '"a"', "x\x00", "\x1c", "b\x1f"]
_FLAWS = [
    None, ("ragged row",), ("ragged header",), ("duplicate",), ("one individual",),
    *(("cell", cell) for cell in _ODD_CELLS),
    *(("label", label) for label in _ODD_LABELS),
    *(("character", c) for c in '"\r\x00\x1c'),
    *(("line break", c) for c in "\x0b\x0c\x85\u2028\u2029"),
]


@st.composite
def _vector_csvs(draw, flaw):
    """Bytes of a plain vector CSV, with ``flaw`` (from ``_FLAWS``) if given."""
    kind, *odd = flaw or [None]
    width = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["a", "b", "c d", " a", "\xe9", "0"]),
                          min_size=2, max_size=3, unique=True))
    if kind == "one individual":
        names = names[:1]
    cells = st.lists(_NUMBERS, min_size=width, max_size=width)
    rows = [
        [name, rep, *draw(cells)]
        for name in names
        for rep in draw(st.sampled_from([["1"], ["0", "1"], ["2", "01", "0"], ["r", "s"]]))
    ]
    rows = draw(st.permutations(rows))
    header = ["individual", "replicate", *(f"f{k}" for k in range(width))]
    if draw(st.integers(0, 9)) == 0:
        header[0] = " individual "  # padded, as the header check allows
    k = draw(st.integers(0, len(rows) - 1))
    if kind == "cell":
        rows[k][draw(st.integers(2, width + 1))] = odd[0]
    elif kind == "label":
        rows[k][0] = odd[0]
    elif kind == "ragged row":
        rows[k] = rows[k][:-1] if draw(st.booleans()) else [*rows[k], "0"]
    elif kind == "ragged header":
        header = header[:-1] if draw(st.booleans()) else [*header, "g"]
    elif kind == "duplicate":
        rows.append([*rows[k][:2], *draw(cells)])
    lines = [",".join(header), *(",".join(row) for row in rows)]
    if kind == "line break":  # joins two lines for csv.reader
        at = draw(st.integers(1, len(lines) - 1))
        lines[at - 1: at + 1] = [lines[at - 1] + odd[0] + lines[at]]
    for _ in range(draw(st.integers(0, 2))):  # blank lines
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline  # else no final line end
    if kind == "character":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + odd[0] + text[at:]
    bom = "\ufeff" if draw(st.integers(0, 4)) == 0 else ""
    return (bom + text).encode("utf-8")


def _both_paths(content, limit=None, budget=None):
    """Sample or error, and ``main()``'s run, from the bulk read and the csv path."""
    with tempfile.TemporaryDirectory() as tmp, _field_size_limit(limit), \
            _block_budget(budget):
        path = Path(tmp) / "v.csv"
        path.write_bytes(content)
        results = []
        for forced in (False, True):
            with _csv_path_only(forced):
                kind, sample = _outcome(dbicc.cli._load_vector_csv, str(path))
                run = _through_main(["estimate", str(path), "--format", "vectors"],
                                    Path(tmp) / f"out{forced}.json")
            if kind == "ok":
                sample = (sample.values.shape, sample.values.tobytes(),
                          sample.labels, sample.group_sizes.tolist())
            results.append((kind, sample, run))
    return results


# Read sizes, in characters, that the block-read tests patch in
_BUDGETS = [1, 2, 7, 64]
_ROWS = [f"s{i},{j},{i + j / 10}" for i in range(10) for j in range(2)]


def _edge_header(budget):
    """A vector CSV header whose line end is the last character of a read."""
    head = "individual,replicate,f"
    return head + "0" * (-(len(head) + 1) % budget)


def _last_row(text, limit=None):
    """``_ROWS`` with its last line replaced, so a flaw sits in the last block."""
    def case(budget):
        lines = ["individual,replicate,f0", *_ROWS[:-1], text]
        return "\n".join(lines) + "\n", limit
    return case


# Files that put a line end, a header or a fallback trigger at a block edge;
# each is a function of the read size.
_EDGE_CASES = {
    "bom": lambda b: ("\ufeff" + "\n".join([_edge_header(b), *_ROWS]) + "\n", None),
    "crlf across a read": lambda b: ("\r\n".join([_edge_header(b), *_ROWS]) + "\r\n", None),
    "header longer than a read": lambda b: (
        "\n".join(["individual,replicate," + "f" * 3 * b, *_ROWS]) + "\n", None),
    "no final line end": lambda b: ("\n".join([_edge_header(b), *_ROWS]), None),
    "blank lines at a read's start": lambda b: (
        _edge_header(b) + "\n\n\n" + "\n\n".join(_ROWS) + "\n\n", None),
    "last block: quote": _last_row('s9,1,"1.5"'),
    "last block: NUL": _last_row("s9,1,1\x00"),
    "last block: \\x1c": _last_row("s9,1,\x1c1"),
    "last block: lone \\r": _last_row("s9,1,1\r2"),
    "last block: empty cell": _last_row("s9,1,"),
    "last block: ragged row": _last_row("s9,1,1,2"),
    "last block: bad number": _last_row("s9,1,x"),
    "last block: field over the limit": _last_row("s9,1," + "1" * 25, 20),
    "last block: long number, no limit": _last_row("s9,1," + "1" * 25),
}


class TestBulkReadMatchesCsvPath:
    @pytest.mark.parametrize("flaw", _FLAWS, ids=repr)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), limit=st.sampled_from([None, None, None, 20]))
    def test_vector_csv(self, flaw, data, limit):
        bulk, csv_path = _both_paths(data.draw(_vector_csvs(flaw)), limit)
        assert bulk == csv_path

    # the same files read a few characters at a time: every line end, \r\n
    # and header meets a block edge somewhere
    @pytest.mark.parametrize("flaw", _FLAWS, ids=repr)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), limit=st.sampled_from([None, None, None, 20]),
           budget=st.sampled_from(_BUDGETS))
    def test_vector_csv_in_small_blocks(self, flaw, data, limit, budget):
        bulk, csv_path = _both_paths(data.draw(_vector_csvs(flaw)), limit, budget)
        assert bulk == csv_path

    # files each of the bulk read's own checks must send to the csv path
    @pytest.mark.parametrize(
        "content",
        [
            b"individual,replicate,f1\na,0,1\na,1\nb,0,3\nb,1,4\n",  # short row
            b"individual,replicate,f1\na,0,1\na,1,2,5\nb,0,3\nb,1,4\n",  # long row
            b"individual,replicate,f1,f2\na,0,1\na,1,2\nb,0,3\nb,1,4\n",  # wide header
            b"individual,replicate,f1\na,0,\na,1,2\nb,0,3\nb,1,4\n",  # empty cell
            b"individual,replicate,f1\r\na,0,1\r\na,1,2\r\nb,0,3\r\nb,1,4\r\n",
            b"individual,replicate,f1\r\na,0,1\ra,1,2\r\nb,0,3\r\nb,1,4\r\n",
            b"individual,replicate,f1\r\na,0,1\r\r\na,1,2\r\nb,0,3\r\nb,1,4",
            b"individual,replicate,f1\na,0,1\r2\na,1,2\nb,0,3\nb,1,4\n",
            b"individual,replicate,f1\na\r,0,1\na,1,2\nb,0,3\nb,1,4\n",
        ],
    )
    @pytest.mark.parametrize("budget", [None, *_BUDGETS])
    def test_vector_csv_case(self, content, budget):
        bulk, csv_path = _both_paths(content, budget=budget)
        assert bulk == csv_path

    @pytest.mark.parametrize("budget", _BUDGETS)
    @pytest.mark.parametrize("case", sorted(_EDGE_CASES))
    def test_block_edge(self, case, budget):
        text, limit = _EDGE_CASES[case](budget)
        content = text.encode("utf-8")
        bulk, csv_path = _both_paths(content, limit, budget)
        assert bulk == csv_path
        # the case reaches what it names: the edge, or the trigger in a later block
        if case == "crlf across a read":
            assert text.index("\r\n") % budget == budget - 1
        if case == "blank lines at a read's start":
            assert text.index("\n\n") % budget == budget - 1
        if case.startswith("last block:"):
            assert text.rstrip("\n").rindex("\n") + 1 >= 2 * budget
        with tempfile.TemporaryDirectory() as tmp, _field_size_limit(limit), \
                _block_budget(budget):
            path = Path(tmp) / "v.csv"
            path.write_bytes(content)
            table = dbicc.cli._bulk_table(str(path), 2)
        plain = not case.startswith("last block:") or case.endswith("no limit")
        assert (table is not None) == plain
        if plain:
            assert table[2].shape == (20, 1)


# Flaws of a distance-matrix CSV, one per generated file
_MATRIX_CELLS = ["nan", "inf", "-inf", "1_0", '"1"', '"1,2"', '""', "", " ", "x",
                 "\x1c6", "1e400", "-0", "\u0661"]
_MATRIX_FLAWS = [
    None, ("narrow",), ("tall",), ("ragged row",),
    *(("cell", cell) for cell in _MATRIX_CELLS),
    *(("character", c) for c in '"\r\x00\x1c'),
    *(("line break", c) for c in "\x0b\x0c\x85\u2028"),
]


# Cells of a plain headerless table: nonnegative, so that they fit a distance matrix
_TABLE_CELLS = st.one_of(
    st.floats(0, 1e3).map(repr),
    st.floats(0, 1e3).map(lambda v: format(v, ".17g")),
    st.sampled_from(["+.5", "1.", " 2.5 ", "\t3", "\xa04", "1E5", "0",
                     "4.9406564584124654e-324", "1e-400"]),
)


@st.composite
def _distance_csvs(draw, flaw):
    """``(bytes, n)``: a plain n-by-n distance-matrix CSV, with ``flaw`` if given."""
    kind = (flaw or [None])[0]
    n = draw(st.integers(1, 6))
    upper = {(i, j): draw(_TABLE_CELLS) for i in range(n) for j in range(i + 1, n)}
    rows = [["0" if i == j else upper[min(i, j), max(i, j)] for j in range(n)]
            for i in range(n)]
    if kind == "narrow":  # n rows of n - 1 fields, or of n + 1
        rows = [row[:-1] if draw(st.booleans()) else [*row, "0"] for row in rows[:1]] * n
    elif kind == "tall":
        rows.append(rows[draw(st.integers(0, n - 1))])
    return _headerless_csv(draw, rows, flaw), n


def _headerless_csv(draw, rows, flaw):
    """Bytes of the cell ``rows``, with a row, cell, character or line-break ``flaw``."""
    kind, *odd = flaw or [None]
    k = draw(st.integers(0, len(rows) - 1))
    if kind == "ragged row":
        rows[k] = rows[k][:-1] if draw(st.booleans()) else [*rows[k], "0"]
    elif kind == "cell":
        rows[k][draw(st.integers(0, len(rows[k]) - 1))] = odd[0]
    lines = [",".join(row) for row in rows]
    if kind == "line break" and len(lines) > 1:  # joins two lines for csv.reader
        at = draw(st.integers(1, len(lines) - 1))
        lines[at - 1: at + 1] = [lines[at - 1] + odd[0] + lines[at]]
    for _ in range(draw(st.integers(0, 2))):  # blank lines, the first line too
        lines.insert(draw(st.integers(0, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    if kind == "character":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + odd[0] + text[at:]
    bom = "\ufeff" if draw(st.integers(0, 4)) == 0 else ""
    return (bom + text).encode("utf-8")


def _groups_csv(n):
    """Rows 0..n-1 as individuals of two replicates each."""
    return "row,individual,replicate\n" + "".join(
        f"{k},p{k // 2},{k % 2}\n" for k in range(n))


def _both_matrix_paths(content, n, budget=None):
    """Matrix or error, and ``main()``'s bootstrap, by the block read and the csv path."""
    with tempfile.TemporaryDirectory() as tmp, _block_budget(budget):
        path, groups = Path(tmp) / "dm.csv", Path(tmp) / "g.csv"
        path.write_bytes(content)
        groups.write_text(_groups_csv(n), encoding="utf-8")
        results = []
        for forced in (False, True):
            with _csv_path_only(forced):
                kind, dm = _outcome(
                    lambda p: dbicc.cli._load_distance_input(p, str(groups)), str(path))
                run = _through_main(
                    ["bootstrap", str(path), "--groups", str(groups), "--boot", "20",
                     "--seed", "1"], Path(tmp) / f"out{forced}.json")
            if kind == "ok":
                dm = (dm.values.shape, dm.values.tobytes(), dm.labels,
                      dm.group_sizes.tolist())
            results.append((kind, dm, run))
    return results


class TestMatrixBlockReadMatchesCsvPath:
    @pytest.mark.parametrize("flaw", _MATRIX_FLAWS, ids=repr)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), budget=st.sampled_from([None, None, *_BUDGETS]))
    def test_distance_csv(self, flaw, data, budget):
        content, n = data.draw(_distance_csvs(flaw))
        bulk, csv_path = _both_matrix_paths(content, n, budget)
        assert bulk == csv_path

    @pytest.mark.parametrize("budget", [None, *_BUDGETS])
    @pytest.mark.parametrize(
        "content, n, plain",
        [
            (b"0,1\n1,0\n", 2, True),
            (b"0,1,2\n1,0,3\n", 2, False),  # wider than tall
            (b"0,1,2\n1,0,3\n", 3, False),
            (b"0,1\n1,0\n2,3\n", 3, False),  # taller than wide
            (b"0,1\n1,0\n2,3\n", 2, False),
            (b"0,1,2,3\n1,0,3,4\n2,3,0,5\n3,4,5,0\n", 4, True),
            (b"0,1,2,3\n1,0,3\n2,3,0,5\n3,4,5,0\n", 4, False),  # ragged
            (b"0,1,2,3\n1,0,3,4,5\n2,3,0,5\n3,4,5,0\n", 4, False),
            (b"\n0,1\n\n\n1,0\n\n", 2, True),  # blank lines
            (b"\xef\xbb\xbf0,1\r\n1,0\r\n", 2, True),  # BOM and CRLF
            (b"\xef\xbb\xbf0,1\r\n\r\n1,0", 2, True),
            (b"0,nan\nnan,0\n", 2, True),
            (b"0,inf\ninf,0\n", 2, True),
            (b"0,1_0\n1_0,0\n", 2, False),
            (b'0,"1"\n"1",0\n', 2, False),  # quoted cells
            (b'"0","1"\n"1","0"\n', 2, False),
            (b'0,"1,2"\n1,0\n', 2, False),
            (b"\n\n", 2, False),  # no data rows
            (b"", 2, False),
        ],
    )
    def test_distance_csv_case(self, content, n, plain, budget):
        bulk, csv_path = _both_matrix_paths(content, n, budget)
        assert bulk == csv_path
        with tempfile.TemporaryDirectory() as tmp, _block_budget(budget):
            path = Path(tmp) / "dm.csv"
            path.write_bytes(content)
            table = dbicc.cli._bulk_table(str(path), 0)
        square = table is not None and table[2].shape[0] == table[2].shape[1]
        assert square == plain


# Flaws of a series file, one per generated file: the vector CSV's odd cells
# among them
_SERIES_FLAWS = [
    None, ("ragged row",),
    *(("cell", cell) for cell in _ODD_CELLS),
    *(("character", c) for c in '"\r\x00\x1c'),
    *(("line break", c) for c in "\x0b\x0c\x85\u2028"),
]


@st.composite
def _series_csvs(draw, flaw):
    """``(bytes, shape)``: a plain series CSV of ``shape``, with ``flaw`` if given."""
    shape = (draw(st.integers(3, 6)), draw(st.integers(3, 4)))
    rows = [[draw(_TABLE_CELLS) for _ in range(shape[1])] for _ in range(shape[0])]
    return _headerless_csv(draw, rows, flaw), shape


def _both_series_paths(folder, content, shape, budget=None):
    """Sample or error, and ``main()``'s estimate, by the block read and the csv path.

    The manifest in ``folder`` lists four series: three random ones of
    ``shape``, then ``content`` as ``bad.csv``.
    """
    rng = np.random.default_rng(5)
    for k in range(3):
        np.savetxt(folder / f"s{k}.csv", rng.standard_normal(shape), delimiter=",")
    (folder / "bad.csv").write_bytes(content)
    manifest = folder / "m.csv"
    manifest.write_text("individual,replicate,path\n"
                        "a,0,s0.csv\na,1,s1.csv\nb,0,s2.csv\nb,1,bad.csv\n")
    results = []
    with _block_budget(budget):
        for forced in (False, True):
            with _csv_path_only(forced):
                kind, sample = _outcome(dbicc.cli._load_timeseries_manifest, str(manifest))
                run = _through_main(["estimate", str(manifest), "--distance", "corr"],
                                    folder / f"out{forced}.json")
            if kind == "ok":
                sample = (sample.values.shape, sample.values.tobytes(), sample.labels,
                          sample.group_sizes.tolist())
            results.append((kind, sample, run))
    return results


_SERIES = ["0.5,1.5,-2", "1,-0.25,3", "2.5,0.75,-1", "-1,2,0.5"]


def _series_text(cell=None):
    """``_SERIES`` as a file, the second cell of its second line replaced by ``cell``."""
    lines = list(_SERIES)
    if cell is not None:
        cells = lines[1].split(",")
        cells[1] = cell
        lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestSeriesBlockReadMatchesCsvPath:
    """Series files, read through a manifest, by the one reader of headerless tables."""

    @pytest.mark.parametrize("flaw", _SERIES_FLAWS, ids=repr)
    @settings(max_examples=6, deadline=None)
    @given(data=st.data(), budget=st.sampled_from([None, None, *_BUDGETS]))
    def test_series_csv(self, flaw, data, budget):
        content, shape = data.draw(_series_csvs(flaw))
        # read in this process: test_series_case reads in forked children
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(dbicc.cli, "fork_workers", lambda paths: 1):
            bulk, csv_path = _both_series_paths(Path(tmp), content, shape, budget)
        assert bulk == csv_path

    @pytest.mark.parametrize(
        "text, want, plain",
        [
            (_series_text(), -0.25, True),
            (_series_text("1_0"), 10.0, False),
            (_series_text("\u0661\u0662"), 12.0, False),
            (_series_text("\uff11"), 1.0, False),
            (_series_text('"8"'), 8.0, False),
            (_series_text("\x1c6"), ":2:2: expected a number, got '\\x1c6'", False),
            (_series_text("1#2"), ":2:2: expected a number, got '1#2'", False),
            ("# c\n" + _series_text(), ":1:1: expected a number, got '# c'", False),
            (_series_text().replace("3\n", "3 # end\n"),
             ":2:3: expected a number, got '3 # end'", False),
            (_series_text().replace("\n", "\n \n", 1), ":2: expected 3 fields, got 1", False),
            (_series_text('""'), ":2:2: expected a number, got ''", False),
            (_series_text('"9,1"'), ":2:2: expected a number, got '9,1'", False),
            ("", ": file is empty", False),
        ],
        ids=["plain", "1_0", "arabic-indic digits", "fullwidth digit", "quoted",
             "\\x1c", "1#2", "comment line", "trailing comment", "white space line",
             "empty quoted", "quoted comma", "empty file"],
    )
    def test_series_case(self, tmp_path, text, want, plain):
        # one grammar: what float() reads is read, and every other cell, "#"
        # or white-space-only line is a located error
        bulk, csv_path = _both_series_paths(tmp_path, text.encode("utf-8"), (4, 3))
        assert bulk == csv_path
        kind, sample, (code, err, _) = bulk
        if isinstance(want, float):
            assert (kind, code, err) == ("ok", 0, "")
            shape, values, *_ = sample
            assert np.frombuffer(values).reshape(shape)[3, 1, 1] == want
        else:
            message = f"{tmp_path / 'bad.csv'}{want} (listed at {tmp_path / 'm.csv'}:5)"
            assert (kind, code, err) == ("_ParseFailure", 2, f"input error: {message}\n")
            assert sample == message
        assert (dbicc.cli._bulk_table(str(tmp_path / "bad.csv"), 0) is not None) == plain


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_workload_sized_vector_csv_takes_the_bulk_read(tmp_path, monkeypatch, newline):
    # 3000 individuals, 3 replicates, 20 features, written as the benchmark does
    rng = np.random.default_rng(7)
    obs = rng.standard_normal((3000, 3, 20))
    lines = ["individual,replicate," + ",".join(f"f{k}" for k in range(20))]
    lines += [
        f"s{i:05d},{j}," + ",".join(format(v, ".17g") for v in obs[i, j])
        for i in range(3000)
        for j in range(3)
    ]
    src = tmp_path / "vectors.csv"
    src.write_bytes((newline.join(lines) + newline).encode("utf-8"))

    def fail(path):
        raise AssertionError("fell back to the csv path")

    monkeypatch.setattr(dbicc.cli, "_parse_vector_csv", fail)
    monkeypatch.setattr(dbicc.cli, "_read_csv_rows", fail)
    # only the labels and one block's floats live past their block: the
    # whole-file read held the text, its lines, labels and cells at once (9.2 MiB)
    tracemalloc.start()
    try:
        sample = dbicc.cli._load_vector_csv(str(src))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert sample.labels == tuple(f"s{i:05d}" for i in range(3000))
    assert sample.group_sizes.tolist() == [3] * 3000
    assert sample.values.tobytes() == obs.reshape(9000, 20).tobytes()


def _reference_order(individuals, keys):
    """Rows by individual (first appearance), then by key, ties in row order."""
    members = {}
    for row, individual in enumerate(individuals):
        members.setdefault(individual, []).append(row)
    order = [row for rows in members.values()
             for row in sorted(rows, key=keys.__getitem__)]
    return order, [len(rows) for rows in members.values()], tuple(members)


_LABEL_KEYS = st.sampled_from(["1", "01", " 1", "+1", "١", "2", "10", "-1",
                               "r", "R", "", "s 1"]).map(dbicc.cli._replicate_sort_key)


class TestGroupOrder:
    """``core._group_order``, the one row order of every labelled input."""

    @settings(max_examples=300, deadline=None)
    @given(individuals=st.lists(st.sampled_from(["a", "b", "c", " a", "0"]),
                                min_size=1, max_size=12),
           data=st.data())
    def test_matches_the_reference_and_flags_repeats(self, individuals, data):
        # replicate labels' keys as the csv readers make them, or raw integer
        # ids as build_grouped_sample takes them; both tie often
        key = data.draw(st.sampled_from([_LABEL_KEYS, st.integers(-2, 3)]))
        n = len(individuals)
        keys = data.draw(st.lists(key, min_size=n, max_size=n))
        order, sizes, labels, repeated = dbicc.core._group_order(individuals, keys)
        want_order, want_sizes, want_labels = _reference_order(individuals, keys)
        assert order.tolist() == want_order
        assert sizes.tolist() == want_sizes
        assert labels == want_labels
        assert repeated == (len(set(zip(individuals, keys))) < n)

    def test_build_grouped_sample_orders_raw_ids(self):
        build = dbicc.core.build_grouped_sample
        ints = build([("A", 10, [0.0]), ("A", 2, [1.0]),
                      ("C", 7, [2.0]), ("C", 7, [3.0])])
        # 2 before 10, and the tied 7s in record order
        assert ints.values[:, 0].tolist() == [1.0, 0.0, 2.0, 3.0]
        strings = build([("B", "2", [0.0]), ("B", "10", [1.0]), ("C", "1", [2.0])])
        assert strings.values[:, 0].tolist() == [1.0, 0.0, 2.0]  # "10" before "2"
