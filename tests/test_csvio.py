"""The CSV dialect shared by plans, kernel tables and embeddings."""

import csv
import io
import itertools
import math
import os
import re
import struct
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magsample import FormatError, csvio, read_image_array, write_image_array
from magsample.csvio import line_of_row
from magsample.rankme import read_embeddings_binary
from magsample.signal import SignalSummary, write_summary_csv

from conftest import CSV_READERS, csv_result


def _blank_cells(header):
    return "," * header.count(",")


def _short(row):
    return row.rsplit(",", 1)[0]


def _non_numeric(row):
    return _short(row) + ",abc"


# body around one bad row: (make the bad row, rows before it, line, message)
_MALFORMED = {
    "short row": (_short, 1, 3, "wrong number of"),
    "long row": (lambda row: row + ",7", 1, 3, "wrong number of"),
    "non-numeric cell": (_non_numeric, 1, 3, "bad "),
    "comment row": (lambda row: "# note", 1, 3, "wrong number of"),
    "bad row after blank lines": (_non_numeric, 4, 6, "bad "),
    # Python's float() takes these, loadtxt does not
    "digit separator": (lambda row: _short(row) + ",1_0", 1, 3, "bad "),
    "non-ASCII digit": (lambda row: _short(row) + ",\u0661", 1, 3, "bad "),
}


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_readers_name_the_same_bad_line(tmp_path, reader, case):
    header, rows, read = CSV_READERS[reader]
    bad_row, before, line, message = _MALFORMED[case]
    # the rows before the bad one: a valid row, then blank lines of each kind
    lead = [rows[0], "", "  ", _blank_cells(header)][:before]
    path = tmp_path / "bad.csv"
    body = [header, *lead, bad_row(rows[1]), *rows[1:]]
    path.write_text("\n".join(body) + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as info:
        read(path)
    assert type(info.value) is FormatError
    assert info.value.line == line
    assert str(info.value).startswith(f"{path}: line {line}: {message}")


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_readers_share_the_dialect(tmp_path, reader):
    # quoted and padded cells, CRLF, and skipped lines of blank cells; an
    # embedding id keeps its spaces, so the first cell is not padded
    header, rows, read = CSV_READERS[reader]
    clean, other = tmp_path / "clean.csv", tmp_path / "other.csv"
    clean.write_text("\n".join([header, *rows]) + "\n")
    quoted = ",".join(f'"{cell}"' for cell in rows[0].split(","))
    first, *rest = rows[1].split(",")
    padded = ",".join([first, *(f" {cell} " for cell in rest)])
    blank = _blank_cells(header)
    body = ["", " \t", blank, '"",' + blank[1:], quoted, blank, padded, *rows[2:], "  "]
    other.write_text("\r\n".join([header, *body]) + "\r\n", newline="")
    assert csv_result(read(other)) == csv_result(read(clean))


def _line_at_text(f, k):
    """The line skip as first written: universal newlines, in text mode."""
    f.seek(0)
    return next(itertools.islice(f, k, None), "")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.text("ab,é\r", max_size=6), st.sampled_from(["\n", "\r\n", "\r", ""])),
        max_size=8,
    ),
    st.integers(0, 9),
    st.integers(1, 9),
)
def test_line_skip_is_the_text_mode_skip(tmp_path_factory, lines, k, chunk):
    path = tmp_path_factory.mktemp("skip") / "lines.csv"
    path.write_bytes("".join(text + end for text, end in lines).encode("utf-8"))
    got, want = [], []
    for out, read in ((got, csvio.line_at), (want, _line_at_text)):
        with csvio.open_text(path) as f:
            f.readline()  # as after the header check
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(csvio, "_SKIP_CHUNK", chunk)  # lines across chunk edges
                out.append(read(f, k))
    assert got == want


def test_line_of_row_skips_blank_lines(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text('x,y,value\n1,2,3\n\n,,\n  \n"",,\n4,5,6\n7,8,9\n')
    assert [line_of_row(path, k) for k in range(3)] == [2, 7, 8]


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_bad_last_line_is_found_by_bisection(tmp_path, monkeypatch, reader):
    # the first bad line of a long body is found in about log2(n) bulk
    # passes, and only that line is parsed alone
    header, rows, read = CSV_READERS[reader]
    n = 1000
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, *[rows[0]] * n, _non_numeric(rows[1])]) + "\n")
    calls = []
    for name in ("_bulk", "parse_line"):
        fn = getattr(csvio, name)
        monkeypatch.setattr(csvio, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    with pytest.raises(FormatError) as info:
        read(path)
    assert info.value.line == n + 2
    assert calls.count("parse_line") == 1
    assert calls.count("_bulk") <= 2 + math.ceil(math.log2(n + 1))


# -- binary headers ----------------------------------------------------------------


def _small_or_any(bits, small=3):
    """An unsigned field of ``bits`` bits, often small enough to hold a file."""
    return st.one_of(st.integers(0, small), st.integers(0, 2**bits - 1))


def _payload(record: bytes, count: int, extra: int) -> bytes:
    """``count`` copies of a record, one byte short (extra -1) or long (+1)."""
    data = record * count + b"\0" * max(extra, 0)
    return data[: len(data) + min(extra, 0)]


@settings(max_examples=200, deadline=None)
@given(
    magic=st.sampled_from([b"MSEB", b"MSEX", b"\0\0\0\0"]),
    version=st.one_of(st.just(1), st.integers(0, 2**16 - 1)),
    n=_small_or_any(64),
    dim=_small_or_any(32),
    extra=st.integers(-1, 1),
    cut=st.one_of(st.none(), st.integers(0, 17)),
)
# dims past the largest record numpy builds, and a file with no rows
@example(magic=b"MSEB", version=1, n=0, dim=2**29, extra=0, cut=None)
@example(magic=b"MSEB", version=1, n=0, dim=2**29 - 1, extra=0, cut=None)
@example(magic=b"MSEB", version=1, n=0, dim=2, extra=0, cut=None)
def test_every_mseb_header_reads_or_is_a_format_error(tmp_path_factory, magic, version, n,
                                                       dim, extra, cut):
    # the payload holds min(n, 3) records of min(dim, 3) components, so a
    # header that claims more (or a payload cut by a byte) does not fit it
    record = np.array([1.0], "<f8").tobytes() + np.full(min(dim, 3), 0.5, "<f4").tobytes()
    data = struct.pack("<4sHQI", magic, version, n, dim) + _payload(record, min(n, 3), extra)
    path = tmp_path_factory.mktemp("mseb") / "e.mseb"
    path.write_bytes(data[:cut])  # a cut header is truncated
    try:
        es = read_embeddings_binary(path)
    except FormatError:
        return
    assert (magic, version, cut) == (b"MSEB", 1, None)
    assert len(data) == 18 + n * (8 + 4 * dim)
    assert (es.n, es.dim) == (n, dim) and np.all(es.vectors == 0.5)


@settings(max_examples=200, deadline=None)
@given(
    magic=st.sampled_from([b"MSIM", b"MSIX", b"\0\0\0\0"]),
    shape=st.tuples(_small_or_any(32), _small_or_any(32), _small_or_any(32)),
    extra=st.integers(-1, 1),
    cut=st.one_of(st.none(), st.integers(0, 15)),
)
# no pixels, in a shape too large for numpy to index
@example(magic=b"MSIM", shape=(0, 2**32 - 1, 2**32 - 1), extra=0, cut=None)
def test_every_msim_header_reads_or_is_a_format_error(tmp_path_factory, magic, shape, extra,
                                                       cut):
    pixels = math.prod(min(side, 3) for side in shape)
    data = struct.pack("<4sIII", magic, *shape) + _payload(b"\0\0\0\x3f", pixels, extra)
    path = tmp_path_factory.mktemp("msim") / "i.msim"
    path.write_bytes(data[:cut])
    try:
        image = read_image_array(path)
    except FormatError:
        return
    assert (magic, cut) == (b"MSIM", None)
    assert len(data) == 16 + 4 * math.prod(shape)
    assert image.shape == shape and np.all(image == 0.5)


def test_a_payload_cut_after_its_size_is_taken_is_a_format_error(tmp_path, monkeypatch):
    # the size check sees the whole 2 x 2 x 1 image, then the read finds 12 bytes
    path = tmp_path / "i.msim"
    write_image_array(path, np.ones((2, 2, 1), np.float32))
    path.write_bytes(path.read_bytes()[:-4])
    fstat = os.fstat
    monkeypatch.setattr(csvio.os, "fstat",
                        lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + 4))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: image payload is 12 bytes, "
                       "expected 16$"):
        read_image_array(path)


# -- text files and written tables ----------------------------------------------

_SUMMARY_HEADER = ["strategy", "min", "argmin", "total", "mean"]
_SUMMARY_DTYPE = np.dtype([("strategy", object)] + [(n, "f8") for n in _SUMMARY_HEADER[1:]])


@settings(max_examples=300, deadline=None)
@given(
    # a strategy name is a file's stem, so any text without "/" or NUL; a lone
    # surrogate, which UTF-8 cannot encode, is written as its backslash escape
    # and does not read back (test_cli's non-UTF-8 file names)
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00")),
    st.tuples(*[st.floats(allow_nan=False)] * 4),
)
@example(name="a,b", values=(1.0, 0.5, 2.0, 3.0))
@example(name='say "hi"', values=(1.0, 0.5, 2.0, 3.0))
@example(name=" lead", values=(1.0, 0.5, 2.0, 3.0))
def test_summary_row_reads_back_with_its_name(tmp_path_factory, name, values):
    path = tmp_path_factory.mktemp("summary") / "table.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        write_summary_csv([(name, SignalSummary(*values))], f)
    with open(path, encoding="utf-8", newline="") as f:
        assert list(csv.reader(f)) == [_SUMMARY_HEADER, [name, *map(repr, values)]]
    if "\r" in name or "\n" in name:
        return  # csvio's line walk, which names a bad line, splits at either even in quotes
    with open(path, encoding="utf-8", newline="") as f:
        assert csvio.read_header(f) == _SUMMARY_HEADER
        rows = csvio.read_body(f, _SUMMARY_DTYPE, "summary")
    assert rows.tolist() == [(name, *values)]


@pytest.mark.parametrize("cell, written", [
    ("plain", "plain"),
    ("in side", "in side"),
    ("a,b", '"a,b"'),
    ('say "hi"', '"say ""hi"""'),
    ("cr\rlf\n", '"cr\rlf\n"'),
    (" lead", '" lead"'),
    ("trail\t", '"trail\t"'),
    ("", ""),
])
def test_write_rows_quotes_only_the_strings_that_need_it(cell, written):
    out = io.StringIO()
    csvio.write_rows(out, ["name", "x"], [[cell], [0.1]])
    assert out.getvalue() == f"name,x\n{written},0.1\n"


def test_write_rows_writes_array_cells_as_python_scalars():
    out = io.StringIO()
    columns = [np.array([0.1, 2.0]), np.array([3, -4]), np.array([0.5, 0.25], np.float32)]
    csvio.write_rows(out, ["f", "i", 1.5], columns)
    assert out.getvalue() == "f,i,1.5\n0.1,3,0.5\n2.0,-4,0.25\n"


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 20_000),  # crosses write_rows' block of 8192 rows
    st.lists(st.sampled_from(["f8", "i8"]), min_size=1, max_size=4),
    st.floats(0.0, 1.0),  # the share of cells drawn from the pools of repeats
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=8),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
)
@example(20_000, ["f8", "i8"], 0.5, 0, [1.5], [7])
def test_write_rows_is_each_value_by_repr_and_reads_back(n, kinds, repeated, seed, floats, ints):
    g = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        if kind == "f8":
            pool = np.array([*floats, -0.0, 0.0])
            fresh = g.standard_normal(n) * 10.0 ** g.integers(-300, 300, n)
        else:
            pool = np.array(ints, np.int64)
            fresh = g.integers(-(2**63), 2**63 - 1, n, endpoint=True)
        column = np.where(g.random(n) < repeated, pool[g.integers(len(pool), size=n)], fresh)
        columns.append(column)
    header = [f"c{k}" for k in range(len(kinds))]
    out = io.StringIO()
    csvio.write_rows(out, header, columns)
    rows = zip(*(c.tolist() for c in columns))
    assert out.getvalue() == ",".join(header) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows
    )
    out.seek(0)
    assert csvio.read_header(out) == header
    dtype = np.dtype([(name, c.dtype) for name, c in zip(header, columns)])
    body = csvio.read_body(out, dtype, "table")
    for name, c in zip(header, columns):
        assert body[name].tobytes() == c.tobytes()


def test_open_text_turns_a_decoding_error_of_a_read_into_a_format_error(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"ok\r\nok\n\xff\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 3: not UTF-8 text$"):
        with csvio.open_text(path) as f:
            f.read()
    with pytest.raises(UnicodeDecodeError):  # not a read of the file: left as it is
        with csvio.open_text(tmp_path / "out.txt", "w"):
            b"\xff".decode("utf-8")
    with csvio.open_text(tmp_path / "out.txt", "w") as f:
        f.write("a\nb\n")
    assert (tmp_path / "out.txt").read_bytes() == b"a\nb\n"


def test_only_csvio_opens_text_files_or_decodes_them():
    for path in Path(csvio.__file__).parent.glob("*.py"):
        if path.name == "csvio.py":
            continue
        source = path.read_text(encoding="utf-8")
        assert "UnicodeDecodeError" not in source, path.name
        assert not re.search(r"\.(read|write)_text\(", source), path.name
        for call in re.findall(r"\bopen\((.*)\)", source):
            assert re.search(r'"[rw]b"', call), (path.name, call)
