"""The CSV dialect shared by plans, kernel tables and embeddings."""

import math

import pytest

from magsample import FormatError, csvio
from magsample.csvio import line_of_row

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
    assert str(info.value).startswith(f"line {line}: {message}")


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
