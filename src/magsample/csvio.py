"""The package's text I/O, and the checked read of a binary input's header.

Every text file is opened here (:func:`open_text`): UTF-8, with no newline
translation, so the package writes ``\n`` and reads ``\n``, ``\r`` and
``\r\n``. A read that does not decode is a FormatError naming the line of
the file's first bad byte. Kernel tables, crop plans, embedding CSVs and
every CSV the package writes (:func:`write_rows`) share one dialect:
comma-separated, with a header line; cells may be in double quotes and may
have spaces around them; a line whose cells are all blank is skipped.

A body is read into a structured array by one ``np.loadtxt`` pass. Only when
that pass fails, or a reader's row mask flags a row, are its lines walked:
blank lines are dropped and the rest parsed again in one pass. If that fails
too, bulk passes over halves of the lines find the first bad one, so that an
error names it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import re
import warnings

import numpy as np

from .errors import FormatError


@contextlib.contextmanager
def open_text(path, mode: str = "r"):
    """The text file at ``path``, UTF-8 with no newline translation. On read,
    a UnicodeDecodeError anywhere in the ``with`` block becomes :func:`not_utf8`.
    On write, a character UTF-8 cannot encode, such as the surrogate escape of
    a non-UTF-8 byte in a file name, is written as its backslash escape."""
    errors = "strict" if mode == "r" else "backslashreplace"
    with open(path, mode, encoding="utf-8", errors=errors, newline="") as f:
        try:
            yield f
        except UnicodeDecodeError:
            if mode != "r":
                raise
            raise not_utf8(path) from None


def not_utf8(path) -> FormatError:
    """The FormatError of the non-UTF-8 file at ``path``, naming its first bad byte's line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # lines end at "\n", "\r" or "\r\n", as text mode reads them
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    else:
        line = None  # the file changed since it failed to decode
    return FormatError(f"{path}: not UTF-8 text", line=line)


# A string cell that holds a comma, a quote, CR or LF, or starts or ends with
# a space or tab is written in double quotes, its quotes doubled.
_QUOTED = re.compile(r'[,"\r\n]|\A[ \t]|[ \t]\Z')


def _text(value) -> str:
    if not isinstance(value, str):
        return repr(value)
    if _QUOTED.search(value):
        return '"' + value.replace('"', '""') + '"'
    return value


def write_rows(f, header, columns):
    """Write the ``header`` cells to ``f``, then one row per entry of the
    ``columns``. An array column holds numbers, taken through ``tolist()`` to
    Python scalars, as numpy 2's repr of a numpy scalar is ``np.float64(...)``."""
    cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else map(_text, c)
             for c in columns]
    f.write("\n".join([",".join(map(_text, header)), *map(",".join, zip(*cells))]) + "\n")


def _load(lines, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        # a body with no rows is empty, not an error
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
        )


def _cells(line: str) -> list:
    return _load([line], object).tolist()


def _blank(line: str) -> bool:
    if line.strip(' \t\r\n,"'):
        return False  # only a line of spaces, commas and quotes can be blank
    return not any(cell.strip() for cell in _cells(line))


def read_header(f) -> list[str]:
    """The stripped cells of the next line of ``f``; empty at the end of the file."""
    return [c.strip() for c in _cells(f.readline())]


def parse_line(line: str, lineno: int, dtype, what: str, invalid=None):
    """One body line as a one-row array, or None for a blank line.

    A FormatError names the line when its number of cells is not the
    dtype's, a cell does not parse, or the row mask ``invalid`` flags it.
    """
    if _blank(line):
        return None
    try:
        row = _load([line], dtype)
    except ValueError:
        columns = sum(math.prod(dtype[name].shape) for name in dtype.names)
        if len(_cells(line)) != columns:
            raise FormatError(f"wrong number of {what} columns", line=lineno) from None
        raise FormatError(f"bad {what} entry", line=lineno) from None
    if invalid is not None and invalid(row)[0]:
        raise FormatError(f"{what} entry violates its invariants", line=lineno)
    return row


def _bulk(lines, dtype, invalid):
    """The rows of one pass over ``lines``; None if one fails or is flagged."""
    try:
        rows = _load(lines, dtype)
    except ValueError:
        return None
    return rows if invalid is None or not invalid(rows).any() else None


def read_body(f, dtype, what: str, invalid=None) -> np.ndarray:
    """The rows after the header line of ``f``, as an array of ``dtype``.

    ``invalid`` maps rows to a mask of those that break the reader's own
    invariants. The first line that does not parse or is flagged raises the
    FormatError of :func:`parse_line`.
    """
    start = f.tell()
    rows = _bulk(f, dtype, invalid)  # a decoding error is a ValueError: it fails the pass
    if rows is not None:
        return rows
    f.seek(start)  # walk the lines: drop blank ones, then parse the rest in one pass
    numbered = [(n, line) for n, line in enumerate(f, start=2) if not _blank(line)]
    lines = [line for _, line in numbered]
    rows = _bulk(lines, dtype, invalid)
    if rows is not None:
        return rows
    # Some line is bad, and a run of lines parses in bulk only if each parses
    # alone. Bisect: lines[:lo] parse, and lines[lo:hi] hold a bad one.
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _bulk(lines[lo:mid], dtype, invalid) is None:
            hi = mid
        else:
            lo = mid
    n, line = numbered[lo]
    parse_line(line, n, dtype, what, invalid)
    raise AssertionError(f"line {n} parses alone but not in bulk")


def line_of_row(path, k: int) -> int:
    """The line number of data row ``k``, counted from 0, of the file at ``path``."""
    with open_text(path) as f:
        f.readline()
        body = (n for n, line in enumerate(f, start=2) if not _blank(line))
        return next(itertools.islice(body, k, None))


def read_binary(path, header, magic: bytes, what: str, payload_bytes):
    """The fields after the magic of the ``struct.Struct`` ``header`` that
    starts the binary file at ``path``, and its payload as new bytes (uint8).

    ``payload_bytes(*fields)`` checks those fields and returns the payload's
    size. The file's size is checked before anything is allocated, so a header
    that claims more than the file holds costs no memory; one read then fills
    the array. Each failure is a FormatError.
    """
    with open(path, "rb") as f:
        raw = f.read(header.size)
        if len(raw) != header.size:
            raise FormatError(f"truncated {what} header")
        found, *fields = header.unpack(raw)
        if found != magic:
            raise FormatError(f"bad {what} magic {found!r}")
        nbytes = payload_bytes(*fields)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != nbytes:
            raise FormatError(f"{what} payload is {size} bytes, expected {nbytes}")
        payload = np.empty(nbytes, np.uint8)
        got = f.readinto(payload)
    if got != nbytes:  # the file shrank after its size was taken
        raise FormatError(f"{what} payload is {got} bytes, expected {nbytes}")
    return fields, payload
