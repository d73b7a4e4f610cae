"""The package's text I/O, and the checked read of a binary input's header.

Every text file is opened here (:func:`open_text`): UTF-8, with no newline
translation, so the package writes ``\n`` and reads ``\n``, ``\r`` and
``\r\n``. A FormatError raised while a file opened here is read names that
file, and a read that does not decode is one, naming the line of the file's
first bad byte. Kernel tables, crop plans, embedding CSVs and every CSV the
package writes share one dialect: comma-separated, with a header line; cells
may be in double quotes and may have spaces around them; a line whose cells
are all blank is skipped. :func:`write_rows` writes every table, the crop
plan included, 8192 rows at a time, so its memory does not grow with the
table, and formats each value that repeats in a block once.

Values that read but make no valid object, such as a kernel table value or
an embedding mpp that is not positive, or a ``.msdist`` atom off its range,
are a FormatError naming their file too (:func:`built_from`).

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

from .errors import DomainError, FormatError, ParameterError, RangeError


@contextlib.contextmanager
def _naming(path):
    """A FormatError raised in the ``with`` block names the file at ``path``,
    unless it names a file already."""
    try:
        yield
    except FormatError as exc:
        if exc.path is None:
            exc.path = path
        raise


@contextlib.contextmanager
def built_from(path=None):
    """A DomainError, ParameterError or RangeError raised in the ``with`` block,
    by an object built from values read from the file at ``path`` (by default,
    the file being read), is a FormatError naming that file. The object's own
    checks are the only ones made."""
    try:
        yield
    except (DomainError, ParameterError, RangeError) as exc:
        error = FormatError(str(exc))
        error.path = path
        raise error from None


@contextlib.contextmanager
def open_text(path, mode: str = "r"):
    """The text file at ``path``, UTF-8 with no newline translation. On read,
    a FormatError raised in the ``with`` block names ``path``, and a
    UnicodeDecodeError becomes :func:`not_utf8`. On write, a character UTF-8
    cannot encode, such as the surrogate escape of a non-UTF-8 byte in a file
    name, is written as its backslash escape."""
    if mode != "r":
        with open(path, mode, encoding="utf-8", errors="backslashreplace", newline="") as f:
            yield f
        return
    with _naming(path), open(path, encoding="utf-8", newline="") as f:
        try:
            yield f
        except UnicodeDecodeError:
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
    return FormatError("not UTF-8 text", line=line)


# A string cell that holds a comma, a quote, CR or LF, or starts or ends with
# a space or tab is written in double quotes, its quotes doubled.
_QUOTED = re.compile(r'[,"\r\n]|\A[ \t]|[ \t]\Z')


def _text(value) -> str:
    if not isinstance(value, str):
        return repr(value)
    if _QUOTED.search(value):
        return '"' + value.replace('"', '""') + '"'
    return value


_BLOCK_ROWS = 8192  # rows that write_rows formats and writes at a time


def _column_text(column):
    """The cells of one block of a column. An array column's numbers are the
    ``repr`` of their ``tolist()``, as numpy 2's repr of a numpy scalar is
    ``np.float64(...)``, and a value that repeats is formatted once. Repeats
    are found among the bits, so ``-0.0`` and ``0.0`` stay apart."""
    if not isinstance(column, np.ndarray):
        return map(_text, column)
    bits, which = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    if len(bits) == len(column):
        return map(repr, column.tolist())
    text = list(map(repr, bits.view(column.dtype).tolist()))
    return map(text.__getitem__, which.tolist())


def write_rows(f, header, columns):
    """Write the ``header`` cells to ``f``, then one row per entry of the ``columns``."""
    f.write(",".join(map(_text, header)) + "\n")
    for start in range(0, min(map(len, columns), default=0), _BLOCK_ROWS):
        block = [_column_text(c[start : start + _BLOCK_ROWS]) for c in columns]
        f.write("\n".join(map(",".join, zip(*block))) + "\n")


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


# The block of the binary line skip. With 64 KiB, line_at finds line 100,000
# of a 1e5-row plan (7.9 MB) in 1.5 ms and line 1 in 0.05 ms; 32 KiB and
# 256 KiB took 1.9 and 3.3 ms, the text-mode skip 11 ms (minima, 2 vCPU).
_SKIP_CHUNK = 1 << 16


def line_at(f, k: int) -> str:
    """Line ``k`` of the text file ``f``, counted from 0 at its start; '' past the end.

    The lines before it are skipped in binary mode, by counting b"\n", with
    no decoding. Text mode also ends a line at a b"\r", so once a block read
    or line ``k`` holds one, the lines are skipped in text mode instead, as
    universal newlines number them.
    """
    raw, skip = f.buffer, k  # skip stays a Python int: k may be past int64
    raw.seek(0)
    while (block := raw.read(_SKIP_CHUNK)) and b"\r" not in block:
        is_newline = np.frombuffer(block, np.uint8) == ord("\n")
        count = int(np.count_nonzero(is_newline))
        if skip <= count:  # line k starts in this block
            start = int(np.flatnonzero(is_newline)[skip - 1]) + 1 if skip else 0
            raw.seek(raw.tell() - len(block) + start)
            line = raw.readline()
            if b"\r" in line:
                break
            return line.decode("utf-8")
        skip -= count
    if not block:
        return ""
    f.seek(0)
    return next(itertools.islice(f, k, None), "")


def read_binary(path, header, magic: bytes, what: str, payload_bytes):
    """The fields after the magic of the ``struct.Struct`` ``header`` that
    starts the binary file at ``path``, and its payload as new bytes (uint8).

    ``payload_bytes(*fields)`` checks those fields and returns the payload's
    size. The file's size is checked before anything is allocated, so a header
    that claims more than the file holds costs no memory; one read then fills
    the array. Each failure is a FormatError.
    """
    with _naming(path), open(path, "rb") as f:
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
