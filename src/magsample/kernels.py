"""Similarity kernels over magnification pairs and their transfer potentials.

Magnifications are measured in microns per pixel (mpp). A kernel K(x, y)
scores how strongly training at magnification x benefits magnification y.
Its transfer potential over a range [a, b],

    tp(x) = integral of K(x, y) dy over [a, b],

is the aggregate benefit of one sample taken at x. Kernels also give the
antiderivatives in x of tp and of K(., y), or of a Green's kernel's factors,
so signal integrals over density cells are exact differences. All are closed
forms; a tabulated kernel's are exact for its bilinear interpolant, which is
piecewise linear in x and y.
Its table is a CSV in the dialect of :mod:`magsample.csvio`.

The abs kernel, the antiderivatives and the tabulated interpolation run in
place, in reused buffers, to spare full-size temporaries. They keep every
operation of the plain expression and its order, so each value, and every
output written from it, is the same bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import csvio
from .errors import DomainError, FormatError, ParameterError, RangeError

# The grid size of every function and command that tabulates over a range
# when none is given.
DEFAULT_GRID = 1000

# Grid points per kernel call where a grid-by-grid matrix is built in blocks
# (signal's edge-by-target matrix, a max-min game's blocks of K), so that
# memory does not grow with the grid.
GRID_BLOCK = 256

# A declared structure must match Kernel.__call__ to this relative tolerance.
_DECLARATION_RTOL = 1e-12


@dataclass(frozen=True)
class MagRange:
    """Closed magnification interval [a, b] in microns per pixel."""

    a: float = 0.25
    b: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and 0.0 < self.a < self.b):
            raise ParameterError(
                f"magnification range requires 0 < a < b, got [{self.a}, {self.b}]"
            )

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, x):
        x = np.asarray(x)
        return (x >= self.a) & (x <= self.b)

    def grid(self, n: int) -> np.ndarray:
        """Uniform grid of ``n`` points including both endpoints."""
        if n < 2:
            raise ParameterError(f"grid size must be >= 2, got {n}")
        return np.linspace(self.a, self.b, int(n))

    def cell_edges(self, cells: int) -> np.ndarray:
        """Edges of ``cells`` equal-width cells covering the range."""
        if cells < 1:
            raise ParameterError(f"cell count must be >= 1, got {cells}")
        return np.linspace(self.a, self.b, int(cells) + 1)

    def cell_midpoints(self, cells: int) -> np.ndarray:
        edges = self.cell_edges(cells)
        return 0.5 * (edges[:-1] + edges[1:])


class Kernel:
    """Base class for magnification-similarity kernels.

    A subclass defines, on positive mpp arrays, ``_evaluate(x, y)`` (K),
    ``_transfer_potential(x, r)`` (tp over range r) and
    ``_potential_antiderivative(x, r)`` (integral up to x of tp), up to a
    constant. Unless it declares Green's factors and their integrals, it also
    defines ``_antiderivative(x, y)`` (for 1-D x, y: F[i, j] = integral up to
    x[i] of K(s, y[j]) ds, up to a constant).

    Declared structure is used only where :func:`declaration_holds` finds it
    equal to K; declared ``green_integrals`` are trusted to integrate the factors.
    """

    name = "kernel"
    # Whether K(x, y) depends only on |x - y|. Such a K is symmetric, and its
    # matrix on a uniform grid is a Toeplitz matrix, given by one column.
    stationary = False

    def __call__(self, x, y):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if (
            not np.all(np.isfinite(xa))
            or not np.all(np.isfinite(ya))
            or np.any(xa <= 0.0)
            or np.any(ya <= 0.0)
        ):
            raise DomainError("kernel arguments must be positive finite mpp values")
        out = self._evaluate(xa, ya)
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            return float(out)
        return out

    def _evaluate(self, x, y):
        raise NotImplementedError

    def covers(self, mag_range: MagRange) -> bool:
        """Whether the kernel is defined on all of ``mag_range`` (both axes)."""
        return True

    def green_factors(self, x):
        """``(p(x), q(x))`` if K(x, y) = p(min(x, y)) * q(max(x, y)) with p / q
        increasing, else None. Such a K is a Green's kernel, whose matrix on
        increasing points has a tridiagonal inverse."""
        return None

    def green_integrals(self, x):
        """``(P(x), Q(x))``, antiderivatives of the Green's factors p and q up
        to a constant, or None if the kernel declares none."""
        return None

    def linear_nodes(self):
        """``(xs, ys)``, or None: K(x, y) is linear in x between the xs for
        every y, and linear in y between the ys for every x. Over a grid,
        each K(., y) then takes its extremes at a grid end or at a grid point
        next to an x-node, and each K(x, .) at one next to a y-node."""
        return None

    def transfer_potential(self, x, mag_range: MagRange = MagRange()):
        """Integral of K(x, .) over the range, at one or many query points.

        ``x`` must lie inside the range; no clamping is performed.
        """
        if not self.covers(mag_range):
            raise RangeError(
                f"kernel {self.name!r} is not defined on [{mag_range.a}, {mag_range.b}]"
            )
        xa = np.asarray(x, dtype=float)
        if not np.all(mag_range.contains(xa)):
            raise RangeError(
                f"query magnification outside [{mag_range.a}, {mag_range.b}]"
            )
        out = self._transfer_potential(xa, mag_range)
        if np.ndim(x) == 0:
            return float(out)
        return out


class AbsDistanceKernel(Kernel):
    """K(x, y) = 1 / (1 + |x - y|): similarity decays with mpp distance."""

    name = "abs"
    stationary = True

    def _evaluate(self, x, y):
        # 1 / (1 + |x - y|) in one buffer, with the operations of that
        # expression in its order, so the result is the same bit for bit. The
        # buffer is an array even for two scalars, which ufuncs would return as
        # a numpy scalar that cannot take out=.
        out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)))
        np.subtract(x, y, out=out)
        np.abs(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)

    def _transfer_potential(self, xa, mag_range):
        # antiderivative: log(1 + x - a) + log(1 + b - x)
        return np.log1p(xa - mag_range.a) + np.log1p(mag_range.b - xa)

    def _antiderivative(self, x, y):
        # sign(d) * log1p(|d|) in two arrays, with the operations of that
        # expression in its order, so the result is the same bit for bit.
        d = x[:, None] - y[None, :]
        out = np.abs(d)
        np.log1p(out, out=out)
        np.sign(d, out=d)
        np.multiply(d, out, out=out)
        return out

    def _potential_antiderivative(self, xa, mag_range):
        u, v = xa - mag_range.a, mag_range.b - xa
        return (1.0 + u) * np.log1p(u) - u - (1.0 + v) * np.log1p(v) + v


class InfoOverlapKernel(Kernel):
    """K(x, y) = (min(x, y) / max(x, y))^2: squared field-of-view overlap.

    A patch of fixed pixel size at mpp x covers an area proportional to x^2,
    so the squared ratio of the two magnifications is the fraction of tissue
    area shared by the two fields of view.
    """

    name = "info"

    def _evaluate(self, x, y):
        r = np.minimum(x, y) / np.maximum(x, y)
        return r * r

    def green_factors(self, x):
        # (min / max)^2 = min^2 * max^-2, and p / q = x^4 increases
        x2 = x * x
        return x2, 1.0 / x2

    def green_integrals(self, x):
        return x**3 / 3.0, -1.0 / x

    def _transfer_potential(self, xa, mag_range):
        a, b = mag_range.a, mag_range.b
        return (xa**3 - a**3) / (3.0 * xa**2) + xa - xa**2 / b

    def _potential_antiderivative(self, xa, mag_range):
        a, b = mag_range.a, mag_range.b
        return 2.0 * xa**2 / 3.0 + a**3 / (3.0 * xa) - xa**3 / (3.0 * b)


class TabulatedKernel(Kernel):
    """Kernel tabulated on a rectangular (x, y) grid, bilinearly interpolated.

    Queries outside the tabulated rectangle raise :class:`RangeError`.
    Values must be strictly positive and finite so transfer potentials and
    the optimizers built on them stay well defined.
    """

    name = "custom"

    def __init__(self, xs, ys, values):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size < 2 or ys.size < 2:
            raise ParameterError("tabulated kernel needs at least a 2x2 grid")
        if not (np.all(np.isfinite(xs) & (xs > 0)) and np.all(np.isfinite(ys) & (ys > 0))):
            raise DomainError("tabulated grid coordinates must be positive and finite")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise ParameterError("tabulated grid coordinates must be strictly increasing")
        if values.shape != (xs.size, ys.size):
            raise ParameterError(
                f"value grid shape {values.shape} does not match ({xs.size}, {ys.size})"
            )
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise DomainError("tabulated kernel values must be positive and finite")
        self.xs = xs
        self.ys = ys
        self.values = values

    @classmethod
    def from_csv(cls, path) -> "TabulatedKernel":
        """Load a kernel from a CSV file with header ``x,y,value``.

        The rows must cover a complete rectangular grid, each sample once, in
        any order, in the CSV dialect of :mod:`magsample.csvio`; the grid is
        their sorted distinct coordinates. FormatError reports a bad header,
        a row that does not parse or has a NaN coordinate, a repeated sample
        (each naming its line), an empty body, a missing sample, fewer than
        two coordinates on an axis, and a coordinate or value that is not
        positive and finite.
        """
        xs, ys, values = _read_table(path)
        with csvio.built_from(path):
            return cls(xs, ys, values)

    def covers(self, mag_range: MagRange) -> bool:
        return (
            self.xs[0] <= mag_range.a
            and mag_range.b <= self.xs[-1]
            and self.ys[0] <= mag_range.a
            and mag_range.b <= self.ys[-1]
        )

    def linear_nodes(self):
        return self.xs, self.ys  # the interpolant is bilinear between the table's nodes

    @staticmethod
    def _locate(grid, q):
        i = np.clip(np.searchsorted(grid, q, side="right") - 1, 0, grid.size - 2)
        frac = (q - grid[i]) / (grid[i + 1] - grid[i])
        return i, frac

    def _evaluate(self, x, y):
        # Each axis is located on its own array, and only the bilinear
        # expression broadcasts; an empty broadcast queries nothing.
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        if math.prod(shape) and (
            np.any(x < self.xs[0])
            or np.any(x > self.xs[-1])
            or np.any(y < self.ys[0])
            or np.any(y > self.ys[-1])
        ):
            raise RangeError("query outside the tabulated kernel grid")
        i, fx = self._locate(self.xs, x)
        j, fy = self._locate(self.ys, y)
        # When x varies only along leading axes and y only along trailing ones,
        # the result is the outer table of x.ravel() by y.ravel(). A corner is
        # then the table rows at i, then their columns at j, or the columns
        # first where that gathers fewer entries (a few columns of a long x):
        # two takes, with no index array over the grid. Other shapes index the
        # table point by point.
        xp = (1,) * (len(shape) - x.ndim) + x.shape
        yp = (1,) * (len(shape) - y.ndim) + y.shape
        split = max((a + 1 for a, n in enumerate(xp) if n != 1), default=0)
        outer = all(n == 1 for n in yp[:split])
        if outer:
            i, fx = i.reshape(-1, 1), fx.reshape(-1, 1)
            j, fy = j.reshape(1, -1), fy.reshape(1, -1)
            rows_first = i.size * self.ys.size <= j.size * self.xs.size
        # Each corner term is (v * wx) * wy, made in a reused buffer, and the
        # terms are summed in the order v00, v10, v01, v11. These are the
        # operations of the plain bilinear expression in its order, so values
        # are the same bit for bit.
        wx, wy = (1.0 - fx, fx), (1.0 - fy, fy)
        out = np.empty(np.broadcast_shapes(i.shape, j.shape))
        term = np.empty_like(out)
        for n, (di, dj) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
            dst = term if n else out
            if outer and rows_first:
                # v * wx on the gathered rows, then their columns; the indices
                # are in range, and "clip" lets take write into dst unbuffered
                rows = self.values.take(i[:, 0] + di, axis=0)
                rows *= wx[di]
                rows.take(j[0] + dj, axis=1, out=dst, mode="clip")
            elif outer:
                # the gathered columns, then their rows, then v * wx
                cols = self.values.take(j[0] + dj, axis=1)
                cols.take(i[:, 0] + di, axis=0, out=dst, mode="clip")
                dst *= wx[di]
            else:
                np.multiply(self.values[i + di, j + dj], wx[di], out=dst)
            dst *= wy[dj]
            if n:
                out += term
        return out.reshape(shape)

    def _transfer_potential(self, xa, mag_range):
        # Trapezoid on the tabulated y-nodes clipped to the range; exact for
        # the piecewise-bilinear interpolant.
        inner = self.ys[(self.ys > mag_range.a) & (self.ys < mag_range.b)]
        nodes = np.concatenate(([mag_range.a], inner, [mag_range.b]))
        vals = self._evaluate(xa[..., None], nodes)
        return np.trapezoid(vals, nodes, axis=-1)

    def _antiderivative(self, x, y):
        return self._integrate_nodes(x, self._evaluate(self.xs[:, None], y[None, :]))

    def _potential_antiderivative(self, xa, mag_range):
        tp = self._transfer_potential(self.xs, mag_range)
        return self._integrate_nodes(xa, tp[:, None])[:, 0]

    def _integrate_nodes(self, x, f):
        """Integral from xs[0] to each x of the interpolant of node rows f."""
        h = np.diff(self.xs)[:, None]
        cum = np.cumsum(np.vstack([np.zeros_like(f[:1]), 0.5 * h * (f[:-1] + f[1:])]), axis=0)
        i, t = self._locate(self.xs, x)
        t = t[:, None]
        return cum[i] + h[i] * t * (f[i] + 0.5 * t * (f[i + 1] - f[i]))


_TABLE_DTYPE = np.dtype([("x", "f8"), ("y", "f8"), ("value", "f8")])


def _read_table(path):
    """Grid, as ``(xs, ys, values)``, of a kernel table CSV; see ``from_csv``."""
    with csvio.open_text(path) as f:
        if csvio.read_header(f) != ["x", "y", "value"]:
            raise FormatError("expected header 'x,y,value'", line=1)
        rows = csvio.read_body(f, _TABLE_DTYPE, "kernel table",
                               lambda r: np.isnan(r["x"]) | np.isnan(r["y"]))
        if not rows.size:
            raise FormatError("no kernel samples found")
        xs, ix = np.unique(rows["x"], return_inverse=True)
        ys, iy = np.unique(rows["y"], return_inverse=True)
        cell = ix * ys.size + iy
        counts = np.bincount(cell, minlength=xs.size * ys.size)
        if counts.max() > 1:
            # the first row whose sample came before
            k = np.setdiff1d(np.arange(cell.size), np.unique(cell, return_index=True)[1])[0]
            x, y = float(rows["x"][k]), float(rows["y"][k])
            raise FormatError(f"repeated sample x={x}, y={y}", line=csvio.line_of_row(path, k))
        if counts.min() == 0:
            i, j = divmod(int(np.argmin(counts)), ys.size)
            raise FormatError(f"grid is missing the sample x={xs[i]}, y={ys[j]}")
    values = np.empty(xs.size * ys.size)
    values[cell] = rows["value"]
    return xs, ys, values.reshape(xs.size, ys.size)


def declaration_holds(kernel: Kernel, xs: np.ndarray, declared) -> bool:
    """Whether ``kernel(xs[i], xs[j])`` equals ``declared(i, j)`` to
    _DECLARATION_RTOL on O(n) index pairs (i, j) of the n increasing points
    xs: the diagonal, the first row, the last column, the sub-diagonal, and n
    pairs scattered by two fixed multiplicative walks. ``declared`` maps the
    index arrays i and j to the values the declaration gives."""
    n = xs.size
    k = np.arange(n)
    i = np.concatenate((k, np.zeros(n, int), k, k[1:], k * 40503 % n))
    j = np.concatenate((k, k, np.full(n, n - 1), k[:-1], (k * 65521 + n // 3) % n))
    values, expected = kernel(xs[i], xs[j]), declared(i, j)
    return bool(np.all(np.abs(values - expected) <= _DECLARATION_RTOL * np.abs(expected)))


def kernel_from_string(selector: str) -> Kernel:
    """Build a kernel from its CLI/config selection string.

    Accepted forms: ``abs``, ``info``, or ``custom:<path>`` where ``<path>``
    is a CSV file with header ``x,y,value``.
    """
    if selector == "abs":
        return AbsDistanceKernel()
    if selector == "info":
        return InfoOverlapKernel()
    if selector.startswith("custom:"):
        path = selector[len("custom:"):]
        if not path:
            raise ParameterError("custom kernel requires a path: custom:<path>")
        try:
            return TabulatedKernel.from_csv(path)
        except FileNotFoundError:
            raise FileNotFoundError(f"custom kernel file not found: {path}") from None
    raise ParameterError(
        f"unknown kernel {selector!r}; expected abs, info, or custom:<path>"
    )
