"""Probability distributions over a magnification range.

A :class:`SamplingDistribution` mixes point masses (atoms) with a
piecewise-constant density on equal-width cells. Construction normalizes
the total mass to one. The class provides the exact CDF and quantile
that the plan sampler draws targets by.

Distribution file format (``.msdist``), UTF-8 text:

    #msdist v1
    range <a> <b>
    atom <x> <w>            (zero or more)
    density <n>             (optional, followed by n nonnegative cell values,
                             whitespace-separated, possibly spanning lines)

Lines starting with ``#`` after the first are comments. Lines end at
``\\n``, ``\\r`` or ``\\r\\n``. Numbers are decimal and written at full precision.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import csvio
from .errors import FormatError, ParameterError, RangeError
from .kernels import MagRange

_MAGIC = "#msdist v1"


class SamplingDistribution:
    """Mixed atomic / piecewise-constant distribution over magnifications."""

    def __init__(self, mag_range: MagRange, atoms: Iterable = (), density=None):
        self.range = mag_range
        pairs = [(float(x), float(w)) for x, w in atoms]
        for x, w in pairs:
            if not np.isfinite(x) or not np.isfinite(w):
                raise ParameterError("atom locations and weights must be finite")
            if w < 0.0:
                raise ParameterError(f"atom weight must be nonnegative, got {w}")
            if not (mag_range.a <= x <= mag_range.b):
                raise RangeError(
                    f"atom at {x} outside range [{mag_range.a}, {mag_range.b}]"
                )
        pairs.sort(key=lambda p: p[0])
        self._atom_x = np.array([p[0] for p in pairs], dtype=float)
        self._atom_w = np.array([p[1] for p in pairs], dtype=float)

        if density is not None:
            dens = np.array(density, dtype=float)
            if dens.ndim != 1 or dens.size < 1:
                raise ParameterError("density must be a 1-D sequence of cell values")
            if not np.all(np.isfinite(dens)) or np.any(dens < 0.0):
                raise ParameterError("density cell values must be nonnegative and finite")
        else:
            dens = None

        cell_w = mag_range.width / dens.size if dens is not None else 0.0
        total = self._atom_w.sum() + (dens.sum() * cell_w if dens is not None else 0.0)
        if not np.isfinite(total) or total <= 0.0:
            raise ParameterError("distribution has no mass")
        if abs(total - 1.0) > 1e-12:  # idempotent: round-trips stay bit-exact
            self._atom_w /= total
            if dens is not None:
                dens = dens / total
        self._density = dens
        self._build_cdf()

    # -- constructors ------------------------------------------------------

    @classmethod
    def discrete(cls, mag_range: MagRange, locations: Sequence[float], weights=None):
        """Atoms at the given locations, equally weighted unless specified."""
        locations = list(locations)
        if weights is None:
            weights = [1.0] * len(locations)
        return cls(mag_range, atoms=zip(locations, weights))

    @classmethod
    def uniform(cls, mag_range: MagRange, cells: int = 1):
        """Uniform density over the range (exact for any cell count)."""
        return cls(mag_range, density=np.ones(int(cells)))

    # -- basic accessors ----------------------------------------------------

    @property
    def atom_locations(self) -> np.ndarray:
        return self._atom_x

    @property
    def atom_weights(self) -> np.ndarray:
        return self._atom_w

    @property
    def density(self):
        """Cell values of the density part, or None."""
        return self._density

    @property
    def has_atoms(self) -> bool:
        return self._atom_x.size > 0

    @property
    def has_density(self) -> bool:
        return self._density is not None

    @property
    def cells(self) -> int:
        return 0 if self._density is None else self._density.size

    @property
    def cell_width(self) -> float:
        if self._density is None:
            raise ParameterError("distribution has no density part")
        return self.range.width / self._density.size

    def cell_edges(self) -> np.ndarray:
        return self.range.cell_edges(self.cells)

    def density_at(self, x):
        """Density value at magnification x (0 where only atoms carry mass)."""
        xa = np.asarray(x, dtype=float)
        if not np.all(self.range.contains(xa)):
            raise RangeError(f"magnification outside [{self.range.a}, {self.range.b}]")
        if self._density is None:
            out = np.zeros_like(xa, dtype=float)
        else:
            edges = self.cell_edges()
            idx = np.clip(np.searchsorted(edges, xa, side="right") - 1, 0, self.cells - 1)
            out = self._density[idx]
        return float(out) if np.ndim(x) == 0 else out

    def __eq__(self, other):
        if not isinstance(other, SamplingDistribution):
            return NotImplemented
        return (
            self.range == other.range
            and np.array_equal(self._atom_x, other._atom_x)
            and np.array_equal(self._atom_w, other._atom_w)
            and np.array_equal(self._density, other._density)
        )

    def __repr__(self):
        return (
            f"SamplingDistribution(range=[{self.range.a}, {self.range.b}], "
            f"atoms={self._atom_x.size}, cells={self.cells})"
        )

    # -- CDF machinery -------------------------------------------------------

    def _build_cdf(self):
        # Knots where the CDF jumps (atoms) or changes slope (cell edges).
        if self._density is not None:
            edges = self.cell_edges()
        else:
            edges = np.array([self.range.a, self.range.b])
        knots = np.unique(np.concatenate([edges, self._atom_x]))
        jumps = np.zeros_like(knots)
        if self._atom_x.size:
            np.add.at(jumps, np.searchsorted(knots, self._atom_x), self._atom_w)
        slopes = self.density_at(0.5 * (knots[:-1] + knots[1:]))
        seg_mass = slopes * np.diff(knots)
        # Knots are rounded positions, so on a narrow range far from 0 the
        # masses can sum to 1 + a few 1e-12; rescale so the CDF ends at 1.
        total = jumps.sum() + seg_mass.sum()
        if abs(total - 1.0) > 1e-12:
            jumps, slopes, seg_mass = jumps / total, slopes / total, seg_mass / total
        after = np.cumsum(jumps) + np.concatenate(([0.0], np.cumsum(seg_mass)))
        self._knots = knots
        self._slopes = slopes
        self._cdf_after = after
        self._cdf_before = after - jumps
        # infimum of the support, returned by quantile(0): the first knot
        # that holds mass or starts a segment of positive density
        live = (jumps > 0.0) | np.append(slopes > 0.0, False)
        self._support_min = float(knots[np.argmax(live)])

    def quantile(self, u):
        """Inverse CDF: the smallest x with CDF(x) >= u."""
        ua = np.asarray(u, dtype=float)
        if np.any(ua < 0.0) or np.any(ua > 1.0) or not np.all(np.isfinite(ua)):
            raise ParameterError("quantile argument must lie in [0, 1]")
        knots, before, after = self._knots, self._cdf_before, self._cdf_after
        uu = np.minimum(ua, after[-1])
        k = np.searchsorted(after, uu, side="left")
        k = np.minimum(k, knots.size - 1)
        at_knot = uu >= before[k]
        kprev = np.maximum(k - 1, 0)
        denom = before[k] - after[kprev]
        safe = np.where(denom > 0.0, denom, 1.0)
        interp = knots[kprev] + (uu - after[kprev]) / safe * (knots[k] - knots[kprev])
        out = np.where(at_knot, knots[k], interp)
        out = np.where(uu <= 0.0, self._support_min, out)
        # On a steep cell one ulp of x can carry more than 1e-12 of mass, so
        # the rounded interpolant may overshoot u; step such draws down an ulp.
        over = self.cdf_before(out) > uu + 1e-12
        out = np.where(over, np.nextafter(out, -np.inf), out)
        return float(out) if np.ndim(u) == 0 else out

    def cdf_before(self, x):
        """Probability mass strictly below x."""
        xa = np.asarray(x, dtype=float)
        knots, before, after = self._knots, self._cdf_before, self._cdf_after
        j = np.searchsorted(knots, xa, side="left")
        jseg = np.clip(j - 1, 0, knots.size - 2)
        lin = after[jseg] + self._slopes[jseg] * (xa - knots[jseg])
        exact = (j < knots.size) & (knots[np.minimum(j, knots.size - 1)] == xa)
        out = np.where(exact, before[np.minimum(j, knots.size - 1)], lin)
        out = np.where(xa <= knots[0], 0.0, out)
        out = np.where(xa > knots[-1], after[-1], out)
        return float(out) if np.ndim(x) == 0 else out


# -- file format -------------------------------------------------------------


def parse_distribution(text: str) -> SamplingDistribution:
    """Parse the ``#msdist v1`` text format. Every error is a FormatError:
    with its line number, or with none where the numbers parse but make no
    valid distribution (an atom off the range, a negative value, no mass).

    Lines end at ``\\n``, ``\\r`` or ``\\r\\n``, as text mode reads them; any
    other character that ``str.splitlines`` breaks at is whitespace.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[0].rstrip() != _MAGIC:
        raise FormatError(f"expected {_MAGIC!r} header", line=1)

    mag_range = None
    atoms = []
    density = None
    want = 0  # density values still to read
    values: list[float] = []

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if want == 0:
            key = tokens[0]
            if key == "range":
                if mag_range is not None:
                    raise FormatError("duplicate range line", line=lineno)
                if len(tokens) != 3:
                    raise FormatError("range line needs two bounds", line=lineno)
                try:
                    mag_range = MagRange(float(tokens[1]), float(tokens[2]))
                except ValueError as exc:
                    raise FormatError(str(exc), line=lineno) from None
            elif key == "atom":
                if mag_range is None:
                    raise FormatError("atom before range line", line=lineno)
                if density is not None:
                    raise FormatError(
                        "atom lines must precede the density block", line=lineno
                    )
                if len(tokens) != 3:
                    raise FormatError("atom line needs location and weight", line=lineno)
                try:
                    atoms.append((float(tokens[1]), float(tokens[2])))
                except ValueError:
                    raise FormatError("bad atom numbers", line=lineno) from None
            elif key == "density":
                if mag_range is None:
                    raise FormatError("density before range line", line=lineno)
                if density is not None:
                    raise FormatError("duplicate density block", line=lineno)
                if len(tokens) < 2:
                    raise FormatError("density line needs a cell count", line=lineno)
                try:
                    want = int(tokens[1])
                except ValueError:
                    raise FormatError(
                        f"bad density cell count {tokens[1]!r}", line=lineno
                    ) from None
                if want < 1:
                    raise FormatError("density cell count must be >= 1", line=lineno)
                density = True
            else:
                raise FormatError(f"unknown directive {key!r}", line=lineno)
            # only a density line carries values after its directive
            tokens = tokens[2:] if key == "density" else ()
        for tok in tokens:
            if want == 0:
                raise FormatError("unexpected token after density values", line=lineno)
            try:
                values.append(float(tok))
            except ValueError:
                raise FormatError(f"bad density value {tok!r}", line=lineno) from None
            want -= 1

    if mag_range is None:
        raise FormatError("missing range line")
    if want > 0:
        raise FormatError(f"density block ended early; {want} values missing")
    try:
        return SamplingDistribution(mag_range, atoms=atoms, density=values if density else None)
    except (ParameterError, RangeError) as exc:  # values that parse but are invalid
        raise FormatError(str(exc)) from None


def read_distribution(path) -> SamplingDistribution:
    with csvio.open_text(path) as f:
        return parse_distribution(f.read())


def format_distribution(dist: SamplingDistribution, comments: Sequence[str] = ()) -> str:
    """Serialize to the ``#msdist v1`` format at full precision."""
    out = [_MAGIC, f"range {float(dist.range.a)!r} {float(dist.range.b)!r}"]
    out += [f"# {c}" for c in comments]
    out += [
        f"atom {x!r} {w!r}"
        for x, w in zip(dist.atom_locations.tolist(), dist.atom_weights.tolist())
    ]
    if dist.has_density:
        out.append(f"density {dist.cells}")
        vals = list(map(repr, dist.density.tolist()))
        out += [" ".join(vals[i : i + 8]) for i in range(0, len(vals), 8)]
    return "\n".join(out) + "\n"


def write_distribution(dist: SamplingDistribution, path, comments: Sequence[str] = ()):
    with csvio.open_text(path, "w") as f:
        f.write(format_distribution(dist, comments))
