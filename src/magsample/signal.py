"""Accumulated training signal reaching each target magnification.

For a sampling distribution p and kernel K, the signal at target y is

    S(y) = sum_i w_i K(x_i, y)  +  integral density(x) K(x, y) dx,

i.e. the kernel-weighted total exposure a model trained under p receives
at magnification y. Each density cell [e, e'] contributes exactly its value
times F(e', y) - F(e, y), F the kernel's antiderivative in x; the total is
exact likewise through tp's antiderivative. The edge-by-target matrix is
built 256 targets at a time, so memory does not grow with the grid, and
once per block for all the densities on the same cells when several
profiles are made together, as ``compare`` does. Sums are einsums in a
fixed order, so bytes do not depend on BLAS threads.

A Green's kernel, K(x, y) = p(min(x, y)) q(max(x, y)) (info is one), needs
no such matrix. Its density term is

    q(y) * integral over x < y of density p  +  p(y) * integral over x > y of density q,

and each integral is a running sum of density * (change of P or Q) over
whole cells, plus the part of y's own cell, P and Q the antiderivatives of
p and q. So it costs O(cells + grid). The integral over x > y is a suffix
sum, accumulated from b down. Written as the total minus a prefix sum it
would cancel wherever the tail is small against the total: with q = x^-2 on
[1e-3, 1e3] (500 cells, 700 targets) it errs by up to 2e-9 relative to a
long-double reference, the suffix sum by 3e-15.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from . import csvio
from .distributions import SamplingDistribution
from .errors import RangeError
from .kernels import DEFAULT_GRID, GRID_BLOCK, Kernel


class SignalSummary(NamedTuple):
    min_value: float
    argmin_y: float
    total: float
    mean: float


@dataclass(frozen=True)
class SignalProfile:
    """Signal tabulated on a uniform grid of target magnifications."""

    ys: np.ndarray
    values: np.ndarray
    min_value: float
    argmin_y: float
    total: float
    mean: float

    def summary(self) -> SignalSummary:
        return SignalSummary(self.min_value, self.argmin_y, self.total, self.mean)


def _check_ranges(dist: SamplingDistribution, kernel: Kernel):
    if not kernel.covers(dist.range):
        raise RangeError(
            f"kernel {kernel.name!r} does not cover the distribution range "
            f"[{dist.range.a}, {dist.range.b}]"
        )


def accumulated_signal(
    dist: SamplingDistribution, kernel: Kernel, grid_n: int = DEFAULT_GRID
) -> SignalProfile:
    """Evaluate S(y) on a uniform grid of ``grid_n`` targets over the range."""
    return accumulated_signals([dist], kernel, grid_n)[0]


def accumulated_signals(
    dists: Sequence[SamplingDistribution], kernel: Kernel, grid_n: int = DEFAULT_GRID
) -> list[SignalProfile]:
    """The profile of :func:`accumulated_signal` for each distribution.

    Densities on the same range and cells share each edge-by-target block,
    which is built once and weighted by each density in turn. Each profile
    is the same, bit for bit, as that distribution's alone.
    """
    ys = [dist.range.grid(grid_n) for dist in dists]  # rejects a bad grid first
    for dist in dists:
        _check_ranges(dist, kernel)
    values = [np.zeros(grid_n) for _ in dists]
    green = [
        _green_density_signal(dist.density, dist.cell_edges(), kernel, y)
        if dist.has_density else None
        for dist, y in zip(dists, ys)
    ]
    # (range, cells) -> cell edges, targets and indices of the densities
    # without a Green's path
    dense = {}
    for i, (dist, y, g) in enumerate(zip(dists, ys, green)):
        if dist.has_density and g is None:
            dense.setdefault((dist.range, dist.cells), (dist.cell_edges(), y, []))[2].append(i)
    for lo in range(0, grid_n, GRID_BLOCK):
        block = slice(lo, lo + GRID_BLOCK)
        for dist, y, v in zip(dists, ys, values):
            if dist.has_atoms:
                km = kernel(dist.atom_locations[:, None], y[None, block])
                v[block] += np.einsum("i,ij->j", dist.atom_weights, km)
        for edges, y, members in dense.values():
            per_cell = np.diff(kernel._antiderivative(edges, y[block]), axis=0)
            for i in members:
                values[i][block] += np.einsum("i,ij->j", dists[i].density, per_cell)
    profiles = []
    for dist, y, v, g in zip(dists, ys, values, green):
        if g is not None:
            v += g
        imin = int(np.argmin(v))
        total = float(np.trapezoid(v, y))
        profiles.append(SignalProfile(
            ys=y,
            values=v,
            min_value=float(v[imin]),
            argmin_y=float(y[imin]),
            total=total,
            mean=total / dist.range.width,
        ))
    return profiles


def _green_density_signal(density, edges, kernel, ys):
    """Density term of S at the targets ys in O(cells + grid), or None unless
    the kernel declares Green's factors and their integrals."""
    factors, integrals = kernel.green_factors(ys), kernel.green_integrals(edges)
    if factors is None or integrals is None:
        return None
    (p_y, q_y), (P_e, Q_e) = factors, integrals
    P_y, Q_y = kernel.green_integrals(ys)
    # integrals over the cells before k, and over the cells from k on
    prefix_p = np.concatenate(([0.0], np.cumsum(density * np.diff(P_e))))
    suffix_q = np.concatenate((np.cumsum((density * np.diff(Q_e))[::-1])[::-1], [0.0]))
    k = np.clip(np.searchsorted(edges, ys, "right") - 1, 0, density.size - 1)
    d = density[k]
    left = prefix_p[k] + d * (P_y - P_e[k])
    right = suffix_q[k + 1] + d * (Q_e[k + 1] - Q_y)
    return q_y * left + p_y * right


def signal_summary(
    dist: SamplingDistribution, kernel: Kernel, grid_n: int = DEFAULT_GRID
) -> SignalSummary:
    """Grid minimum and trapezoid integral of S(y) over the range."""
    return accumulated_signal(dist, kernel, grid_n).summary()


def total_signal(dist: SamplingDistribution, kernel: Kernel) -> float:
    """Exact integral of S(y) over the range, without building a profile.

    Atoms contribute weight * tp(x); each density cell contributes its value
    times the change of the potential's antiderivative across the cell.
    """
    _check_ranges(dist, kernel)
    out = 0.0
    if dist.has_atoms:
        tp = kernel.transfer_potential(dist.atom_locations, dist.range)
        out += float(np.einsum("i,i", dist.atom_weights, tp))
    if dist.has_density:
        p = kernel._potential_antiderivative(dist.cell_edges(), dist.range)
        out += float(np.einsum("i,i", dist.density, np.diff(p)))
    return out


# -- CSV output ---------------------------------------------------------------


def write_profile_csv(profile: SignalProfile, f: TextIO):
    csvio.write_rows(f, ("y_mpp", "signal"), (profile.ys, profile.values))


def write_summary_csv(rows: Iterable[tuple[str, SignalSummary]], f: TextIO):
    table = [(name, *map(float, s)) for name, s in rows]
    csvio.write_rows(f, ("strategy", "min", "argmin", "total", "mean"), list(zip(*table)))
