"""Accumulated training signal reaching each target magnification.

For a sampling distribution p and kernel K, the signal at target y is

    S(y) = sum_i w_i K(x_i, y)  +  integral density(x) K(x, y) dx,

i.e. the kernel-weighted total exposure a model trained under p receives
at magnification y. The density integral uses composite trapezoid
quadrature on a refinement of the density's own cell grid, so cell
boundaries (where the density is discontinuous) are never straddled and
spiky optimizer outputs keep their exact per-cell mass. The kernel matrix
for that integral is built a fixed block of targets at a time, so memory
grows linearly, not quadratically, in the number of targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .distributions import SamplingDistribution
from .errors import RangeError
from .kernels import Kernel

# Targets per kernel block in accumulated_signal: the node-by-target matrix
# then holds at most (grid_n + 2 * cells) * 256 floats, not about grid_n**2.
_TARGET_BLOCK = 256


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


def _density_nodes(dist: SamplingDistribution, resolution: int):
    """Trapezoid nodes and weights for integrals of density(x) * f(x).

    Each cell is subdivided until node spacing is at most width/resolution;
    weights already include the cell's density value.
    """
    cells = dist.cells
    sub = max(1, math.ceil(resolution / cells))
    edges = dist.cell_edges()
    cell_w = dist.cell_width
    offsets = np.linspace(0.0, cell_w, sub + 1)
    nodes = (edges[:-1][:, None] + offsets[None, :]).ravel()
    pattern = np.full(sub + 1, cell_w / sub)
    pattern[0] *= 0.5
    pattern[-1] *= 0.5
    weights = (dist.density[:, None] * pattern[None, :]).ravel()
    return nodes, weights


def _check_ranges(dist: SamplingDistribution, kernel: Kernel):
    if not kernel.covers(dist.range):
        raise RangeError(
            f"kernel {kernel.name!r} does not cover the distribution range "
            f"[{dist.range.a}, {dist.range.b}]"
        )


def accumulated_signal(
    dist: SamplingDistribution, kernel: Kernel, grid_n: int = 1000
) -> SignalProfile:
    """Evaluate S(y) on a uniform grid of ``grid_n`` targets over the range."""
    ys = dist.range.grid(grid_n)  # rejects a bad grid before the range check
    _check_ranges(dist, kernel)
    values = np.zeros(grid_n)
    if dist.has_atoms:
        km = kernel(dist.atom_locations[:, None], ys[None, :])
        values += dist.atom_weights @ km
    if dist.has_density:
        nodes, weights = _density_nodes(dist, grid_n)
        for lo in range(0, grid_n, _TARGET_BLOCK):
            block = slice(lo, lo + _TARGET_BLOCK)
            values[block] += weights @ kernel(nodes[:, None], ys[None, block])
    imin = int(np.argmin(values))
    total = float(np.trapezoid(values, ys))
    return SignalProfile(
        ys=ys,
        values=values,
        min_value=float(values[imin]),
        argmin_y=float(ys[imin]),
        total=total,
        mean=total / dist.range.width,
    )


def signal_summary(
    dist: SamplingDistribution, kernel: Kernel, grid_n: int = 1000
) -> SignalSummary:
    """Grid minimum and trapezoid integral of S(y) over the range."""
    return accumulated_signal(dist, kernel, grid_n).summary()


def total_signal(
    dist: SamplingDistribution, kernel: Kernel, resolution: int = 1000
) -> float:
    """Total signal via transfer potentials, without building a profile.

    Agrees with ``accumulated_signal(...).total`` up to quadrature error
    (about 1e-3 at the default resolution).
    """
    _check_ranges(dist, kernel)
    out = 0.0
    if dist.has_atoms:
        out += float(
            dist.atom_weights @ kernel.transfer_potential(dist.atom_locations, dist.range)
        )
    if dist.has_density:
        nodes, weights = _density_nodes(dist, resolution)
        out += float(weights @ kernel.transfer_potential(nodes, dist.range))
    return out


# -- CSV output ---------------------------------------------------------------


def write_profile_csv(profile: SignalProfile, f: TextIO):
    f.write("y_mpp,signal\n")
    for y, s in zip(profile.ys.tolist(), profile.values.tolist()):
        f.write(f"{y!r},{s!r}\n")


def write_summary_csv(rows: Iterable[tuple[str, SignalSummary]], f: TextIO):
    f.write("strategy,min,argmin,total,mean\n")
    for name, s in rows:
        f.write(name + "," + ",".join(repr(float(v)) for v in s) + "\n")
