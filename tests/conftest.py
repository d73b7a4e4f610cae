import os
import struct
from pathlib import Path

import numpy as np
import pytest

import magsample
from magsample import (
    AbsDistanceKernel,
    CropPlan,
    EmbeddingSet,
    InfoOverlapKernel,
    MagRange,
    ParameterError,
    SamplingDistribution,
    TabulatedKernel,
    entropy,
    read_plan_csv,
    total_signal,
)
from magsample import sampler
from magsample.rankme import read_embeddings_csv
from magsample.sampler import PLAN_CSV_FIELDS

STANDARDS = (0.25, 0.5, 1.0, 2.0)

# The three CSV readers: name -> (header, valid body rows, reader). Each body
# holds at least two rows and is valid as a whole.
CSV_READERS = {
    "plan": (",".join(PLAN_CSV_FIELDS),
             ["0,1.0,1.0,512,224,224,0.0,0.0", "1,1.5,1.0,512,336,224,0.5,0.25"],
             read_plan_csv),
    "table": ("x,y,value", ["0.25,0.25,1", "0.25,1.0,0.5", "1.0,0.25,0.5", "1.0,1.0,1"],
              TabulatedKernel.from_csv),
    "embeddings": ("id,mpp,d0,d1", ["p0,0.5,1.0,0.0", "p1,0.5,0.0,1.0"], read_embeddings_csv),
}


def csv_result(obj):
    """What a CSV reader returned, as comparable bytes."""
    if isinstance(obj, CropPlan):
        return obj.rows.tobytes()
    if isinstance(obj, TabulatedKernel):
        return obj.xs.tobytes(), obj.ys.tobytes(), obj.values.tobytes()
    assert isinstance(obj, EmbeddingSet)
    return obj.mpps.tobytes(), obj.vectors.tobytes()


def read_embeddings_binary_reference(path):
    """The .mseb reader as it was before the sized read: the whole payload
    as bytes, then the vectors widened to float64 on load."""
    with open(path, "rb") as f:
        _, _, n, dim = struct.unpack("<4sHQI", f.read(18))
        payload = f.read()
    records = np.frombuffer(payload, [("mpp", "<f8"), ("vec", "<f4", (dim,))], count=n)
    return EmbeddingSet(mpps=records["mpp"].astype(float), vectors=records["vec"].astype(float))


@pytest.fixture(scope="session")
def mag_range():
    return MagRange()


@pytest.fixture(scope="session")
def info_kernel():
    return InfoOverlapKernel()


@pytest.fixture(scope="session")
def abs_kernel():
    return AbsDistanceKernel()


@pytest.fixture()
def du_dist(mag_range):
    return SamplingDistribution.discrete(mag_range, STANDARDS)


@pytest.fixture()
def cu_dist(mag_range):
    return SamplingDistribution.uniform(mag_range)


def child_env():
    """Environment for a child Python process that imports this magsample.

    A child may run in a tmp dir, where a relative PYTHONPATH (such as
    `src`) no longer resolves; put the directory holding the package this
    process imported first, so the child imports the same copy.
    """
    env = dict(os.environ)
    package_root = str(Path(magsample.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


_MASK64 = (1 << 64) - 1


def mix64(z):
    """splitmix64's finalizing mixer, a bijection on 64-bit integers, in
    Python integers, as the ``magsample.rng`` docstring writes it."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def reference_value(seed, counter):
    """The counter RNG's raw 64-bit output at one counter position."""
    return mix64((seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64)


def reference_uniform(seed, counter):
    """The reference of ``CounterRng(seed).uniform_at([counter])``: the top
    53 bits of the raw output, scaled to [0, 1)."""
    return (reference_value(seed, counter) >> 11) * 2.0**-53


def quadrature_potential(kernel_fn, a, b, x, intervals=100_000):
    """Independent transfer-potential oracle: composite trapezoid of the raw
    kernel formula on a dense uniform grid."""
    ys = np.linspace(a, b, intervals + 1)
    return float(np.trapezoid(kernel_fn(x, ys), ys))


def raw_abs_kernel(x, y):
    return 1.0 / (1.0 + np.abs(np.asarray(x) - np.asarray(y)))


def raw_info_kernel(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    return (np.minimum(x, y) / np.maximum(x, y)) ** 2


def regularized_objective(dist, cfg):
    """The objective that ``optimize_max_avg`` maximizes: total signal plus
    lam times entropy."""
    return total_signal(dist, cfg.kernel) + cfg.lam * entropy(dist)


def plan_crop(t, cfg, rng, index=0):
    """The plan entry ``index`` for target ``t``, made by the plan's row
    builder; offsets come from counters 3 * index + 1 and 3 * index + 2."""
    t = float(t)
    if not cfg.distribution.range.contains(t):
        raise ParameterError(
            f"target {t} outside the distribution range "
            f"[{cfg.distribution.range.a}, {cfg.distribution.range.b}]"
        )
    return sampler._plan(cfg, np.array([index], dtype=np.int64), np.array([t]), rng)[0]


def bin_masses(dist, edges):
    """Probability mass of each histogram bin, from the exact CDF.

    Bins are half-open [e_k, e_{k+1}) except the last, which is closed and
    so also holds the atoms at the last edge, as
    ``np.searchsorted(edges, x, side='right')`` bins samples.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ParameterError("bin edges must be strictly increasing")
    masses = np.diff(dist.cdf_before(edges))
    masses[-1] += dist.atom_weights[dist.atom_locations == edges[-1]].sum()
    return masses


class MisdeclaredKernel(AbsDistanceKernel):
    """The abs kernel, declaring the info kernel's Green's factors but not
    their integrals."""

    green_factors = InfoOverlapKernel.green_factors


def chi_square_gof(dist, samples, bins=20, alpha=1e-3):
    """Chi-square goodness-of-fit of samples against a distribution.

    Expected bin masses come from the exact CDF. Adjacent bins with an
    expected count below 5 are pooled (Cochran's rule) before computing the
    statistic. Returns (statistic, critical value, pooled bin count).
    """
    from scipy.stats import chi2

    samples = np.asarray(samples)
    edges = np.linspace(dist.range.a, dist.range.b, bins + 1)
    expected = bin_masses(dist, edges) * samples.size
    idx = np.clip(np.searchsorted(edges, samples, side="right") - 1, 0, bins - 1)
    observed = np.bincount(idx, minlength=bins).astype(float)

    pooled = []
    acc_e = acc_o = 0.0
    for e, o in zip(expected, observed):
        acc_e += e
        acc_o += o
        if acc_e >= 5.0:
            pooled.append((acc_e, acc_o))
            acc_e = acc_o = 0.0
    if acc_e > 0 or acc_o > 0:
        if pooled:
            last_e, last_o = pooled.pop()
            pooled.append((last_e + acc_e, last_o + acc_o))
        else:
            pooled.append((acc_e, acc_o))
    exp = np.array([p[0] for p in pooled])
    obs = np.array([p[1] for p in pooled])
    stat = float(np.sum((obs - exp) ** 2 / exp))
    crit = float(chi2.ppf(1.0 - alpha, len(pooled) - 1))
    return stat, crit, len(pooled)
