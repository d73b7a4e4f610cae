import hashlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from magsample import (
    AbsDistanceKernel,
    InfoOverlapKernel,
    MagRange,
    ParameterError,
    RangeError,
    SamplingDistribution,
    TabulatedKernel,
    accumulated_signal,
    mix,
    signal_summary,
    total_signal,
)

from magsample.cli import main

from conftest import (
    STANDARDS,
    child_env,
    quadrature_potential,
    raw_abs_kernel,
    raw_info_kernel,
)

# Exact values for the four-atom discrete-uniform strategy with the overlap
# kernel on [0.25, 2]:
#   S(1.5) = ((1/6)^2 + (1/3)^2 + (2/3)^2 + (3/4)^2) / 4 = 165/576
#   on (1, 2):      4 S(y) = 1.3125 / y^2 + 0.25 y^2, minimized at y = 5.25^(1/4)
#   on (0.25, 0.5): 4 S(y) = 0.0625 / y^2 + 5.25 y^2, minimized at y = 84^(-1/4)
#   both minima equal sqrt(0.328125) / 2 (the strategy is symmetric under
#   y -> 0.5 / y because the atoms form a geometric sequence)
DU_S_AT_1_5 = 165.0 / 576.0
DU_MIN_VALUE = 0.5 * np.sqrt(0.328125)
DU_ARGMIN_TWINS = (84.0 ** -0.25, 5.25 ** 0.25)


def cu_total_exact():
    # antiderivative of the overlap kernel's transfer potential, divided by
    # the range width: F(x) = 2x^2/3 + a^3/(3x) - x^3/(3b)
    a, b = 0.25, 2.0
    F = lambda x: 2.0 * x**2 / 3.0 + a**3 / (3.0 * x) - x**3 / (3.0 * b)
    return (F(b) - F(a)) / (b - a)


def test_point_mass_profile_equals_kernel_row(mag_range, info_kernel):
    d = SamplingDistribution.discrete(mag_range, [0.8])
    profile = accumulated_signal(d, info_kernel, 301)
    assert np.allclose(profile.values, info_kernel(0.8, profile.ys), atol=1e-15)


def test_du_signal_at_intermediate_magnification(du_dist, info_kernel):
    # grid 701 contains y = 1.5 exactly (index 500); atom sums are exact
    profile = accumulated_signal(du_dist, info_kernel, 701)
    assert profile.ys[500] == pytest.approx(1.5, abs=1e-15)
    assert profile.values[500] == pytest.approx(DU_S_AT_1_5, abs=1e-12)


def test_cu_profile_equals_scaled_transfer_potential(cu_dist, info_kernel, mag_range):
    profile = accumulated_signal(cu_dist, info_kernel, 1000)
    expected = np.asarray(info_kernel.transfer_potential(profile.ys, mag_range)) / 1.75
    assert np.allclose(profile.values, expected, atol=2e-6)
    assert profile.values[0] == pytest.approx(0.125, abs=1e-4)


def test_du_summary(du_dist, info_kernel):
    s = signal_summary(du_dist, info_kernel, 1000)
    assert s.min_value == pytest.approx(DU_MIN_VALUE, abs=1e-4)
    assert min(abs(s.argmin_y - t) for t in DU_ARGMIN_TWINS) < 0.002
    oracle_total = np.mean(
        [quadrature_potential(raw_info_kernel, 0.25, 2.0, x) for x in STANDARDS]
    )
    assert s.total == pytest.approx(oracle_total, abs=1e-3)
    assert s.mean == pytest.approx(s.total / 1.75, abs=1e-12)


def test_cu_summary(cu_dist, info_kernel):
    s = signal_summary(cu_dist, info_kernel, 1000)
    assert s.min_value == pytest.approx(0.125, abs=1e-4)
    assert s.argmin_y == 0.25
    assert s.total == pytest.approx(cu_total_exact(), abs=1e-3)


def test_total_signal_point_mass(mag_range, info_kernel):
    d = SamplingDistribution.discrete(mag_range, [1.125])
    expected = 721.0 / 1944.0 + 0.4921875  # closed-form potential at 1.125
    assert total_signal(d, info_kernel) == pytest.approx(expected, abs=1e-5)


def test_total_signal_du(du_dist, info_kernel):
    oracle = np.mean(
        [quadrature_potential(raw_info_kernel, 0.25, 2.0, x) for x in STANDARDS]
    )
    assert total_signal(du_dist, info_kernel) == pytest.approx(oracle, abs=1e-4)


def test_total_signal_cu(cu_dist, info_kernel):
    # for the uniform density, S(p) coincides with the average potential;
    # the potential's antiderivative makes it exact on any cell count
    assert total_signal(cu_dist, info_kernel) == pytest.approx(cu_total_exact(), abs=1e-12)
    seven = SamplingDistribution.uniform(cu_dist.range, 7)
    assert total_signal(seven, info_kernel) == pytest.approx(cu_total_exact(), abs=1e-12)


def test_fubini_consistency(mag_range, info_kernel, abs_kernel):
    # integral of the profile equals the potential-weighted mass
    g = np.random.default_rng(17)
    for _ in range(50):
        atoms = [
            (g.uniform(0.25, 2.0), g.uniform(0.0, 1.0)) for _ in range(g.integers(0, 4))
        ]
        cells = int(g.integers(1, 50))
        density = g.uniform(0.0, 1.0, cells) if (atoms == [] or g.random() < 0.7) else None
        if not atoms and density is None:
            density = g.uniform(0.1, 1.0, 3)
        d = SamplingDistribution(mag_range, atoms=atoms, density=density)
        kernel = info_kernel if g.random() < 0.5 else abs_kernel
        diff = abs(total_signal(d, kernel) - accumulated_signal(d, kernel, 1000).total)
        assert diff < 1e-3


def _random_table(g, lo=0.2, hi=2.1, n=9):
    xs = np.concatenate(([lo], np.sort(g.uniform(lo, hi, n - 2)), [hi]))
    ys = np.concatenate(([lo], np.sort(g.uniform(lo, hi, n - 2)), [hi]))
    values = g.uniform(0.2, 1.0, (n, n))
    raw = RegularGridInterpolator((xs, ys), values)
    oracle = lambda x, y: raw(np.stack(np.broadcast_arrays(x, y), axis=-1))
    return TabulatedKernel(xs, ys, values), oracle, xs


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def dense_profile_oracle(raw, dist, ys, kinks=()):
    """S(y) by 8-point Gauss-Legendre on every piece between the cell edges,
    the target y and the kernel's kinks in x, on which the raw kernel is
    smooth (or, for a table, linear); atoms summed directly."""
    edges = dist.cell_edges()
    out = []
    for y in ys:
        cuts = np.unique(np.concatenate([edges, [y], kinks]))
        cuts = cuts[(cuts >= edges[0]) & (cuts <= edges[-1])]
        mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
        x = mid[:, None] + half[:, None] * _GL_NODES
        dens = dist.density_at(mid)[:, None] * half[:, None] * _GL_WEIGHTS
        atoms = np.dot(dist.atom_weights, raw(dist.atom_locations, y))
        out.append(float(np.sum(dens * raw(x, y)) + atoms))
    return np.array(out)


@pytest.mark.parametrize("name", ["info", "abs", "table"])
def test_profile_matches_dense_oracle(mag_range, name):
    # 37 cells, so the table's nodes fall inside cells, and 41 targets that
    # are neither cell edges nor table nodes
    g = np.random.default_rng(5)
    kinks = ()
    if name == "table":
        kernel, raw, kinks = _random_table(g)
    else:
        kernel = InfoOverlapKernel() if name == "info" else AbsDistanceKernel()
        raw = raw_info_kernel if name == "info" else raw_abs_kernel
    dist = SamplingDistribution(mag_range, atoms=[(0.7, 0.2)], density=g.random(37) + 0.05)
    profile = accumulated_signal(dist, kernel, 41)
    oracle = dense_profile_oracle(raw, dist, profile.ys, kinks)
    assert np.allclose(profile.values, oracle, rtol=0.0, atol=1e-12)


def test_total_signal_matches_fine_profile_total(mag_range):
    g = np.random.default_rng(29)
    table = _random_table(g)[0]
    for kernel in (InfoOverlapKernel(), AbsDistanceKernel(), table):
        for cells in (1, 13, 200):
            atoms = [(g.uniform(0.25, 2.0), g.uniform(0.1, 1.0)) for _ in range(3)]
            d = SamplingDistribution(mag_range, atoms=atoms, density=g.random(cells) + 0.1)
            fine = accumulated_signal(d, kernel, 20001).total
            assert abs(total_signal(d, kernel) - fine) < 1e-7


_BLAS_PROBE = """
import hashlib, numpy as np
from magsample import InfoOverlapKernel, MagRange, SamplingDistribution, accumulated_signal
g, r, k = np.random.default_rng(3), MagRange(), InfoOverlapKernel()
dense = SamplingDistribution(r, density=g.random(5000) + 0.01)
atoms = SamplingDistribution(r, atoms=list(zip(g.uniform(0.25, 2.0, 3000), g.random(3000))))
for d in (dense, atoms):
    print(hashlib.sha256(accumulated_signal(d, k, 3001).values.tobytes()).hexdigest())
"""


def test_profile_bytes_do_not_depend_on_blas_threads():
    # at most two BLAS threads; the digests of both profiles must match
    digests = []
    for threads in ("1", "2"):
        env = dict(child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.split())
    assert digests[0] == digests[1]


def test_mixture_linearity(mag_range, info_kernel):
    g = np.random.default_rng(23)
    d1 = SamplingDistribution(mag_range, atoms=[(0.4, 0.3)], density=g.uniform(0.1, 1, 8))
    d2 = SamplingDistribution(mag_range, atoms=[(1.7, 0.1)], density=g.uniform(0.1, 1, 8))
    alpha = 0.35
    pm = accumulated_signal(mix(d1, d2, alpha), info_kernel, 400)
    p1 = accumulated_signal(d1, info_kernel, 400)
    p2 = accumulated_signal(d2, info_kernel, 400)
    assert np.allclose(pm.values, alpha * p1.values + (1 - alpha) * p2.values, atol=1e-12)


def test_summaries_stable_under_grid_refinement(mag_range, info_kernel):
    mids = mag_range.cell_midpoints(100)
    smooth = SamplingDistribution.from_density(mag_range, np.exp(-((mids - 1.0) ** 2)))
    coarse = signal_summary(smooth, info_kernel, 1000)
    fine = signal_summary(smooth, info_kernel, 4000)
    assert abs(coarse.min_value - fine.min_value) < 5e-3
    assert abs(coarse.total - fine.total) < 5e-3
    assert abs(coarse.mean - fine.mean) < 5e-3
    assert abs(coarse.argmin_y - fine.argmin_y) < 5e-3


def test_profile_internal_consistency(du_dist, info_kernel):
    profile = accumulated_signal(du_dist, info_kernel, 333)
    assert np.all(profile.values >= 0.0)
    assert profile.min_value == profile.values.min()
    assert profile.total == pytest.approx(np.trapezoid(profile.values, profile.ys), abs=1e-12)


def test_spiky_density_keeps_its_mass(mag_range, info_kernel):
    # one very tall cell: the cell-aligned quadrature must not double count;
    # away from the kernel's diagonal kink the profile matches a point mass
    values = np.zeros(1000)
    values[500] = 1.0
    spike = SamplingDistribution.from_density(mag_range, values)
    x_spike = mag_range.cell_midpoints(1000)[500]
    profile = accumulated_signal(spike, info_kernel, 1000)
    far = np.abs(profile.ys - x_spike) > 0.01
    assert np.allclose(profile.values[far], info_kernel(x_spike, profile.ys[far]), atol=1e-5)
    assert total_signal(spike, info_kernel) == pytest.approx(
        info_kernel.transfer_potential(x_spike, mag_range), abs=1e-3
    )


def test_kernel_range_mismatch_raises(cu_dist):
    xs = np.linspace(0.5, 1.5, 8)
    small = TabulatedKernel(xs, xs, np.ones((8, 8)))
    with pytest.raises(RangeError):
        accumulated_signal(cu_dist, small, 100)
    with pytest.raises(RangeError):
        total_signal(cu_dist, small)


def test_grid_validation(cu_dist, info_kernel):
    with pytest.raises(ParameterError):
        accumulated_signal(cu_dist, info_kernel, 1)


def test_blockwise_profile_equals_single_product(mag_range, info_kernel):
    # 1024 targets span four kernel blocks; the density term must come out
    # bit for bit as one product over the whole cell-by-target matrix.
    from magsample.signal import _TARGET_BLOCK

    grid_n = 4 * _TARGET_BLOCK
    dist = SamplingDistribution(
        mag_range, density=np.random.default_rng(11).random(300) + 0.1
    )
    ys = mag_range.grid(grid_n)
    cells = np.diff(info_kernel._antiderivative(dist.cell_edges(), ys), axis=0)
    single = np.einsum("i,ij->j", dist.density, cells)
    profile = accumulated_signal(dist, info_kernel, grid_n)
    assert profile.values.tobytes() == single.tobytes()


# -- golden CLI outputs ------------------------------------------------------------

_GOLDEN_DISTS = {
    "du.msdist": "#msdist v1\nrange 0.25 2.0\n"
    "atom 0.25 0.25\natom 0.5 0.25\natom 1.0 0.25\natom 2.0 0.25\n",
    "cu.msdist": "#msdist v1\nrange 0.25 2.0\ndensity 1\n1.0\n",
}

# sha256 of each output file, written by the exact per-cell integrals. The
# signal is of mm_info.msdist, so it moves with the info max-min solve.
SIGNAL_SHA256 = {
    "signal.csv": "db6f96776b6754381dd09d2a525f673cfb932de777e3be177cc5908ec988f8c3",
    "signal.summary.csv": "0109399b50c59f55ca686d7f1030c421212f514272d5b3e7b26d1a7d1dc7ce59",
}
COMPARE_SHA256 = {
    "abs": "0ec76f19a3c64ac5142fe4ada2c206705d65bf82ea7200a9136ec0d878af9541",
    "custom:tab.csv": "e9b1d081474bb84e9f542bd64c90fd45eed8489d16ebc4a3848ae366c461e336",
}


@pytest.fixture()
def golden_dists(tmp_path, monkeypatch):
    """The two uniform strategies, max-min on info and abs, and a Gibbs density."""
    monkeypatch.chdir(tmp_path)
    for name, text in _GOLDEN_DISTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    for kernel in ("info", "abs"):
        assert main(["optimize", "--objective", "maxmin", "--grid", "120",
                     "--kernel", kernel, "--out", f"mm_{kernel}.msdist"]) == 0
    assert main(["optimize", "--objective", "maxavg", "--lambda", "0.1", "--grid", "120",
                 "--out", "ma.msdist"]) == 0
    # a positive, asymmetric 12 x 12 table over [0.2, 2.1]
    xs = np.linspace(0.2, 2.1, 12)
    d = np.log(xs[:, None] / xs[None, :])
    values = np.exp(-0.5 * np.abs(d) * np.where(d > 0, 1.4, 0.6))
    values *= np.random.default_rng(5).uniform(0.95, 1.05, size=values.shape)
    lines = ["x,y,value"] + [
        f"{float(x)!r},{float(y)!r},{float(values[i, j])!r}"
        for i, x in enumerate(xs) for j, y in enumerate(xs)
    ]
    (tmp_path / "tab.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_signal_csv_golden_digest(golden_dists):
    assert main(["signal", "--grid", "300", "--kernel", "info", "--dist", "mm_info.msdist",
                 "--out", "signal.csv"]) == 0
    assert {name: _sha256(golden_dists / name) for name in SIGNAL_SHA256} == SIGNAL_SHA256


@pytest.mark.parametrize("kernel", sorted(COMPARE_SHA256))
def test_compare_csv_golden_digest(golden_dists, kernel):
    assert main(["compare", "--grid", "200", "--kernel", kernel, "--out", "compare.csv",
                 "du.msdist", "cu.msdist", "mm_abs.msdist", "ma.msdist"]) == 0
    assert _sha256(golden_dists / "compare.csv") == COMPARE_SHA256[kernel]
