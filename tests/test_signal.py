import hashlib
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from magsample import (
    AbsDistanceKernel,
    DomainError,
    InfoOverlapKernel,
    Kernel,
    MagRange,
    ParameterError,
    RangeError,
    SamplingDistribution,
    TabulatedKernel,
    accumulated_signal,
    optimize_max_avg,
    optimize_max_min,
    signal_summary,
    total_signal,
)

from magsample import signal as signal_module
from magsample.kernels import GRID_BLOCK
from magsample.optimize import OptimizationConfig
from magsample.cli import main

from conftest import (
    STANDARDS,
    MisdeclaredKernel,
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


_WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
_SPOTS = st.floats(0.25, 2.0)


@st.composite
def _profile_case(draw):
    """A kernel (abs, info or a positive 3 x 3 table over [0.2, 2.1]) and
    one to three distributions on [0.25, 2]: atoms plus a density, each
    density on the same number of cells, so that they share their blocks."""
    name = draw(st.sampled_from(["abs", "info", "table"]))
    if name == "table":
        values = draw(st.lists(st.floats(0.05, 1.0), min_size=9, max_size=9))
        nodes = [0.2, draw(st.floats(0.3, 2.0)), 2.1]
        kernel = TabulatedKernel(nodes, nodes, np.reshape(values, (3, 3)))
    else:
        kernel = AbsDistanceKernel() if name == "abs" else InfoOverlapKernel()
    cells = draw(st.integers(1, 60))
    dists = []
    for _ in range(draw(st.integers(1, 3))):
        atoms = draw(st.lists(st.tuples(_SPOTS, _WEIGHTS), max_size=4))
        density = draw(st.none() | st.lists(_WEIGHTS, min_size=cells, max_size=cells))
        assume(sum(w for _, w in atoms) + sum(density or ()) > 0.0)
        dists.append(SamplingDistribution(MagRange(), atoms=atoms, density=density))
    return kernel, dists


@settings(max_examples=60, deadline=None)
@given(case=_profile_case(), grids=st.lists(st.integers(2, 600), min_size=2, max_size=2,
                                             unique=True))
def test_fubini_consistency(case, grids):
    # the integral of the profile over the range is the potential-weighted
    # mass: every profile's total is total_signal's, bit for bit, at any grid,
    # made alone or together with other distributions
    kernel, dists = case
    exact = [total_signal(d, kernel) for d in dists]
    for grid_n in grids:
        together = signal_module.accumulated_signals(dists, kernel, grid_n)
        for d, total, profile in zip(dists, exact, together):
            assert profile.total == total
            assert profile.mean == total / d.range.width
            assert accumulated_signal(d, kernel, grid_n).total == total


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
        dens = dist.density[dist.range.cell_of(mid, dist.cells)]
        dens = dens[:, None] * half[:, None] * _GL_WEIGHTS
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
            # the profile's total is exact; the trapezoid of its values is
            # an independent check of it
            fine = accumulated_signal(d, kernel, 20001)
            assert fine.total == total_signal(d, kernel)
            assert abs(fine.total - np.trapezoid(fine.values, fine.ys)) < 1e-7


_BLAS_PROBE = """
import hashlib, numpy as np
from magsample import (AbsDistanceKernel, InfoOverlapKernel, MagRange, SamplingDistribution,
                       accumulated_signal)
g, r, k = np.random.default_rng(3), MagRange(), InfoOverlapKernel()
dense = SamplingDistribution(r, density=g.random(5000) + 0.01)
atoms = SamplingDistribution(r, atoms=list(zip(g.uniform(0.25, 2.0, 3000), g.random(3000))))
# the abs kernel's density profile takes the dense edge-by-target path
for d, kernel in ((dense, k), (atoms, k), (dense, AbsDistanceKernel())):
    print(hashlib.sha256(accumulated_signal(d, kernel, 3001).values.tobytes()).hexdigest())
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
    mixture = SamplingDistribution(
        mag_range,
        atoms=[(0.4, alpha * d1.atom_weights[0]), (1.7, (1 - alpha) * d2.atom_weights[0])],
        density=alpha * d1.density + (1 - alpha) * d2.density,
    )
    pm = accumulated_signal(mixture, info_kernel, 400)
    p1 = accumulated_signal(d1, info_kernel, 400)
    p2 = accumulated_signal(d2, info_kernel, 400)
    assert np.allclose(pm.values, alpha * p1.values + (1 - alpha) * p2.values, atol=1e-12)


def test_summaries_stable_under_grid_refinement(mag_range, info_kernel):
    mids = mag_range.cell_midpoints(100)
    smooth = SamplingDistribution(mag_range, density=np.exp(-((mids - 1.0) ** 2)))
    coarse = signal_summary(smooth, info_kernel, 1000)
    fine = signal_summary(smooth, info_kernel, 4000)
    assert abs(coarse.min_value - fine.min_value) < 5e-3
    assert coarse.total == fine.total
    assert coarse.mean == fine.mean
    assert abs(coarse.argmin_y - fine.argmin_y) < 5e-3


def test_profile_internal_consistency(du_dist, info_kernel):
    profile = accumulated_signal(du_dist, info_kernel, 333)
    assert np.all(profile.values >= 0.0)
    assert profile.min_value == profile.values.min()
    assert profile.total == total_signal(du_dist, info_kernel)
    assert profile.mean == profile.total / du_dist.range.width


def test_spiky_density_keeps_its_mass(mag_range, info_kernel):
    # one very tall cell: the cell-aligned quadrature must not double count;
    # away from the kernel's diagonal kink the profile matches a point mass
    values = np.zeros(1000)
    values[500] = 1.0
    spike = SamplingDistribution(mag_range, density=values)
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
    message = r"^kernel 'custom' is not defined on \[0.25, 2.0\]$"
    with pytest.raises(RangeError, match=message):
        accumulated_signal(cu_dist, small, 100)
    with pytest.raises(RangeError, match=message):
        total_signal(cu_dist, small)
    with pytest.raises(RangeError, match=message):
        OptimizationConfig(kernel=small)


class _BareKernel(Kernel):
    """abs's values, potential and potential antiderivative, declaring no
    structure and giving no antiderivative in x."""

    name = "bare"
    _evaluate = AbsDistanceKernel._evaluate
    _transfer_potential = AbsDistanceKernel._transfer_potential
    _potential_antiderivative = AbsDistanceKernel._potential_antiderivative


def test_kernel_without_an_antiderivative_is_a_domain_error(mag_range, abs_kernel):
    # the matrix path needs the antiderivative the kernel lacks
    with pytest.raises(DomainError, match=(
        "^kernel 'bare' has no antiderivative in x and no Green's factors that match its values$"
    )):
        accumulated_signal(SamplingDistribution.uniform(mag_range, 10), _BareKernel())
    # atoms need no antiderivative
    atoms = SamplingDistribution.discrete(mag_range, STANDARDS)
    got = accumulated_signal(atoms, _BareKernel(), 200).values
    assert got.tobytes() == accumulated_signal(atoms, abs_kernel, 200).values.tobytes()


class _ValuesOnlyKernel(Kernel):
    """abs's values alone: no potential and no antiderivative of any kind."""

    name = "values-only"
    _evaluate = AbsDistanceKernel._evaluate


@pytest.mark.parametrize("call, missing", [
    (lambda k, r: accumulated_signal(SamplingDistribution.discrete(r, STANDARDS), k, 200),
     "transfer potential"),
    (lambda k, r: k.transfer_potential(0.5, r), "transfer potential"),
    (lambda k, r: optimize_max_avg(OptimizationConfig(kernel=k, mag_range=r, grid_n=20)),
     "transfer potential"),
    (lambda k, r: total_signal(SamplingDistribution.uniform(r, 10), k),
     "antiderivative of its transfer potential"),
], ids=["atoms", "potential", "maxavg", "density-total"])
def test_kernel_with_only_its_values_is_a_domain_error(call, missing, mag_range, abs_kernel):
    kernel = _ValuesOnlyKernel()
    with pytest.raises(DomainError, match=f"^kernel 'values-only' has no {missing}$"):
        call(kernel, mag_range)
    # max-min needs K alone
    cfg = OptimizationConfig(kernel=kernel, mag_range=mag_range, grid_n=20)
    want = optimize_max_min(OptimizationConfig(kernel=abs_kernel, mag_range=mag_range, grid_n=20))
    assert optimize_max_min(cfg).achieved_t == pytest.approx(want.achieved_t, rel=1e-12)


def test_green_factors_that_overflow_warn_nothing(info_kernel):
    # On [1e-300, 2e-300] info's q = x^-2 divides by zero, and p = x^2 is 0:
    # factors that are not finite fail the Green's check, quietly
    tiny = MagRange(1e-300, 2e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = optimize_max_min(OptimizationConfig(kernel=info_kernel, mag_range=tiny, grid_n=50))
        with pytest.raises(DomainError, match="^kernel 'info' has no antiderivative in x"):
            accumulated_signal(SamplingDistribution.uniform(tiny, 10), info_kernel, 100)
    assert solution.solver == "equalizer"
    # info depends only on x / y, so the game on [1, 2] has the same solution
    unit = optimize_max_min(OptimizationConfig(kernel=info_kernel, mag_range=MagRange(1.0, 2.0),
                                               grid_n=50))
    assert unit.solver == "green"
    assert solution.achieved_t == pytest.approx(unit.achieved_t, rel=1e-12)
    q, q_unit = solution.distribution.density, unit.distribution.density
    assert np.allclose(q / q.sum(), q_unit / q_unit.sum(), rtol=1e-9, atol=0.0)


def test_grid_validation(cu_dist, info_kernel):
    with pytest.raises(ParameterError):
        accumulated_signal(cu_dist, info_kernel, 1)


def test_blockwise_profile_equals_single_product(mag_range, abs_kernel):
    # 1024 targets span four kernel blocks; the density term must come out
    # bit for bit as one product over the whole cell-by-target matrix.
    grid_n = 4 * GRID_BLOCK
    dist = SamplingDistribution(
        mag_range, density=np.random.default_rng(11).random(300) + 0.1
    )
    ys = mag_range.grid(grid_n)
    cells = np.diff(abs_kernel._antiderivative(dist.cell_edges(), ys), axis=0)
    single = np.einsum("i,ij->j", dist.density, cells)
    profile = accumulated_signal(dist, abs_kernel, grid_n)
    assert profile.values.tobytes() == single.tobytes()


def test_factors_without_integrals_keep_the_dense_path(mag_range, abs_kernel):
    # Green's factors alone do not select the Green's path: the kernel is
    # integrated by its own antiderivative, so this is abs bit for bit
    density = np.random.default_rng(13).random(300) + 0.1
    dist = SamplingDistribution(mag_range, atoms=[(0.7, 0.2)], density=density)
    got = accumulated_signal(dist, MisdeclaredKernel(), 700).values
    assert got.tobytes() == accumulated_signal(dist, abs_kernel, 700).values.tobytes()


class RatioFactorsKernel(InfoOverlapKernel):
    """The info kernel, declaring the Green's factors (x, 1/x) of min / max,
    not of its square, with their true integrals (x^2 / 2, log x)."""

    def green_factors(self, x):
        return x, 1.0 / x

    def green_integrals(self, x):
        return 0.5 * x * x, np.log(x)


class MisdeclaredWithIntegrals(MisdeclaredKernel):
    """The abs kernel, declaring the info kernel's Green's factors and integrals."""

    green_integrals = InfoOverlapKernel.green_integrals


def test_green_factors_that_do_not_match_the_kernel_are_a_domain_error(mag_range):
    # The factors multiply to min / max, not (min / max)^2. Unchecked, they
    # gave a profile off by 0.208 against a quadrature of the kernel; info
    # has no antiderivative in x to fall back on.
    dist = SamplingDistribution.uniform(mag_range, 50)
    with pytest.raises(DomainError, match=(
        "^kernel 'info' has no antiderivative in x and no Green's factors that match its values$"
    )):
        accumulated_signal(dist, RatioFactorsKernel(), 200)
    # atoms alone never take the Green's path
    atoms = SamplingDistribution.discrete(mag_range, STANDARDS)
    got = accumulated_signal(atoms, RatioFactorsKernel(), 200).values
    assert got.tobytes() == accumulated_signal(atoms, InfoOverlapKernel(), 200).values.tobytes()
    # the max-min game rejects the same declaration by the same check
    solution = optimize_max_min(OptimizationConfig(kernel=RatioFactorsKernel(), grid_n=200))
    assert solution.solver == "equalizer"


def test_green_factors_that_do_not_match_take_the_dense_path(mag_range, abs_kernel):
    # a kernel that fails its declaration and has an antiderivative in x is
    # integrated by it, so this is abs bit for bit
    density = np.random.default_rng(14).random(300) + 0.1
    dist = SamplingDistribution(mag_range, atoms=[(0.7, 0.2)], density=density)
    got = accumulated_signal(dist, MisdeclaredWithIntegrals(), 700).values
    assert got.tobytes() == accumulated_signal(dist, abs_kernel, 700).values.tobytes()


def _profile_alone_reference(dist, kernel, grid_n):
    """S(y) of one distribution as accumulated_signal first wrote it, with
    its own edge-by-target blocks."""
    ys = dist.range.grid(grid_n)
    values = np.zeros(grid_n)
    edges = dist.cell_edges() if dist.has_density else None
    green = None
    if dist.has_density:
        green = signal_module._green_density_signal(dist, kernel, ys)
    for lo in range(0, grid_n, GRID_BLOCK):
        block = slice(lo, lo + GRID_BLOCK)
        if dist.has_atoms:
            km = kernel(dist.atom_locations[:, None], ys[None, block])
            values[block] += np.einsum("i,ij->j", dist.atom_weights, km)
        if dist.has_density and green is None:
            per_cell = np.diff(kernel._antiderivative(edges, ys[block]), axis=0)
            values[block] += np.einsum("i,ij->j", dist.density, per_cell)
    if green is not None:
        values += green
    return values


_SHARED_RANGES = (MagRange(0.25, 2.0), MagRange(0.5, 1.5))


@settings(max_examples=80, deadline=None)
@given(
    kernel_name=st.sampled_from(["abs", "info", "table"]),
    # (range index, cells or None, atom count) of each distribution; few cell
    # counts, so that densities often share their cells, and often do not
    parts=st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from([None, 1, 7, 300]), st.integers(0, 3)),
        min_size=1, max_size=5,
    ),
    grid_n=st.integers(2, 700),
    seed=st.integers(0, 2**32 - 1),
)
@example(kernel_name="abs", parts=[(0, None, 4), (0, 1, 0), (0, 300, 0), (0, 300, 0)],
         grid_n=600, seed=0)
def test_shared_profiles_are_each_alone_bit_for_bit(kernel_name, parts, grid_n, seed):
    g = np.random.default_rng(seed)
    kernel = {"abs": AbsDistanceKernel(), "info": InfoOverlapKernel(),
              "table": _random_table(g)[0]}[kernel_name]
    dists = []
    for r, cells, atoms in parts:
        mag_range = _SHARED_RANGES[r]
        atoms = atoms if cells else max(atoms, 1)
        xs = g.uniform(mag_range.a, mag_range.b, atoms)
        density = None
        if cells:
            density = g.random(cells) * (g.random(cells) < 0.8)  # some cells are 0
            density[0] += 0.1
        dists.append(SamplingDistribution(mag_range, atoms=zip(xs, g.uniform(0.1, 1.0, atoms)),
                                          density=density))
    profiles = signal_module.accumulated_signals(dists, kernel, grid_n)
    assert len(profiles) == len(dists)
    for dist, profile in zip(dists, profiles):
        assert profile.values.tobytes() == _profile_alone_reference(dist, kernel, grid_n).tobytes()
        alone = accumulated_signal(dist, kernel, grid_n)
        assert profile.ys.tobytes() == alone.ys.tobytes()
        assert profile.summary() == alone.summary()


# -- the Green's path of the info kernel -----------------------------------------


def _info_antiderivative_reference(x, y):
    x, y = x[:, None], y[None, :]
    return np.minimum(x, y) ** 3 / (3.0 * y * y) + y * np.maximum(0.0, 1.0 - y / x)


def _info_reference(ys, edges, density, atom_x=(), atom_w=(), dtype=np.float64):
    """S(y) of the info kernel as the dense path wrote it, in ``dtype``: each
    cell's difference of the antiderivative, summed by einsum, plus the atoms."""
    edges, density, ys = (np.asarray(v).astype(dtype) for v in (edges, density, ys))
    atom_x, atom_w = (np.asarray(v, dtype=float).astype(dtype) for v in (atom_x, atom_w))
    out = np.empty_like(ys)
    for lo in range(0, ys.size, 500):
        y = ys[lo : lo + 500]
        ratio = np.minimum(atom_x[:, None], y) / np.maximum(atom_x[:, None], y)
        per_cell = np.diff(_info_antiderivative_reference(edges, y), axis=0)
        out[lo : lo + 500] = np.einsum("i,ij->j", atom_w, ratio * ratio) + np.einsum(
            "i,ij->j", density, per_cell
        )
    return out


# S(y) and each integral in it are sums of nonnegative terms, so the Green's
# path is held to this error relative to each value against the long-double
# reference. The float64 dense reference cancels in y * (1 - y / x) where y is
# small against the cells above it (3e-12 of S(a) on a range out to 1e3), so
# against it the error is relative to the profile's largest value.
_GREEN_RTOL = 1e-13


def _relative_error(got, want, pointwise=True):
    want = np.asarray(want, dtype=np.longdouble)
    scale = np.maximum(want if pointwise else want.max(), np.finfo(np.longdouble).tiny)
    return float(np.max(np.abs(got - want) / scale))


def _green_case(log_a, log_ratio, cells, seed):
    """A range from 1e-3 to 1e3 at widest, a density with zero-valued cells,
    and up to three atoms, some on cell edges."""
    a = 10.0**log_a
    r = MagRange(a, min(a * 10.0**log_ratio, 1e3))
    g = np.random.default_rng(seed)
    density = np.where(g.random(cells) < 0.2, 0.0, g.random(cells))
    edges = r.cell_edges(cells)
    n = int(g.integers(0, 4))
    atom_x = np.where(g.random(n) < 0.5, g.choice(edges, n), g.uniform(r.a, r.b, n))
    if not density.any() and not n:
        density[-1] = 1.0
    dist = SamplingDistribution(r, atoms=zip(atom_x, g.random(n) + 0.05), density=density)
    return dist, edges


@settings(max_examples=60, deadline=None)
@given(
    log_a=st.floats(-3.0, 2.8),
    log_ratio=st.floats(0.18, 6.0),
    cells=st.integers(1, 500),
    grid=st.integers(2, 3000),
    seed=st.integers(0, 2**32 - 1),
)
@example(log_a=-3.0, log_ratio=6.0, cells=500, grid=3000, seed=0)
@example(log_a=-3.0, log_ratio=6.0, cells=1, grid=2, seed=1)
@example(log_a=math.log10(0.25), log_ratio=math.log10(8.0), cells=500, grid=1501, seed=2)
def test_green_profile_matches_the_references(log_a, log_ratio, cells, grid, seed):
    dist, edges = _green_case(log_a, log_ratio, cells, seed)
    ys = dist.range.grid(grid)
    atoms = (dist.atom_locations, dist.atom_weights)
    got = accumulated_signal(dist, InfoOverlapKernel(), grid).values
    # the density term alone, at the grid and at every cell edge, a and b included
    targets = np.union1d(ys, edges)
    term = signal_module._green_density_signal(dist, InfoOverlapKernel(), targets)
    for dtype in (np.float64, np.longdouble):
        pointwise = dtype is np.longdouble
        want = _info_reference(ys, edges, dist.density, *atoms, dtype=dtype)
        assert _relative_error(got, want, pointwise) <= _GREEN_RTOL
        want = _info_reference(targets, edges, dist.density, dtype=dtype)
        assert _relative_error(term, want, pointwise) <= _GREEN_RTOL


def _wide_green_case():
    return _green_case(-3.0, 6.0, 500, 4)


def test_green_path_matches_mpmath_on_the_widest_range():
    # the long-double reference is itself checked against 40-digit sums of
    # each cell's exact integral, at a, b, cell edges and inner targets
    dist, edges = _wide_green_case()
    ys = np.sort(np.concatenate((dist.range.grid(7), edges[[1, 2, 250, 498, 499]])))
    got = signal_module._green_density_signal(dist, InfoOverlapKernel(), ys)
    want = _info_reference(ys, edges, dist.density, dtype=np.longdouble)
    with mpmath.workdps(40):
        e = [mpmath.mpf(float(v)) for v in edges]
        for j, y in enumerate(map(mpmath.mpf, ys.tolist())):
            exact = mpmath.fsum(
                mpmath.mpf(float(d))
                * ((min(hi, y) ** 3 - min(lo, y) ** 3) / (3 * y * y)
                   + y * y * (1 / max(lo, y) - 1 / max(hi, y)))
                for d, lo, hi in zip(dist.density, e[:-1], e[1:])
            )
            assert abs(mpmath.mpf(float(got[j])) - exact) <= _GREEN_RTOL * exact
            assert abs(mpmath.mpf(str(want[j])) - exact) <= 1e-16 * exact


def test_total_minus_prefix_fails_the_wide_range_oracle():
    # The integral over x > y written as the total minus a prefix sum, with
    # everything else as in the Green's path: on [1e-3, 1e3] it cancels where
    # the tail is small against the total, and the oracle sees it.
    dist, edges = _wide_green_case()
    ys = dist.range.grid(700)
    kernel, d = InfoOverlapKernel(), dist.density
    (p_y, q_y), (P_e, Q_e) = kernel.green_factors(ys), kernel.green_integrals(edges)
    P_y, Q_y = kernel.green_integrals(ys)
    prefix_p = np.concatenate(([0.0], np.cumsum(d * np.diff(P_e))))
    prefix_q = np.concatenate(([0.0], np.cumsum(d * np.diff(Q_e))))
    k = dist.range.cell_of(ys, d.size)
    left = prefix_p[k] + d[k] * (P_y - P_e[k])
    right = prefix_q[-1] - prefix_q[k + 1] + d[k] * (Q_e[k + 1] - Q_y)
    want = _info_reference(ys, edges, d, dtype=np.longdouble)
    assert _relative_error(q_y * left + p_y * right, want) > 100 * _GREEN_RTOL
    got = signal_module._green_density_signal(dist, kernel, ys)
    assert _relative_error(got, want) <= _GREEN_RTOL


# -- golden CLI outputs ------------------------------------------------------------

_GOLDEN_DISTS = {
    "du.msdist": "#msdist v1\nrange 0.25 2.0\n"
    "atom 0.25 0.25\natom 0.5 0.25\natom 1.0 0.25\natom 2.0 0.25\n",
    "cu.msdist": "#msdist v1\nrange 0.25 2.0\ndensity 1\n1.0\n",
}

# sha256 of each output file, written by the exact per-cell integrals: the
# prefix and suffix sums of the Green's path for info, the edge-by-target
# matrix for abs and the table; each total and mean is total_signal's. The
# signal is of mm_info.msdist, so it moves with the info max-min solve;
# compare reads mm_abs.msdist, so it moves with the abs max-min solve.
SIGNAL_SHA256 = {
    "signal.csv": "3847e2f6572309bc0920b17b783020f8391e9bd092db0c783e060f29b1a5daa5",
    "signal.summary.csv": "2656c531ec025d0f364ffef7b890e301796fa3e6efb9acbd38ac479c3f326cca",
}
COMPARE_SHA256 = {
    "info": "1ff562bac3a2e2586e3fbbbe985e3c3195915a61c7baebc7fd3bc77c7e31da6f",
    "abs": "9c6b4a0a625ba8f88f5d89ca3b4a4870e42c754a9551bc9b87f403dd3ddb2715",
    "custom:tab.csv": "f64f0bf4f72493563df5555857e7bff01dadf4fe48d158223a0ca1304c5c7448",
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
