"""Property-based checks of the CDF/quantile pair and the file round trip."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magsample import (
    AbsDistanceKernel,
    InfoOverlapKernel,
    MagRange,
    ParameterError,
    SamplingDistribution,
    read_distribution,
    total_signal,
    write_distribution,
)

FEW = settings(max_examples=40, deadline=None)

weights = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))


@st.composite
def distributions(draw):
    """A valid mixed distribution: atoms plus an optional piecewise-constant density."""
    a = draw(st.floats(0.05, 4.0))
    b = a + draw(st.floats(1e-3, 8.0))
    mag_range = MagRange(a, b)
    spots = st.floats(0.0, 1.0).map(lambda f: min(b, a + f * (b - a)))
    atoms = draw(st.lists(st.tuples(spots, weights), max_size=6))
    density = draw(st.none() | st.lists(weights, min_size=1, max_size=12))
    assume(sum(w for _, w in atoms) + sum(density or ()) > 0.0)
    return SamplingDistribution(mag_range, atoms=atoms, density=density)


unit_draws = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)


@FEW
@given(distributions(), unit_draws)
def test_quantile_is_monotone(dist, us):
    q = dist.quantile(np.sort(us))
    assert np.all(np.diff(q) >= 0.0)
    assert np.all((q >= dist.range.a) & (q <= dist.range.b))


@FEW
@given(distributions(), unit_draws)
def test_mass_below_quantile_is_at_most_u(dist, us):
    u = np.asarray(us)
    assert np.all(dist.cdf_before(dist.quantile(u)) <= u + 1e-12)


@FEW
@given(distributions())
def test_write_read_write_is_byte_identical(dist):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.msdist"), Path(tmp, "second.msdist")
        write_distribution(dist, first)
        write_distribution(read_distribution(first), second)
        assert second.read_bytes() == first.read_bytes()


def test_mass_below_quantile_on_a_steep_narrow_cell():
    # One ulp of x here carries more than 1e-12 of mass, so the nearest float
    # to the interpolated quantile overshoots u unless it is stepped down.
    dist = SamplingDistribution(
        MagRange(2.5705590555255102, 2.571597037773558),
        density=[0.0, 927.463756946008, 0.0, 0.0, 0.0, 246.63553751451536, 0.0],
    )
    assert dist.cdf_before(dist.quantile(0.5)) <= 0.5 + 1e-12
    assert dist.cdf_before(dist.quantile(np.array([0.5])))[0] <= 0.5 + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    log_a=st.floats(-300.0, 3.0),
    log_width=st.floats(-16.0, 0.0),
    cells=st.integers(1, 5000),
    atoms=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_cells_are_refused_or_give_a_sound_distribution(log_a, log_width, cells, atoms, seed):
    # Totals are not asserted positive: they are differences of a potential's
    # antiderivative, which cancel on narrow ranges, on accepted cells too.
    g = np.random.default_rng(seed)
    density = np.where(g.random(cells) < 0.2, 0.0, g.random(cells))
    density[g.integers(cells)] += 1.0
    try:
        a = 10.0**log_a
        r = MagRange(a, a + a * 10.0**log_width)
        spots = np.minimum(r.b, r.a + g.random(atoms) * r.width)
        dist = SamplingDistribution(r, atoms=zip(spots, g.random(atoms)), density=density)
    except ParameterError:
        return
    assert abs(dist.cdf_before(np.nextafter(r.b, np.inf)) - 1.0) <= 1e-12
    q = dist.quantile(np.linspace(0.0, 1.0, 200))
    assert np.all(np.isfinite(q) & (q >= r.a) & (q <= r.b))
    for kernel in (AbsDistanceKernel(), InfoOverlapKernel()):
        assert np.isfinite(total_signal(dist, kernel))
