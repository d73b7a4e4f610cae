"""Property-based checks of the CDF/quantile pair and the file round trip."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magsample import MagRange, SamplingDistribution, read_distribution, write_distribution

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
