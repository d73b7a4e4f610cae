import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magsample import (
    AbsDistanceKernel,
    DomainError,
    FormatError,
    InfoOverlapKernel,
    Kernel,
    MagRange,
    ParameterError,
    RangeError,
    TabulatedKernel,
    kernel_from_string,
)

from magsample import csvio, kernels

from conftest import (
    CSV_READERS,
    csv_result,
    quadrature_potential,
    raw_abs_kernel,
    raw_info_kernel,
)

# Closed-form potential at x = 1.125 on [0.25, 2]:
# (x^3 - a^3)/(3 x^2) = 721/1944, plus x - x^2/b = 0.4921875.
TP_INFO_1125 = 721.0 / 1944.0 + 0.4921875


def test_magrange_defaults_and_validation():
    r = MagRange()
    assert (r.a, r.b) == (0.25, 2.0)
    assert r.width == 1.75
    # subnormal bounds and widths, too: on them the kernels' quotients overflow
    for a, b in [(0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1e-310, 2e-310),
                 (2.5e-308, 2.5e-308 + 1e-320)]:
        with pytest.raises(ParameterError):
            MagRange(a, b)


def test_magrange_grid_and_cells():
    r = MagRange()
    assert np.allclose(r.grid(3), [0.25, 1.125, 2.0])
    assert np.allclose(r.cell_edges(2), [0.25, 1.125, 2.0])
    assert np.allclose(r.cell_midpoints(2), [0.6875, 1.5625])
    with pytest.raises(ParameterError):
        r.grid(1)
    with pytest.raises(ParameterError):
        r.cell_edges(0)


def test_info_kernel_values(info_kernel):
    assert info_kernel(0.7, 0.7) == 1.0
    assert info_kernel(0.5, 1.0) == 0.25
    assert info_kernel(1.0, 0.5) == 0.25


def test_abs_kernel_values(abs_kernel):
    assert abs_kernel(0.25, 2.0) == pytest.approx(1.0 / 2.75, rel=1e-15)
    assert abs_kernel(1.3, 1.3) == 1.0


def test_kernel_rejects_nonpositive(info_kernel, abs_kernel):
    for k in (info_kernel, abs_kernel):
        for x, y in [(0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0), (1.0, float("inf"))]:
            with pytest.raises(DomainError):
                k(x, y)


def test_kernel_symmetry_random(info_kernel, abs_kernel):
    g = np.random.default_rng(11)
    xs = g.uniform(0.05, 5.0, 300)
    ys = g.uniform(0.05, 5.0, 300)
    for k in (info_kernel, abs_kernel):
        assert np.array_equal(k(xs, ys), k(ys, xs))


def test_kernel_bounds_random(info_kernel, abs_kernel):
    g = np.random.default_rng(12)
    xs = g.uniform(0.05, 5.0, 300)
    ys = g.uniform(0.05, 5.0, 300)
    same = xs == ys
    for k in (info_kernel, abs_kernel):
        v = k(xs, ys)
        assert np.all(v > 0.0) and np.all(v <= 1.0)
        assert np.all(v[~same] < 1.0)
        assert np.all(k(xs, xs) == 1.0)


def test_transfer_potential_closed_forms(info_kernel, abs_kernel, mag_range):
    assert info_kernel.transfer_potential(0.25, mag_range) == pytest.approx(0.21875, abs=1e-12)
    assert info_kernel.transfer_potential(1.125, mag_range) == pytest.approx(
        TP_INFO_1125, abs=1e-12
    )
    assert abs_kernel.transfer_potential(1.125, mag_range) == pytest.approx(
        2.0 * math.log(1.875), abs=1e-12
    )


def test_transfer_potential_matches_quadrature_oracle(mag_range):
    assert InfoOverlapKernel().transfer_potential(1.125, mag_range) == pytest.approx(
        quadrature_potential(raw_info_kernel, 0.25, 2.0, 1.125), abs=1e-5
    )
    assert AbsDistanceKernel().transfer_potential(1.125, mag_range) == pytest.approx(
        quadrature_potential(raw_abs_kernel, 0.25, 2.0, 1.125), abs=1e-5
    )


def test_closed_forms_match_quadrature_at_random_points(mag_range):
    g = np.random.default_rng(3)
    xs = g.uniform(mag_range.a, mag_range.b, 100)
    for kernel, raw in [
        (InfoOverlapKernel(), raw_info_kernel),
        (AbsDistanceKernel(), raw_abs_kernel),
    ]:
        closed = kernel.transfer_potential(xs, mag_range)
        for x, c in zip(xs, closed):
            oracle = quadrature_potential(raw, mag_range.a, mag_range.b, x)
            assert abs(c - oracle) < 1e-6


def test_transfer_potential_outside_range_raises(info_kernel, mag_range):
    for x in (0.2499, 2.0001, 10.0):
        with pytest.raises(RangeError):
            info_kernel.transfer_potential(x, mag_range)


def _curve(kernel, mag_range, n):
    """The n-point grid and the transfer potential on it, as ``magsample
    kernel`` tabulates them."""
    xs = mag_range.grid(n)
    return xs, kernel.transfer_potential(xs, mag_range)


def test_curve_absdistance_argmax_at_midpoint(abs_kernel, mag_range):
    xs, values = _curve(abs_kernel, mag_range, 1001)
    assert xs[np.argmax(values)] == 1.125
    assert np.all(values > 0.0)


def test_curve_info_argmax_matches_dense_oracle(info_kernel, mag_range):
    dense, potential = _curve(info_kernel, mag_range, 200_001)
    oracle = dense[np.argmax(potential)]
    xs, values = _curve(info_kernel, mag_range, 1001)
    assert abs(xs[np.argmax(values)] - oracle) <= 0.002
    assert abs(xs[np.argmax(values)] - 1.338) <= 0.002


def test_curve_grid_of_two_is_endpoints(info_kernel, mag_range):
    xs, values = _curve(info_kernel, mag_range, 2)
    assert np.allclose(xs, [0.25, 2.0])
    assert values[0] == pytest.approx(0.21875, abs=1e-12)
    with pytest.raises(ParameterError):
        _curve(info_kernel, mag_range, 1)


def test_prop1_absdistance_random_ranges(abs_kernel):
    # Radially decreasing kernels peak at the range midpoint and bottom out
    # at an endpoint; checked on odd grids that contain the midpoint.
    g = np.random.default_rng(5)
    for _ in range(20):
        a = g.uniform(0.05, 1.0)
        r = MagRange(a, a + g.uniform(0.2, 3.0))
        n = int(2 * g.integers(1, 1000) + 1)
        xs, values = _curve(abs_kernel, r, n)
        assert xs[np.argmax(values)] == xs[(n - 1) // 2]
        assert int(np.argmin(values)) in (0, n - 1)


def _random_decreasing_radial_kernel(g, mag_range, nodes=129):
    alpha = g.uniform(0.2, 4.0)
    beta = g.uniform(0.1, 2.0)
    xs = np.linspace(mag_range.a, mag_range.b, nodes)  # odd: midpoint is a node
    dist = np.abs(xs[:, None] - xs[None, :])
    values = np.exp(-alpha * dist) + beta / (1.0 + dist)
    return TabulatedKernel(xs, xs, values)


def test_prop1_tabulated_decreasing_kernels(mag_range):
    g = np.random.default_rng(6)
    for _ in range(10):
        k = _random_decreasing_radial_kernel(g, mag_range)
        xs, values = _curve(k, mag_range, 1001)
        assert xs[np.argmax(values)] == xs[500]
        assert int(np.argmin(values)) in (0, 1000)


def test_tabulated_reproduces_bilinear_function():
    # Bilinear interpolation is exact on bilinear data.
    xs = np.array([0.2, 0.7, 1.4, 2.5])
    ys = np.array([0.3, 0.9, 2.1])
    f = lambda x, y: 0.2 + 0.1 * x + 0.05 * y + 0.02 * x * y
    k = TabulatedKernel(xs, ys, f(xs[:, None], ys[None, :]))
    g = np.random.default_rng(8)
    qx = g.uniform(0.2, 2.5, 50)
    qy = g.uniform(0.3, 2.1, 50)
    assert np.allclose(k(qx, qy), f(qx, qy), atol=1e-12)
    assert k(0.2, 0.3) == pytest.approx(f(0.2, 0.3), abs=1e-15)
    assert k(2.5, 2.1) == pytest.approx(f(2.5, 2.1), abs=1e-15)


def test_tabulated_query_outside_grid_raises():
    xs = np.linspace(0.5, 1.5, 11)
    k = TabulatedKernel(xs, xs, np.ones((11, 11)))
    with pytest.raises(RangeError):
        k(0.4, 1.0)
    with pytest.raises(RangeError):
        k(1.0, 1.6)
    assert not k.covers(MagRange(0.25, 2.0))
    with pytest.raises(RangeError):
        k.transfer_potential(1.0, MagRange(0.25, 2.0))



def test_tabulated_outer_grid_equals_broadcast_points():
    g = np.random.default_rng(9)
    xs = np.sort(g.uniform(0.2, 2.2, 9))
    ys = np.sort(g.uniform(0.2, 2.2, 7))
    k = TabulatedKernel(xs, ys, g.uniform(0.1, 2.0, (9, 7)))
    qx = g.uniform(xs[0], xs[-1], 40)[:, None]
    qy = np.append(g.uniform(ys[0], ys[-1], 30), ys)[None, :]
    outer = k(qx, qy)
    assert outer.shape == (40, 37)
    assert outer.tobytes() == k(*np.broadcast_arrays(qx, qy)).tobytes()


def test_tabulated_range_check_follows_the_broadcast():
    xs = np.linspace(0.5, 1.5, 11)
    k = TabulatedKernel(xs, xs, np.ones((11, 11)))
    # an empty broadcast queries no point, however far out the other axis lies
    assert k(np.empty((0, 1)), np.array([[9.0, 1.0]])).shape == (0, 2)
    with pytest.raises(RangeError):
        k(np.array([[1.0], [1.2]]), np.array([[1.0, 1.6]]))
    with pytest.raises(ValueError, match="broadcast"):
        k(np.ones(3), np.ones(4))

def _tabulated_reference(k, x, y):
    """The bilinear expression as first written, fancy-indexed on the broadcast grid."""

    def locate(grid, q):
        i = np.clip(np.searchsorted(grid, q, side="right") - 1, 0, grid.size - 2)
        return i, (q - grid[i]) / (grid[i + 1] - grid[i])

    i, fx = locate(k.xs, x)
    j, fy = locate(k.ys, y)
    v = k.values
    return (
        v[i, j] * (1.0 - fx) * (1.0 - fy)
        + v[i + 1, j] * fx * (1.0 - fy)
        + v[i, j + 1] * (1.0 - fx) * fy
        + v[i + 1, j + 1] * fx * fy
    )


# query shapes (x, y) for sizes n and m; "nodes" is the transfer-potential call
# xa[..., None] against 1-d nodes, and the last three take the point-by-point gather
_QUERY_SHAPES = {
    "outer": lambda n, m: ((n, 1), (1, m)),
    "nodes": lambda n, m: ((n, 1), (m,)),
    "scalars": lambda n, m: ((), ()),
    "scalar x": lambda n, m: ((), (m,)),
    "scalar y": lambda n, m: ((n, 1), ()),
    "outer 3-d": lambda n, m: ((n, 1, 1), (1, m, 2)),
    "pairs": lambda n, m: ((n,), (n,)),
    "reversed outer": lambda n, m: ((1, m), (n, 1)),
    "interleaved 3-d": lambda n, m: ((n, 1, 2), (1, m, 1)),
}


@settings(max_examples=150, deadline=None)
@given(
    layout=st.sampled_from(sorted(_QUERY_SHAPES)),
    n=st.integers(0, 40),
    m=st.integers(0, 40),
    nx=st.integers(2, 9),
    ny=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
)
@example(layout="outer", n=0, m=5, nx=3, ny=4, seed=0)
@example(layout="pairs", n=0, m=0, nx=2, ny=2, seed=1)
@example(layout="outer", n=37, m=33, nx=64, ny=64, seed=2)
def test_tabulated_evaluate_is_the_reference_bit_for_bit(layout, n, m, nx, ny, seed):
    g = np.random.default_rng(seed)
    xs = np.sort(g.choice(np.linspace(0.2, 2.2, 200), nx, replace=False))
    ys = np.sort(g.choice(np.linspace(0.2, 2.2, 200), ny, replace=False))
    k = TabulatedKernel(xs, ys, g.uniform(0.05, 2.0, (nx, ny)))

    def queries(shape, nodes):
        # uniform points, with a third of them on the table's nodes
        q = g.uniform(nodes[0], nodes[-1], shape)
        on_node = g.random(shape) < 1 / 3
        return np.where(on_node, g.choice(nodes, shape), q)

    x_shape, y_shape = _QUERY_SHAPES[layout](n, m)
    x, y = queries(x_shape, xs), queries(y_shape, ys)
    got = k._evaluate(x, y)
    want = _tabulated_reference(k, x, y)
    assert np.shape(got) == np.shape(want) and np.result_type(got) == np.float64
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    layout=st.sampled_from(sorted(_QUERY_SHAPES)),
    n=st.integers(0, 40),
    m=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(layout="outer", n=1000, m=1000, seed=0)
def test_abs_evaluate_is_the_reference_bit_for_bit(layout, n, m, seed):
    g = np.random.default_rng(seed)
    x_shape, y_shape = _QUERY_SHAPES[layout](n, m)
    x = g.uniform(0.05, 6.0, x_shape)
    # some points coincide, where |x - y| is 0
    y = np.where(g.random(y_shape) < 0.25, x.flat[0] if x.size else 1.0,
                 g.uniform(0.05, 6.0, y_shape))
    got = AbsDistanceKernel()._evaluate(x, y)
    want = raw_abs_kernel(x, y)
    assert np.shape(got) == np.shape(want) and np.result_type(got) == np.float64
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if layout == "scalars":  # Python floats in, a Python float out
        value = AbsDistanceKernel()(float(x), float(y))
        assert type(value) is float and value == float(want)


def _abs_antiderivative_reference(x, y):
    d = x[:, None] - y[None, :]
    return np.sign(d) * np.log1p(np.abs(d))


_ANTIDERIVATIVE_REFERENCES = {
    "abs": (AbsDistanceKernel(), _abs_antiderivative_reference),
}


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(_ANTIDERIVATIVE_REFERENCES)),
    n=st.integers(0, 300),
    m=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="abs", n=1001, m=256, seed=0)
def test_antiderivatives_are_the_reference_bit_for_bit(name, n, m, seed):
    kernel, reference = _ANTIDERIVATIVE_REFERENCES[name]
    g = np.random.default_rng(seed)
    x = g.uniform(0.05, 6.0, n)
    # some targets sit exactly on x, where min, max and sign switch
    y = np.where(g.random(m) < 0.25, g.choice(x, m) if n else 1.0, g.uniform(0.05, 6.0, m))
    got = kernel._antiderivative(x, y)
    want = reference(x, y)
    assert got.shape == want.shape == (n, m)
    assert got.tobytes() == want.tobytes()


def test_antiderivatives_match_the_reference_on_signal_blocks(mag_range):
    # the blocks accumulated_signal builds for a 1000-cell density on 3000 targets
    edges = mag_range.cell_edges(1000)
    ys = mag_range.grid(3000)
    for kernel, reference in _ANTIDERIVATIVE_REFERENCES.values():
        for lo in range(0, 3000, 256):
            block = ys[lo : lo + 256]
            assert kernel._antiderivative(edges, block).tobytes() == (
                reference(edges, block).tobytes()
            )


def _log_uniform(g, n, lo=1e-3, hi=1e3):
    return np.exp(g.uniform(np.log(lo), np.log(hi), n))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
def test_info_green_factors_are_the_kernel(n, seed):
    # K(x, y) = p(min(x, y)) q(max(x, y)) from 1e-3 to 1e3, ties included
    g = np.random.default_rng(seed)
    x = _log_uniform(g, n)
    y = np.where(g.random(n) < 0.25, x, _log_uniform(g, n))
    kernel = InfoOverlapKernel()
    p = kernel.green_factors(np.minimum(x, y))[0]
    q = kernel.green_factors(np.maximum(x, y))[1]
    assert np.allclose(p * q, kernel._evaluate(x, y), rtol=2e-15, atol=0.0)
    p, q = kernel.green_factors(np.unique(x))
    assert np.all(np.diff(p / q) > 0.0)


_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


@settings(max_examples=60, deadline=None)
@given(log_a=st.floats(-3.0, 2.95), log_ratio=st.floats(0.05, 6.0))
def test_info_green_integrals_match_quadratures(log_a, log_ratio):
    # 16-point Gauss-Legendre on pieces whose ends differ by at most a
    # factor 2, where p = x^2 is exact and q = x^-2 is good to about 1e-25
    a = 10.0**log_a
    b = min(a * 10.0**log_ratio, 1e3)
    cuts = np.geomspace(a, b, math.ceil(math.log2(b / a)) + 1)
    mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
    x = (mid[:, None] + half[:, None] * _GL16_NODES).ravel()
    w = (half[:, None] * _GL16_WEIGHTS).ravel()
    kernel = InfoOverlapKernel()
    p, q = kernel.green_factors(x)
    P, Q = kernel.green_integrals(np.array([a, b]))
    assert P[1] - P[0] == pytest.approx(float(np.dot(w, p)), rel=1e-13, abs=0.0)
    assert Q[1] - Q[0] == pytest.approx(float(np.dot(w, q)), rel=1e-13, abs=0.0)


def test_constant_tabulated_kernel_potential():
    xs = np.linspace(0.25, 2.0, 5)
    k = TabulatedKernel(xs, xs, np.full((5, 5), 0.5))
    r = MagRange()
    assert k.transfer_potential(1.0, r) == pytest.approx(0.5 * 1.75, abs=1e-12)


def test_tabulated_validation():
    xs = np.linspace(0.25, 2.0, 4)
    with pytest.raises(ParameterError):
        TabulatedKernel(xs, xs, np.ones((3, 4)))
    with pytest.raises(DomainError):
        TabulatedKernel(xs, xs, np.zeros((4, 4)))
    with pytest.raises(ParameterError):
        TabulatedKernel(xs[::-1], xs, np.ones((4, 4)))


@pytest.mark.parametrize(
    "coords",
    [[0.2, 1.0, math.inf], [0.2, math.inf, 2.5], [math.nan, 1.0, 2.5], [0.2, math.nan, 2.5],
     [0.0, 1.0, 2.5], [-1.0, 1.0, 2.5]],
)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_tabulated_coordinates_must_be_positive_and_finite(coords, axis):
    good = [0.2, 1.0, 2.5]
    xs, ys = (coords, good) if axis == "x" else (good, coords)
    with pytest.raises(DomainError, match="positive and finite"):
        TabulatedKernel(xs, ys, np.ones((3, 3)))


def test_tabulated_csv_roundtrip(tmp_path):
    path = tmp_path / "kernel.csv"
    xs = [0.25, 1.0, 2.0]
    lines = ["x,y,value"]
    for x in xs:
        for y in xs:
            lines.append(f"{x},{y},{raw_info_kernel(x, y)}")
    path.write_text("\n".join(lines) + "\n")
    k = TabulatedKernel.from_csv(path)
    assert k(1.0, 2.0) == pytest.approx(0.25, abs=1e-12)

    bad = tmp_path / "bad_header.csv"
    bad.write_text("a,b,c\n1,1,1\n")
    with pytest.raises(FormatError):
        TabulatedKernel.from_csv(bad)

    missing = tmp_path / "missing_cell.csv"
    missing.write_text("x,y,value\n1,1,1\n1,2,0.5\n2,1,0.5\n")
    with pytest.raises(FormatError):
        TabulatedKernel.from_csv(missing)


@pytest.mark.parametrize("repeat", ["0.25,1.0,0.5", "0.25,1.0,0.7", "0.250,1e0,0.5"])
def test_tabulated_csv_rejects_repeated_sample(tmp_path, repeat):
    path = tmp_path / "dup.csv"
    path.write_text(
        "x,y,value\n0.25,0.25,1\n0.25,1.0,0.5\n1.0,0.25,0.5\n1.0,1.0,1\n" + repeat + "\n"
    )
    with pytest.raises(FormatError, match="dup.csv: line 6: repeated sample x=0.25, y=1.0") as err:
        TabulatedKernel.from_csv(path)
    assert err.value.line == 6


_GRID = "0.25,0.25,1\n0.25,1.0,0.5\n1.0,0.25,0.5\n1.0,1.0,1\n"
_HEAD = "x,y,value\n"

# body: (error class, message with {path}, line); test_tabulated_csv_rejects_repeated_sample
# covers repeats
_TABLE_ERRORS = {
    "bad header": ("x,y,val\n" + _GRID, FormatError,
                   "{path}: line 1: expected header 'x,y,value'", 1),
    "empty file": ("", FormatError, "{path}: line 1: expected header 'x,y,value'", 1),
    "two columns": (_HEAD + "0.25,0.25,1\n0.25,1.0\n1.0,0.25,0.5\n1.0,1.0,1\n",
                    FormatError, "{path}: line 3: wrong number of kernel table columns", 3),
    "four columns": (_HEAD + "0.25,0.25,1\n0.25,1.0,0.5,7\n1.0,0.25,0.5\n1.0,1.0,1\n",
                     FormatError, "{path}: line 3: wrong number of kernel table columns", 3),
    "four columns on every row": (_HEAD + _GRID.replace("\n", ",0\n"), FormatError,
                                  "{path}: line 2: wrong number of kernel table columns", 2),
    "non-numeric cell": (_HEAD + "0.25,0.25,1\n0.25,abc,0.5\n1.0,0.25,0.5\n1.0,1.0,1\n",
                         FormatError, "{path}: line 3: bad kernel table entry", 3),
    "empty cell": (_HEAD + "0.25,0.25,1\n0.25,,0.5\n1.0,0.25,0.5\n1.0,1.0,1\n", FormatError,
                   "{path}: line 3: bad kernel table entry", 3),
    "comment row": (_HEAD + "# note\n" + _GRID, FormatError,
                    "{path}: line 2: wrong number of kernel table columns", 2),
    "missing sample": (_HEAD + "0.25,0.25,1\n0.25,1.0,0.5\n1.0,0.25,0.5\n", FormatError,
                       "{path}: grid is missing the sample x=1.0, y=1.0", None),
    "nan coordinate": (_HEAD + "0.25,0.25,1\n0.25,nan,0.5\n1.0,0.25,0.5\n1.0,nan,1\n",
                       FormatError, "{path}: line 3: kernel table entry violates its invariants",
                       3),
    "no samples": (_HEAD, FormatError, "{path}: no kernel samples found", None),
    "only blank rows": (_HEAD + "\n,,\n  \n", FormatError,
                        "{path}: no kernel samples found", None),
    # values that parse but make no kernel name the file, with no line
    "nonpositive value": (_HEAD + "0.25,0.25,1\n0.25,1.0,-0.5\n1.0,0.25,0.5\n1.0,1.0,1\n",
                          FormatError,
                          "{path}: tabulated kernel values must be positive and finite", None),
    "zero value": (_HEAD + "0.25,0.25,1\n0.25,1.0,0\n1.0,0.25,0.5\n1.0,1.0,1\n", FormatError,
                   "{path}: tabulated kernel values must be positive and finite", None),
    "infinite coordinate": (_HEAD + _GRID.replace("1.0,", "inf,"), FormatError,
                            "{path}: tabulated grid coordinates must be positive and finite",
                            None),
    "one row": (_HEAD + "0.25,0.25,1\n", FormatError,
                "{path}: tabulated kernel needs at least a 2x2 grid", None),
}


@pytest.mark.parametrize("case", sorted(_TABLE_ERRORS))
def test_tabulated_csv_errors_name_their_line(tmp_path, case):
    body, cls, message, line = _TABLE_ERRORS[case]
    path = tmp_path / "k.csv"
    path.write_text(body, newline="")
    with pytest.raises(cls) as info:
        TabulatedKernel.from_csv(path)
    assert type(info.value) is cls
    assert str(info.value) == message.format(path=path)
    assert getattr(info.value, "line", None) == line


# bodies that hold the same 2 x 2 table as _GRID
_SAME_TABLE = {
    "blank lines": "\n0.25,0.25,1\n\n0.25,1.0,0.5\n1.0,0.25,0.5\n\n1.0,1.0,1\n\n",
    "empty and whitespace rows": "0.25,0.25,1\n,,\n0.25,1.0,0.5\n  ,  , \n\t\n"
    "1.0,0.25,0.5\n   \n1.0,1.0,1\n",
    "crlf": _GRID.replace("\n", "\r\n"),
    "shuffled rows": "1.0,1.0,1\n0.25,1.0,0.5\n1.0,0.25,0.5\n0.25,0.25,1\n",
    "spaces around cells": " 0.25 , 0.25 ,1\n0.25,1.0 ,0.5\n1.0,0.25,0.5\n1.0,1.0,1",
    "quoted cells": '"0.25",0.25,1\n0.25,"1.0",0.5\n1.0,0.25,0.5\n1.0,1.0,1\n',
    "other float spellings": ".25,+0.25,1.\n0.25,1E0,5e-1\n1.,0.25,0.5\n1.0,1.0,1e0\n",
}


def _table_bytes(k):
    return k.xs.tobytes(), k.ys.tobytes(), k.values.tobytes()


@pytest.mark.parametrize("case", sorted(_SAME_TABLE))
def test_tabulated_csv_body_forms(tmp_path, case):
    clean, other = tmp_path / "clean.csv", tmp_path / "other.csv"
    clean.write_text(_HEAD + _GRID, newline="")
    other.write_text(_HEAD + _SAME_TABLE[case], newline="")
    assert _table_bytes(TabulatedKernel.from_csv(other)) == _table_bytes(
        TabulatedKernel.from_csv(clean)
    )


def _read_table_lines_reference(path):
    """The table reader as it was before the shared CSV reader: csv.reader
    and float() per row, the grid from sorted sets of coordinates."""
    points = {}
    with open(path, "r", newline="") as f:
        reader = csv.reader(f)
        assert [h.strip() for h in next(reader)] == ["x", "y", "value"]
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            x, y, v = (float(c) for c in row)
            assert (x, y) not in points
            points[(x, y)] = v
    xs = np.array(sorted({x for x, _ in points}))
    ys = np.array(sorted({y for _, y in points}))
    values = np.array([[points[(x, y)] for y in ys] for x in xs])
    return xs, ys, values


_NUMBER_FORMS = [repr, lambda v: "%.17g" % v, lambda v: f'"{v!r}"', lambda v: f" {v!r} "]


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(1, 12),
    ny=st.integers(1, 12),
    blank_rows=st.lists(st.sampled_from(["", ",,", " , ,", "  "]), max_size=5),
    newline=st.sampled_from(["\n", "\r\n"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bulk_table_read_is_the_line_reader(tmp_path_factory, nx, ny, blank_rows, newline,
                                             seed):
    # A complete table, rows shuffled, numbers written as repr or %.17g, some
    # quoted or padded, with blank rows: the table reader must build the grid
    # of the reference line reader, byte for byte. It is called directly, as
    # the kernel rejects 1-wide grids.
    g = np.random.default_rng(seed)
    xs = np.unique(g.uniform(0.05, 5.0, nx))
    ys = np.unique(g.uniform(0.05, 5.0, ny))
    values = g.uniform(0.01, 3.0, (xs.size, ys.size))
    rows = [
        ",".join(_NUMBER_FORMS[g.integers(len(_NUMBER_FORMS))](float(v))
                 for v in (x, y, values[i, j]))
        for i, x in enumerate(xs)
        for j, y in enumerate(ys)
    ]
    rows += blank_rows
    g.shuffle(rows)
    path = tmp_path_factory.mktemp("table") / "k.csv"
    path.write_text("x,y,value" + newline + newline.join(rows) + newline, newline="")
    want = _read_table_lines_reference(path)
    got = kernels._read_table(path)
    assert tuple(a.tobytes() for a in got) == tuple(a.tobytes() for a in want)
    assert np.array_equal(want[2], values)


def test_clean_table_takes_one_bulk_pass(tmp_path, monkeypatch):
    # for each reader: a clean file never enters the line walk; a row of
    # blank cells sends it there, where the lines left are parsed in one pass,
    # not one at a time, for the same result
    calls = []
    for name in ("_blank", "parse_line"):
        fn = getattr(csvio, name)
        monkeypatch.setattr(csvio, name,
                            lambda line, *a, fn=fn, name=name: calls.append((name, line))
                            or fn(line, *a))
    for name, (header, rows, read) in CSV_READERS.items():
        clean, blank = tmp_path / f"{name}.csv", tmp_path / f"{name}_blank.csv"
        clean.write_text("\n".join([header, *rows]) + "\n")
        blank_cells = "," * header.count(",")
        blank.write_text("\n".join([header, rows[0], blank_cells, *rows[1:]]) + "\n")
        want = csv_result(read(clean))
        assert calls == []
        assert csv_result(read(blank)) == want
        assert calls == [("_blank", line + "\n") for line in [rows[0], blank_cells, *rows[1:]]]
        calls.clear()


def test_kernel_from_string(tmp_path):
    assert kernel_from_string("abs").name == "abs"
    assert kernel_from_string("info").name == "info"
    with pytest.raises(ParameterError):
        kernel_from_string("gauss")
    with pytest.raises(ParameterError):
        kernel_from_string("custom:")
    with pytest.raises(FileNotFoundError):
        kernel_from_string("custom:/nonexistent/kernel.csv")
    path = tmp_path / "k.csv"
    path.write_text("x,y,value\n1,1,1\n1,2,0.5\n2,1,0.5\n2,2,1\n")
    assert kernel_from_string(f"custom:{path}").name == "custom"


def test_base_kernel_has_no_values():
    with pytest.raises(NotImplementedError):
        Kernel()(0.5, 1.0)
