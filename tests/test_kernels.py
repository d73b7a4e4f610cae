import math

import numpy as np
import pytest

from magsample import (
    AbsDistanceKernel,
    DomainError,
    FormatError,
    InfoOverlapKernel,
    MagRange,
    ParameterError,
    RangeError,
    TabulatedKernel,
    kernel_from_string,
    transfer_potential_curve,
)

from conftest import quadrature_potential, raw_abs_kernel, raw_info_kernel

# Closed-form potential at x = 1.125 on [0.25, 2]:
# (x^3 - a^3)/(3 x^2) = 721/1944, plus x - x^2/b = 0.4921875.
TP_INFO_1125 = 721.0 / 1944.0 + 0.4921875


def test_magrange_defaults_and_validation():
    r = MagRange()
    assert (r.a, r.b) == (0.25, 2.0)
    assert r.width == 1.75
    assert r.midpoint == 1.125
    for a, b in [(0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0)]:
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


def test_curve_absdistance_argmax_at_midpoint(abs_kernel, mag_range):
    curve = transfer_potential_curve(abs_kernel, mag_range, 1001)
    assert curve.argmax_x == 1.125
    assert curve.max_value == curve.values.max()
    assert np.all(curve.values > 0.0)


def test_curve_info_argmax_matches_dense_oracle(info_kernel, mag_range):
    dense = mag_range.grid(200_001)
    oracle = dense[np.argmax(info_kernel.transfer_potential(dense, mag_range))]
    curve = transfer_potential_curve(info_kernel, mag_range, 1001)
    assert abs(curve.argmax_x - oracle) <= 0.002
    assert abs(curve.argmax_x - 1.338) <= 0.002


def test_curve_grid_of_two_is_endpoints(info_kernel, mag_range):
    curve = transfer_potential_curve(info_kernel, mag_range, 2)
    assert np.allclose(curve.xs, [0.25, 2.0])
    assert curve.values[0] == pytest.approx(0.21875, abs=1e-12)
    with pytest.raises(ParameterError):
        transfer_potential_curve(info_kernel, mag_range, 1)


def test_prop1_absdistance_random_ranges(abs_kernel):
    # Radially decreasing kernels peak at the range midpoint and bottom out
    # at an endpoint; checked on odd grids that contain the midpoint.
    g = np.random.default_rng(5)
    for _ in range(20):
        a = g.uniform(0.05, 1.0)
        r = MagRange(a, a + g.uniform(0.2, 3.0))
        n = int(2 * g.integers(1, 1000) + 1)
        curve = transfer_potential_curve(abs_kernel, r, n)
        assert curve.argmax_x == curve.xs[(n - 1) // 2]
        assert int(np.argmin(curve.values)) in (0, n - 1)


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
        curve = transfer_potential_curve(k, mag_range, 1001)
        assert curve.argmax_x == curve.xs[500]
        assert int(np.argmin(curve.values)) in (0, 1000)


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
    with pytest.raises(FormatError, match="line 6: .*repeated sample x=0.25, y=1.0") as info:
        TabulatedKernel.from_csv(path)
    assert info.value.line == 6


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
