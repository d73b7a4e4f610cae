import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsample import (
    AbsDistanceKernel,
    DomainError,
    InfoOverlapKernel,
    MagRange,
    ParameterError,
    SamplingDistribution,
    TabulatedKernel,
    accumulated_signal,
    entropy,
    mix,
    optimize_max_avg,
    optimize_max_min,
    regularized_objective,
    signal_summary,
)
from magsample import optimize as optimize_module
from magsample.cli import main
from magsample.optimize import MAX_AVG_ENTROPY, MAX_MIN, OptimizationConfig
from magsample.simplex import solve_inequality_lp

# Worst-case equalizer for the overlap kernel: in log-magnification the
# kernel is exp(-2|u - v|), whose equalizing distribution is flat plus
# boundary atoms, with worst-case value 1 / (1 + log(b/a)).
INFO_MAXMIN_T_ORACLE = 1.0 / (1.0 + np.log(8.0))


def _cfg(objective, kernel, grid_n=400, lam=1.0):
    return OptimizationConfig(
        objective=objective, kernel=kernel, mag_range=MagRange(), grid_n=grid_n, lam=lam
    )


def test_config_validation(info_kernel):
    with pytest.raises(ParameterError):
        OptimizationConfig(objective="fastest", kernel=info_kernel)
    with pytest.raises(ParameterError):
        OptimizationConfig(objective=MAX_MIN, kernel=info_kernel, grid_n=5)
    for lam in (0.0, -1.0):
        with pytest.raises(ParameterError):
            OptimizationConfig(objective=MAX_AVG_ENTROPY, kernel=info_kernel, lam=lam)


def test_objective_mismatch_rejected(info_kernel):
    with pytest.raises(ParameterError):
        optimize_max_avg(_cfg(MAX_MIN, info_kernel))
    with pytest.raises(ParameterError):
        optimize_max_min(_cfg(MAX_AVG_ENTROPY, info_kernel))


# -- entropy -------------------------------------------------------------------


def test_entropy_uniform(mag_range):
    u = SamplingDistribution.uniform(mag_range, 50)
    assert entropy(u) == pytest.approx(np.log(1.75), abs=1e-12)


def test_entropy_unit_width_uniform():
    u = SamplingDistribution.uniform(MagRange(0.5, 1.5), 10)
    assert entropy(u) == pytest.approx(0.0, abs=1e-12)


def test_entropy_rejects_atoms(du_dist, mag_range):
    with pytest.raises(DomainError):
        entropy(du_dist)
    mixed = SamplingDistribution(mag_range, atoms=[(1.0, 0.5)], density=[1.0])
    with pytest.raises(DomainError):
        entropy(mixed)


def test_entropy_handles_zero_cells(mag_range):
    d = SamplingDistribution.from_density(mag_range, [1.0, 0.0, 1.0, 0.0])
    v = 1.0 / (2 * (1.75 / 4))  # two live cells
    assert entropy(d) == pytest.approx(-np.log(v), abs=1e-12)


# -- max-average (Gibbs) ---------------------------------------------------------


def test_gibbs_large_lambda_is_nearly_uniform(info_kernel):
    dist = optimize_max_avg(_cfg(MAX_AVG_ENTROPY, info_kernel, grid_n=1000, lam=100.0))
    assert np.max(np.abs(dist.density - 1.0 / 1.75)) < 0.005


def test_gibbs_density_ratio_matches_closed_form(info_kernel, mag_range):
    dist = optimize_max_avg(_cfg(MAX_AVG_ENTROPY, info_kernel, grid_n=1000, lam=1.0))
    ratio = dist.density_at(1.338) / dist.density_at(0.25)
    formula = np.exp(
        info_kernel.transfer_potential(1.338, mag_range)
        - info_kernel.transfer_potential(0.25, mag_range)
    )
    assert ratio == pytest.approx(formula, abs=0.01)
    assert ratio == pytest.approx(1.949, abs=0.01)


def test_gibbs_constant_kernel_is_uniform():
    xs = np.linspace(0.25, 2.0, 6)
    const = TabulatedKernel(xs, xs, np.full((6, 6), 0.37))
    for lam in (0.2, 1.0, 10.0):
        dist = optimize_max_avg(_cfg(MAX_AVG_ENTROPY, const, grid_n=100, lam=lam))
        assert np.max(np.abs(dist.density - dist.density[0])) < 1e-12


def test_gibbs_entropy_below_uniform(info_kernel, mag_range):
    gibbs = optimize_max_avg(_cfg(MAX_AVG_ENTROPY, info_kernel, lam=1.0))
    assert entropy(gibbs) < np.log(1.75)


def test_gibbs_beats_random_densities(info_kernel, abs_kernel, mag_range):
    g = np.random.default_rng(41)
    for kernel in (info_kernel, abs_kernel):
        for lam in (0.5, 1.0):
            cfg = _cfg(MAX_AVG_ENTROPY, kernel, grid_n=200, lam=lam)
            best = regularized_objective(optimize_max_avg(cfg), cfg)
            for _ in range(100):
                rand = SamplingDistribution(mag_range, density=g.random(200) + 1e-3)
                assert best >= regularized_objective(rand, cfg) - 1e-6


def test_gibbs_beats_uniform(info_kernel, mag_range):
    cfg = _cfg(MAX_AVG_ENTROPY, info_kernel, lam=1.0)
    gibbs = optimize_max_avg(cfg)
    uniform = SamplingDistribution.uniform(mag_range, cfg.grid_n)
    assert regularized_objective(gibbs, cfg) >= regularized_objective(uniform, cfg)


def test_gibbs_flattens_monotonically_in_lambda(info_kernel):
    devs = []
    for lam in (0.1, 0.5, 1.0, 5.0, 100.0):
        dist = optimize_max_avg(_cfg(MAX_AVG_ENTROPY, info_kernel, lam=lam))
        devs.append(np.max(np.abs(dist.density - 1.0 / 1.75)))
    assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))


# -- max-min ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def maxmin_info(info_kernel):
    return optimize_max_min(
        OptimizationConfig(objective=MAX_MIN, kernel=info_kernel, grid_n=200)
    )


def test_maxmin_feasibility(maxmin_info, info_kernel):
    sol = maxmin_info
    dist = sol.distribution
    assert dist.has_density and not dist.has_atoms
    assert np.all(dist.density >= 0.0)
    assert abs(dist.density.sum() * dist.cell_width - 1.0) <= 1e-9
    mids = dist.cell_midpoints()
    K = info_kernel(mids[:, None], mids[None, :])
    signal = K @ (dist.density * dist.cell_width)
    assert np.all(signal >= sol.achieved_t - 1e-7)


def test_maxmin_certificate(maxmin_info):
    assert 0.0 <= maxmin_info.certificate_gap < 1e-6
    assert maxmin_info.achieved_t == pytest.approx(INFO_MAXMIN_T_ORACLE, abs=0.005)


def test_maxmin_active_set_spans_grid(maxmin_info):
    active = maxmin_info.active_set
    assert active.size > 0
    assert active.max() - active.min() > 100  # equalized across the whole range


def test_maxmin_dominates_other_strategies(maxmin_info, info_kernel, mag_range, du_dist):
    competitors = [
        SamplingDistribution.uniform(mag_range),
        du_dist,
        optimize_max_avg(_cfg(MAX_AVG_ENTROPY, info_kernel, grid_n=200, lam=0.5)),
        optimize_max_avg(_cfg(MAX_AVG_ENTROPY, info_kernel, grid_n=200, lam=1.0)),
    ]
    for c in competitors:
        assert maxmin_info.achieved_t > accumulated_signal(c, info_kernel, 200).min_value


def test_maxmin_oversamples_boundaries(info_kernel, abs_kernel):
    for kernel in (info_kernel, abs_kernel):
        sol = optimize_max_min(
            OptimizationConfig(objective=MAX_MIN, kernel=kernel, grid_n=200)
        )
        d = sol.distribution.density
        tenth = d.size // 10
        outer = 0.5 * (d[:tenth].mean() + d[-tenth:].mean())
        center = d[d.size // 2 - tenth // 2 : d.size // 2 + tenth // 2 + 1].mean()
        assert outer > 1.5 * center


def test_maxmin_signal_nearly_flat(maxmin_info, info_kernel):
    profile = accumulated_signal(maxmin_info.distribution, info_kernel, 200)
    assert profile.values.max() - profile.values.min() < 0.05 * profile.values.min()


@pytest.mark.parametrize("a, b", [(0.25, 2.0), (0.5, 1.0), (1.0, 4.0)])
@pytest.mark.parametrize("n", [100, 400, 1000])
def test_maxmin_info_approaches_the_continuum_solution(a, b, n, info_kernel):
    # On [a, b] the max-min distribution of the overlap kernel is the density
    # t*/x plus atoms of mass t*/2 at a and at b, with t* = 1 / (1 + ln(b/a)):
    # the density gives the signal t (1 - a^2/2x^2 - x^2/2b^2) and the atoms
    # add back t/2 (a/x)^2 + t/2 (x/b)^2. The grid solution converges at O(1/n),
    # with the atoms in the end cells.
    t_star = 1.0 / (1.0 + np.log(b / a))
    sol = optimize_max_min(
        OptimizationConfig(objective=MAX_MIN, kernel=info_kernel, mag_range=MagRange(a, b), grid_n=n)
    )
    dist = sol.distribution
    q = dist.density * dist.cell_width
    assert abs(sol.achieved_t - t_star) <= 1.0 / n
    # an end cell's mass is off by at most a cell width relative to a
    assert np.max(np.abs(q[[0, -1]] - t_star / 2)) <= dist.cell_width / a
    x = dist.cell_midpoints()
    assert np.max(np.abs(x[1:-1] * dist.density[1:-1] - t_star)) <= 1.0 / n


# -- max-min solver paths: Green's solve, equalizer, double oracle, full simplex ---


def _game(kernel, grid_n):
    mids = MagRange().cell_midpoints(grid_n)
    return np.asarray(kernel(mids[:, None], mids[None, :]), dtype=float)


def _lp_oracle(K):
    """Max-min masses and value straight from the simplex on the game LP."""
    ones = np.ones(K.shape[0])
    sol = solve_inequality_lp(ones, K.T, ones)
    q = sol.duals / sol.duals.sum()
    return q, float((K @ q).min())


def _check_certified(sol, K):
    q = sol.distribution.density * sol.distribution.cell_width
    assert -1e-12 <= sol.certificate_gap < 1e-6
    assert sol.achieved_t == pytest.approx(float((K @ q).min()), abs=1e-15)
    return q


@pytest.mark.parametrize("name", ["info", "abs"])
def test_maxmin_builtin_kernels_take_the_equalizer(name, info_kernel, abs_kernel):
    kernel = {"info": info_kernel, "abs": abs_kernel}[name]
    sol = optimize_max_min(OptimizationConfig(objective=MAX_MIN, kernel=kernel, grid_n=200))
    # info declares its Green's factors, so its equalizer takes the O(n) solve
    solver = {"info": "green", "abs": "equalizer"}[name]
    assert sol.solver == solver and sol.iterations == 0 and sol.rounds == 0
    K = _game(kernel, 200)
    q = _check_certified(sol, K)
    q_lp, t_lp = _lp_oracle(K)
    assert np.max(np.abs(q - q_lp)) <= 1e-12
    assert sol.achieved_t == pytest.approx(t_lp, abs=1e-12)


class _MisdeclaredKernel(AbsDistanceKernel):
    """The abs kernel, declaring the info kernel's Green's factors."""

    green_factors = InfoOverlapKernel.green_factors


def test_green_solve_that_fails_its_certificate_falls_through(abs_kernel):
    # the factors give a positive u, but not of this K: its certificate fails
    cfg = OptimizationConfig(objective=MAX_MIN, kernel=_MisdeclaredKernel(), grid_n=200)
    sol = optimize_max_min(cfg)
    assert sol.solver == "equalizer"
    cfg.kernel = abs_kernel
    assert sol.distribution.density.tobytes() == optimize_max_min(cfg).distribution.density.tobytes()


def _equalizer_reference(K):
    """The equalizer as first written: always two solves when u > 0."""
    ones = np.ones(K.shape[0])
    u = np.linalg.solve(K, ones)
    if not u.min() > 0.0:
        return None
    y = np.linalg.solve(K.T, ones)
    if not y.min() > 0.0:
        return None
    return optimize_module._bounds(K, u, y)


def _bounds_bytes(bounds):
    q, signal, t_lo, t_hi = bounds
    return q.tobytes(), signal.tobytes(), t_lo, t_hi


@pytest.fixture()
def solves(monkeypatch):
    """Every (u, y) the certificate checks, and the matrix shape of each linear solve."""
    record = {"pairs": [], "shapes": []}
    solve, bounds = np.linalg.solve, optimize_module._bounds

    def counted_solve(a, *args):
        record["shapes"].append(np.shape(a))
        return solve(a, *args)

    def recorded_bounds(K, u, y):
        record["pairs"].append((u, y))
        return bounds(K, u, y)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(optimize_module, "_bounds", recorded_bounds)
    return record


def _full_solves(record, n):
    return record["shapes"].count((n, n))


@pytest.mark.parametrize("name", ["info", "abs"])
def test_symmetric_game_takes_one_solve(name, info_kernel, abs_kernel, solves):
    K = _game({"info": info_kernel, "abs": abs_kernel}[name], 300)
    assert np.array_equal(K, K.T)
    # no Green's factors: the path a symmetric K takes without them
    solver, rounds, _, got = optimize_module._solve_game(K, None, 300 // 8)
    assert (solver, rounds) == ("equalizer", 0)
    assert solves["shapes"] == [(300, 300)]
    (u, y), = solves["pairs"]
    assert y is u
    # a second solve of K'y = 1 gives u bit for bit, so the bounds are unchanged
    assert _bounds_bytes(got) == _bounds_bytes(_equalizer_reference(K))


def _mixed_asymmetric_game(info_kernel, n):
    """D1 K D2 with smooth positive diagonals: still completely mixed, not symmetric."""
    mids = MagRange().cell_midpoints(n)
    return (1.0 + 0.05 * mids)[:, None] * _game(info_kernel, n) * (1.0 - 0.03 * mids)[None, :]


def test_asymmetric_mixed_game_takes_two_solves(info_kernel, solves):
    K = _mixed_asymmetric_game(info_kernel, 300)
    assert not np.array_equal(K, K.T)
    got = optimize_module._equalizer(K, False)
    assert got is not None and _full_solves(solves, 300) == 2
    (u, y), = solves["pairs"]
    assert y is not u and y.min() > 0.0
    assert _bounds_bytes(got) == _bounds_bytes(_equalizer_reference(K))


def test_asymmetric_mixed_game_ends_on_the_equalizer(info_kernel, solves):
    # through optimize_max_min, on a table whose nodes are the cell midpoints
    n = 300
    mids = MagRange().cell_midpoints(n)
    values = _mixed_asymmetric_game(info_kernel, n)
    kernel = TabulatedKernel(mids, mids, values)
    assert np.array_equal(_game(kernel, n), values)
    sol = optimize_max_min(OptimizationConfig(objective=MAX_MIN, kernel=kernel, grid_n=n))
    # the probe cannot finish a completely mixed game, so it runs all its rounds
    assert sol.solver == "equalizer" and sol.rounds == optimize_module._PROBE_ROUNDS
    assert _full_solves(solves, n) == 2
    q, _, t_lo, t_hi = _equalizer_reference(values)
    expected = SamplingDistribution(MagRange(), density=q / (MagRange().width / n))
    assert sol.distribution.density.tobytes() == expected.density.tobytes()
    assert (sol.achieved_t, sol.certificate_gap) == (t_lo, t_hi - t_lo)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 4.0), st.floats(1.5, 40.0), st.integers(10, 1500))
def test_green_solve_matches_the_lu(a, ratio, n):
    mag_range = MagRange(a, a * ratio)
    mids = mag_range.cell_midpoints(n)
    kernel = InfoOverlapKernel()
    K = np.asarray(kernel(mids[:, None], mids[None, :]), dtype=float)
    u = optimize_module._green_solve(*kernel.green_factors(mids))
    u_lu = np.linalg.solve(K, np.ones(n))
    assert np.max(np.abs(u - u_lu) / u_lu) <= 1e-7
    assert u.min() > 0.0
    _, _, t_lo, t_hi = optimize_module._bounds(K, u, u)
    assert abs(t_hi - t_lo) <= 1e-12


def _asymmetric_table(seed, n=64, decay=0.5):
    """Positive, asymmetric, noisy table with a sparse max-min solution."""
    xs = np.linspace(0.2, 2.1, n)
    d = np.log(xs[:, None] / xs[None, :])
    base = np.exp(-decay * np.abs(d) * np.where(d > 0, 1.4, 0.6))
    noise = np.random.default_rng(seed).uniform(0.95, 1.05, size=base.shape)
    return TabulatedKernel(xs, xs, base * noise)


def test_maxmin_sparse_game_takes_the_double_oracle():
    kernel = _asymmetric_table(2)
    K = _game(kernel, 200)
    assert np.linalg.solve(K, np.ones(200)).min() < 0.0  # not completely mixed
    sol = optimize_max_min(OptimizationConfig(objective=MAX_MIN, kernel=kernel, grid_n=200))
    assert sol.solver == "double_oracle" and sol.rounds > 0 and sol.iterations > 0
    q = _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)
    assert np.count_nonzero(q) <= 200 // 8  # the support stays small


def test_sparse_game_makes_no_full_solve(solves):
    # the probe finishes the game, so no n x n equalizer solve is tried
    kernel = _asymmetric_table(2)
    sol = optimize_max_min(OptimizationConfig(objective=MAX_MIN, kernel=kernel, grid_n=200))
    assert sol.solver == "double_oracle" and 0 < sol.rounds <= optimize_module._PROBE_ROUNDS
    assert solves["shapes"] and _full_solves(solves, 200) == 0


def test_long_double_oracle_resumes_after_the_probe(solves):
    # a faster decay spreads the support: more rounds than the probe gives
    kernel, n = _asymmetric_table(2, decay=2.0), 400
    K = _game(kernel, n)
    sol = optimize_max_min(OptimizationConfig(objective=MAX_MIN, kernel=kernel, grid_n=n))
    assert sol.solver == "double_oracle" and sol.rounds > optimize_module._PROBE_ROUNDS
    assert _full_solves(solves, n) == 1  # the equalizer's, which finds u not positive
    rounds, pivots, uy = optimize_module._double_oracle(K, [], [], n // 8)
    assert (sol.rounds, sol.iterations) == (rounds, pivots)
    q, _, t_lo, t_hi = optimize_module._bounds(K, *uy)
    expected = SamplingDistribution(MagRange(), density=q / (MagRange().width / n))
    assert sol.distribution.density.tobytes() == expected.density.tobytes()
    assert (sol.achieved_t, sol.certificate_gap) == (t_lo, t_hi - t_lo)


@pytest.mark.parametrize("seed", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("grid_n", [200, 317])
def test_maxmin_double_oracle_matches_full_lp(seed, grid_n):
    kernel = _asymmetric_table(seed)
    K = _game(kernel, grid_n)
    sol = optimize_max_min(OptimizationConfig(objective=MAX_MIN, kernel=kernel, grid_n=grid_n))
    assert sol.solver == "double_oracle" and sol.rounds > 0
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 7),
    st.lists(st.floats(0.05, 2.0), min_size=49, max_size=49),
    st.integers(10, 120),
)
def test_maxmin_value_matches_full_lp_on_random_tables(nodes, values, grid_n):
    xs = np.linspace(0.25, 2.0, nodes)
    table = np.array(values[: nodes * nodes]).reshape(nodes, nodes)
    kernel = TabulatedKernel(xs, xs, table)
    K = _game(kernel, grid_n)
    sol = optimize_max_min(OptimizationConfig(objective=MAX_MIN, kernel=kernel, grid_n=grid_n))
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


def test_maxmin_large_support_falls_back_to_simplex(info_kernel):
    # A game on the cell midpoints: the info kernel with source 0 replaced by
    # half of source 1. K is singular, so the equalizer fails, and the optimal
    # support keeps most of the grid, so the restricted game outgrows its bound.
    n = 80
    mids = MagRange().cell_midpoints(n)
    values = np.asarray(info_kernel(mids[:, None], mids[None, :]), dtype=float)
    values[:, 0] = 0.5 * values[:, 1]
    kernel = TabulatedKernel(mids, mids, values)
    K = _game(kernel, n)
    assert np.array_equal(K, values)
    sol = optimize_max_min(OptimizationConfig(objective=MAX_MIN, kernel=kernel, grid_n=n))
    assert sol.solver == "simplex" and sol.rounds > 0
    q = _check_certified(sol, K)
    assert np.count_nonzero(q) > n // 8
    assert sol.achieved_t == pytest.approx(_lp_oracle(K)[1], abs=1e-12)


def test_maxmin_singular_game_falls_back_to_simplex():
    # Interpolating the constant table leaves 1-ulp noise in K, so the best
    # responses move, and at grid 10 the bound (one cell) is soon outgrown.
    xs = np.array([0.25, 2.0])
    const = TabulatedKernel(xs, xs, np.full((2, 2), 0.37))
    K = _game(const, 10)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(K, np.ones(10))
    sol = optimize_max_min(OptimizationConfig(objective=MAX_MIN, kernel=const, grid_n=10))
    assert sol.solver == "simplex" and sol.rounds > 0
    _check_certified(sol, K)
    assert sol.achieved_t == pytest.approx(0.37, abs=1e-12)


# Bytes of `optimize --objective maxmin` on a tabulated kernel, written by the
# double oracle. The optimal q of such a game is not unique, so a different
# solver path may give other bytes at the same achieved_t.
TABULATED_MAXMIN_SHA256 = "6a206898e79a91b3f6fd53b90d7de384d5246a08223334b0148d1f8392828467"


def test_tabulated_maxmin_msdist_golden_digest(tmp_path, monkeypatch):
    kernel = _asymmetric_table(2, n=16)
    lines = ["x,y,value"]
    for i, x in enumerate(kernel.xs):
        for j, y in enumerate(kernel.ys):
            lines.append(f"{float(x)!r},{float(y)!r},{float(kernel.values[i, j])!r}")
    (tmp_path / "tab.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["optimize", "--objective", "maxmin", "--grid", "200",
                 "--kernel", "custom:tab.csv", "--out", "tab.msdist"]) == 0
    digest = hashlib.sha256((tmp_path / "tab.msdist").read_bytes()).hexdigest()
    assert digest == TABULATED_MAXMIN_SHA256


# Bytes of `optimize --objective maxmin` on the built-in kernels at grid 200,
# written by the Green's solve (info) and the equalizer (abs).
BUILTIN_MAXMIN_SHA256 = {
    "info": "79dc475952ae1ce42d977e76aeb08e6b91508e1b31bca8dfc0e8ba3cd0c86be4",
    "abs": "c24c49acf537b3fb4b0584d15044cd86016997c03b95232b5e968c026274ce58",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_MAXMIN_SHA256))
def test_builtin_maxmin_msdist_golden_digest(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert main(["optimize", "--objective", "maxmin", "--grid", "200",
                 "--kernel", name, "--out", "mm.msdist"]) == 0
    digest = hashlib.sha256((tmp_path / "mm.msdist").read_bytes()).hexdigest()
    assert digest == BUILTIN_MAXMIN_SHA256[name]


def test_regularized_objective_is_signal_plus_entropy(info_kernel, mag_range):
    cfg = _cfg(MAX_AVG_ENTROPY, info_kernel, grid_n=100, lam=2.0)
    d = SamplingDistribution.uniform(mag_range, 100)
    from magsample import total_signal

    expected = total_signal(d, info_kernel) + 2.0 * entropy(d)
    assert regularized_objective(d, cfg) == pytest.approx(expected, abs=1e-12)
