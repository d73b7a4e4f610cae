import tracemalloc

import numpy as np
import pytest

from magsample import MagRange, TabulatedKernel, simplex
from magsample.errors import SolverError
from magsample.simplex import lp_peak_bytes, solve_inequality_lp


def _check_basic_slacks(sol):
    """The multiplier of each row whose slack is basic is exactly 0, as
    complementary slackness makes it, not the round-off of a solve."""
    n = sol.x.size
    assert not np.any(sol.duals[sol.basis[sol.basis >= n] - n])


def test_tiny_box_lp():
    sol = solve_inequality_lp(
        c=[1.0, 1.0], A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 2.0]
    )
    assert sol.objective == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(sol.x, [1.0, 2.0])
    assert np.allclose(sol.duals, [1.0, 1.0])


def test_known_duals():
    # max x1 + 2 x2  s.t.  x1 + x2 <= 4, x2 <= 2   ->  x = (2, 2), y = (1, 1)
    sol = solve_inequality_lp(c=[1.0, 2.0], A=[[1.0, 1.0], [0.0, 1.0]], b=[4.0, 2.0])
    assert sol.objective == pytest.approx(6.0, abs=1e-12)
    assert np.allclose(sol.x, [2.0, 2.0])
    assert np.allclose(sol.duals, [1.0, 1.0])
    assert sol.objective == pytest.approx(float(np.dot([4.0, 2.0], sol.duals)), abs=1e-9)


def test_solution_carries_its_verified_residuals():
    sol = solve_inequality_lp(c=[1.0, 2.0], A=[[1.0, 1.0], [0.0, 1.0]], b=[4.0, 2.0])
    assert sorted(sol.residuals) == ["comp", "dual", "eq", "gap", "neg"]
    assert all(0.0 <= v <= 1e-12 for v in sol.residuals.values())
    assert sol.residuals["gap"] == abs(sol.objective - float(np.dot([4.0, 2.0], sol.duals)))


def test_beale_degenerate_lp_terminates():
    # Classic cycling-prone instance; the stall guard must switch to Bland's
    # rule and still reach the optimum 1/20.
    c = [0.75, -150.0, 0.02, -6.0]
    A = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    sol = solve_inequality_lp(c, A, b)
    assert sol.objective == pytest.approx(0.05, abs=1e-9)
    _check_basic_slacks(sol)


def test_unbounded_detected():
    with pytest.raises(SolverError):
        solve_inequality_lp(c=[1.0], A=[[-1.0]], b=[0.0])


def test_negative_rhs_rejected():
    with pytest.raises(SolverError):
        solve_inequality_lp(c=[1.0], A=[[1.0]], b=[-1.0])


@pytest.mark.parametrize(
    "c, b", [([1.0], [1.0, 1.0]), ([1.0, 1.0, 1.0], [1.0, 1.0]), ([[1.0, 1.0]], [1.0, 1.0])],
    ids=["short-c", "long-c", "2-d-c"],
)
def test_inconsistent_dimensions_rejected(c, b):
    with pytest.raises(SolverError, match="^inconsistent LP dimensions$"):
        solve_inequality_lp(c, [[1.0, 2.0], [3.0, 1.0]], b)
    with pytest.raises(SolverError, match="^inconsistent LP dimensions$"):
        solve_inequality_lp([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [1.0])


def test_final_basis_is_verified_not_trusted(monkeypatch):
    # the solution is formed from the basis and the inverse that pivoting ends
    # on: the optimal basis with a wrong inverse and a feasible but suboptimal
    # basis are both refused
    c, A, b = [1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 5.0]
    monkeypatch.setattr(simplex, "_pivot", lambda c, A, b: (np.array([0, 1]), np.eye(2), 0))
    with pytest.raises(SolverError, match=r"^final basis failed verification \(.* neg=7.00e\+00,"):
        solve_inequality_lp(c, A, b)
    # the slack basis: x = 0 is feasible, and its reduced costs are c
    monkeypatch.setattr(simplex, "_pivot", lambda c, A, b: (np.array([2, 3]), np.eye(2), 0))
    with pytest.raises(SolverError, match=r"^final basis failed verification \(.* dual=1.00e\+00,"
                       ) as err:
        solve_inequality_lp(c, A, b)
    assert err.value.residual == 1.0


def test_iteration_budget(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
    with pytest.raises(SolverError, match=r"^simplex iteration budget \(0\) exhausted$") as err:
        solve_inequality_lp(c=[1.0, 1.0], A=[[1.0, 2.0], [3.0, 1.0]], b=[4.0, 5.0])
    assert err.value.residual is not None


def _irregular_nodes(rng):
    """Table nodes as test_optimize's irregular tables draw them."""
    inner = rng.uniform(0.26, 1.99, rng.integers(1, 5))
    twin = rng.uniform(0.26, 1.99)
    offset = rng.uniform(1e-6, 1.0) * 1.75 / 400
    return np.unique([rng.uniform(0.1, 0.25), *inner, twin, twin + offset, rng.uniform(2.0, 2.5)])


@pytest.mark.parametrize("seed, grid_n", [(3237, 272), (4691, 217), (6472, 247),
                                          (618, 173), (1766, 313), (2717, 302)])
def test_near_zero_pivots_are_refused(seed, grid_n):
    # games of irregular tables that, with a pivot tolerance of 1e-11, ended
    # on an infeasible basis: neg residuals up to 3.7. On the last three the
    # pivots pass near-singular bases, so the tableau's slack columns end off
    # the final basis inverse by 8.2e-2, 3.1 and 3.9e-3: a solution formed
    # from them fails verification even after a refinement
    from scipy.optimize import linprog

    rng = np.random.default_rng([29, seed])
    xs, ys = _irregular_nodes(rng), _irregular_nodes(rng)
    kernel = TabulatedKernel(xs, ys, rng.uniform(0.05, 2.0, (xs.size, ys.size)))
    assert rng.integers(128, 401) == grid_n
    mids = MagRange().cell_midpoints(grid_n)
    K = kernel(mids[:, None], mids[None, :])
    ones = np.ones(grid_n)
    sol = solve_inequality_lp(ones, K.T, ones)
    ref = linprog(-ones, A_ub=K.T, b_ub=ones, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert sol.objective == pytest.approx(-ref.fun, abs=1e-12)


def test_a_nan_solution_fails_verification(monkeypatch):
    # a NaN residual passes every "residual > tolerance" test
    nan = np.full((2, 2), np.nan)
    monkeypatch.setattr(simplex, "_pivot", lambda c, A, b: (np.array([0, 1]), nan, 0))
    with pytest.raises(SolverError, match=r"^final basis failed verification \(eq=nan,"):
        solve_inequality_lp([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 5.0])


def test_random_lps_match_scipy():
    from scipy.optimize import linprog

    g = np.random.default_rng(31)
    for _ in range(25):
        m, n = int(g.integers(1, 9)), int(g.integers(1, 9))
        A = g.normal(size=(m, n))
        b = np.abs(g.normal(size=m)) + 0.1
        c = g.normal(size=n)
        # bounding row keeps the program finite
        A = np.vstack([A, np.ones(n)])
        b = np.append(b, 10.0)
        sol = solve_inequality_lp(c, A, b)
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-7)
        assert np.all(A @ sol.x <= b + 1e-8)
        assert np.all(sol.x >= -1e-9)
        _check_basic_slacks(sol)


def test_game_lp_certificate():
    # max 1'y s.t. K y <= 1 and its dual equalize a positive matrix game
    g = np.random.default_rng(32)
    for _ in range(10):
        n = int(g.integers(3, 40))
        K = g.uniform(0.05, 1.0, size=(n, n))
        K = 0.5 * (K + K.T)
        sol = solve_inequality_lp(np.ones(n), K, np.ones(n))
        _check_basic_slacks(sol)
        q = sol.duals / sol.duals.sum()
        r = sol.x / sol.x.sum()
        lower = float((K @ q).min())   # value guaranteed by the maximizer
        upper = float((K.T @ r).max())  # value conceded by the adversary
        assert upper - lower >= -1e-12
        assert upper - lower < 1e-9


def test_peak_bytes_are_what_the_solver_allocates():
    # a game's LP: A is the transpose of a positive block, as max-min passes it
    for m, n in ((118, 118), (300, 200)):
        block = np.random.default_rng(m).uniform(0.5, 1.0, (n, m))
        tracemalloc.start()
        try:
            solve_inequality_lp(np.ones(n), block.T, np.ones(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.95 < peak / lp_peak_bytes(m, n) < 1.05
