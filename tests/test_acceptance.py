"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the numbers it measured. Tolerances are fixed here and
nowhere else. Run with ``pytest tests/test_acceptance.py -s`` to see every
line; without ``-s`` the lines still appear for failing criteria.
"""

import time

import numpy as np
import pytest

from magsample import (
    InfoOverlapKernel,
    MagRange,
    SamplerConfig,
    SamplingDistribution,
    TabulatedKernel,
    accumulated_signal,
    generate_plan,
    optimize_max_avg,
    optimize_max_min,
    rankme,
    rankme_profile,
    sample_targets,
    signal_summary,
    write_plan_csv,
)
from magsample.kernels import AbsDistanceKernel
from magsample.optimize import OptimizationConfig
from magsample.rankme import EmbeddingSet
from magsample.rng import CounterRng

from conftest import STANDARDS, chi_square_gof, plan_crop, regularized_objective

RANGE = MagRange(0.25, 2.0)
INFO = InfoOverlapKernel()
GRID = 1000


def _report(criterion: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def strategies():
    """The four sampling strategies of the theory comparison, plus timing."""
    t0 = time.perf_counter()
    du = SamplingDistribution.discrete(RANGE, STANDARDS)
    cu = SamplingDistribution.uniform(RANGE)
    gibbs = optimize_max_avg(
        OptimizationConfig(kernel=INFO, mag_range=RANGE, grid_n=GRID, lam=1.0)
    )
    maxmin = optimize_max_min(
        OptimizationConfig(kernel=INFO, mag_range=RANGE, grid_n=GRID)
    )
    summaries = {
        "DU": signal_summary(du, INFO, GRID),
        "CU": signal_summary(cu, INFO, GRID),
        "MAXMIN": signal_summary(maxmin.distribution, INFO, GRID),
        "MAXAVG": signal_summary(gibbs, INFO, GRID),
    }
    elapsed = time.perf_counter() - t0
    return {
        "du": du,
        "cu": cu,
        "gibbs": gibbs,
        "maxmin": maxmin,
        "summaries": summaries,
        "elapsed": elapsed,
    }


def test_criterion_1_theory_table(strategies):
    """Strategy table: min and total signal per strategy, overlap kernel."""
    s = strategies["summaries"]
    mm = strategies["maxmin"]
    expected = {
        "DU": (0.286, 0.01, 0.560, 0.01),
        "CU": (0.126, 0.005, 0.731, 0.005),
        "MAXMIN": (0.322, 0.01, 0.570, 0.015),
        "MAXAVG": (0.102, 0.01, 0.755, 0.01),
    }
    ok = True
    parts = []
    for name, (mn, mn_tol, tot, tot_tol) in expected.items():
        got_min = mm.achieved_t if name == "MAXMIN" else s[name].min_value
        got_tot = s[name].total
        ok &= abs(got_min - mn) <= mn_tol and abs(got_tot - tot) <= tot_tol
        parts.append(f"{name} min={got_min:.3f} tot={got_tot:.3f}")
    # the LP's worst case also holds on the profile grid
    ok &= abs(s["MAXMIN"].min_value - 0.322) <= 0.01
    elapsed = strategies["elapsed"]
    ok &= elapsed < 30.0
    _report(
        "criterion 1 (theory table, grid 1000)",
        ok,
        "; ".join(parts) + f"; computed in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_midpoint_maximum_property():
    """Radially decreasing kernels peak at the range midpoint, bottom at an edge."""
    xs = RANGE.grid(1001)

    def fails(kernel):
        values = kernel.transfer_potential(xs, RANGE)
        return xs[np.argmax(values)] != xs[500] or int(np.argmin(values)) not in (0, 1000)

    failures = int(fails(AbsDistanceKernel()))
    g = np.random.default_rng(1234)
    for _ in range(20):
        alpha = g.uniform(0.2, 4.0)
        beta = g.uniform(0.1, 2.0)
        nodes = np.linspace(RANGE.a, RANGE.b, 129)
        dist = np.abs(nodes[:, None] - nodes[None, :])
        kernel = TabulatedKernel(nodes, nodes, np.exp(-alpha * dist) + beta / (1.0 + dist))
        failures += fails(kernel)
    _report(
        "criterion 2 (midpoint-maximum property, 21 kernels, grid 1001)",
        failures == 0,
        f"{failures} failures out of 21",
    )


def test_criterion_3_optimizer_guarantees(strategies):
    """Gibbs optimality, max-min dominance, LP feasibility, large-lambda flatness."""
    g = np.random.default_rng(4321)
    ok = True
    details = []

    # Gibbs beats 100 random densities at lambda in {0.5, 1.0}
    worst_margin = np.inf
    for lam in (0.5, 1.0):
        cfg = OptimizationConfig(kernel=INFO, mag_range=RANGE, grid_n=200, lam=lam)
        best = regularized_objective(optimize_max_avg(cfg), cfg)
        for _ in range(100):
            rand = SamplingDistribution(RANGE, density=g.random(200) + 1e-3)
            worst_margin = min(worst_margin, best - regularized_objective(rand, cfg))
    ok &= worst_margin >= -1e-6
    details.append(f"gibbs margin {worst_margin:.3e}")

    # max-min dominates the worst case of the other strategies
    mm = strategies["maxmin"]
    rivals = {
        "uniform": strategies["cu"],
        "discrete": strategies["du"],
        "gibbs(1.0)": strategies["gibbs"],
        "gibbs(0.5)": optimize_max_avg(
            OptimizationConfig(kernel=INFO, mag_range=RANGE, grid_n=GRID, lam=0.5)
        ),
    }
    for name, rival in rivals.items():
        ok &= mm.achieved_t > accumulated_signal(rival, INFO, GRID).min_value
    details.append(f"maxmin t {mm.achieved_t:.4f} beats all rival minima")

    # LP feasibility at the stated tolerances
    dist = mm.distribution
    mass = dist.density * dist.cell_width
    mids = dist.range.cell_midpoints(dist.cells)
    signal = INFO(mids[:, None], mids[None, :]) @ mass
    feas = float(np.min(signal) - mm.achieved_t)
    ok &= np.all(dist.density >= 0.0)
    ok &= abs(mass.sum() - 1.0) <= 1e-9
    ok &= feas >= -1e-7
    details.append(f"mass dev {abs(mass.sum() - 1.0):.1e}, Kp-t >= {feas:.1e}")

    # lambda = 100 Gibbs is near-uniform
    flat = optimize_max_avg(
        OptimizationConfig(kernel=INFO, mag_range=RANGE, grid_n=GRID, lam=100.0)
    )
    dev = float(np.max(np.abs(flat.density - 1.0 / RANGE.width)))
    ok &= dev < 0.005
    details.append(f"lam=100 max-norm dev {dev:.4f}")

    _report("criterion 3 (optimizer guarantees)", ok, "; ".join(details))


def test_criterion_4_crop_formula_exactness():
    """Crop sizing is exact and feasible across the whole range."""
    cfg = SamplerConfig(distribution=SamplingDistribution.uniform(RANGE), rng_seed=0)
    rng = CounterRng(0)
    ok = True
    worst_crop = 0
    for t in np.linspace(RANGE.a, RANGE.b, 10_000):
        e = plan_crop(float(t), cfg, rng)
        crop = int(e["crop_size_px"])
        ok &= crop == int(np.floor(224.0 * t / e["source_mpp"] + 0.5)) and crop <= 512
        worst_crop = max(worst_crop, crop)
    worked = plan_crop(1.5, cfg, rng)
    ok &= worked["source_mpp"] == 1.0 and worked["crop_size_px"] == 336
    _report(
        "criterion 4 (crop formula, 10^4 targets)",
        ok,
        f"all crops exact, max crop {worst_crop}px <= 512; t=1.5 -> {worked['crop_size_px']}px",
    )


def test_criterion_5_sampler_statistics(strategies, tmp_path):
    """Seeded draws match each distribution (chi-square) and plans reproduce."""
    dists = {
        "DU": strategies["du"],
        "CU": strategies["cu"],
        "GIBBS": strategies["gibbs"],
        "MINMAX": strategies["maxmin"].distribution,
    }
    ok = True
    details = []
    for name, dist in dists.items():
        targets = sample_targets(dist, seed=20_240 + len(name), n=100_000)
        stat, crit, bins = chi_square_gof(dist, targets, bins=20, alpha=1e-3)
        ok &= stat < crit
        details.append(f"{name} chi2 {stat:.1f} < {crit:.1f} ({bins} bins)")

    cfg = SamplerConfig(distribution=dists["CU"], rng_seed=77)
    plan_a, plan_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_plan_csv(generate_plan(cfg, 2000), plan_a)
    write_plan_csv(generate_plan(cfg, 2000), plan_b)
    ok &= plan_a.read_bytes() == plan_b.read_bytes()
    details.append("plans byte-identical")
    _report("criterion 5 (sampler statistics, 10^5 draws)", ok, "; ".join(details))


def test_criterion_6_rankme_correctness():
    """Effective rank: planted ranks, invariances, Gram-oracle agreement."""
    g = np.random.default_rng(2718)
    ok = True
    details = []

    for r in (1, 5, 10):
        left = np.linalg.qr(g.standard_normal((100, r)))[0]
        right = np.linalg.qr(g.standard_normal((10, r)))[0].T
        val = rankme(left @ right, 1e-7)
        ok &= abs(val - r) <= 1e-3
    details.append("planted ranks {1,5,10} recovered to 1e-3")

    z = g.standard_normal((150, 40))
    base = rankme(z)
    q = np.linalg.qr(g.standard_normal((40, 40)))[0]
    scale_dev = abs(rankme(1.7e3 * z) - base)
    rot_dev = abs(rankme(z @ q) - base)
    ok &= scale_dev < 1e-9 and rot_dev < 1e-9
    details.append(f"scale dev {scale_dev:.1e}, rotation dev {rot_dev:.1e}")

    worst = 0.0
    for _ in range(50):
        n = int(g.integers(10, 2001))
        k = int(g.integers(4, 513))
        z = g.standard_normal((n, k))
        mine = rankme(z, 1e-7)
        gram = z.T @ z if k <= n else z @ z.T
        sigma = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))[::-1]
        p = sigma / sigma.sum() + 1e-7
        oracle = float(np.exp(-(p[p > 0] * np.log(p[p > 0])).sum()))
        worst = max(worst, abs(mine - oracle) / oracle)
    ok &= worst < 1e-6
    details.append(f"gram-oracle worst rel dev {worst:.1e} over 50 matrices")

    _report("criterion 6 (rankme correctness)", ok, "; ".join(details))


def test_criterion_7_planted_profile_ordering():
    """Large-scale training results are out of desk scope; the substitute
    check is that profiling recovers planted per-magnification ranks."""
    g = np.random.default_rng(31415)
    planted = {0.25: 12, 0.5: 7, 1.0: 9, 2.0: 3}
    mpps, blocks = [], []
    for mpp, r in planted.items():
        left = np.linalg.qr(g.standard_normal((120, r)))[0]
        right = np.linalg.qr(g.standard_normal((16, r)))[0].T
        blocks.append(left @ right)
        mpps.append(np.full(120, mpp))
    es = EmbeddingSet(mpps=np.concatenate(mpps), vectors=np.vstack(blocks))
    profile = rankme_profile(es, epsilon=1e-7)
    got_order = [grp.mpp for grp in sorted(profile.groups, key=lambda p: -p.rankme)]
    want_order = [m for m, _ in sorted(planted.items(), key=lambda kv: -kv[1])]
    exact = all(abs(grp.rankme - planted[grp.mpp]) <= 1e-3 for grp in profile.groups)
    ok = got_order == want_order and exact
    _report(
        "criterion 7 (planted-rank profile ordering; model-scale results declared out of scope)",
        ok,
        f"recovered order {got_order}",
    )
