"""Independent oracles for the outputs of each workload.

Each check reads the files a step wrote, recomputes what it can with plain
numpy or scipy, and returns the names of the steps whose outputs are wrong,
each with a reason. Nothing here imports the program under test.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.ndimage import map_coordinates

from inputs import RANGE, STANDARDS
from workloads import LOADER, loader_sample_every

A, B = RANGE


def read_msdist(path):
    """Density values and ``# key value`` comments of a .msdist file."""
    density, comments, want = None, {}, 0
    for line in Path(path).read_text().splitlines()[1:]:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "#" and len(tokens) == 3:
            comments[tokens[1]] = float(tokens[2])
        elif want:
            density += [float(t) for t in tokens]
            want -= len(tokens)
        elif tokens[0] == "density":
            density, want = [float(t) for t in tokens[2:]], int(tokens[1]) - len(tokens[2:])
    return None if density is None else np.array(density), comments


def read_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def read_msim(path):
    data = Path(path).read_bytes()
    _, h, w, c = struct.unpack("<4sIII", data[:16])
    return np.frombuffer(data[16:], dtype="<f4").reshape(h, w, c)


def kernel_oracle(name, work):
    """K(x, y) as a vectorized function, written independently of the program."""
    if name == "info":
        return lambda x, y: (np.minimum(x, y) / np.maximum(x, y)) ** 2
    if name == "abs":
        return lambda x, y: 1.0 / (1.0 + np.abs(x - y))
    table = np.loadtxt(work / "inputs/tab.csv", delimiter=",", skiprows=1)
    xs = np.unique(table[:, 0])
    interp = RegularGridInterpolator((xs, xs), table[:, 2].reshape(xs.size, xs.size))
    return lambda x, y: interp(np.stack(np.broadcast_arrays(x, y), axis=-1))


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - b) / np.maximum(np.abs(b), 1e-300)))


def check_design(work, size, params):
    bad = {}
    # Transfer potential curves against dense trapezoid quadrature.
    ys = np.linspace(A, B, 20001)
    for kname, step in (("info", "kernel_info"), ("tab", "kernel_tab")):
        _, rows = read_rows(work / f"{step}.csv")
        curve = np.array(rows, dtype=float)
        pick = curve[:: max(1, len(curve) // 25)]
        k = kernel_oracle(kname, work)
        oracle = np.trapezoid(k(pick[:, :1], ys[None, :]), ys, axis=1)
        if len(curve) != 1000 or _rel(pick[:, 1], oracle) > 1e-6:
            bad[step] = f"transfer potential off by {_rel(pick[:, 1], oracle):.1e}"
    # Max-min: recompute achieved_t = min(K q) on the midpoint grid.
    grid = size["grid"]
    mids = A + (np.arange(grid) + 0.5) * (B - A) / grid
    for kname, step, out in (("info", "maxmin_info", "maxmin_info.msdist"),
                             ("abs", "maxmin_abs", "maxmin_abs.msdist"),
                             ("tab", "maxmin_tab", "maxmin_tab.msdist")):
        density, comments = read_msdist(work / out)
        q = density / density.sum()
        t = float(np.min(kernel_oracle(kname, work)(mids[:, None], mids[None, :]) @ q))
        claimed = comments.get("achieved_t", np.nan)
        if density.size != grid or not abs(t - claimed) <= 1e-9 * max(1.0, t):
            bad[step] = f"achieved_t {claimed!r} but min(Kq) = {t!r}"
    dens, _ = read_msdist(work / "maxavg.msdist")
    if dens is None or dens.size != grid or np.any(dens < 0):
        bad["maxavg"] = "maxavg density missing or negative"
    # Compare: the paper's ordering of worst-case signal.
    _, rows = read_rows(work / "compare.csv")
    worst = {r[0]: float(r[1]) for r in rows}
    if not worst.get("maxmin_abs", 0) > worst.get("continuous_uniform", 0) > worst.get(
        "discrete_uniform", np.inf
    ):
        bad["compare"] = f"worst-case ordering violated: {worst}"
    # Signal: S(y) against fine quadrature over the max-min density.
    _, rows = read_rows(work / "signal.csv")
    prof = np.array(rows, dtype=float)
    density, _ = read_msdist(work / "maxmin_info.msdist")
    sub = 16
    edges = np.linspace(A, B, density.size * sub + 1)
    nodes = 0.5 * (edges[:-1] + edges[1:])
    weights = np.repeat(density / density.sum() / sub, sub)
    pick = prof[:: max(1, len(prof) // 40)]
    oracle = weights @ kernel_oracle("info", work)(nodes[:, None], pick[None, :, 0])
    _, summary = read_rows(work / "signal.summary.csv")
    # The program integrates by trapezoid at node spacing about h: O(h^2).
    h = (B - A) / size["signal_grid"]
    if (
        len(prof) != size["signal_grid"]
        or _rel(pick[:, 1], oracle) > 20 * h * h
        or float(summary[0][1]) != prof[:, 1].min()
    ):
        bad["signal"] = f"signal profile off by {_rel(pick[:, 1], oracle):.1e}"
    return bad


def _crop_oracle(image, row):
    """Corner-aligned bilinear crop of one plan row via map_coordinates."""
    side = image.shape[0]
    crop, out = int(row[4]), int(row[5])
    oy = int(np.floor(row[7] * (side - crop) + 0.5))
    ox = int(np.floor(row[6] * (side - crop) + 0.5))
    pos = np.linspace(0.0, crop - 1.0, out)
    yy, xx = np.meshgrid(oy + pos, ox + pos, indexing="ij")
    img = image.astype(np.float64)
    return np.stack(
        [map_coordinates(img[..., c], [yy, xx], order=1, mode="nearest")
         for c in range(image.shape[2])],
        axis=-1,
    )


def _crop_ok(got, image, row):
    want = _crop_oracle(image, row)
    return got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-5)


def check_sample(work, size, params):
    bad = {}
    n = size["plan_rows"]
    plan = np.loadtxt(work / "plan.csv", delimiter=",", skiprows=1, ndmin=2)
    t = plan[:, 1]
    std = np.array(STANDARDS)
    s = std[np.clip(np.searchsorted(std, t, side="right") - 1, 0, None)]
    crop = np.floor(224 * t / s + 0.5)
    on_atom = np.isin(t, std)
    # Atom draws must come out near the atoms' share of the mass (6 sigma).
    share = params["atom_share"]
    sigma = np.sqrt(share * (1 - share) / n)
    if not (
        plan.shape == (n, 8)
        and np.array_equal(plan[:, 0], np.arange(n))
        and np.all((t >= A) & (t <= B))
        and np.array_equal(plan[:, 2], s)
        and np.array_equal(plan[:, 4], crop)
        and np.all(plan[:, 3] == size["image_px"]) and np.all(plan[:, 5] == 224)
        and np.all((plan[:, 6:] >= 0) & (plan[:, 6:] < 1))
        and abs(on_atom.mean() - share) < 6 * sigma
    ):
        bad["plan"] = "plan rows break the crop formula or the plan invariants"
        return bad
    image = read_msim(work / "inputs/image.msim")
    for step, out, index in (("crop_apply_a", "crop_a.msim", params["crop_indices"][0]),
                             ("crop_apply_b", "crop_b.msim", params["crop_indices"][1])):
        if not _crop_ok(read_msim(work / out), image, plan[index]):
            bad[step] = f"crop of plan row {index} differs from the bilinear oracle"
    kept = np.load(work / "loader_samples.npy")
    rows = plan[: size["loader_crops"] : loader_sample_every(size)]
    if len(kept) != len(rows) or not all(_crop_ok(k, image, r) for k, r in zip(kept, rows)):
        bad[LOADER] = "loader crops differ from the bilinear oracle"
    return bad


def read_mseb(path):
    data = Path(path).read_bytes()
    _, _, n, dim = struct.unpack("<4sHQI", data[:18])
    rec = np.frombuffer(data[18:], dtype=[("mpp", "<f8"), ("vec", "<f4", (dim,))], count=n)
    return rec["mpp"], rec["vec"].astype(np.float64)


def check_profile(work, size, params):
    bad = {}
    mpps, vecs = read_mseb(work / "inputs/emb.mseb")
    groups = params["group_mpps"]
    _, rows = read_rows(work / "rankme.csv")
    worst = 0.0
    for mpp, row in zip(groups, rows):
        x = vecs[mpps == mpp]
        sigma = np.sqrt(np.clip(np.linalg.eigvalsh(x.T @ x), 0.0, None))
        p = sigma / sigma.sum() + 1e-7
        oracle = float(np.exp(-(p * np.log(p)).sum()))
        worst = max(worst, abs(float(row[2]) - oracle) / oracle)
        if abs(float(row[0]) - mpp) > 1e-12 * mpp or int(row[1]) != len(x):
            worst = np.inf
    if len(rows) != len(groups) or worst > 1e-6:
        bad["rankme"] = f"rankme deviates from the Gram oracle by {worst:.1e}"
    header, rows = read_rows(work / "similarity.csv")
    sim = np.array([r[1:] for r in rows], dtype=float)
    cents = np.array([vecs[mpps == m].mean(axis=0) for m in groups])
    cents /= np.linalg.norm(cents, axis=1, keepdims=True)
    if not (
        sim.shape == (len(groups), len(groups))
        and np.array_equal(sim, sim.T)
        and np.all(np.diag(sim) == 1.0)
        and np.allclose(sim, cents @ cents.T, rtol=0, atol=1e-9)
    ):
        bad["similarity"] = "similarity matrix not symmetric, not unit-diagonal or wrong"
    return bad


CHECKS = {"design": check_design, "sample": check_sample, "profile": check_profile}
EVERY_STEP = "*"


def check(workload, work: Path, size, params) -> dict:
    """Map each step whose final outputs fail an oracle to the reason;
    outputs too broken to check fail ``EVERY_STEP``."""
    try:
        return CHECKS[workload](work, size, params)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return {EVERY_STEP: f"outputs missing or malformed: {exc!r}"}
