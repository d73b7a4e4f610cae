"""Seeded input files for the benchmark workloads.

Everything here uses numpy alone and writes the documented file formats
directly, so the program under test only ever sees the generated files.
The same seed and size always give byte-identical inputs.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

STANDARDS = (0.25, 0.5, 1.0, 2.0)
RANGE = (0.25, 2.0)
TABLE_SPAN = (0.2, 2.1)  # the tabulated kernel covers the range with a margin


def _fmt(v) -> str:
    return repr(float(v))


def write_msdist(path, atoms=(), density=None):
    lines = ["#msdist v1", f"range {_fmt(RANGE[0])} {_fmt(RANGE[1])}"]
    lines += [f"atom {_fmt(x)} {_fmt(w)}" for x, w in atoms]
    if density is not None:
        lines.append(f"density {len(density)}")
        vals = [_fmt(v) for v in density]
        lines += [" ".join(vals[i : i + 8]) for i in range(0, len(vals), 8)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _info_potential(xs, nodes=4001):
    """Transfer potential of the overlap kernel by trapezoid quadrature."""
    ys = np.linspace(RANGE[0], RANGE[1], nodes)
    r = np.minimum(xs[:, None], ys) / np.maximum(xs[:, None], ys)
    return np.trapezoid(r * r, ys, axis=1)


def tabulated_kernel(rng, n=64):
    """Positive, asymmetric n x n kernel table over ``TABLE_SPAN``.

    Similarity decays slowly with log-distance, faster towards coarser mpp,
    and carries seeded multiplicative noise. Its max-min solution is sparse
    (about ten support points, under a hundred pivots), unlike the
    completely mixed ones of the built-in kernels; a faster decay would
    spread the support and make the pivot count swing from seed to seed.
    """
    xs = np.linspace(TABLE_SPAN[0], TABLE_SPAN[1], n)
    d = np.log(xs[:, None] / xs[None, :])
    base = np.exp(-0.5 * np.abs(d) * np.where(d > 0, 1.4, 0.6))
    return xs, base * rng.uniform(0.95, 1.05, size=base.shape)


def write_kernel_csv(path, xs, values):
    lines = ["x,y,value"]
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(values[i, j])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_image(path, image):
    h, w, c = image.shape
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIII", b"MSIM", h, w, c))
        f.write(np.ascontiguousarray(image, dtype="<f4").tobytes())


def write_embeddings(path, mpps, vectors):
    record = np.dtype([("mpp", "<f8"), ("vec", "<f4", (vectors.shape[1],))])
    out = np.empty(len(mpps), dtype=record)
    out["mpp"] = mpps
    out["vec"] = vectors
    with open(path, "wb") as f:
        f.write(struct.pack("<4sHQI", b"MSEB", 1, len(mpps), vectors.shape[1]))
        f.write(out.tobytes())


def design_inputs(rng, d: Path, size) -> dict:
    xs, table = tabulated_kernel(rng)
    write_kernel_csv(d / "tab.csv", xs, table)
    write_msdist(d / "discrete_uniform.msdist", atoms=[(s, 0.25) for s in STANDARDS])
    write_msdist(d / "continuous_uniform.msdist", density=[1.0])
    return {}


def sample_inputs(rng, d: Path, size) -> dict:
    """Standard-mpp atoms mixed with a Gibbs density of the overlap kernel,
    so plan draws take both the atom and the density quantile branches.

    The atom share and the Gibbs temperature are fixed: atom targets take
    apply_crop's cheap copy path, so a seeded share would change the work
    from seed to seed. The seed moves the weights among the atoms, the
    plan's own seed, the image and the crop indices.
    """
    atom_share = 0.45
    atom_w = rng.dirichlet(np.full(len(STANDARDS), 4.0)) * atom_share
    cells = size["density_cells"]
    edges = np.linspace(RANGE[0], RANGE[1], cells + 1)
    tp = _info_potential(0.5 * (edges[:-1] + edges[1:]))
    gibbs = np.exp((tp - tp.max()) / 0.5)
    gibbs *= (1.0 - atom_share) / (gibbs.sum() * (edges[1] - edges[0]))
    write_msdist(d / "mix.msdist", atoms=zip(STANDARDS, atom_w), density=gibbs)
    side = size["image_px"]
    write_image(d / "image.msim", rng.random((side, side, 3), dtype=np.float32))
    n = size["plan_rows"]
    return {
        "plan_seed": int(rng.integers(0, 2**31)),
        "crop_indices": [int(i) for i in rng.integers(0, n, size=2)],
        "atom_share": atom_share,
    }


def profile_inputs(rng, d: Path, size) -> dict:
    """Rows in 8 mpp groups; each group is a shared mean plus its own
    low-rank part plus isotropic noise, with the rows shuffled."""
    rows, dim, groups = size["embed_rows"], size["embed_dim"], 8
    per = rows // groups
    group_mpps = RANGE[0] * 2.0 ** (np.arange(groups) / 2.0)
    mean = rng.normal(size=dim)
    mpps = np.repeat(group_mpps, per)
    vecs = np.empty((per * groups, dim))
    for g in range(groups):
        rank = int(rng.integers(dim // 16, dim // 4))
        basis = rng.normal(size=(rank, dim))
        block = slice(g * per, (g + 1) * per)
        vecs[block] = mean + 0.5 * rng.normal(size=dim)
        vecs[block] += rng.normal(size=(per, rank)) @ basis / np.sqrt(rank)
        vecs[block] += 0.05 * rng.normal(size=(per, dim))
    order = rng.permutation(per * groups)
    write_embeddings(d / "emb.mseb", mpps[order], vecs[order].astype(np.float32))
    return {"group_mpps": [float(m) for m in group_mpps], "rows_per_group": per}


GENERATORS = {"design": design_inputs, "sample": sample_inputs, "profile": profile_inputs}


def generate(workload: str, seed: int, d: Path, size) -> dict:
    """Write the workload's inputs into ``d``; return the seeded parameters."""
    d.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    return GENERATORS[workload](rng, d, size)
