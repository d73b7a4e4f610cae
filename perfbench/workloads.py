"""The benchmark's three workloads as sequences of steps.

A step is one CLI call, ``magsample.cli.main(argv)``, as a user types it,
or the in-process loader loop of the ``sample`` workload. Paths are
relative to the run's work directory, so manifests (which record them)
are byte-identical from pass to pass and from checkout to checkout.
"""

from __future__ import annotations

from dataclasses import dataclass

# "full" is what the benchmark measures; "tiny" keeps the smoke test fast.
SIZES = {
    "full": {
        "grid": 1000,
        "signal_grid": 3000,
        "plan_rows": 100_000,
        "loader_crops": 500,
        "image_px": 512,
        "density_cells": 1000,
        "embed_rows": 16384,
        "embed_dim": 384,
    },
    "tiny": {
        "grid": 40,
        "signal_grid": 120,
        "plan_rows": 2000,
        "loader_crops": 20,
        "image_px": 512,
        "density_cells": 50,
        "embed_rows": 512,
        "embed_dim": 32,
    },
}

WORKLOADS = ("design", "sample", "profile")

LOADER = "loader"


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple  # CLI arguments; empty for the in-process loader loop
    outputs: tuple  # files the step writes


def _cli(name, out, *argv, extra_outputs=()):
    outs = (out, *extra_outputs)
    manifests = tuple(o + ".manifest.txt" for o in outs)
    return Step(name, tuple(str(a) for a in (*argv, "--out", out)), outs + manifests)


def steps(workload: str, size: dict, params: dict) -> list[Step]:
    if workload == "design":
        tab = "custom:inputs/tab.csv"
        grid = ("--grid", size["grid"])
        maxmin = ("optimize", "--objective", "maxmin", *grid, "--kernel")
        return [
            _cli("kernel_info", "kernel_info.csv", "kernel", "--kernel", "info"),
            _cli("kernel_tab", "kernel_tab.csv", "kernel", "--kernel", tab),
            _cli("maxmin_info", "maxmin_info.msdist", *maxmin, "info"),
            _cli("maxmin_abs", "maxmin_abs.msdist", *maxmin, "abs"),
            _cli("maxmin_tab", "maxmin_tab.msdist", *maxmin, tab),
            _cli("maxavg", "maxavg.msdist", "optimize", "--objective", "maxavg",
                 "--lambda", "0.1", *grid, "--kernel", "info"),
            # Under the overlap kernel discrete uniform beats continuous uniform
            # in the worst case (its boundary is starved), so the strategies are
            # compared under the distance kernel, where the paper's ordering holds.
            _cli("compare", "compare.csv", "compare", *grid, "--kernel", "abs",
                 "inputs/discrete_uniform.msdist", "inputs/continuous_uniform.msdist",
                 "maxmin_abs.msdist", "maxavg.msdist"),
            _cli("signal", "signal.csv", "signal", "--grid", size["signal_grid"],
                 "--kernel", "info", "--dist", "maxmin_info.msdist",
                 extra_outputs=("signal.summary.csv",)),
        ]
    if workload == "sample":
        i, j = params["crop_indices"]
        crop = ("crop-apply", "--image", "inputs/image.msim", "--plan", "plan.csv", "--index")
        return [
            _cli("plan", "plan.csv", "plan", "--dist", "inputs/mix.msdist",
                 "--n", size["plan_rows"], "--seed", params["plan_seed"]),
            _cli("crop_apply_a", "crop_a.msim", *crop, i),
            _cli("crop_apply_b", "crop_b.msim", *crop, j),
            Step(LOADER, (), ("loader_samples.npy", "loader_crops.sha256")),
        ]
    if workload == "profile":
        emb = ("--embeddings", "inputs/emb.mseb")
        return [
            _cli("rankme", "rankme.csv", "rankme", *emb),
            _cli("similarity", "similarity.csv", "similarity", *emb),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Every loader_sample_every-th crop of the loader loop is kept for the oracle.
LOADER_SAMPLES = 10


def loader_sample_every(size: dict) -> int:
    return max(1, size["loader_crops"] // LOADER_SAMPLES)
