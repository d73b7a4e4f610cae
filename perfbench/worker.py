"""One workload's passes in a fresh process.

Usage: ``python3 worker.py <spec.json>``, started by ``run.py`` with the
checkout's ``src`` on ``PYTHONPATH`` and the BLAS thread cap in
``OPENBLAS_NUM_THREADS``.
It runs in the work directory named by the spec, where the inputs already
are, and writes ``worker.json`` (timings, digests, layer metrics) and, for a
traced run, ``trace.jsonl`` (every span) to the spec's output directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter


def threads_now() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def openblas_libs() -> set:
    """Paths of the OpenBLAS libraries mapped into this process."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    return {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}


def load_blas():
    """Import numpy with a one-thread BLAS pool and scipy's BLAS with the cap.

    numpy and scipy may each bundle their own OpenBLAS, and each library
    reads OPENBLAS_NUM_THREADS once, when it loads. Giving numpy's pool one
    thread and scipy's, which runs the simplex's rank-1 updates, the cap
    keeps the worker within the cap. What happened is observed, not
    assumed: a pool's size is the calling thread plus the threads that
    appeared while its library loaded; a scipy that reuses numpy's library
    runs at numpy's pool size.
    """
    cap = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    before = threads_now()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401

    numpy_libs, numpy_threads = openblas_libs(), threads_now()
    os.environ["OPENBLAS_NUM_THREADS"] = cap
    import scipy.linalg.blas  # noqa: F401

    scipy_libs = openblas_libs() - numpy_libs
    numpy_pool = numpy_threads - before + 1 if numpy_libs else None
    scipy_pool = threads_now() - numpy_threads + 1 if scipy_libs else numpy_pool
    return {"numpy": numpy_pool, "scipy": scipy_pool,
            "scipy_shares_numpy_blas": bool(numpy_libs) and not scipy_libs}


BLAS = load_blas()
import numpy as np  # noqa: E402

import magsample.cli as cli  # noqa: E402
import magsample.sampler as sampler  # noqa: E402
import magsample.simplex as simplex  # noqa: E402
from workloads import LOADER, loader_sample_every, steps  # noqa: E402


# A run makes at least three passes: a median of two would average a cold
# first pass with a warm one, and determinism needs a repeat to compare. A
# traced run makes at least two traced passes, so its counts can be compared.
MIN_PASSES = 3
MIN_PASSES_TRACED = 4


class StepClock:
    """Sums the timed segments of one step; benchmark work between them
    (such as hashing loader crops) is left out."""

    def __init__(self):
        self.total = 0.0
        self.segments = []  # (start, end) of each timed segment

    def __enter__(self):
        self._start = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        self.total += end - self._start
        self.segments.append((self._start, end))


def run_loader(size, clock, record):
    """The in-process data loader: read the plan and the image once, then
    crop. Crop count and time go into ``record`` as they accrue."""
    with clock:
        entries = sampler.read_plan_csv("plan.csv")
        image = sampler.read_image_array("inputs/image.msim")
    every = loader_sample_every(size)
    digest = hashlib.sha256()
    kept = []
    for index, entry in enumerate(entries[: size["loader_crops"]]):
        start = perf_counter()
        with clock:
            crop = sampler.apply_crop(image, entry)
        record["crop_s"] += perf_counter() - start
        record["crops"] += 1
        digest.update(np.ascontiguousarray(crop).tobytes())
        if index % every == 0:
            kept.append(crop)
    np.save("loader_samples.npy", np.stack(kept))
    Path("loader_crops.sha256").write_text(digest.hexdigest() + "\n")


def run_pass(plan, size, tracer):
    record = {"traced": tracer is not None, "steps": {}}
    for step in plan:
        clock = StepClock()
        if tracer is not None:
            tracer.step = step.name
        entry = {"rc": 0}
        for out in step.outputs:  # a step that writes nothing must not pass on stale files
            Path(out).unlink(missing_ok=True)
        try:
            if step.name == LOADER:
                entry.update(crops=0, crop_s=0.0)
                run_loader(size, clock, entry)
            else:
                with clock:
                    entry["rc"] = cli.main(list(step.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            entry["rc"] = exc.code
        except Exception:  # the step failed; record it and go on to the next
            entry["rc"] = -1
            entry["error"] = traceback.format_exc()
            print(entry["error"], file=sys.stderr)
        entry["time_s"] = clock.total
        entry["segments"] = clock.segments
        entry["digests"] = {
            out: hashlib.sha256(Path(out).read_bytes()).hexdigest()
            for out in step.outputs
            if Path(out).is_file()
        }
        record["steps"][step.name] = entry
    record["pipeline_s"] = sum(e["time_s"] for e in record["steps"].values())
    return record


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    out_dir = Path(spec["out_dir"])
    os.chdir(spec["work_dir"])
    size, trace, seconds = spec["size"], spec["trace"], spec["seconds"]
    plan = steps(spec["workload"], size, spec["params"])
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    least = MIN_PASSES_TRACED if trace else MIN_PASSES
    passes, layers, trace_problems = [], [], []
    start = perf_counter()
    while True:
        # A traced run alternates untraced and traced passes, so that the
        # difference of their medians is the tracing overhead.
        traced = bool(trace) and len(passes) % 2 == 1
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        pass_start = perf_counter()
        try:
            record = run_pass(plan, size, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans = [
                [n, s, e, None if p is None else p - first_span, st, c]
                for n, s, e, p, st, c in tracer.spans[first_span:]
            ]
            metrics, problems = tracing.layer_metrics(
                spans, tracer.counters, {k: v["segments"] for k, v in record["steps"].items()}
            )
            layers.append(metrics)
            trace_problems += [f"traced pass {len(passes)}: {p}" for p in problems]
        record["wall_s"] = perf_counter() - pass_start
        record["threads"] = threads_now()
        passes.append(record)
        elapsed = perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= least and elapsed + typical > seconds:
            break
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": max(p["threads"] for p in passes),
        "blas_threads": BLAS,
        "simplex_dger": simplex._dger is not None,
        "passes": passes,
        "layers": layers,
        "trace_problems": trace_problems,
        "layer_units": tracing.UNITS if trace else {},
    }
    (out_dir / "worker.json").write_text(json.dumps(result))
    if tracer is not None:
        with open(out_dir / "trace.jsonl", "w") as f:
            for name, s, e, parent, step, counts in tracer.spans:
                f.write(json.dumps({"name": name, "start": s, "end": e, "parent": parent,
                                    "step": step, "counts": counts}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
