"""Span tracing from outside the program.

The tracer replaces public layer functions at the module or class
attribute where their caller looks them up, so the program's source stays
untouched. Each call records a span (name, start, end, parent span, step)
plus the counts that belong to it. Spans stay in memory until the run
ends. Per-row helpers are deliberately not wrapped: their call overhead
would swamp what they measure.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import magsample.cli as cli
import magsample.distributions as distributions
import magsample.kernels as kernels
import magsample.optimize as optimize
import magsample.rng as rng
import magsample.sampler as sampler
import magsample.signal as signal


def _file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _simplex_counts(args, kwargs, result):
    m, n = np.shape(args[1])
    tableau_bytes = (m + 1) * (n + m + 1) * 8
    return {"pivots": result.iterations,
            "computed_gb": result.iterations * tableau_bytes / 1e9}


# (owner, attribute, span name, counts of one call)
TARGETS = [
    (cli, "fnv1a64", "cli.digest", lambda a, k, r: {"mb": len(a[0]) / 1e6}),
    (kernels.Kernel, "__call__", "kernels.eval", None),
    (kernels.Kernel, "transfer_potential", "kernels.tp", None),
    (kernels.TabulatedKernel, "from_csv", "kernels.load", None),
    (optimize, "solve_inequality_lp", "simplex.solve", _simplex_counts),
    (cli, "optimize_max_min", "optimize.max_min",
     lambda a, k, r: {"cert_gap": r.certificate_gap}),
    (cli, "optimize_max_avg", "optimize.max_avg", None),
    (cli, "accumulated_signal", "signal.accumulated", None),
    (signal, "accumulated_signal", "signal.accumulated", None),
    (cli, "write_profile_csv", "signal.write_csv", None),
    (cli, "write_summary_csv", "signal.write_csv", None),
    (cli, "read_distribution", "distributions.io", None),
    (cli, "write_distribution", "distributions.io", None),
    (distributions.SamplingDistribution, "quantile", "distributions.quantile",
     lambda a, k, r: {"draws": np.size(a[1])}),
    (rng.CounterRng, "uniform_at", "rng.uniform_at", lambda a, k, r: {"draws": np.size(a[1])}),
    (cli, "generate_plan", "sampler.generate_plan", lambda a, k, r: {"rows": len(r)}),
    (cli, "write_plan_csv", "sampler.write_csv", None),
    (cli, "read_plan_csv", "sampler.read_csv", _file_mb),
    (sampler, "read_plan_csv", "sampler.read_csv", _file_mb),
    (cli, "read_image_array", "sampler.image_io", None),
    (sampler, "read_image_array", "sampler.image_io", None),
    (cli, "write_image_array", "sampler.image_io", None),
    (cli, "apply_crop", "sampler.apply_crop", lambda a, k, r: {"crops": 1}),
    (sampler, "apply_crop", "sampler.apply_crop", lambda a, k, r: {"crops": 1}),
    (cli, "load_embeddings", "rankme.load", _file_mb),
    (cli, "rankme_profile", "rankme.rank", lambda a, k, r: {"groups": len(r.groups)}),
    (cli, "centroid_similarity", "rankme.similarity", None),
]

# Count-only hooks, which record no span: (owner, attribute, counter, count of
# one call). Every kernel's vectorised ``_evaluate`` is hooked, so kernel
# values computed inside transfer-potential quadrature count too, not only
# those returned by ``Kernel.__call__``.
COUNTERS = [
    (cls, "_evaluate", "kernels.evals", lambda a, k, r: np.size(r))
    for cls in kernels.Kernel.__subclasses__()
    if "_evaluate" in vars(cls)
]

# Per-layer metrics: name -> (unit, span name, "self" for self time or a count
# key); a span name of None reads the count-only hook of that key.
LAYER_METRICS = {
    "simplex.solve_s": ("s", "simplex.solve", "self"),
    "simplex.pivots": ("count", "simplex.solve", "pivots"),
    "simplex.computed_gb": ("GB", "simplex.solve", "computed_gb"),
    "optimize.max_min_s": ("s", "optimize.max_min", "self"),
    "optimize.max_avg_s": ("s", "optimize.max_avg", "self"),
    "optimize.cert_gap": ("1", "optimize.max_min", "cert_gap"),
    "kernels.eval_s": ("s", "kernels.eval", "self"),
    "kernels.evals": ("count", None, "kernels.evals"),
    "kernels.tp_s": ("s", "kernels.tp", "self"),
    "kernels.load_s": ("s", "kernels.load", "self"),
    "signal.accumulated_s": ("s", "signal.accumulated", "self"),
    "signal.write_csv_s": ("s", "signal.write_csv", "self"),
    "distributions.io_s": ("s", "distributions.io", "self"),
    "distributions.quantile_s": ("s", "distributions.quantile", "self"),
    "distributions.quantile_draws": ("count", "distributions.quantile", "draws"),
    "rng.uniform_at_s": ("s", "rng.uniform_at", "self"),
    "rng.draws": ("count", "rng.uniform_at", "draws"),
    "sampler.generate_plan_s": ("s", "sampler.generate_plan", "self"),
    "sampler.plan_rows": ("count", "sampler.generate_plan", "rows"),
    "sampler.write_csv_s": ("s", "sampler.write_csv", "self"),
    "sampler.read_csv_s": ("s", "sampler.read_csv", "self"),
    "sampler.csv_mb": ("MB", "sampler.read_csv", "mb"),
    "sampler.image_io_s": ("s", "sampler.image_io", "self"),
    "sampler.apply_crop_s": ("s", "sampler.apply_crop", "self"),
    "sampler.crops": ("count", "sampler.apply_crop", "crops"),
    "rankme.load_s": ("s", "rankme.load", "self"),
    "rankme.load_mb": ("MB", "rankme.load", "mb"),
    "rankme.rank_s": ("s", "rankme.rank", "self"),
    "rankme.groups": ("count", "rankme.rank", "groups"),
    "rankme.similarity_s": ("s", "rankme.similarity", "self"),
    "cli.digest_s": ("s", "cli.digest", "self"),
    "cli.digest_mb": ("MB", "cli.digest", "mb"),
}
# cli.self_s, time inside a step that no span covers, is added by layer_metrics.
UNITS = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()} | {"cli.self_s": "s"}
GAUGES = {"cert_gap"}  # reported as the largest value, not summed


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, step, counts]
        self.counters = defaultdict(float)  # count-only hooks, since install()
        self.step = None
        self._stack = []
        self._saved = []

    def _wrap(self, original, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.step, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def _hook(self, original, key, count):
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counters[key] += count(args, kwargs, result)
            return result

        return counted

    def install(self):
        self.counters.clear()
        for owner, attr, key, count in COUNTERS:
            raw = vars(owner)[attr]
            setattr(owner, attr, self._hook(raw, key, count))
            self._saved.append((owner, attr, raw))
        for owner, attr, name, count in TARGETS:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, count))
            else:
                patched = self._wrap(raw, name, count)
            setattr(owner, attr, patched)
            self._saved.append((owner, attr, raw))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _union(intervals):
    total, end = 0.0, -np.inf
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def layer_metrics(spans, counters, step_segments, eps=1e-6):
    """Per-layer metrics of one pass from its spans and count-only hooks.

    ``step_segments`` maps each step to the (start, end) segments its clock
    timed. A span's self time is its duration minus the part covered by its
    child spans; cli.self_s is clocked step time that no top-level span
    covers. Returns the metrics and the problems found: a top-level span
    that is not inside one of its step's clocked segments, or that overlaps
    another, would make the self times disagree with the step times.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append(span)
    self_time = defaultdict(float)
    counts = defaultdict(float)
    gauges = defaultdict(float)
    top = defaultdict(list)
    for index, (name, start, end, parent, step, cnt) in enumerate(spans):
        self_time[name] += (end - start) - _union((c[1], c[2]) for c in children[index])
        if parent is None:
            top[step].append((start, end))
        for key, value in (cnt or {}).items():
            if key in GAUGES:
                gauges[(name, key)] = max(gauges[(name, key)], value)
            else:
                counts[(name, key)] += value
    out = {}
    for metric, (_, name, key) in LAYER_METRICS.items():
        if name is None:
            out[metric] = counters.get(key, 0.0)
        elif key == "self":
            out[metric] = self_time[name]
        elif key in GAUGES:
            out[metric] = gauges[(name, key)]
        else:
            out[metric] = counts[(name, key)]
    problems = [f"{len(top[s])} spans outside every step" for s in top if s not in step_segments]
    uncovered = 0.0
    for step, segments in step_segments.items():
        intervals = sorted(top[step])
        for s, e in intervals:
            if not any(a - eps <= s and e <= b + eps for a, b in segments):
                problems.append(f"step {step}: span {s:.6f}..{e:.6f} is outside its clock")
        for (_, e), (s, _) in zip(intervals, intervals[1:]):
            if s < e - eps:
                problems.append(f"step {step}: top-level spans overlap by {e - s:.2e} s")
        left = sum(b - a for a, b in segments) - _union(intervals)
        if left < -eps:
            problems.append(f"step {step}: spans cover {-left:.2e} s more than its clock")
        uncovered += left
    out["cli.self_s"] = uncovered
    return out, problems
