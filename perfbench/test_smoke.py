"""Smoke test of the benchmark: every workload at tiny sizes.

Each workload runs once untraced and once traced. Both runs must pass
their own output checks and write byte-identical outputs, so the tracing
wrappers do not change behaviour. Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd or HERE.parent, capture_output=True, text=True, timeout=170,
    )


def tiny(workload, trace):
    out = run("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    digests = json.loads(next(line for line in lines if line.startswith("digests "))[8:])
    return json.loads(lines[-1]), digests


@pytest.mark.parametrize("workload", ["design", "sample", "profile"])
def test_traced_and_untraced_runs_agree(workload):
    plain, plain_digests = tiny(workload, 0)
    traced, traced_digests = tiny(workload, 1)
    assert plain["correct"] and plain["failed"] == 0
    assert traced["correct"] and traced["failed"] == 0
    assert plain_digests and plain_digests == traced_digests
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = run("--workload", "design", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def bench_modules():
    """Import the benchmark's own modules, with the program's sources."""
    paths = [str(HERE), str(HERE.parent / "src")]
    sys.path[:0] = paths
    try:
        import run as bench_run
        import tracer
    finally:
        del sys.path[: len(paths)]
    return bench_run, tracer


# One step clocked from 0 to 10 s: an LP solve (2..6) holding a kernel
# evaluation (3..4), then a digest (7..8); 5 s fall outside every span.
SPANS = [
    ["simplex.solve", 2.0, 6.0, None, "s", {"pivots": 5}],
    ["kernels.eval", 3.0, 4.0, 0, "s", None],
    ["cli.digest", 7.0, 8.0, None, "s", {"mb": 2.0}],
]


def test_self_times_add_up_to_step_time():
    _, tracer = bench_modules()
    metrics, problems = tracer.layer_metrics(SPANS, {"kernels.evals": 100}, {"s": [(0.0, 10.0)]})
    assert problems == []
    assert metrics["simplex.solve_s"] == 3.0
    assert metrics["kernels.eval_s"] == 1.0
    assert metrics["cli.digest_s"] == 1.0
    assert metrics["cli.self_s"] == 5.0
    assert metrics["simplex.pivots"] == 5 and metrics["kernels.evals"] == 100


def test_span_outside_its_step_makes_the_run_incorrect():
    bench_run, tracer = bench_modules()
    # The step's clock timed 0..5 and 6..10; the digest (7..8) fits, the LP
    # solve (2..6) runs past the first segment.
    metrics, problems = tracer.layer_metrics(SPANS, {}, {"s": [(0.0, 5.0), (6.0, 10.0)]})
    assert len(problems) == 1 and "outside its clock" in problems[0]
    worker = {
        "layers": [metrics, metrics],
        "passes": [{"traced": False, "pipeline_s": 9.0}, {"traced": True, "pipeline_s": 9.0}],
        "layer_units": tracer.UNITS,
        "trace_problems": problems,
    }
    _, found = bench_run.layer_summary(worker)
    assert found == problems
    overlapping = [SPANS[0], ["cli.digest", 5.0, 8.0, None, "s", None]]
    _, problems = tracer.layer_metrics(overlapping, {}, {"s": [(0.0, 10.0)]})
    assert any("overlap" in p for p in problems)


def test_kernel_evals_count_transfer_potential_quadrature():
    _, tracer = bench_modules()
    from magsample.kernels import MagRange, TabulatedKernel

    xs = [0.2, 0.8, 1.4, 2.1]
    kernel = TabulatedKernel(xs, xs, [[1.0, 0.5, 0.4, 0.3]] * 4)
    trace = tracer.Tracer()
    trace.install()
    try:
        kernel(0.5, 1.0)
        kernel.transfer_potential([0.5, 1.0, 1.5], MagRange())
    finally:
        trace.uninstall()
    # One value from the call; three queries times the range ends plus the
    # two table nodes inside [0.25, 2] from the quadrature.
    assert trace.counters["kernels.evals"] == 1 + 3 * 4
