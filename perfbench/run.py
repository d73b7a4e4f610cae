"""magsample benchmark: seeded CLI workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 32 --trace 0

Workloads are ``design``, ``sample`` and ``profile`` (see README.md here);
``--workload all`` runs each of them untraced and traced, one after another.
A run generates its inputs from the seed, measures the import of
``magsample.cli`` in fresh processes, then starts one fresh worker process
that runs the workload's steps pass after pass for about ``--seconds``
seconds, and finally checks every output against independent oracles and
for byte-identical repeats. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The lines before it report every metric,
the environment and the output digests. Work files go to
``.perfbench_runs/`` in the checkout; each run's ``result.json`` (and
``trace.jsonl`` for a traced run) is kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5  # fresh processes that only import magsample.cli
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import magsample.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["design", "sample", "profile", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=32)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def child_env(nproc):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(nproc)
    return env


def environment(nproc, worker):
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": worker["blas_threads"],
        "worker_threads": worker["threads"],
        "simplex_dger": worker["simplex_dger"],
    }


def median(values):
    return statistics.median(values)


def step_times(passes, name):
    return [p["steps"][name]["time_s"] for p in passes]


def end_to_end(workload, size, passes, setup):
    m = {
        "setup_s": (median(setup), "s"),
        "pipeline_s": (statistics.fmean(p["pipeline_s"] for p in passes), "s"),
    }
    if workload == "design":
        m["maxmin_solve_s"] = (median(step_times(passes, "maxmin_info")), "s")
        m["signal_s"] = (median(step_times(passes, "signal")), "s")
    elif workload == "sample":
        m["plan_rows_per_s"] = (size["plan_rows"] / median(step_times(passes, "plan")), "1/s")
        crops = step_times(passes, "crop_apply_a") + step_times(passes, "crop_apply_b")
        m["crop_apply_s"] = (median(crops), "s")
        loader = [p["steps"]["loader"] for p in passes]
        m["crops_per_s"] = (median(s["crops"] / s["crop_s"] if s["crop_s"] else 0.0
                                   for s in loader), "1/s")
    else:
        through = [a + b for a, b in zip(step_times(passes, "rankme"),
                                         step_times(passes, "similarity"))]
        m["embed_rows_per_s"] = (size["embed_rows"] / median(through), "1/s")
    return m


def failures(steps, passes, bad):
    """Failed (pass, step) operations and their reasons.

    A step fails in a pass on a nonzero exit or an exception, when its
    outputs differ in any byte from the first pass, or when the outputs of
    the last pass (identical in every pass that matches it) fail an oracle.
    """
    failed = {}
    for k, record in enumerate(passes):
        for step in steps:
            entry = record["steps"][step.name]
            why = None
            if entry["rc"] != 0:
                why = f"exit code {entry['rc']}"
            elif entry["digests"] != passes[0]["steps"][step.name]["digests"]:
                why = "outputs differ from the first pass"
            elif entry["digests"] == passes[-1]["steps"][step.name]["digests"]:
                why = bad.get(step.name, bad.get(checks.EVERY_STEP))
            if why:
                failed[(k, step.name)] = why
    return failed


def layer_summary(worker):
    """Median per-layer metrics of the traced passes, the tracing overhead,
    and the problems found: counts that do not repeat, spans that do not
    fit their steps' clocks."""
    layers = worker["layers"]
    problems = list(worker["trace_problems"])
    out = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            out[name] = (median(values), "s")
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            out[name] = (values[0], worker["layer_units"][name])
    traced = [p["pipeline_s"] for p in worker["passes"] if p["traced"]]
    plain = [p["pipeline_s"] for p in worker["passes"] if not p["traced"]]
    out["trace.overhead_s"] = (statistics.fmean(traced) - statistics.fmean(plain), "s")
    return out, problems


def run_one(args):
    import inputs
    from workloads import SIZES, steps

    if not (SRC / "magsample" / "cli.py").is_file():
        print(f"perfbench: no magsample sources under {SRC}", file=sys.stderr)
        return 2
    spec_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    size = SIZES[args.size]
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    params = inputs.generate(args.workload, args.seed, work / "inputs", size)
    plan = steps(args.workload, size, params)

    setup = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=work,
                               capture_output=True, text=True, timeout=60, check=True)
        setup.append(float(probe.stdout))
    spec = {"workload": args.workload, "size": size, "params": params, "trace": args.trace,
            "seconds": args.seconds, "work_dir": str(work), "out_dir": str(run_dir)}
    (run_dir / "spec.json").write_text(json.dumps(spec))
    with open(run_dir / "worker.log", "w") as log:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(run_dir / "spec.json")],
                              env=env, cwd=work, stdout=log, stderr=log,
                              timeout=args.seconds + 120)
    if proc.returncode != 0:
        sys.stderr.write((run_dir / "worker.log").read_text()[-4000:])
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads((run_dir / "worker.json").read_text())
    passes = worker["passes"]

    bad = checks.check(args.workload, work, size, params)
    failed = failures(plan, passes, bad)
    attempted = len(passes) * len(plan)
    for (k, step), why in sorted(failed.items()):
        print(f"perfbench: pass {k} step {step} failed: {why}", file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    metrics = end_to_end(args.workload, size, plain, setup)
    metrics["peak_rss_mb"] = (worker["peak_rss_mb"], "MB")
    metrics["error_rate"] = (len(failed) / attempted, "1")
    problems = []
    if worker["threads"] > nproc:
        problems.append(f"worker held {worker['threads']} threads, more than nproc={nproc}")
    if args.trace:
        layers, trace_problems = layer_summary(worker)
        problems += trace_problems
        report = layers
        listed = spec_json["per_layer"]
    else:
        report = metrics
        listed = spec_json["end_to_end"]
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    env_info = environment(nproc, worker)
    digests = {out: d for entry in passes[-1]["steps"].values()
               for out, d in entry["digests"].items()}
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "passes": len(passes), "environment": env_info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "step_median_s": {s.name: median(step_times(plain, s.name)) for s in plan},
        "digests": digests,
    }
    if args.trace:
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"passes={len(passes)}")
    print("environment " + json.dumps(env_info))
    print("steps_s " + json.dumps(result["step_median_s"]))
    print("digests " + json.dumps(digests))
    print("metrics " + json.dumps(result["metrics"]))
    if args.trace:
        print("layers " + json.dumps(result["layers"]))
    final = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(final))
    return 0


def run_all(args):
    code = 0
    for workload in ("design", "sample", "profile"):
        for trace in (0, 1):
            one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            code = max(code, run_one(one))
    return code


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
