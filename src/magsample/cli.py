"""Command-line interface.

Subcommands: ``kernel``, ``signal``, ``compare``, ``optimize``, ``plan``,
``rankme``, ``similarity``, ``crop-apply``. All outputs are CSV or the raw
formats defined by the owning modules; plotting is left to external tools.

Every output file gets a ``<out>.manifest.txt`` companion listing the
subcommand, the fully resolved parameters, sha256 digests of the input
files (``digest.<name> sha256:<hex>``), the RNG seed when one applies, and
the tool version, one sorted ``key value`` pair per line. Manifests written
by earlier versions carry 64-bit FNV-1a digests (``fnv1a:<hex>``) instead.

Exit codes: 0 on success; 2 for usage errors and unusable inputs
(``ParameterError``, ``FormatError``, ``RangeError``, ``FeasibilityError``,
and a missing, directory or unreadable file); 1 for computation failures
(``DomainError``, ``DegenerateInputError``, ``ShapeError``, ``SolverError``
and any other ``MagsampleError``). So not every ``ValueError`` exits 2:
``DomainError``, ``DegenerateInputError`` and ``ShapeError`` exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import read_distribution, write_distribution
from .errors import (
    DegenerateInputError,
    DomainError,
    FeasibilityError,
    FormatError,
    MagsampleError,
    ParameterError,
    RangeError,
    ShapeError,
    SolverError,
)
from .kernels import MagRange, kernel_from_string, transfer_potential_curve
from .optimize import (
    MAX_AVG_ENTROPY,
    MAX_MIN,
    OptimizationConfig,
    optimize_max_avg,
    optimize_max_min,
)
from .rankme import (
    centroid_similarity,
    load_embeddings,
    rankme_profile,
    write_rankme_csv,
    write_similarity_csv,
)
from .sampler import (
    SamplerConfig,
    apply_crop,
    generate_plan,
    read_image_array,
    read_plan_csv,
    write_image_array,
    write_plan_csv,
)
from .signal import signal_summary, accumulated_signal, write_profile_csv, write_summary_csv

_USAGE_ERRORS = (
    ParameterError,
    FormatError,
    RangeError,
    FeasibilityError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
)
_COMPUTE_ERRORS = (DomainError, DegenerateInputError, ShapeError, SolverError, MagsampleError)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string.

    Manifests no longer use it (see ``_digest``). It stays only because the
    benchmark tracer's ``cli.digest`` hook looks it up by name; once that
    hook moves to ``_digest``, this function and its known-vector test go.
    """
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


_DIGEST_CHUNK = 1 << 20


def _digest(path) -> str:
    """``sha256:<hex>`` of a file, streamed in chunks rather than read whole."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(_DIGEST_CHUNK), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _write_manifest(out_path, subcommand: str, params: dict, inputs: dict, also_for=()):
    """Write ``<out>.manifest.txt``, and the same bytes for each of ``also_for``.

    Each input file is digested once, however many outputs share the manifest.
    """
    entries = {"subcommand": subcommand, "version": __version__}
    for key, value in params.items():
        entries[key] = _fmt(value)
    for name, path in inputs.items():
        entries[f"digest.{name}"] = _digest(path)
    lines = [f"{k} {entries[k]}" for k in sorted(entries)]
    text = "\n".join(lines) + "\n"
    for out in (out_path, *also_for):
        Path(str(out) + ".manifest.txt").write_text(text, encoding="utf-8", newline="")


def _parse_range(text: str) -> MagRange:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParameterError(f"range must look like <a>:<b>, got {text!r}")
    try:
        return MagRange(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ParameterError(f"bad range {text!r}: {exc}") from None


def _parse_standards(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ParameterError(f"bad standard mpp list {text!r}") from None


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="")


def _add_common(parser, *, grid_default=1000):
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--grid", type=int, default=grid_default, help="grid size")
    parser.add_argument(
        "--range",
        default=None,
        help="magnification range <a>:<b> (default 0.25:2.0; commands reading "
        "a distribution file take the range from the file and only check it)",
    )
    parser.add_argument(
        "--kernel", default="info", help="kernel: abs, info, or custom:<path>"
    )


def _resolve_range(args) -> MagRange:
    return _parse_range(args.range or "0.25:2.0")


def _check_range_matches(args, dist, path):
    if args.range is None:
        return
    wanted = _parse_range(args.range)
    if wanted != dist.range:
        raise ParameterError(
            f"--range {args.range} does not match the range "
            f"[{dist.range.a}, {dist.range.b}] declared in {path}"
        )


# -- subcommands ----------------------------------------------------------------


def cmd_kernel(args) -> int:
    mag_range = _resolve_range(args)
    kernel = kernel_from_string(args.kernel)
    curve = transfer_potential_curve(kernel, mag_range, args.grid)
    with _open_out(args.out) as f:
        f.write("x_mpp,transfer_potential\n")
        for x, v in zip(curve.xs, curve.values):
            f.write(f"{float(x)!r},{float(v)!r}\n")
    _write_manifest(
        args.out,
        "kernel",
        {"grid": args.grid, "kernel": args.kernel, "out": args.out, "range": args.range or "0.25:2.0"},
        {"kernel": args.kernel_path} if args.kernel_path else {},
    )
    return 0


def cmd_signal(args) -> int:
    dist = read_distribution(args.dist)  # the range comes from the file itself
    _check_range_matches(args, dist, args.dist)
    kernel = kernel_from_string(args.kernel)
    profile = accumulated_signal(dist, kernel, args.grid)
    with _open_out(args.out) as f:
        write_profile_csv(profile, f)
    summary_out = args.summary_out or str(Path(args.out).with_suffix("")) + ".summary.csv"
    name = Path(args.dist).stem
    with _open_out(summary_out) as f:
        write_summary_csv([(name, profile.summary())], f)
    params = {
        "dist": args.dist,
        "grid": args.grid,
        "kernel": args.kernel,
        "out": args.out,
        "summary_out": summary_out,
    }
    inputs = {"dist": args.dist}
    if args.kernel_path:
        inputs["kernel"] = args.kernel_path
    _write_manifest(args.out, "signal", params, inputs, also_for=[summary_out])
    return 0


def cmd_compare(args) -> int:
    if len(args.dists) < 2:
        print("compare needs at least two distribution files", file=sys.stderr)
        return 2
    kernel = kernel_from_string(args.kernel)
    rows = []
    for path in args.dists:
        dist = read_distribution(path)
        _check_range_matches(args, dist, path)
        rows.append((Path(path).stem, signal_summary(dist, kernel, args.grid)))
    with _open_out(args.out) as f:
        write_summary_csv(rows, f)
    params = {"grid": args.grid, "kernel": args.kernel, "out": args.out}
    inputs = {str(i): path for i, path in enumerate(args.dists)}
    if args.kernel_path:
        inputs["kernel"] = args.kernel_path
    _write_manifest(args.out, "compare", params, inputs)
    return 0


def cmd_optimize(args) -> int:
    mag_range = _resolve_range(args)
    kernel = kernel_from_string(args.kernel)
    objective = {"maxavg": MAX_AVG_ENTROPY, "maxmin": MAX_MIN}[args.objective]
    cfg = OptimizationConfig(
        objective=objective,
        kernel=kernel,
        mag_range=mag_range,
        grid_n=args.grid,
        lam=getattr(args, "lambda"),
    )
    comments = []
    if objective == MAX_AVG_ENTROPY:
        dist = optimize_max_avg(cfg)
    else:
        solution = optimize_max_min(cfg)
        dist = solution.distribution
        comments.append(f"achieved_t {solution.achieved_t!r}")
    write_distribution(dist, args.out, comments=comments)
    params = {
        "grid": args.grid,
        "kernel": args.kernel,
        "lambda": getattr(args, "lambda"),
        "objective": args.objective,
        "out": args.out,
        "range": args.range or "0.25:2.0",
    }
    inputs = {"kernel": args.kernel_path} if args.kernel_path else {}
    _write_manifest(args.out, "optimize", params, inputs)
    return 0


def cmd_plan(args) -> int:
    dist = read_distribution(args.dist)
    cfg = SamplerConfig(
        distribution=dist,
        standard_mpps=_parse_standards(args.standards),
        source_size_px=args.source_size,
        output_size_px=args.patch_size,
        rng_seed=args.seed,
    )
    entries = generate_plan(cfg, args.n)
    write_plan_csv(entries, args.out)
    _write_manifest(
        args.out,
        "plan",
        {
            "dist": args.dist,
            "n": args.n,
            "out": args.out,
            "patch_size": args.patch_size,
            "seed": args.seed,
            "source_size": args.source_size,
            "standards": args.standards,
        },
        {"dist": args.dist},
    )
    return 0


def cmd_rankme(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    profile = rankme_profile(embeddings, epsilon=args.epsilon, group_tolerance=args.group_tol)
    with _open_out(args.out) as f:
        write_rankme_csv(profile, f)
    _write_manifest(
        args.out,
        "rankme",
        {
            "embeddings": args.embeddings,
            "epsilon": args.epsilon,
            "group_tol": args.group_tol,
            "out": args.out,
        },
        {"embeddings": args.embeddings},
    )
    return 0


def cmd_similarity(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    sim = centroid_similarity(embeddings, group_tolerance=args.group_tol)
    with _open_out(args.out) as f:
        write_similarity_csv(sim, f)
    _write_manifest(
        args.out,
        "similarity",
        {"embeddings": args.embeddings, "group_tol": args.group_tol, "out": args.out},
        {"embeddings": args.embeddings},
    )
    return 0


def cmd_crop_apply(args) -> int:
    image = read_image_array(args.image)
    entries = read_plan_csv(args.plan)
    matching = [e for e in entries if e.index == args.index]
    if not matching:
        raise ParameterError(f"plan has no entry with index {args.index}")
    out = apply_crop(image, matching[0])
    write_image_array(args.out, np.asarray(out, dtype=np.float32))
    _write_manifest(
        args.out,
        "crop-apply",
        {"image": args.image, "index": args.index, "out": args.out, "plan": args.plan},
        {"image": args.image, "plan": args.plan},
    )
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magsample",
        description="Magnification sampling analysis: kernels, signals, "
        "optimized distributions, crop plans, and embedding profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="tabulate a kernel's transfer potential")
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("signal", help="evaluate the signal profile of a distribution")
    _add_common(p)
    p.add_argument("--dist", required=True, help="distribution file (msdist)")
    p.add_argument("--summary-out", default=None, help="summary CSV path")
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("compare", help="summarize several distributions side by side")
    _add_common(p)
    p.add_argument("dists", nargs="+", help="two or more distribution files")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("optimize", help="derive an optimized sampling distribution")
    _add_common(p)
    p.add_argument(
        "--objective", required=True, choices=["maxavg", "maxmin"], help="objective"
    )
    p.add_argument("--lambda", type=float, default=1.0, help="entropy weight (maxavg)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("plan", help="generate a crop-and-resize sampling plan")
    p.add_argument("--dist", required=True, help="distribution file (msdist)")
    p.add_argument("--n", type=int, required=True, help="number of plan entries")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--patch-size", type=int, default=224, help="output patch size (px)")
    p.add_argument("--source-size", type=int, default=512, help="source patch size (px)")
    p.add_argument(
        "--standards", default="0.25,0.5,1.0,2.0", help="comma-separated standard mpps"
    )
    p.add_argument("--out", required=True, help="plan CSV path")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("rankme", help="profile embedding rank per magnification")
    p.add_argument("--embeddings", required=True, help="embedding file (CSV or MSEB)")
    p.add_argument("--epsilon", type=float, default=1e-7, help="stability constant")
    p.add_argument("--group-tol", type=float, default=1e-6, help="mpp grouping tolerance")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_rankme)

    p = sub.add_parser("similarity", help="centroid cosine similarities by magnification")
    p.add_argument("--embeddings", required=True, help="embedding file (CSV or MSEB)")
    p.add_argument("--group-tol", type=float, default=1e-6, help="mpp grouping tolerance")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("crop-apply", help="apply one plan entry to a raw image array")
    p.add_argument("--image", required=True, help="input image (.msim)")
    p.add_argument("--plan", required=True, help="plan CSV")
    p.add_argument("--index", type=int, default=0, help="plan entry index to apply")
    p.add_argument("--out", required=True, help="output image (.msim)")
    p.set_defaults(func=cmd_crop_apply)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Remember a custom kernel's path so manifests can digest the file.
    kernel_arg = getattr(args, "kernel", "")
    args.kernel_path = (
        kernel_arg[len("custom:"):] if kernel_arg.startswith("custom:") else None
    )
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"magsample {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except _COMPUTE_ERRORS as exc:
        print(f"magsample {args.command}: failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
