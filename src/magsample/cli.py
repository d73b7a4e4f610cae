"""Command-line interface.

Subcommands: ``kernel``, ``signal``, ``compare``, ``optimize``, ``plan``,
``rankme``, ``similarity``, ``crop-apply``. All outputs are CSV or the raw
formats defined by the owning modules; plotting is left to external tools.

Every output file gets a ``<out>.manifest.txt`` companion listing the
subcommand, the tool version, every parsed option that has a value (input
paths, the RNG seed and resolved defaults included), and the sha256 digest
of each input file and of a ``custom:`` kernel table (``digest.<name>
sha256:<hex>``; compare's files, listed under ``dists`` as a Python list,
are ``digest.0``, ``digest.1``, ...), one sorted ``key value`` pair per
line. Manifests written by earlier versions carry 64-bit FNV-1a digests
(``fnv1a:<hex>``) instead, and their compare manifests have no ``dists``.

Exit codes: 0 on success; 2 for usage errors and unusable inputs
(``ParameterError``, ``FormatError``, ``RangeError``, ``FeasibilityError``,
and a missing, directory or unreadable file); 1 for computation failures
(``DomainError``, ``DegenerateInputError``, ``ShapeError``, ``SolverError``
and any other ``MagsampleError``). So not every ``ValueError`` exits 2:
``DomainError``, ``DegenerateInputError`` and ``ShapeError`` exit 1. Invalid
values in a kernel table or an embeddings file (a non-finite component, an
mpp or table value that is not positive) are a ``FormatError`` naming the
file, so they exit 2. So does an output that is the same file as an input,
or signal's ``--out`` that is its ``--summary-out``, or an output's manifest
that is an input or another output: a ``ParameterError``, raised before
anything is written.

``optimize --objective maxmin`` keeps memory linear in ``--grid`` for the
built-in kernels, and solves a tabulated kernel's game on the block of grid
points next to its nodes. A game that needs a larger block, up to the dense
grid x grid kernel matrix (a kernel that declares no structure, or a table
whose nodes are wrong), is bounded: a block, and the simplex tableau on it,
must fit in 1 GiB (the dense matrix past grid 11585, the simplex on the whole
grid past grid 5791), else the game is a ``ParameterError`` (exit 2) naming
the GiB it would need, raised before anything is allocated.

``crop-apply`` checks the plan's header and only the line of its entry, as
``sampler.read_plan_row`` reads them, so a malformed row elsewhere does not
fail it (exit 0), although the manifest still digests the whole file.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__, csvio
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
from .kernels import DEFAULT_GRID, MagRange, kernel_from_string
from .optimize import (
    MAX_AVG_ENTROPY,
    MAX_MIN,
    OptimizationConfig,
    optimize_max_avg,
    optimize_max_min,
)
from .rankme import (
    DEFAULT_EPSILON,
    DEFAULT_GROUP_TOLERANCE,
    centroid_similarity,
    load_embeddings,
    rankme_profile,
    write_rankme_csv,
    write_similarity_csv,
)
from .sampler import (
    STANDARD_MPPS,
    SamplerConfig,
    apply_crop,
    generate_plan,
    read_image_array,
    read_plan_csv,  # unused here; the benchmark tracer's sampler.read_csv hook looks it up
    read_plan_row,
    write_image_array,
    write_plan_csv,
)
from .signal import accumulated_signal, accumulated_signals, write_profile_csv, write_summary_csv

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


_INPUT_ARGS = ("dist", "embeddings", "image", "plan")

# Each default is the library's own, written as the option's text.
_DEFAULT_RANGE = f"{MagRange.a}:{MagRange.b}"
_DEFAULT_STANDARDS = ",".join(map(str, STANDARD_MPPS))


def _inputs(args) -> dict:
    """The input files of the command, by the name of their manifest digest."""
    inputs = {name: getattr(args, name) for name in _INPUT_ARGS if hasattr(args, name)}
    inputs.update(enumerate(getattr(args, "dists", ())))
    kernel = getattr(args, "kernel", "")
    if kernel.startswith("custom:"):
        inputs["kernel"] = kernel[len("custom:"):]
    return inputs


def _same_file(a, b) -> bool:
    """Whether two paths name one file: the same file where both exist, else
    the same resolved path."""
    try:
        return Path(a).samefile(b)
    except OSError:
        return Path(a).resolve() == Path(b).resolve()


def _check_outputs(args):
    """Resolve signal's default ``--summary-out``, and raise a ParameterError,
    before anything is written, if two files written (each output's
    ``<out>.manifest.txt`` counted) are one file, or one is an input."""
    written = {"--out": args.out}
    if args.command == "signal":
        if args.summary_out is None:
            args.summary_out = str(Path(args.out).with_suffix("")) + ".summary.csv"
        written["--summary-out"] = args.summary_out
    for name, out in list(written.items()):
        written[f"the manifest of {name}"] = str(out) + ".manifest.txt"
    names = list(written)
    for i, name in enumerate(names):
        for other in names[:i]:
            if _same_file(written[name], written[other]):
                raise ParameterError(f"{other} and {name} are the same file {written[name]}")
    inputs = _inputs(args).values()
    for out in written.values():
        for path in inputs:
            if _same_file(out, path):
                raise ParameterError(f"output {out} is the input file {path}")


def _write_manifest(args, outs):
    """Write ``<out>.manifest.txt`` for each path in ``outs``, all the same bytes.

    The manifest records every parsed option that has a value, and the digest
    of each input file, taken once however many outputs share the manifest.
    """
    entries = {"subcommand": args.command, "version": __version__}
    for key, value in vars(args).items():
        if key != "command" and value is not None:
            entries[key] = str(value)  # str of a float is its repr
    for name, path in _inputs(args).items():
        entries[f"digest.{name}"] = _digest(path)
    text = "".join(f"{k} {entries[k]}\n" for k in sorted(entries))
    for out in outs:
        with csvio.open_text(str(out) + ".manifest.txt", "w") as f:
            f.write(text)


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


def _add_common(parser, *, ranged=False):
    """The options of the kernel commands; ``ranged`` adds ``--range``, which
    the commands that read a distribution file take from the file instead."""
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID, help="grid size")
    if ranged:
        parser.add_argument(
            "--range",
            default=_DEFAULT_RANGE,
            help=f"magnification range <a>:<b> (default {_DEFAULT_RANGE})",
        )
    parser.add_argument(
        "--kernel", default="info", help="kernel: abs, info, or custom:<path>"
    )


# -- subcommands ----------------------------------------------------------------


def cmd_kernel(args) -> list[str]:
    mag_range = _parse_range(args.range)
    kernel = kernel_from_string(args.kernel)
    xs = mag_range.grid(args.grid)
    values = kernel.transfer_potential(xs, mag_range)
    with csvio.open_text(args.out, "w") as f:
        csvio.write_rows(f, ("x_mpp", "transfer_potential"), (xs, values))
    return [args.out]


def cmd_signal(args) -> list[str]:
    dist = read_distribution(args.dist)
    kernel = kernel_from_string(args.kernel)
    profile = accumulated_signal(dist, kernel, args.grid)
    with csvio.open_text(args.out, "w") as f:
        write_profile_csv(profile, f)
    with csvio.open_text(args.summary_out, "w") as f:  # resolved by _check_outputs
        write_summary_csv([(Path(args.dist).stem, profile.summary())], f)
    return [args.out, args.summary_out]


def cmd_compare(args) -> list[str]:
    if len(args.dists) < 2:
        raise ParameterError("compare needs at least two distribution files")
    kernel = kernel_from_string(args.kernel)
    dists = [read_distribution(path) for path in args.dists]
    first = dists[0].range
    for path, dist in zip(args.dists, dists):
        if dist.range != first:
            raise ParameterError(
                f"{path} is on the range [{dist.range.a}, {dist.range.b}], not on "
                f"[{first.a}, {first.b}] of {args.dists[0]}; compare needs one range"
            )
    profiles = accumulated_signals(dists, kernel, args.grid)
    rows = [(Path(path).stem, p.summary()) for path, p in zip(args.dists, profiles)]
    with csvio.open_text(args.out, "w") as f:
        write_summary_csv(rows, f)
    return [args.out]


def cmd_optimize(args) -> list[str]:
    mag_range = _parse_range(args.range)
    kernel = kernel_from_string(args.kernel)
    cfg = OptimizationConfig(
        kernel=kernel, mag_range=mag_range, grid_n=args.grid, lam=getattr(args, "lambda")
    )
    comments = []
    if args.objective == MAX_AVG_ENTROPY:
        dist = optimize_max_avg(cfg)
    else:
        solution = optimize_max_min(cfg)
        dist = solution.distribution
        comments.append(f"achieved_t {solution.achieved_t!r}")
    write_distribution(dist, args.out, comments=comments)
    return [args.out]


def cmd_plan(args) -> list[str]:
    dist = read_distribution(args.dist)
    cfg = SamplerConfig(
        distribution=dist,
        standard_mpps=_parse_standards(args.standards),
        source_size_px=args.source_size,
        output_size_px=args.patch_size,
        rng_seed=args.seed,
    )
    write_plan_csv(generate_plan(cfg, args.n), args.out)
    return [args.out]


def cmd_rankme(args) -> list[str]:
    embeddings = load_embeddings(args.embeddings)
    profile = rankme_profile(embeddings, epsilon=args.epsilon, group_tolerance=args.group_tol)
    with csvio.open_text(args.out, "w") as f:
        write_rankme_csv(profile, f)
    return [args.out]


def cmd_similarity(args) -> list[str]:
    embeddings = load_embeddings(args.embeddings)
    sim = centroid_similarity(embeddings, group_tolerance=args.group_tol)
    with csvio.open_text(args.out, "w") as f:
        write_similarity_csv(sim, f)
    return [args.out]


def cmd_crop_apply(args) -> list[str]:
    image = read_image_array(args.image)
    out = apply_crop(image, read_plan_row(args.plan, args.index))
    write_image_array(args.out, np.asarray(out, dtype=np.float32))
    return [args.out]


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magsample",
        description="Magnification sampling analysis: kernels, signals, "
        "optimized distributions, crop plans, and embedding profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="tabulate a kernel's transfer potential")
    _add_common(p, ranged=True)

    p = sub.add_parser("signal", help="evaluate the signal profile of a distribution")
    _add_common(p)
    p.add_argument("--dist", required=True, help="distribution file (msdist)")
    p.add_argument("--summary-out", default=None, help="summary CSV path")

    p = sub.add_parser("compare", help="summarize several distributions side by side")
    _add_common(p)
    p.add_argument("dists", nargs="+", help="two or more distribution files")

    p = sub.add_parser("optimize", help="derive an optimized sampling distribution")
    _add_common(p, ranged=True)
    p.add_argument(
        "--objective", required=True, choices=[MAX_AVG_ENTROPY, MAX_MIN], help="objective"
    )
    p.add_argument("--lambda", type=float, default=OptimizationConfig.lam,
                   help="entropy weight (maxavg)")

    p = sub.add_parser("plan", help="generate a crop-and-resize sampling plan")
    p.add_argument("--dist", required=True, help="distribution file (msdist)")
    p.add_argument("--n", type=int, required=True, help="number of plan entries")
    p.add_argument("--seed", type=int, default=SamplerConfig.rng_seed, help="RNG seed")
    p.add_argument("--patch-size", type=int, default=SamplerConfig.output_size_px,
                   help="output patch size (px)")
    p.add_argument("--source-size", type=int, default=SamplerConfig.source_size_px,
                   help="source patch size (px)")
    p.add_argument(
        "--standards", default=_DEFAULT_STANDARDS, help="comma-separated standard mpps"
    )
    p.add_argument("--out", required=True, help="plan CSV path")

    p = sub.add_parser("rankme", help="profile embedding rank per magnification")
    p.add_argument("--embeddings", required=True, help="embedding file (CSV or MSEB)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help="stability constant")
    p.add_argument("--group-tol", type=float, default=DEFAULT_GROUP_TOLERANCE,
                   help="mpp grouping tolerance")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("similarity", help="centroid cosine similarities by magnification")
    p.add_argument("--embeddings", required=True, help="embedding file (CSV or MSEB)")
    p.add_argument("--group-tol", type=float, default=DEFAULT_GROUP_TOLERANCE,
                   help="mpp grouping tolerance")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("crop-apply", help="apply one plan entry to a raw image array")
    p.add_argument("--image", required=True, help="input image (.msim)")
    p.add_argument("--plan", required=True, help="plan CSV")
    p.add_argument("--index", type=int, default=0, help="plan entry index to apply")
    p.add_argument("--out", required=True, help="output image (.msim)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name on each call, so a replaced handler takes effect
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _check_outputs(args)
        _write_manifest(args, handler(args))
    except _USAGE_ERRORS as exc:
        print(f"magsample {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except _COMPUTE_ERRORS as exc:
        print(f"magsample {args.command}: failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
