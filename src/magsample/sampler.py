"""Magnification draws and executable crop-and-resize plans.

A patch at target mpp ``t`` is synthesized from a source patch at a coarser
standard mpp ``s`` by cropping ``round(output_size * t / s)`` pixels and
resizing to ``output_size``. The source is the largest standard mpp that
does not exceed ``t`` and whose crop still fits in the source patch, so
patches are always downsampled, never upsampled.

Plans are reproducible byte for byte: entry ``i`` consumes the counter-based
RNG at counters ``3i`` (target draw), ``3i + 1`` and ``3i + 2`` (crop
offsets), so any subrange of a plan can be regenerated independently.

A plan is a 1-d numpy array of :data:`PLAN_DTYPE`, one element per row:
``plan[i]`` is a row, ``plan["crop_size_px"]`` a column and ``plan[a:b]`` a
sub-plan. Plans are generated, written and read in bulk rather than row by
row.

File formats owned by this module:

* plan CSV, written by :func:`magsample.csvio.write_rows` in its dialect,
  with the names of :data:`PLAN_DTYPE`, in order, as its header;
* raw image arrays (``.msim``): 16-byte header of magic ``MSIM``, u32 height,
  u32 width, u32 channels (little-endian, none 0), then float32 pixels in
  row-major order.
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import csvio
from .distributions import SamplingDistribution
from .errors import FeasibilityError, FormatError, ParameterError, ShapeError
from .rng import CounterRng

STANDARD_MPPS = (0.25, 0.5, 1.0, 2.0)

_IMAGE_MAGIC = b"MSIM"
_IMAGE_HEADER = struct.Struct("<4sIII")
# the largest side of a .msim image: the header holds three u32 sides after its magic
_MAX_SIDE = 256 ** ((_IMAGE_HEADER.size - len(_IMAGE_MAGIC)) // 3) - 1


def _round_half_up(x):
    """``floor(x + 0.5)`` as int64, elementwise: how crops and offsets round."""
    return np.floor(np.add(x, 0.5)).astype(np.int64)


def _sources(std: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The source of each target: the largest standard mpp <= t, since smaller
    ones only grow the crop. A FeasibilityError names a target below them all."""
    k = np.searchsorted(std, targets, side="right") - 1
    if (k < 0).any():
        t = targets[np.argmin(k)]
        raise FeasibilityError(f"target {t} lies below the smallest standard mpp {std[0]}")
    return std[k]


def _crop_sizes(cfg: SamplerConfig, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """The crop of each target from its source, ``round(output * t / s)`` px;
    a FeasibilityError names the first crop larger than the source."""
    crops = _round_half_up(cfg.output_size_px * targets / sources)
    over = np.flatnonzero(crops > cfg.source_size_px)
    if over.size:
        k = over[0]
        raise FeasibilityError(
            f"target {targets[k]} needs a {crops[k]}px crop from source mpp {sources[k]}, "
            f"larger than the {cfg.source_size_px}px source"
        )
    return crops


# The plan's columns in CSV order, with their types: the one statement of a
# plan row's fields and of the plan CSV header.
PLAN_DTYPE = np.dtype([
    ("index", "<i8"),
    ("target_mpp", "<f8"),
    ("source_mpp", "<f8"),
    ("source_size_px", "<i8"),
    ("crop_size_px", "<i8"),
    ("output_size_px", "<i8"),
    ("offset_x_frac", "<f8"),
    ("offset_y_frac", "<f8"),
])


@dataclass
class SamplerConfig:
    """Distribution plus the geometry of the source and output patches."""

    distribution: SamplingDistribution
    standard_mpps: Sequence[float] = STANDARD_MPPS
    source_size_px: int = 512
    output_size_px: int = 224
    rng_seed: int = 0

    def __post_init__(self):
        std = tuple(float(s) for s in self.standard_mpps)
        if not np.isfinite(std).all():
            raise ParameterError(f"standard mpps must be finite, got {std}")
        if not std or any(s <= 0 for s in std) or any(
            b <= a for a, b in zip(std, std[1:])
        ):
            raise ParameterError(
                "standard mpps must be a nonempty, strictly increasing, positive sequence"
            )
        if self.source_size_px < 1 or self.output_size_px < 1:
            raise ParameterError("patch sizes must be positive")
        if max(self.source_size_px, self.output_size_px) > _MAX_SIDE:
            raise ParameterError(
                f"patch sizes must be at most {_MAX_SIDE} px, the largest .msim side"
            )
        self.standard_mpps = std
        # Every target in the distribution's range must admit a source. The
        # worst target of each segment between consecutive standards is its
        # right end (crop size grows with t for fixed s), so checking segment
        # ends covers the whole continuum.
        a, b = self.distribution.range.a, self.distribution.range.b
        starts = np.array(std)
        _sources(starts, np.array([a]))
        ends = np.minimum(np.append(starts[1:], b), b)
        live = ends > starts
        _crop_sizes(self, ends[live], starts[live])


def sample_targets(
    dist: SamplingDistribution, seed: int, n: int, start_index: int = 0
) -> np.ndarray:
    """Vectorized target draws matching ``generate_plan``'s entries.

    Returns the targets of plan entries ``start_index .. start_index+n-1``
    for a sampler seeded with ``seed``.
    """
    rng = CounterRng(seed)
    counters = 3 * (np.uint64(start_index) + np.arange(n, dtype=np.uint64))
    return dist.quantile(rng.uniform_at(counters))


def generate_plan(cfg: SamplerConfig, n: int) -> np.ndarray:
    """Draw ``n`` targets and plan their crops; pure function of (cfg, n). Entry
    i's offsets come from counters 3i+1 and 3i+2. Sources and crops are checked
    again, as a config can be changed after its check."""
    if n < 1:
        raise ParameterError(f"plan length must be >= 1, got {n}")
    targets = sample_targets(cfg.distribution, cfg.rng_seed, n)
    sources = _sources(np.asarray(cfg.standard_mpps), targets)
    counters = 3 * np.arange(n, dtype=np.uint64)
    rng = CounterRng(cfg.rng_seed)
    rows = np.empty(n, PLAN_DTYPE)
    rows["index"] = np.arange(n, dtype=np.int64)
    rows["target_mpp"] = targets
    rows["source_mpp"] = sources
    rows["source_size_px"] = cfg.source_size_px
    rows["crop_size_px"] = _crop_sizes(cfg, targets, sources)
    rows["output_size_px"] = cfg.output_size_px
    rows["offset_x_frac"] = rng.uniform_at(counters + np.uint64(1))
    rows["offset_y_frac"] = rng.uniform_at(counters + np.uint64(2))
    return rows


# -- plan CSV -----------------------------------------------------------------


def write_plan_csv(plan: np.ndarray, path):
    """Write the plan CSV a block of rows at a time, so memory does not grow with the plan."""
    with csvio.open_text(path, "w") as f:
        csvio.write_rows(f, PLAN_DTYPE.names, [plan[name] for name in PLAN_DTYPE.names])


def _positive_finite(x: np.ndarray) -> np.ndarray:
    return (x > 0) & (x < np.inf)


def _invalid_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows that break the plan invariants."""
    crop = rows["crop_size_px"]
    ok = (
        _positive_finite(rows["target_mpp"])
        & _positive_finite(rows["source_mpp"])
        & (rows["output_size_px"] >= 1)
        & (rows["output_size_px"] <= crop)
        & (crop <= rows["source_size_px"])
    )
    for name in ("offset_x_frac", "offset_y_frac"):
        ok &= (rows[name] >= 0.0) & (rows[name] <= 1.0)
    return ~ok


@contextlib.contextmanager
def _open_plan(path):
    """The plan file, open after its header line, which must be the plan's."""
    with csvio.open_text(path) as f:
        if csvio.read_header(f) != list(PLAN_DTYPE.names):
            raise FormatError(f"expected plan header {','.join(PLAN_DTYPE.names)!r}", line=1)
        yield f


def read_plan_csv(path) -> np.ndarray:
    """Parse a plan CSV, in the dialect of :mod:`magsample.csvio`, in bulk.

    Every row must parse (integers in the integer columns) and keep the plan
    invariants: finite positive mpps,
    ``1 <= output_size_px <= crop_size_px <= source_size_px`` and offsets in
    [0, 1]. Otherwise a FormatError names the first offending line. A plan
    never upsamples, so the output of a row is never larger than its source.
    """
    with _open_plan(path) as f:
        return csvio.read_body(f, PLAN_DTYPE, "plan", _invalid_rows)


def read_plan_row(path, index: int) -> np.void:
    """The plan entry with ``index``, parsing one line when it can.

    A generated plan holds entry ``i`` on line ``i + 2``. That line alone is
    parsed, and the lines before it are skipped unparsed; its row is returned
    when its index field is ``index``. The header and that line are checked
    as :func:`read_plan_csv` checks them, and a bad line raises a FormatError
    naming it; no other line is checked. When the line is missing, blank or
    holds another index (a negative ``index``, a short plan, blank lines or
    rows out of order), the whole plan is read and its first row with
    ``index`` returned; ParameterError reports an index with no entry.
    """
    with _open_plan(path) as f:
        line = csvio.line_at(f, index + 1) if index >= 0 else ""
        row = csvio.parse_line(line, index + 2, PLAN_DTYPE, "plan", _invalid_rows)
    if row is not None and row["index"][0] == index:
        return row[0]
    plan = read_plan_csv(path)
    matching = np.flatnonzero(plan["index"] == index)
    if not matching.size:
        raise ParameterError(f"plan has no entry with index {index}")
    return plan[matching[0]]


# -- applying plans -----------------------------------------------------------


# Output rows per block of the resize: the float64 row pass of one block
# (32 x crop x C) stays in cache while its columns are gathered.
_RESIZE_BLOCK_ROWS = 32


def _resize_bilinear(window: np.ndarray, out_size: int) -> np.ndarray:
    """Corner-aligned separable bilinear resize of a square window.

    Output rows are made a block at a time, so the float64 row pass never
    spans the whole window. Each element still comes from the same float64
    operations in the same order, ``a * lo + b * hi`` on rows, then on
    columns, then the cast, so the result is bit-identical to the whole-array
    form.
    """
    crop, _, channels = window.shape
    # np.linspace hits both corners exactly
    pos = np.linspace(0.0, crop - 1.0, out_size)
    i0 = np.minimum(np.floor(pos).astype(np.intp), crop - 2)
    hi = pos - i0
    lo = 1.0 - hi
    # a row of the window as one axis of crop * C values; column i0 of a
    # row is the C values from i0 * C on
    rows = window.reshape(crop, crop * channels)
    cols = (i0[:, None] * channels + np.arange(channels)).ravel()
    next_cols = cols + channels
    lo_cols = np.repeat(lo, channels)
    hi_cols = np.repeat(hi, channels)
    out = np.empty((out_size, out_size * channels), dtype=window.dtype)
    for start in range(0, out_size, _RESIZE_BLOCK_ROWS):
        block = slice(start, start + _RESIZE_BLOCK_ROWS)
        # gather the rows first and widen only them to float64, inside the
        # ufunc; in-place sums skip temporaries but round exactly as a + b does
        a = np.multiply(rows[i0[block]], lo[block, None], dtype=np.float64)
        a += np.multiply(rows[i0[block] + 1], hi[block, None], dtype=np.float64)
        b = a.take(cols, axis=1)
        b *= lo_cols
        c = a.take(next_cols, axis=1)
        c *= hi_cols
        b += c
        out[block] = b
    return out.reshape(out_size, out_size, channels)


def apply_crop(image: np.ndarray, row) -> np.ndarray:
    """Execute one plan row on an H x W x C pixel array.

    ``row`` is a plan row or any mapping with the same geometry fields, such
    as a dict. The image must be square with side ``row["source_size_px"]``,
    and the row a plan's geometry, ``1 <= output_size_px <= crop_size_px <=
    source_size_px``: a plan never upsamples. When the crop size equals the
    output size the result is the exact sub-array.
    """
    # read once, as Python scalars: numpy scalars slow the arithmetic below
    side, crop, out_size = (
        int(row["source_size_px"]), int(row["crop_size_px"]), int(row["output_size_px"])
    )
    fx, fy = float(row["offset_x_frac"]), float(row["offset_y_frac"])
    arr = np.asarray(image)
    if arr.ndim != 3:
        raise ShapeError(f"expected an H x W x C array, got shape {arr.shape}")
    h, w, _ = arr.shape
    if h != side or w != side:
        raise ShapeError(f"image is {h}x{w} but the plan entry expects {side}x{side}")
    if crop < 1 or crop > h:
        raise ShapeError(f"crop size {crop} does not fit a {h}px source")
    if not 1 <= out_size <= crop:
        raise ShapeError(f"output size {out_size} is not in [1, {crop}]: a plan never "
                         f"upsamples its {crop}px crop")
    if not (0.0 <= fx <= 1.0 and 0.0 <= fy <= 1.0):
        raise ShapeError("offset fractions outside [0, 1]; crop window would not fit")
    oy = _round_half_up(fy * (h - crop))
    ox = _round_half_up(fx * (w - crop))
    window = arr[oy : oy + crop, ox : ox + crop]
    if crop == out_size:
        return window.copy()
    return _resize_bilinear(window, out_size)


# -- raw image arrays ----------------------------------------------------------


def write_image_array(path, image: np.ndarray):
    arr = np.asarray(image)
    if arr.ndim != 3 or not arr.size:  # the reader refuses an image of no pixels
        raise ShapeError(f"expected an H x W x C array, got shape {arr.shape}")
    h, w, c = arr.shape
    with open(path, "wb") as f:
        f.write(_IMAGE_HEADER.pack(_IMAGE_MAGIC, h, w, c))
        f.write(np.ascontiguousarray(arr, dtype="<f4"))


def _image_bytes(h, w, c) -> int:
    if not h * w * c:  # which numpy may not even shape as h x w x c
        raise FormatError("image file contains no pixels")
    return h * w * c * 4


def read_image_array(path) -> np.ndarray:
    (h, w, c), payload = csvio.read_binary(
        path, _IMAGE_HEADER, _IMAGE_MAGIC, "image", _image_bytes
    )
    return payload.view("<f4").reshape(h, w, c)
