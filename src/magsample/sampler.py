"""Magnification draws and executable crop-and-resize plans.

A patch at target mpp ``t`` is synthesized from a source patch at a coarser
standard mpp ``s`` by cropping ``round(output_size * t / s)`` pixels and
resizing to ``output_size``. The source is the largest standard mpp that
does not exceed ``t`` and whose crop still fits in the source patch, so
patches are always downsampled, never upsampled.

Plans are reproducible byte for byte: entry ``i`` consumes the counter-based
RNG at counters ``3i`` (target draw), ``3i + 1`` and ``3i + 2`` (crop
offsets), so any subrange of a plan can be regenerated independently.

A plan is held as columns (:class:`CropPlan`, one numpy structured array);
its rows are :class:`CropPlanEntry` values. Plans are generated, written
and read in bulk rather than row by row.

File formats owned by this module:

* plan CSV, written by :func:`magsample.csvio.write_rows` in its dialect,
  with header
  ``index,target_mpp,source_mpp,source_size_px,crop_size_px,output_size_px,offset_x_frac,offset_y_frac``;
* raw image arrays (``.msim``): 16-byte header of magic ``MSIM``, u32 height,
  u32 width, u32 channels (little-endian, none 0), then float32 pixels in
  row-major order.
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class CropPlanEntry:
    """One executable crop: where to read, how much, and the output size."""

    index: int
    target_mpp: float
    source_mpp: float
    source_size_px: int
    crop_size_px: int
    output_size_px: int
    offset_x_frac: float
    offset_y_frac: float


PLAN_CSV_FIELDS = tuple(f.name for f in fields(CropPlanEntry))
PLAN_DTYPE = np.dtype(
    [(f.name, "<i8" if f.type == "int" else "<f8") for f in fields(CropPlanEntry)]
)


class CropPlan:
    """A crop plan held as columns: one structured array of :data:`PLAN_DTYPE`.

    ``len(plan)``; ``plan[i]`` and iteration give :class:`CropPlanEntry` rows,
    ``plan[a:b]`` a sub-plan, and ``plan.<field>`` (``plan.index``,
    ``plan.target_mpp``, ...) the column as an array view. Plans compare
    equal when all their rows are equal.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        if rows.dtype != PLAN_DTYPE or rows.ndim != 1:
            raise ParameterError("plan rows must be a 1-d array of dtype PLAN_DTYPE")
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return CropPlan(self.rows[key])
        return CropPlanEntry(*self.rows[key].tolist())

    def __iter__(self):
        return (CropPlanEntry(*row) for row in self.rows.tolist())

    def __getattr__(self, name):
        if name in PLAN_CSV_FIELDS:
            return self.rows[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __eq__(self, other):
        if not isinstance(other, CropPlan):
            return NotImplemented
        return bool(np.array_equal(self.rows, other.rows))

    def __repr__(self) -> str:
        return f"CropPlan({len(self)} rows)"


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


def _plan(cfg: SamplerConfig, index: np.ndarray, targets: np.ndarray, rng: CounterRng) -> CropPlan:
    """Plan entries ``index`` for their targets; entry i's offsets come from
    counters 3i+1 and 3i+2. Sources and crops are checked again, as a config
    can be changed after its check."""
    sources = _sources(np.asarray(cfg.standard_mpps), targets)
    counters = 3 * index.astype(np.uint64)
    rows = np.empty(len(index), PLAN_DTYPE)
    rows["index"] = index
    rows["target_mpp"] = targets
    rows["source_mpp"] = sources
    rows["source_size_px"] = cfg.source_size_px
    rows["crop_size_px"] = _crop_sizes(cfg, targets, sources)
    rows["output_size_px"] = cfg.output_size_px
    rows["offset_x_frac"] = rng.uniform_at(counters + np.uint64(1))
    rows["offset_y_frac"] = rng.uniform_at(counters + np.uint64(2))
    return CropPlan(rows)


def generate_plan(cfg: SamplerConfig, n: int) -> CropPlan:
    """Draw ``n`` targets and plan their crops; pure function of (cfg, n)."""
    if n < 1:
        raise ParameterError(f"plan length must be >= 1, got {n}")
    targets = sample_targets(cfg.distribution, cfg.rng_seed, n)
    return _plan(cfg, np.arange(n, dtype=np.int64), targets, CounterRng(cfg.rng_seed))


# -- plan CSV -----------------------------------------------------------------


def write_plan_csv(plan: CropPlan, path):
    """Write the plan CSV a block of rows at a time, so memory does not grow with the plan."""
    with csvio.open_text(path, "w") as f:
        csvio.write_rows(f, PLAN_CSV_FIELDS, [plan.rows[n] for n in PLAN_CSV_FIELDS])


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
        if csvio.read_header(f) != list(PLAN_CSV_FIELDS):
            raise FormatError(f"expected plan header {','.join(PLAN_CSV_FIELDS)!r}", line=1)
        yield f


def read_plan_csv(path) -> CropPlan:
    """Parse a plan CSV, in the dialect of :mod:`magsample.csvio`, in bulk.

    Every row must parse (integers in the integer columns) and keep the plan
    invariants: finite positive mpps,
    ``1 <= output_size_px <= crop_size_px <= source_size_px`` and offsets in
    [0, 1]. Otherwise a FormatError names the first offending line. A plan
    never upsamples, so the output of a row is never larger than its source.
    """
    with _open_plan(path) as f:
        return CropPlan(csvio.read_body(f, PLAN_DTYPE, "plan", _invalid_rows))


def read_plan_row(path, index: int) -> CropPlanEntry:
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
        return CropPlan(row)[0]
    plan = read_plan_csv(path)
    matching = np.flatnonzero(plan.index == index)
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
    if crop == 1:
        return np.broadcast_to(window, (out_size, out_size, channels)).copy()
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


def apply_crop(image: np.ndarray, entry: CropPlanEntry) -> np.ndarray:
    """Execute one plan entry on an H x W x C pixel array.

    The image must be square with side ``entry.source_size_px``. When the
    crop size equals the output size the result is the exact sub-array.
    """
    arr = np.asarray(image)
    if arr.ndim != 3:
        raise ShapeError(f"expected an H x W x C array, got shape {arr.shape}")
    h, w, _ = arr.shape
    if h != entry.source_size_px or w != entry.source_size_px:
        raise ShapeError(
            f"image is {h}x{w} but the plan entry expects "
            f"{entry.source_size_px}x{entry.source_size_px}"
        )
    crop = entry.crop_size_px
    if crop < 1 or crop > h:
        raise ShapeError(f"crop size {crop} does not fit a {h}px source")
    if not (0.0 <= entry.offset_x_frac <= 1.0 and 0.0 <= entry.offset_y_frac <= 1.0):
        raise ShapeError("offset fractions outside [0, 1]; crop window would not fit")
    oy = _round_half_up(entry.offset_y_frac * (h - crop))
    ox = _round_half_up(entry.offset_x_frac * (w - crop))
    window = arr[oy : oy + crop, ox : ox + crop]
    if crop == entry.output_size_px:
        return window.copy()
    return _resize_bilinear(window, entry.output_size_px)


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
