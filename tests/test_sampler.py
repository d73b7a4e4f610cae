import dataclasses
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magsample import (
    FeasibilityError,
    FormatError,
    MagRange,
    ParameterError,
    SamplerConfig,
    SamplingDistribution,
    ShapeError,
    apply_crop,
    generate_plan,
    read_image_array,
    read_plan_csv,
    read_plan_row,
    sample_targets,
    write_image_array,
    write_plan_csv,
)
from magsample.rng import CounterRng
from magsample import csvio, sampler
from magsample.sampler import PLAN_DTYPE, _RESIZE_BLOCK_ROWS, _resize_bilinear

from conftest import STANDARDS, chi_square_gof, plan_crop


@pytest.fixture()
def config(cu_dist):
    return SamplerConfig(distribution=cu_dist, rng_seed=7)


def _entry(**kwargs):
    base = dict(
        index=0,
        target_mpp=1.0,
        source_mpp=1.0,
        source_size_px=512,
        crop_size_px=224,
        output_size_px=224,
        offset_x_frac=0.0,
        offset_y_frac=0.0,
    )
    base.update(kwargs)
    return np.array(tuple(base[name] for name in PLAN_DTYPE.names), PLAN_DTYPE)[()]


# -- target draws ---------------------------------------------------------------


def test_draw_single_atom_is_constant(mag_range):
    d = SamplingDistribution.discrete(mag_range, [0.5])
    assert np.all(sample_targets(d, 99, 50) == 0.5)


def test_draw_uniform_median(cu_dist):
    assert cu_dist.quantile(0.5) == 1.125


def test_du_draw_frequencies_binomial(du_dist):
    # binomial concentration oracle: each atom frequency within 3 sigma
    n = 1_000_000
    targets = sample_targets(du_dist, seed=42, n=n)
    sigma = np.sqrt(0.25 * 0.75 / n)
    for atom in STANDARDS:
        freq = np.mean(targets == atom)
        assert abs(freq - 0.25) < 3.0 * sigma


def test_sample_targets_matches_generate_plan(config):
    entries = generate_plan(config, 64)
    targets = sample_targets(config.distribution, config.rng_seed, 64)
    assert np.array_equal(targets, entries["target_mpp"])


def test_sample_targets_shards_by_counter_range(cu_dist):
    # disjoint counter ranges reproduce the same stream in any split
    whole = sample_targets(cu_dist, seed=5, n=40)
    head = sample_targets(cu_dist, seed=5, n=15)
    tail = sample_targets(cu_dist, seed=5, n=25, start_index=15)
    assert np.array_equal(whole, np.concatenate([head, tail]))


# -- crop planning ----------------------------------------------------------------


def test_plan_crop_worked_example(config):
    rng = CounterRng(config.rng_seed)
    e = plan_crop(1.5, config, rng)
    assert e["source_mpp"] == 1.0
    assert e["crop_size_px"] == 336
    assert e["output_size_px"] == 224


def test_plan_crop_selects_largest_admissible_source(config):
    rng = CounterRng(0)
    e = plan_crop(0.375, config, rng)
    assert e["source_mpp"] == 0.25
    assert e["crop_size_px"] == 336


def test_plan_crop_identity_at_standards(config):
    rng = CounterRng(0)
    for s in STANDARDS:
        e = plan_crop(s, config, rng)
        assert e["source_mpp"] == s
        assert e["crop_size_px"] == 224


def test_plan_crop_rounds_half_up(cu_dist):
    cfg = SamplerConfig(distribution=cu_dist, source_size_px=1000, output_size_px=100)
    rng = CounterRng(0)
    # 100 * 1.245 / 1.0 = 124.5 rounds up to 125
    assert plan_crop(1.245, cfg, rng)["crop_size_px"] == 125


def test_plan_crop_invariants_over_fine_grid(config):
    rng = CounterRng(1)
    for t in np.linspace(0.25, 2.0, 2001):
        e = plan_crop(float(t), config, rng)
        assert e["source_mpp"] in STANDARDS
        assert e["source_mpp"] <= t
        assert 1 <= e["crop_size_px"] <= e["source_size_px"]
        assert e["crop_size_px"] == int(np.floor(224 * t / e["source_mpp"] + 0.5))
        assert 0.0 <= e["offset_x_frac"] < 1.0 and 0.0 <= e["offset_y_frac"] < 1.0


def test_plan_crop_outside_range(config):
    with pytest.raises(ParameterError):
        plan_crop(2.5, config, CounterRng(0))


def test_infeasible_config_rejected(cu_dist):
    # 2x gap at 256/224 source/output cannot host targets near 0.5
    with pytest.raises(FeasibilityError):
        SamplerConfig(distribution=cu_dist, source_size_px=256, output_size_px=224)
    # range reaching below the smallest standard has no source at all
    low = SamplingDistribution.uniform(MagRange(0.1, 2.0))
    with pytest.raises(FeasibilityError):
        SamplerConfig(distribution=low)


def test_config_validation(cu_dist):
    with pytest.raises(ParameterError):
        SamplerConfig(distribution=cu_dist, standard_mpps=())
    with pytest.raises(ParameterError):
        SamplerConfig(distribution=cu_dist, standard_mpps=(0.5, 0.25, 1.0, 2.0))
    with pytest.raises(ParameterError):
        SamplerConfig(distribution=cu_dist, standard_mpps=(-1.0, 2.0))
    for sizes in ({"source_size_px": 0}, {"output_size_px": 0}, {"output_size_px": -224}):
        with pytest.raises(ParameterError, match="^patch sizes must be positive$"):
            SamplerConfig(distribution=cu_dist, **sizes)


def test_plan_checks_the_crops_of_a_config_changed_after_its_check(cu_dist):
    # SamplerConfig is not frozen. A 256 px source is too small for targets
    # just below 0.5 (448 px from 0.25), which the config check would reject,
    # and the plan's crops go through the same check.
    cfg = SamplerConfig(distribution=cu_dist)
    cfg.source_size_px = 256
    with pytest.raises(FeasibilityError, match=(
        r"^target \S+ needs a \d+px crop from source mpp \S+, larger than the 256px source$"
    )):
        generate_plan(cfg, 1000)
    with pytest.raises(FeasibilityError, match=(
        "^target 0.49 needs a 439px crop from source mpp 0.25, larger than the 256px source$"
    )):
        plan_crop(0.49, cfg, CounterRng(0))
    with pytest.raises(FeasibilityError, match=(
        "^target 0.5 needs a 448px crop from source mpp 0.25, larger than the 256px source$"
    )):
        SamplerConfig(distribution=cu_dist, source_size_px=256)
    # Standards that start above the range leave a target no source. Its
    # index would wrap to the largest standard, an upsampling 34px crop.
    cfg = SamplerConfig(distribution=cu_dist)
    cfg.standard_mpps = (1.0, 2.0)
    below = "^target 0.3 lies below the smallest standard mpp 1.0$"
    with pytest.raises(FeasibilityError, match=below):
        plan_crop(0.3, cfg, CounterRng(0))
    with pytest.raises(FeasibilityError, match=r"^target \S+ lies below the smallest standard"):
        generate_plan(cfg, 1000)
    with pytest.raises(FeasibilityError, match=below.replace("0.3", "0.25")):
        SamplerConfig(distribution=cu_dist, standard_mpps=(1.0, 2.0))


def test_generate_plan_deterministic(config, tmp_path):
    a = generate_plan(config, 100)
    b = generate_plan(config, 100)
    assert np.array_equal(a, b)
    write_plan_csv(a, tmp_path / "a.csv")
    write_plan_csv(b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    other = dataclasses.replace(config, rng_seed=8)
    assert not np.array_equal(generate_plan(other, 100), a)


def test_generate_plan_matches_plan_crop(config):
    entries = generate_plan(config, 16)
    rng = CounterRng(config.rng_seed)
    for i, e in enumerate(entries):
        assert plan_crop(e["target_mpp"], config, rng, index=i) == e


def test_generate_plan_validation(config):
    with pytest.raises(ParameterError):
        generate_plan(config, 0)


def test_generate_plan_single_boundary_atom(mag_range):
    atom = SamplingDistribution.discrete(mag_range, [2.0])
    cfg = SamplerConfig(distribution=atom, rng_seed=1)
    (entry,) = generate_plan(cfg, 1)
    assert entry["target_mpp"] == 2.0
    assert entry["source_mpp"] == 2.0
    assert entry["crop_size_px"] == 224


def test_plan_csv_roundtrip(tmp_path, config):
    entries = generate_plan(config, 25)
    path = tmp_path / "plan.csv"
    write_plan_csv(entries, path)
    assert read_plan_csv(path).tobytes() == entries.tobytes()


def test_plan_csv_errors(tmp_path):
    header = (
        "index,target_mpp,source_mpp,source_size_px,crop_size_px,"
        "output_size_px,offset_x_frac,offset_y_frac\n"
    )
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1,2\n")
    with pytest.raises(FormatError):
        read_plan_csv(bad)
    bad.write_text(header + "0,1.0,1.0\n")
    with pytest.raises(FormatError):
        read_plan_csv(bad)
    # crop larger than the source violates the entry invariants
    bad.write_text(header + "0,1.0,1.0,512,600,224,0.0,0.0\n")
    with pytest.raises(FormatError):
        read_plan_csv(bad)
    # offsets must stay within [0, 1]
    bad.write_text(header + "0,1.0,1.0,512,336,224,1.5,0.0\n")
    with pytest.raises(FormatError):
        read_plan_csv(bad)


PLAN_HEADER = (
    "index,target_mpp,source_mpp,source_size_px,crop_size_px,"
    "output_size_px,offset_x_frac,offset_y_frac\n"
)


@pytest.mark.parametrize(
    "row",
    [
        "1,nan,1.0,512,336,224,0.0,0.0",
        "1,inf,1.0,512,336,224,0.0,0.0",
        "1,1.5,nan,512,336,224,0.0,0.0",
        "1,1.5,inf,512,336,224,0.0,0.0",
        "1,1.5,-1.0,512,336,224,0.0,0.0",
        "1,1.5,1.0,512,336,224,nan,0.0",
    ],
)
def test_plan_csv_rejects_non_finite_mpps(tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(PLAN_HEADER + "0,1.0,1.0,512,224,224,0.0,0.0\n" + row + "\n")
    with pytest.raises(FormatError, match="line 3: plan entry violates"):
        read_plan_csv(bad)


@pytest.mark.parametrize(
    "row, reason",
    [
        ("1,1.5,1.0,512,336,224.0,0.0,0.0", "bad plan entry"),  # float in an int column
        ("1,1.5,1.0,512,336", "wrong number of plan columns"),  # short row
        ("1,1.5,1.0,512,336,224,0.0,0.0,7", "wrong number of plan columns"),
        ("1,x,1.0,512,336,224,0.0,0.0", "bad plan entry"),
    ],
)
def test_plan_csv_reports_first_bad_line(tmp_path, row, reason):
    good = "0,1.0,1.0,512,224,224,0.0,0.0\n"
    bad = tmp_path / "bad.csv"
    # the blank line still counts toward the reported line number
    bad.write_text(PLAN_HEADER + good + "\n" + row + "\n" + good)
    with pytest.raises(FormatError, match=f"line 4: {reason}"):
        read_plan_csv(bad)


def test_plan_csv_skips_blank_lines(tmp_path, config):
    plan = generate_plan(config, 5)
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, path)
    head, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(head + "\n" + "".join(rows[:2]) + "\n\n" + "".join(rows[2:]) + "\n")
    assert np.array_equal(read_plan_csv(path), plan)
    # whitespace and blank cells are blank lines too
    path.write_text(head + " \t\n" + "".join(rows[:2]) + ",,,,,,,\n" + "".join(rows[2:]))
    assert np.array_equal(read_plan_csv(path), plan)
    path.write_text(head)
    assert len(read_plan_csv(path)) == 0



# -- one plan row -------------------------------------------------------------------


@pytest.fixture()
def plan_file(tmp_path, config):
    plan = generate_plan(config, 12)
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, path)
    return plan, path


@pytest.fixture()
def full_reads(monkeypatch):
    """Counts the whole-plan reads that read_plan_row falls back on."""
    calls = []

    def counted(path):
        calls.append(path)
        return read_plan_csv(path)

    monkeypatch.setattr(sampler, "read_plan_csv", counted)
    return calls


def test_plan_row_equals_full_read(plan_file, full_reads):
    plan, path = plan_file
    full = read_plan_csv(path)
    for i in range(len(plan)):
        assert read_plan_row(path, i) == full[i] == plan[i]
    assert not full_reads


def test_plan_row_falls_back_on_blank_lines(plan_file, full_reads):
    plan, path = plan_file
    head, *rows = path.read_text().splitlines(keepends=True)
    # an empty line, then one of blank cells, as the full read skips both
    for blank in ["  \n", ",,,,,,,\n"]:
        full_reads.clear()
        path.write_text(head + "".join(rows[:3]) + "\n" + blank + "".join(rows[3:]))
        for i in range(len(plan)):
            assert read_plan_row(path, i) == plan[i]
        assert len(full_reads) == len(plan) - 3  # rows 3.. moved down two lines


def test_plan_row_falls_back_on_another_index(plan_file, full_reads):
    plan, path = plan_file
    head, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(head + "".join(reversed(rows)))
    assert read_plan_row(path, 2) == plan[2]
    assert len(full_reads) == 1


@pytest.mark.parametrize("index", [12, 10**6, -1, -12])
def test_plan_row_without_entry(plan_file, full_reads, index):
    _, path = plan_file
    with pytest.raises(ParameterError, match=f"plan has no entry with index {index}"):
        read_plan_row(path, index)
    assert len(full_reads) == 1


@pytest.mark.parametrize(
    "row, reason",
    [
        ("3,1.5,1.0,512,336,224.0,0.0,0.0", "bad plan entry"),
        ("3,1.5,1.0,512,336", "wrong number of plan columns"),
        ("3,1.5,1.0,512,600,224,0.0,0.0", "plan entry violates its invariants"),
        # an output larger than its crop: plans never upsample
        ("3,1.0,1.0,512,224,4000,0.0,0.0", "plan entry violates its invariants"),
    ],
)
def test_plan_row_reports_its_bad_line(plan_file, row, reason):
    plan, path = plan_file
    head, *rows = path.read_text().splitlines(keepends=True)
    rows[3] = row + "\n"
    path.write_text(head + "".join(rows))
    with pytest.raises(FormatError, match=f"line 5: {reason}"):
        read_plan_row(path, 3)
    # the other rows are not checked
    assert read_plan_row(path, 4) == plan[4]
    with pytest.raises(FormatError, match="line 5"):
        read_plan_csv(path)


def test_lf_plan_row_skips_in_binary(plan_file, monkeypatch):
    plan, path = plan_file

    def text_skip(*args):
        raise AssertionError("an LF plan took the text-mode skip")

    monkeypatch.setattr(csvio, "itertools", types.SimpleNamespace(islice=text_skip))
    for i in range(len(plan)):
        assert read_plan_row(path, i) == plan[i]


@pytest.mark.parametrize("newline", ["\r", "\r\n"])
def test_cr_plan_rows_match_the_lf_plan(plan_file, full_reads, newline):
    # CR-only and CRLF plans give the rows, errors and lines of the LF plan
    plan, path = plan_file
    head, *rows = path.read_text().splitlines()
    path.write_text(newline.join([head, *rows]) + newline, newline="")
    for i in range(len(plan)):
        assert read_plan_row(path, i) == plan[i]
    assert not full_reads
    rows[3] = "3,1.5,1.0,512,336"
    path.write_text(newline.join([head, *rows]) + newline, newline="")
    with pytest.raises(FormatError, match="line 5: wrong number of plan columns"):
        read_plan_row(path, 3)
    assert read_plan_row(path, 4) == plan[4]
    with pytest.raises(FormatError, match="line 5"):
        read_plan_csv(path)


def test_plan_row_checks_the_header(plan_file):
    _, path = plan_file
    head, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(head.replace("index", "idx") + "".join(rows))
    with pytest.raises(FormatError, match="line 1: expected plan header"):
        read_plan_row(path, 0)


def test_crop_plan_views(config):
    # a plan is a 1-d array of PLAN_DTYPE; its rows, columns and slices are numpy's
    assert [PLAN_DTYPE[name].kind for name in PLAN_DTYPE.names] == list("iffiiiff")
    plan = generate_plan(config, 10)
    assert plan.dtype == PLAN_DTYPE and plan.shape == (10,)
    rows = list(plan)
    assert plan[3] == rows[3] and plan[-1] == rows[-1]
    head = plan[2:5]
    assert list(head) == rows[2:5] and np.array_equal(head, generate_plan(config, 5)[2:5])
    assert np.array_equal(plan["index"], np.arange(10))
    assert np.array_equal(plan["crop_size_px"], [row["crop_size_px"] for row in rows])
    with pytest.raises(IndexError):
        plan[10]


# atoms take apply_crop's copy path and the density its resize path; a 64 px
# source keeps the crops cheap
_MIXED = SamplingDistribution(MagRange(), atoms=[(0.5, 0.3), (1.0, 0.2)], density=[1.0, 2.0, 1.0])
_IMAGE_64 = np.random.default_rng(64).random((64, 64, 3), dtype=np.float32)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 300))
def test_plan_array_round_trips_and_crops_alike_as_row_or_dict(seed, n):
    cfg = SamplerConfig(distribution=_MIXED, source_size_px=64, output_size_px=28, rng_seed=seed)
    plan = generate_plan(cfg, n)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "plan.csv")
        write_plan_csv(plan, path)
        assert read_plan_csv(path).tobytes() == plan.tobytes()
        for i in range(n):
            row = read_plan_row(path, i)
            assert row.tolist() == plan[i].tolist()
            want = apply_crop(_IMAGE_64, plan[i]).tobytes()
            assert apply_crop(_IMAGE_64, row).tobytes() == want
            as_dict = dict(zip(PLAN_DTYPE.names, plan[i].tolist()))
            assert apply_crop(_IMAGE_64, as_dict).tobytes() == want


def _resize_reference(window, out_size):
    """The resize as first written: widen the whole window, then gather."""
    crop = window.shape[0]
    pos = np.linspace(0.0, crop - 1.0, out_size)
    i0 = np.minimum(np.floor(pos).astype(np.intp), crop - 2)
    frac = pos - i0
    a = window.astype(np.float64, copy=False)
    a = a[i0] * (1.0 - frac)[:, None, None] + a[i0 + 1] * frac[:, None, None]
    a = a[:, i0] * (1.0 - frac)[None, :, None] + a[:, i0 + 1] * frac[None, :, None]
    return a.astype(window.dtype, copy=False)


@pytest.mark.parametrize("crop", [224, 225, 336, 460])
def test_resize_bilinear_matches_reference_bytes(crop):
    img = np.random.default_rng(crop).random((512, 512, 3), dtype=np.float32)
    window = img[11 : 11 + crop, 29 : 29 + crop]
    got = _resize_bilinear(window, 224)
    assert got.dtype == np.float32
    assert got.tobytes() == _resize_reference(window, 224).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    crop=st.integers(2, 512),
    out_size=st.one_of(
        st.integers(1, 512),
        st.sampled_from([_RESIZE_BLOCK_ROWS - 1, _RESIZE_BLOCK_ROWS, _RESIZE_BLOCK_ROWS + 1]),
    ),
    channels=st.sampled_from([1, 3, 4]),
    step=st.sampled_from([1, 2]),
    offset=st.integers(0, 7),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(crop=2, out_size=1, channels=1, step=1, offset=0, dtype=np.float32, seed=0)
@example(crop=512, out_size=512, channels=4, step=1, offset=0, dtype=np.float32, seed=1)
@example(crop=300, out_size=_RESIZE_BLOCK_ROWS, channels=3, step=2, offset=3,
         dtype=np.float32, seed=2)
@example(crop=37, out_size=5 * _RESIZE_BLOCK_ROWS + 7, channels=3, step=1, offset=5,
         dtype=np.float32, seed=3)
def test_resize_bilinear_is_the_reference_bit_for_bit(
    crop, out_size, channels, step, offset, dtype, seed
):
    # the window is a strided view cut from a larger image, as apply_crop cuts it
    side = offset + step * crop + 3
    img = np.random.default_rng(seed).random((side, side, channels)).astype(dtype)
    window = img[offset::step, offset + 1 :: step][:crop, :crop]
    assert window.shape == (crop, crop, channels)
    got = _resize_bilinear(window, out_size)
    want = _resize_reference(window, out_size)
    assert got.shape == want.shape == (out_size, out_size, channels)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_apply_crop_rejects_bad_offsets():
    img = np.zeros((512, 512, 1), dtype=np.float32)
    e = _entry(crop_size_px=336, offset_x_frac=1.2)
    with pytest.raises(ShapeError):
        apply_crop(img, e)


def test_chi_square_quick(cu_dist, du_dist):
    for dist in (cu_dist, du_dist):
        targets = sample_targets(dist, seed=3, n=20_000)
        stat, crit, _ = chi_square_gof(dist, targets)
        assert stat < crit


# -- applying crops ----------------------------------------------------------------


def test_apply_crop_constant_image():
    img = np.full((512, 512, 3), 0.625, dtype=np.float32)
    e = _entry(crop_size_px=336, offset_x_frac=0.3, offset_y_frac=0.9)
    out = apply_crop(img, e)
    assert out.shape == (224, 224, 3)
    assert np.all(out == np.float32(0.625))


def test_apply_crop_identity_is_bit_exact():
    g = np.random.default_rng(55)
    img = g.random((512, 512, 2), dtype=np.float64).astype(np.float32)
    e = _entry(crop_size_px=224, offset_x_frac=0.0, offset_y_frac=0.0)
    assert np.array_equal(apply_crop(img, e), img[:224, :224, :])
    e = _entry(crop_size_px=224, offset_x_frac=1.0, offset_y_frac=1.0)
    assert np.array_equal(apply_crop(img, e), img[-224:, -224:, :])


def test_apply_crop_offsets_locate_window():
    img = np.zeros((512, 512, 1), dtype=np.float32)
    img[100 : 100 + 224, 250 : 250 + 224, 0] = 1.0
    e = _entry(
        crop_size_px=224,
        offset_x_frac=250.0 / (512 - 224),
        offset_y_frac=100.0 / (512 - 224),
    )
    assert np.all(apply_crop(img, e) == 1.0)


def test_apply_crop_downscales_linear_ramp():
    # corner-aligned bilinear keeps a linear ramp linear, endpoints intact
    ramp = np.linspace(0.0, 1.0, 448, dtype=np.float32)
    img = np.tile(ramp[None, :, None], (448, 1, 3))
    e = _entry(source_size_px=448, crop_size_px=448, output_size_px=224)
    out = apply_crop(img, e)
    expected = np.linspace(0.0, 1.0, 224)
    step = 1.0 / 447.0  # one quantization step of the input ramp
    assert np.max(np.abs(out[10, :, 1] - expected)) < step
    assert out[0, 0, 0] == 0.0
    assert out[0, -1, 0] == 1.0


def test_apply_crop_shape_errors():
    e = _entry()
    with pytest.raises(ShapeError):
        apply_crop(np.zeros((512, 512)), e)
    with pytest.raises(ShapeError):
        apply_crop(np.zeros((256, 512, 3), dtype=np.float32), e)
    with pytest.raises(ShapeError):
        apply_crop(np.zeros((300, 300, 3), dtype=np.float32), _entry(source_size_px=300, crop_size_px=400))


def test_apply_crop_upscale_from_single_pixel():
    # a dict row that upsamples, or outputs nothing, is no plan row: refused
    # before an output of its size is allocated
    for crop, out_size in [(1, 4), (8, 2000), (8, 0)]:
        row = dict(source_size_px=8, crop_size_px=crop, output_size_px=out_size,
                   offset_x_frac=0.5, offset_y_frac=0.5)
        with pytest.raises(ShapeError, match=rf"^output size {out_size} is not in \[1, {crop}\]"):
            apply_crop(np.zeros((8, 8, 3), dtype=np.float32), row)


# -- raw image files ----------------------------------------------------------------


def test_image_array_roundtrip(tmp_path):
    g = np.random.default_rng(77)
    img = g.random((17, 17, 3)).astype(np.float32)
    path = tmp_path / "img.msim"
    write_image_array(path, img)
    back = read_image_array(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, img)
    assert path.stat().st_size == 16 + 17 * 17 * 3 * 4


def test_image_array_errors(tmp_path):
    path = tmp_path / "bad.msim"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FormatError):
        read_image_array(path)
    for size in (15, 17):  # truncated and over-long payloads of a 2 x 2 x 1 image
        path.write_bytes(b"MSIM" + np.array([2, 2, 1], "<u4").tobytes() + b"\x00" * size)
        message = f"bad.msim: image payload is {size} bytes, expected 16$"
        with pytest.raises(FormatError, match=message):
            read_image_array(path)
    with pytest.raises(ShapeError):
        write_image_array(tmp_path / "x.msim", np.zeros((4, 4)))
    with pytest.raises(ShapeError, match=r"^expected an H x W x C array, got shape \(0, 2, 1\)$"):
        write_image_array(tmp_path / "x.msim", np.zeros((0, 2, 1)))
