"""Plan CSV bytes pinned by digest, and plan round-trip properties.

The digests were computed with the row-by-row planner that preceded the
columnar one; any change to the drawn targets, the source choice, the crop
rounding or the number formatting changes them.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsample import (
    MagRange,
    SamplerConfig,
    SamplingDistribution,
    generate_plan,
    read_plan_csv,
    write_plan_csv,
)
from magsample.rng import CounterRng
from magsample.sampler import PLAN_CSV_FIELDS

from conftest import STANDARDS, plan_crop

RANGE = MagRange()
ATOMS = SamplingDistribution.discrete(RANGE, STANDARDS, [0.1, 0.2, 0.3, 0.4])
UNIFORM = SamplingDistribution.uniform(RANGE)
DECAY = SamplingDistribution(RANGE, density=np.exp(-np.linspace(0.0, 3.0, 40)))
# 0.45 of ATOMS and 0.55 of DECAY
MIX = SamplingDistribution(
    RANGE,
    atoms=[(x, 0.45 * w) for x, w in zip(ATOMS.atom_locations, ATOMS.atom_weights)],
    density=(1.0 - 0.45) * DECAY.density,
)
DISTRIBUTIONS = {"atoms": ATOMS, "uniform": UNIFORM, "mix": MIX}


def _config(dist, seed=20260):
    return SamplerConfig(distribution=dist, source_size_px=600, output_size_px=256, rng_seed=seed)


GOLDEN = {
    "atoms": "470e11bc97c334a967d437246e651e9ad139f78dff52a84c9efee3bffae42d8b",
    "uniform": "42773528ad021d9418aadb33f2a89da9ef5b651849742dc1188f4bbd57a79608",
    "mix": "4ba8d4e805273eeaf971ec56a96e24b33fca5c0a7a8cb4d2d6c4f937e4ff3ddc",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plan_csv_golden_digest(name, tmp_path):
    path = tmp_path / "plan.csv"
    write_plan_csv(generate_plan(_config(DISTRIBUTIONS[name]), 5000), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_plan_csv_is_each_value_by_repr(name, tmp_path):
    # three blocks of rows; each distinct value of a repeating column is
    # formatted once per block, and must give the text of a plain repr
    plan = generate_plan(_config(DISTRIBUTIONS[name]), 20_000)
    want = "".join(",".join(map(repr, row)) + "\n" for row in plan.rows.tolist())
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, path)
    assert path.read_bytes().decode() == ",".join(PLAN_CSV_FIELDS) + "\n" + want


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(DISTRIBUTIONS)),
    st.integers(0, 2**64 - 1),
    st.integers(1, 300),
)
def test_plan_write_read_write_and_rows_match_plan_crop(name, seed, n):
    cfg = _config(DISTRIBUTIONS[name], seed)
    plan = generate_plan(cfg, n)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        write_plan_csv(plan, first)
        write_plan_csv(read_plan_csv(first), second)
        assert second.read_bytes() == first.read_bytes()
    rng = CounterRng(seed)
    for i, row in enumerate(plan):
        assert row == plan_crop(row.target_mpp, cfg, rng, index=i)
