import numpy as np

from magsample.rng import CounterRng, mix64


def test_scalar_and_vector_paths_agree_bitwise():
    rng = CounterRng(123456789)
    counters = [0, 1, 2, 57, 10**6, 2**40, 2**63 + 11, 2**64 - 1]
    scalar = np.array([rng.uniform(c) for c in counters])
    vector = rng.uniform_at(np.array(counters, dtype=np.uint64))
    assert np.array_equal(scalar, vector)


def test_values_depend_on_seed_and_counter():
    a, b = CounterRng(1), CounterRng(2)
    assert a.uniform(0) != b.uniform(0)
    assert a.uniform(0) != a.uniform(1)
    assert CounterRng(1).uniform(7) == a.uniform(7)


def test_uniform_range_and_moments():
    u = CounterRng(2024).uniform_at(np.arange(100_000, dtype=np.uint64))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_seed_wraps_to_64_bits():
    assert CounterRng(2**64 + 5).uniform(3) == CounterRng(5).uniform(3)


def test_mix64_is_stable():
    # regression pins for the documented constants
    assert mix64(0) == 0
    assert CounterRng(0).value(0) == mix64(0x9E3779B97F4A7C15)
    got = [CounterRng(0).uniform(c) for c in range(3)]
    again = [CounterRng(0).uniform(c) for c in range(3)]
    assert got == again
