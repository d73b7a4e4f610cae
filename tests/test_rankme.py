import csv
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsample import (
    DegenerateInputError,
    DomainError,
    EmbeddingSet,
    FormatError,
    ParameterError,
    centroid_similarity,
    load_embeddings,
    rankme,
    rankme_profile,
)
from magsample.rankme import (
    read_embeddings_csv,
    write_rankme_csv,
    write_similarity_csv,
)

from conftest import read_embeddings_binary_reference, write_embeddings_binary


def gram_rankme_oracle(matrix, epsilon=1e-7):
    """Independent effective-rank oracle via a symmetric eigensolve of the
    Gram matrix (no SVD)."""
    matrix = np.asarray(matrix, float)
    n, k = matrix.shape
    gram = matrix.T @ matrix if k <= n else matrix @ matrix.T
    eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    sigma = np.sqrt(eig)[::-1]
    p = sigma / sigma.sum() + epsilon
    p = p[p > 0]
    return float(np.exp(-(p * np.log(p)).sum()))


def planted_rank_matrix(g, n, k, rank):
    """n x k matrix with `rank` equal nonzero singular values."""
    left = np.linalg.qr(g.standard_normal((n, rank)))[0]
    right = np.linalg.qr(g.standard_normal((k, rank)))[0].T
    return left @ right


def test_equal_singular_values_give_planted_rank():
    g = np.random.default_rng(9)
    for rank in (1, 5, 10):
        z = planted_rank_matrix(g, 100, 10, rank)
        assert rankme(z, 1e-7) == pytest.approx(rank, abs=1e-3)


def test_rank_one_outer_product():
    g = np.random.default_rng(10)
    z = np.outer(g.standard_normal(50), g.standard_normal(8))
    assert rankme(z, 1e-7) == pytest.approx(1.0, abs=1e-3)


def test_matches_gram_oracle():
    g = np.random.default_rng(11)
    z = g.standard_normal((200, 64))
    mine = rankme(z, 1e-7)
    oracle = gram_rankme_oracle(z, 1e-7)
    assert abs(mine - oracle) / oracle < 1e-6


def test_matches_gram_oracle_across_shapes():
    g = np.random.default_rng(12)
    for _ in range(15):
        n = int(g.integers(10, 800))
        k = int(g.integers(4, 256))
        z = g.standard_normal((n, k))
        mine = rankme(z, 1e-7)
        oracle = gram_rankme_oracle(z, 1e-7)
        assert abs(mine - oracle) / oracle < 1e-6


def test_scale_invariance():
    g = np.random.default_rng(13)
    z = g.standard_normal((120, 30))
    base = rankme(z)
    for c in (2.0, 0.125, 3.7e4, 1e-6):
        assert abs(rankme(c * z) - base) / base < 1e-12


def test_rotation_invariance():
    g = np.random.default_rng(14)
    z = g.standard_normal((150, 40))
    q = np.linalg.qr(g.standard_normal((40, 40)))[0]
    assert abs(rankme(z @ q) - rankme(z)) < 1e-9


def test_permutation_invariance():
    g = np.random.default_rng(15)
    z = g.standard_normal((80, 16))
    perm = g.permutation(80)
    assert abs(rankme(z[perm]) - rankme(z)) / rankme(z) < 1e-12


def test_range_bounds_random():
    g = np.random.default_rng(16)
    for _ in range(100):
        n = int(g.integers(2, 60))
        k = int(g.integers(2, 40))
        v = rankme(g.standard_normal((n, k)))
        assert 1.0 - 1e-6 <= v <= min(n, k) * (1.0 + 1e-6)


def test_rankme_validation():
    with pytest.raises(DegenerateInputError):
        rankme(np.zeros((5, 5)))
    with pytest.raises(DomainError):
        rankme(np.array([[1.0, np.nan]]))
    with pytest.raises(DomainError):
        rankme(np.zeros((0, 3)))
    with pytest.raises(ParameterError):
        rankme(np.eye(3), epsilon=-1e-9)


def test_single_row_rankme_is_one():
    assert rankme(np.array([[3.0, 4.0]])) == pytest.approx(1.0, abs=1e-3)


# -- grouping and profiles ------------------------------------------------------


def _stacked_set(groups):
    """groups: list of (mpp, matrix) -> EmbeddingSet"""
    mpps = np.concatenate([np.full(m.shape[0], mpp) for mpp, m in groups])
    vectors = np.vstack([m for _, m in groups])
    return EmbeddingSet(mpps=mpps, vectors=vectors)


def test_profile_groups_and_counts():
    g = np.random.default_rng(18)
    es = _stacked_set(
        [(0.5, g.standard_normal((100, 8))), (0.25, g.standard_normal((100, 8)))]
    )
    profile = rankme_profile(es)
    assert [grp.count for grp in profile.groups] == [100, 100]
    assert [grp.mpp for grp in profile.groups] == [0.25, 0.5]  # ascending


def test_profile_group_tolerance():
    g = np.random.default_rng(19)
    es = _stacked_set(
        [
            (0.5, g.standard_normal((10, 4))),
            (0.5 + 5e-7, g.standard_normal((10, 4))),
            (0.75, g.standard_normal((10, 4))),
        ]
    )
    profile = rankme_profile(es, group_tolerance=1e-6)
    assert [grp.count for grp in profile.groups] == [20, 10]


def test_profile_duplicated_vectors_collapse_to_one():
    row = np.array([1.0, 2.0, 3.0, 4.0])
    es = _stacked_set([(0.5, np.tile(row, (40, 1)))])
    profile = rankme_profile(es)
    assert profile.groups[0].rankme == pytest.approx(1.0, abs=1e-3)


def test_profile_recovers_planted_ordering():
    g = np.random.default_rng(20)
    a = planted_rank_matrix(g, 200, 16, 10)
    b = planted_rank_matrix(g, 200, 16, 3)
    profile = rankme_profile(_stacked_set([(0.25, a), (0.5, b)]))
    assert profile.groups[0].rankme > profile.groups[1].rankme
    assert profile.groups[0].rankme == pytest.approx(10.0, abs=1e-3)
    assert profile.groups[1].rankme == pytest.approx(3.0, abs=1e-3)


def test_profile_warns_on_single_row_group():
    es = EmbeddingSet(mpps=[0.25, 0.5, 0.5], vectors=np.eye(3))
    with pytest.warns(RuntimeWarning):
        profile = rankme_profile(es)
    assert profile.groups[0].count == 1


# -- centroid similarity ----------------------------------------------------------


def test_centroid_similarity_identical_groups():
    base = np.tile(np.array([1.0, 2.0, 2.0]), (10, 1))
    es = _stacked_set([(0.25, base), (0.5, base.copy())])
    sim = centroid_similarity(es)
    assert sim.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diag(sim.matrix), 1.0)


def test_centroid_similarity_orthogonal_groups():
    a = np.tile(np.array([1.0, 0.0]), (5, 1))
    b = np.tile(np.array([0.0, 1.0]), (5, 1))
    sim = centroid_similarity(_stacked_set([(0.25, a), (0.5, b)]))
    assert abs(sim.matrix[0, 1]) <= 1e-12


def test_centroid_similarity_hand_geometry():
    e1 = np.tile(np.array([1.0, 0.0]), (4, 1))
    mid = np.tile(np.array([1.0, 1.0]) / np.sqrt(2.0), (4, 1))
    e2 = np.tile(np.array([0.0, 1.0]), (4, 1))
    sim = centroid_similarity(_stacked_set([(0.25, e1), (0.5, mid), (1.0, e2)]))
    root_half = 1.0 / np.sqrt(2.0)
    assert sim.matrix[0, 1] == pytest.approx(root_half, abs=1e-12)
    assert sim.matrix[1, 2] == pytest.approx(root_half, abs=1e-12)
    assert sim.matrix[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(sim.matrix, sim.matrix.T)


def test_centroid_similarity_zero_centroid_named():
    a = np.vstack([np.eye(2), -np.eye(2)])  # centroid exactly zero
    b = np.tile(np.array([1.0, 0.0]), (4, 1))
    with pytest.raises(DegenerateInputError) as err:
        centroid_similarity(_stacked_set([(0.25, a), (0.5, b)]))
    assert "0.25" in str(err.value)


# -- I/O ------------------------------------------------------------------------------


def test_embedding_set_validation():
    with pytest.raises(DomainError):
        EmbeddingSet(mpps=[0.5], vectors=np.zeros((1, 0)))
    with pytest.raises(DomainError):
        EmbeddingSet(mpps=[0.5, 0.5], vectors=np.zeros((1, 3)))
    with pytest.raises(DomainError):
        EmbeddingSet(mpps=[-0.5], vectors=np.ones((1, 3)))
    with pytest.raises(DomainError):
        EmbeddingSet(mpps=[0.5], vectors=np.array([[np.inf, 1.0]]))


def test_embeddings_csv_roundtrip(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text(
        "id,mpp,d0,d1,d2\npatch0,0.25,1.0,0.0,0.5\npatch1,0.5,0.0,1.0,0.25\n"
    )
    es = read_embeddings_csv(path)
    assert es.n == 2 and es.dim == 3
    assert es.mpps[1] == 0.5

    bad = tmp_path / "bad.csv"
    bad.write_text("id,mpp,c0\nx,0.5,1\n")
    with pytest.raises(FormatError):
        read_embeddings_csv(bad)
    bad.write_text("id,mpp,d0\nx,0.5\n")
    with pytest.raises(FormatError):
        read_embeddings_csv(bad)


def _read_embeddings_reference(path):
    """The embeddings reader as it was before the shared CSV reader:
    csv.reader and float() per cell; returns (ids, mpps, vectors)."""
    with open(path, "r", newline="") as f:
        reader = csv.reader(f)
        dim = len(next(reader)) - 2
        ids, mpps, rows = [], [], []
        for row in reader:
            if not row:
                continue
            assert len(row) == dim + 2
            ids.append(row[0])
            mpps.append(float(row[1]))
            rows.append([float(v) for v in row[2:]])
    return ids, np.array(mpps), np.array(rows)


_NUMBER_FORMS = [repr, lambda v: "%.17g" % v, lambda v: f" {v!r} "]


@settings(max_examples=40, deadline=None)
@given(
    ids=st.lists(st.text(alphabet='ab ,"\';', max_size=6), min_size=1, max_size=12),
    dim=st.integers(1, 6),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    newline=st.sampled_from(["\n", "\r\n"]),
    blank_rows=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_embeddings_csv_matches_the_reference(
    tmp_path_factory, ids, dim, quoting, newline, blank_rows, seed
):
    # ids with quotes, commas and spaces; numbers as repr, %.17g or padded,
    # possibly quoted; CRLF; empty lines: the same ids, mpps and vectors,
    # byte for byte, as the reference reader
    g = np.random.default_rng(seed)
    mpps = g.uniform(0.1, 4.0, len(ids))
    vectors = g.standard_normal((len(ids), dim))
    path = tmp_path_factory.mktemp("emb") / "emb.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, quoting=quoting, lineterminator=newline)
        writer.writerow(["id", "mpp", *(f"d{i}" for i in range(dim))])
        for name, mpp, vec in zip(ids, mpps, vectors):
            cells = [float(mpp), *map(float, vec)]
            writer.writerow([name, *(_NUMBER_FORMS[g.integers(3)](v) for v in cells)])
            if g.integers(2) and blank_rows:
                f.write(newline)
                blank_rows -= 1
    want_ids, want_mpps, want_vectors = _read_embeddings_reference(path)
    es = read_embeddings_csv(path)
    assert want_ids == ids  # the file holds the quoted ids the reader skips
    assert es.mpps.tobytes() == want_mpps.tobytes()
    assert es.vectors.tobytes() == want_vectors.tobytes()


def test_embeddings_binary_roundtrip(tmp_path):
    g = np.random.default_rng(22)
    es = EmbeddingSet(
        mpps=g.uniform(0.25, 2.0, 12), vectors=g.standard_normal((12, 7))
    )
    path = tmp_path / "emb.mseb"
    write_embeddings_binary(path, es)
    back = load_embeddings(path)
    assert back.n == 12 and back.dim == 7
    assert np.allclose(back.mpps, es.mpps)
    assert np.allclose(back.vectors, es.vectors, atol=1e-6)  # f32 storage
    assert back.vectors.dtype == np.float32

    data = path.read_bytes()
    bad = tmp_path / "bad.mseb"
    for payload, size in ((data[18:-4], 12 * 36 - 4), (data[18:] + b"\0" * 4, 12 * 36 + 4)):
        bad.write_bytes(data[:18] + payload)
        with pytest.raises(FormatError, match=f"embedding payload is {size} bytes, expected 432$"):
            load_embeddings(bad)


@pytest.mark.parametrize("header", ["id,mpp,d0,d1\n", "id,mpp,d0\n\n , ,\n"])
def test_embeddings_without_rows_fail_alike_in_both_formats(tmp_path, header):
    csv_path, mseb_path = tmp_path / "e.csv", tmp_path / "e.mseb"
    csv_path.write_text(header)
    mseb_path.write_bytes(struct.pack("<4sHQI", b"MSEB", 1, 0, 2))
    for read, path in ((read_embeddings_csv, csv_path), (load_embeddings, csv_path),
                       (load_embeddings, mseb_path)):
        with pytest.raises(FormatError, match=f"{path.name}: embedding file contains no rows$"):
            read(path)


def test_embedding_set_keeps_float32_and_widens_the_rest():
    v32 = np.ones((3, 2), np.float32)
    assert EmbeddingSet(mpps=[0.5] * 3, vectors=v32).vectors is v32
    for vectors in (v32.astype(np.float16), v32.astype(int), v32.tolist(), v32.astype(">f4")):
        assert EmbeddingSet(mpps=[0.5] * 3, vectors=vectors).vectors.dtype == np.float64
    with pytest.raises(DomainError):
        EmbeddingSet(mpps=[0.5], vectors=np.array([[np.inf, 1.0]], np.float32))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 160),
    dim=st.integers(1, 40),
    groups=st.integers(1, 6),
    tolerance=st.sampled_from([0.0, 1e-6, 0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_embeddings_give_the_float64_bits(tmp_path_factory, n, dim, groups, tolerance, seed):
    # the stored float32 vectors, kept as loaded, against the same set read
    # by the float64 reference: every consumer gives the same bits
    g = np.random.default_rng(seed)
    levels = 0.25 * 2.0 ** (np.arange(groups) / 2.0)
    mpps = g.choice(levels, n) * (1.0 + 1e-7 * g.random(n))
    vectors = g.standard_normal((n, dim)) * g.uniform(0.1, 10.0) + g.standard_normal(dim)
    path = tmp_path_factory.mktemp("emb") / "emb.mseb"
    write_embeddings_binary(path, EmbeddingSet(mpps=mpps, vectors=vectors))
    es32 = load_embeddings(path)
    es64 = read_embeddings_binary_reference(path)
    assert es32.vectors.dtype == np.float32
    assert es32.vectors.astype(float).tobytes() == es64.vectors.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # single-row groups
        p32 = rankme_profile(es32, group_tolerance=tolerance)
        p64 = rankme_profile(es64, group_tolerance=tolerance)
    assert np.array(p32.groups).tobytes() == np.array(p64.groups).tobytes()
    s32 = centroid_similarity(es32, group_tolerance=tolerance)
    s64 = centroid_similarity(es64, group_tolerance=tolerance)
    assert s32.mpps.tobytes() == s64.mpps.tobytes()
    assert s32.matrix.tobytes() == s64.matrix.tobytes()
    assert np.float64(rankme(es32)).tobytes() == np.float64(rankme(es64)).tobytes()


def test_output_csv_writers(tmp_path):
    g = np.random.default_rng(23)
    es = _stacked_set(
        [(0.25, g.standard_normal((10, 4))), (0.5, g.standard_normal((10, 4)))]
    )
    profile = rankme_profile(es)
    p1 = tmp_path / "rankme.csv"
    with open(p1, "w", newline="") as f:
        write_rankme_csv(profile, f)
    lines = p1.read_text().splitlines()
    assert lines[0] == "mpp,count,rankme"
    assert len(lines) == 3

    sim = centroid_similarity(es)
    p2 = tmp_path / "sim.csv"
    with open(p2, "w", newline="") as f:
        write_similarity_csv(sim, f)
    lines = p2.read_text().splitlines()
    assert lines[0].startswith("mpp,")
    assert len(lines) == 3
