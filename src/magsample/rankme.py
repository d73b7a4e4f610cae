"""Effective-rank profiling of embedding sets tagged with magnifications.

The rankme metric is the exponential of the Shannon entropy of the
normalized singular values of an N x K embedding matrix,

    p_k = sigma_k / sum(sigma) + epsilon,     rankme = exp(-sum p_k log p_k),

a smooth proxy for the matrix rank: it is 1 for rank-one embeddings and
min(N, K) when all singular values are equal. The epsilon term is added to
every p_k without renormalization; the resulting bias is tiny and, more
importantly, reproducible.

File formats owned by this module:

* embeddings CSV, in the dialect of :mod:`magsample.csvio`, with header
  ``id,mpp,d0,d1,...,d{K-1}``; the ids are parsed and checked, and no
  result reads them;
* embeddings binary (``.mseb``): magic ``MSEB``, u16 version (1), u64 N >= 1,
  u32 K >= 1, then N records of (f64 mpp, K x f32 components), little-endian;
  the vectors are a float32 view of the records as read;
* ``rankme.csv`` output with header ``mpp,count,rankme``;
* ``similarity.csv`` output, a labeled square matrix whose first row and
  column hold the group mpps.

An :class:`EmbeddingSet` keeps float32 vectors as they are and holds any
other vectors as float64. Each group is widened to float64 before its SVD
or its mean, so every result is the same, bit for bit, as on the float64
set.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

from . import csvio
from .errors import DegenerateInputError, DomainError, FormatError, ParameterError

_EMB_MAGIC = b"MSEB"
_EMB_HEADER = struct.Struct("<4sHQI")
_EMB_VERSION = 1

DEFAULT_EPSILON = 1e-7
DEFAULT_GROUP_TOLERANCE = 1e-6


def _emb_record(dim: int) -> np.dtype:
    """One ``.mseb`` record: f64 mpp, then ``dim`` f32 components, little-endian."""
    return np.dtype([("mpp", "<f8"), ("vec", "<f4", (dim,))])


class EmbeddingSet:
    """N embedding vectors, each tagged with the mpp it was extracted at."""

    def __init__(self, mpps, vectors):
        vectors = np.asarray(vectors)
        if vectors.dtype != np.float32:
            vectors = np.asarray(vectors, dtype=float)
        mpps = np.asarray(mpps, dtype=float)
        if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise DomainError("vectors must form a nonempty 2-D matrix")
        if mpps.shape != (vectors.shape[0],):
            raise DomainError("need exactly one mpp tag per embedding row")
        if not np.all(np.isfinite(vectors)):
            raise DomainError("embedding vectors contain non-finite values")
        if not np.all(np.isfinite(mpps)) or np.any(mpps <= 0):
            raise DomainError("mpp tags must be positive and finite")
        self.mpps = mpps
        self.vectors = vectors

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __repr__(self):
        return f"EmbeddingSet(n={self.n}, dim={self.dim})"


class GroupRankMe(NamedTuple):
    mpp: float
    count: int
    rankme: float


@dataclass(frozen=True)
class RankMeProfile:
    """Per-magnification rankme values, sorted by ascending mpp."""

    groups: list[GroupRankMe]
    epsilon: float

    @property
    def mpps(self) -> np.ndarray:
        return np.array([g.mpp for g in self.groups])

    @property
    def values(self) -> np.ndarray:
        return np.array([g.rankme for g in self.groups])


@dataclass(frozen=True)
class CentroidSimilarity:
    """Cosine similarities between per-magnification centroid vectors."""

    mpps: np.ndarray
    matrix: np.ndarray


def rankme(embeddings, epsilon: float = DEFAULT_EPSILON) -> float:
    """Effective rank of an embedding matrix (or EmbeddingSet)."""
    if isinstance(embeddings, EmbeddingSet):
        return _rankme(embeddings.vectors, epsilon)
    matrix = np.asarray(embeddings, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise DomainError("rankme needs a nonempty 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("rankme input contains non-finite values")
    return _rankme(matrix, epsilon)


def _rankme(vectors, epsilon: float) -> float:
    """Effective rank of a nonempty 2-D matrix of finite values, widened to
    float64, as an EmbeddingSet's vectors (and their groups) are."""
    if not 0.0 <= epsilon < np.inf:
        raise ParameterError(f"epsilon must be finite and nonnegative, got {epsilon}")
    sigma = np.linalg.svd(np.asarray(vectors, dtype=float), compute_uv=False)
    total = sigma.sum()
    if total <= 0.0:
        raise DegenerateInputError("all singular values are zero")
    p = sigma / total + epsilon
    pos = p > 0.0
    h = float(-(p[pos] * np.log(p[pos])).sum())
    return float(np.exp(h))


def _group_slices(mpps: np.ndarray, tolerance: float):
    if not 0.0 <= tolerance < np.inf:
        raise ParameterError(f"group tolerance must be finite and nonnegative, got {tolerance}")
    order = np.argsort(mpps, kind="stable")
    sorted_mpps = mpps[order]
    breaks = np.flatnonzero(np.diff(sorted_mpps) > tolerance) + 1
    for lo, hi in zip(
        np.concatenate(([0], breaks)), np.concatenate((breaks, [mpps.size]))
    ):
        yield order[lo:hi]


def rankme_profile(
    embeddings: EmbeddingSet,
    epsilon: float = DEFAULT_EPSILON,
    group_tolerance: float = DEFAULT_GROUP_TOLERANCE,
) -> RankMeProfile:
    """Rankme per magnification group; mpps within the tolerance share a group."""
    groups = []
    for rows in _group_slices(embeddings.mpps, group_tolerance):
        group_mpp = float(embeddings.mpps[rows].mean())
        if rows.size < 2:
            warnings.warn(
                f"magnification group at {group_mpp} has a single row; "
                "its rankme is trivially 1",
                RuntimeWarning,
                stacklevel=2,
            )
        groups.append(
            GroupRankMe(
                mpp=group_mpp,
                count=int(rows.size),
                rankme=_rankme(embeddings.vectors[rows], epsilon),
            )
        )
    return RankMeProfile(groups=groups, epsilon=epsilon)


def centroid_similarity(
    embeddings: EmbeddingSet, group_tolerance: float = DEFAULT_GROUP_TOLERANCE
) -> CentroidSimilarity:
    """Cosine similarity matrix between per-group mean vectors."""
    mpps = []
    centroids = []
    for rows in _group_slices(embeddings.mpps, group_tolerance):
        c = embeddings.vectors[rows].mean(axis=0, dtype=np.float64)
        norm = float(np.linalg.norm(c))
        if norm == 0.0:
            raise DegenerateInputError(
                f"group at mpp {float(embeddings.mpps[rows].mean())} has a zero centroid"
            )
        mpps.append(float(embeddings.mpps[rows].mean()))
        centroids.append(c / norm)
    cmat = np.vstack(centroids)
    sim = cmat @ cmat.T
    sim = 0.5 * (sim + sim.T)
    np.fill_diagonal(sim, 1.0)
    return CentroidSimilarity(mpps=np.array(mpps), matrix=sim)


# -- I/O -----------------------------------------------------------------------


def read_embeddings_csv(path) -> EmbeddingSet:
    """Read an embeddings CSV, in the dialect of :mod:`magsample.csvio`."""
    with csvio.open_text(path) as f:
        header = csvio.read_header(f)
        dim = len(header) - 2
        if dim < 1 or header != ["id", "mpp", *(f"d{i}" for i in range(dim))]:
            raise FormatError("expected header 'id,mpp,d0,d1,...'", line=1)
        dtype = np.dtype([("id", object), ("mpp", "f8"), ("vec", "f8", (dim,))])
        rows = csvio.read_body(f, dtype, "embedding")
        if not rows.size:
            raise FormatError("embedding file contains no rows")
    return EmbeddingSet(
        mpps=np.ascontiguousarray(rows["mpp"]),
        vectors=np.ascontiguousarray(rows["vec"]),
    )


def _emb_payload_bytes(version, n, dim) -> int:
    if version != _EMB_VERSION:
        raise FormatError(f"unsupported embedding version {version}")
    # numpy builds records of at most a C int of bytes; a lying header may claim more
    if not 1 <= dim <= (np.iinfo(np.intc).max - 8) // 4:
        raise FormatError(f"unsupported embedding dimension {dim}")
    if n == 0:
        raise FormatError("embedding file contains no rows")
    return n * _emb_record(dim).itemsize


def read_embeddings_binary(path) -> EmbeddingSet:
    (_, _, dim), payload = csvio.read_binary(
        path, _EMB_HEADER, _EMB_MAGIC, "embedding", _emb_payload_bytes
    )
    records = payload.view(_emb_record(dim))
    return EmbeddingSet(mpps=records["mpp"], vectors=records["vec"])


def load_embeddings(path) -> EmbeddingSet:
    """Read an embedding file, sniffing binary versus CSV from the magic."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == _EMB_MAGIC:
        return read_embeddings_binary(path)
    return read_embeddings_csv(path)


def write_rankme_csv(profile: RankMeProfile, f: TextIO):
    counts = np.array([g.count for g in profile.groups], np.int64)
    csvio.write_rows(f, ("mpp", "count", "rankme"), (profile.mpps, counts, profile.values))


def write_similarity_csv(sim: CentroidSimilarity, f: TextIO):
    mpps = sim.mpps.astype(float)
    csvio.write_rows(f, ("mpp", *mpps.tolist()), (mpps, *sim.matrix.astype(float).T))
