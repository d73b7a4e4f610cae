import magsample

# The package's public names. `__init__.py` computes `__all__` from the names
# its imports bind, so this list pins what an added or dropped import changes.
PUBLIC_NAMES = [
    "__version__",
    "AbsDistanceKernel",
    "CentroidSimilarity",
    "CounterRng",
    "DegenerateInputError",
    "DomainError",
    "EmbeddingSet",
    "FeasibilityError",
    "FormatError",
    "GroupRankMe",
    "InfoOverlapKernel",
    "Kernel",
    "MAX_AVG_ENTROPY",
    "MAX_MIN",
    "MagRange",
    "MagsampleError",
    "MaxMinSolution",
    "OptimizationConfig",
    "ParameterError",
    "RangeError",
    "RankMeProfile",
    "STANDARD_MPPS",
    "SamplerConfig",
    "SamplingDistribution",
    "ShapeError",
    "SignalProfile",
    "SignalSummary",
    "SolverError",
    "TabulatedKernel",
    "accumulated_signal",
    "accumulated_signals",
    "apply_crop",
    "centroid_similarity",
    "entropy",
    "format_distribution",
    "generate_plan",
    "kernel_from_string",
    "load_embeddings",
    "optimize_max_avg",
    "optimize_max_min",
    "parse_distribution",
    "rankme",
    "rankme_profile",
    "read_distribution",
    "read_image_array",
    "read_plan_csv",
    "read_plan_row",
    "sample_targets",
    "signal_summary",
    "total_signal",
    "write_distribution",
    "write_image_array",
    "write_plan_csv",
]


def test_public_names_are_pinned():
    assert magsample.__all__ == PUBLIC_NAMES


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from magsample import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
