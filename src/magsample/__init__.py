"""Magnification sampling toolkit.

Models multi-scale patch sampling over a continuous magnification range:
similarity kernels and their transfer potentials, the accumulated training
signal of a sampling distribution, optimized distributions (entropy-
regularized Gibbs and worst-case LP), executable crop-and-resize plans,
and effective-rank profiling of embedding sets.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .distributions import (
    SamplingDistribution,
    format_distribution,
    parse_distribution,
    read_distribution,
    write_distribution,
)
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
from .kernels import (
    AbsDistanceKernel,
    InfoOverlapKernel,
    Kernel,
    MagRange,
    TabulatedKernel,
    kernel_from_string,
)
from .optimize import (
    MAX_AVG_ENTROPY,
    MAX_MIN,
    MaxMinSolution,
    OptimizationConfig,
    entropy,
    optimize_max_avg,
    optimize_max_min,
)
from .rankme import (
    CentroidSimilarity,
    EmbeddingSet,
    GroupRankMe,
    RankMeProfile,
    centroid_similarity,
    load_embeddings,
    rankme,
    rankme_profile,
)
from .rng import CounterRng
from .sampler import (
    STANDARD_MPPS,
    CropPlan,
    CropPlanEntry,
    SamplerConfig,
    apply_crop,
    generate_plan,
    read_image_array,
    read_plan_csv,
    read_plan_row,
    sample_targets,
    write_image_array,
    write_plan_csv,
)
from .signal import (
    SignalProfile,
    SignalSummary,
    accumulated_signal,
    accumulated_signals,
    signal_summary,
    total_signal,
)

# The public names are those the imports above bind, less the submodules.
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
