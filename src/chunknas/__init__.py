"""Joint search of multiplication-reduced hybrid networks and their
chunk-based FPGA accelerator configurations."""

from .search_space import (
    LayerDescriptor,
    LayerType,
    MembershipViolation,
    OpCounts,
    SearchSpace,
    StageSpec,
    SubNetwork,
    count_ops,
    crossover,
    default_space,
    expand,
    mutate,
    sample_random,
    validate,
)
from .accel import (
    AcceleratorConfig,
    ChunkConfig,
    Dataflow,
    EnergyCoeffs,
    HardwareBudget,
    LoopOrder,
    PerfReport,
    fit_energy_coeffs,
    layer_latency,
    min_gb_size,
    pipeline_perf,
    resource_usage,
)
# The evolutionary loop itself lives in chunknas.cosearch (the function shares
# the submodule's name, so it is not re-exported here).
from .cosearch import (
    Constraint,
    CoSearchResult,
    SearchParams,
    coarse_search,
    fine_search,
    search_accelerator,
)
from .nn import HybridNet, instantiate, quantize_shift
from .zeroshot import kendall_tau, nn_degree, zen_score

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
