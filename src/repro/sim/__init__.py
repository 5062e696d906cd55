"""Experiment driver: configuration, front-ends, run engine, results.

The engine reproduces the paper's methodology: build the store, stream a
YCSB workload through one of the lookup front-ends (baseline / SLB /
STLT variants), warm up on the first 80% of the operations, and measure
the remainder.
"""

from .config import RunConfig
from .engine import Engine, run_experiment
from .frontend import (
    BaselineFrontend,
    SLBFrontend,
    STLTFrontend,
    SoftwareSTLTFrontend,
)
from .multicore import MultiCoreEngine, MultiCoreRunResult
from .results import (
    RunResult,
    aggregate_run_results,
    reduction,
    speedup,
)

__all__ = [
    "BaselineFrontend",
    "Engine",
    "MultiCoreEngine",
    "MultiCoreRunResult",
    "RunConfig",
    "RunResult",
    "SLBFrontend",
    "STLTFrontend",
    "SoftwareSTLTFrontend",
    "aggregate_run_results",
    "reduction",
    "run_experiment",
    "speedup",
]
