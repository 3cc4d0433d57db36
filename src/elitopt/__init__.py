"""Population metaheuristics with a pluggable elite memory, plus a small
planar truss analysis kernel and the shape/size benchmarks built on it.

Quick start::

    import numpy as np
    from elitopt import get_algorithm, get_problem, run, RunConfig

    problem = get_problem("sphere", dim=10)
    algorithm = get_algorithm("bbo")
    result = run(algorithm, problem, RunConfig(population_size=30,
                                               max_iterations=100, seed=7))
    print(result.best.fitness)
"""

from .core import (
    AccountingError,
    Candidate,
    ConfigError,
    EliteMemory,
    EvaluationError,
    PenaltyParams,
    Problem,
    RunConfig,
    RunResult,
    SearchSpace,
    StatsRecord,
    clamp_to_bounds,
    memory_capacity,
    penalized_fitness,
    replicate_seed,
    replicate_stats,
    run,
    snap_to_grid,
)
from .algorithms import ALGORITHMS, get_algorithm
from .problems import get_problem, load_design, problem_names

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AccountingError",
    "Candidate",
    "ConfigError",
    "EliteMemory",
    "EvaluationError",
    "PenaltyParams",
    "Problem",
    "RunConfig",
    "RunResult",
    "SearchSpace",
    "StatsRecord",
    "clamp_to_bounds",
    "get_algorithm",
    "get_problem",
    "load_design",
    "memory_capacity",
    "penalized_fitness",
    "problem_names",
    "replicate_seed",
    "replicate_stats",
    "run",
    "snap_to_grid",
]
