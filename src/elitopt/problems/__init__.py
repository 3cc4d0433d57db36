"""Benchmark problem registry.

Truss benchmarks load their geometry from bundled JSON files (see
:mod:`elitopt.problems.truss_geometry` for the schema and the data-directory
override); analytic functions are defined inline.
"""

from __future__ import annotations

import math

from ..core import Problem
from .analytic import FUNCTIONS, analytic_problem, rastrigin, rosenbrock, sphere
from .truss_geometry import DATA_DIR_ENV, TrussDesign, data_dir

_TRUSS_FILES = {
    "michell": "michell_arch.json",
    "forth": "forth_bridge.json",
    "truss37": "pratt37.json",
}


def michell_analytical_weight(
    stress_limit: float = 240e6,
    half_span: float = 1.0,
    load: float = 200e3,
    density: float = 7800.0,
) -> float:
    """Weight of the ideal arch for a central point load between two level
    supports, ``(12 / sigma) * L * P * rho * tan(pi / 12)`` [kg]: a reference
    figure for the michell benchmark, not a bound on its feasible designs."""
    if stress_limit <= 0 or half_span <= 0 or load <= 0 or density <= 0:
        raise ValueError("all arguments must be positive")
    return 12.0 / stress_limit * half_span * load * density * math.tan(math.pi / 12.0)


def problem_names() -> list[str]:
    return sorted(list(_TRUSS_FILES) + list(FUNCTIONS))


def load_design(name: str) -> TrussDesign:
    """Load the :class:`TrussDesign` behind one of the truss benchmarks."""
    try:
        fname = _TRUSS_FILES[name]
    except KeyError:
        raise KeyError(f"no truss benchmark named {name!r}") from None
    return TrussDesign.from_file(data_dir() / fname)


def get_problem(name: str, dim: int = 10) -> Problem:
    """Build a registered problem.  ``dim`` only applies to the analytic
    functions; truss benchmarks carry their dimension in the geometry file."""
    if name in FUNCTIONS:
        return analytic_problem(name, dim=dim)
    if name in _TRUSS_FILES:
        return load_design(name).problem(name)
    raise KeyError(
        f"unknown problem {name!r}; available: {', '.join(problem_names())}"
    )


__all__ = [
    "DATA_DIR_ENV",
    "TrussDesign",
    "analytic_problem",
    "data_dir",
    "get_problem",
    "load_design",
    "michell_analytical_weight",
    "problem_names",
    "rastrigin",
    "rosenbrock",
    "sphere",
]
