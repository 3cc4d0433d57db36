"""Unconstrained analytic test functions on [-5.12, 5.12]^dim.

Each function takes one position ``(dim,)`` or a stack ``(k, dim)`` of them
and reduces over the last axis, so a stack gives each row the value the row
gets alone, bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..core import Problem, SearchSpace

BOUND = 5.12


def sphere(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    return _value(np.sum(x * x, axis=-1))


def rastrigin(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    return _value(
        10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)
    )


def rosenbrock(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    head, tail = x[..., :-1], x[..., 1:]
    return _value(np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1))


def _value(values: np.ndarray):
    """A float for one position, the ``(k,)`` array for a stack."""
    return values if np.ndim(values) else float(values)


# (function, global minimum value, minimizer coordinate per axis)
FUNCTIONS = {
    "sphere": (sphere, 0.0, 0.0),
    "rastrigin": (rastrigin, 0.0, 0.0),
    "rosenbrock": (rosenbrock, 0.0, 1.0),
}

_NO_VIOLATIONS = np.empty(0)


def analytic_problem(name: str, dim: int = 10) -> Problem:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    func, minimum, argmin = FUNCTIONS[name]

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        return func(x), _NO_VIOLATIONS

    def evaluate_batch(positions: np.ndarray) -> list[tuple[float, np.ndarray]]:
        return [(value, _NO_VIOLATIONS) for value in func(positions).tolist()]

    space = SearchSpace(lower=np.full(dim, -BOUND), upper=np.full(dim, BOUND))
    return Problem(
        name=name,
        space=space,
        evaluate=evaluate,
        description=f"{name} function, {dim} variables, minimum {minimum} at "
        f"all coordinates {argmin}",
        evaluate_batch=evaluate_batch,
    )
