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
    return np.sum(x * x, axis=-1)


def rastrigin(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    return 10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def rosenbrock(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    head, tail = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


# each has the global minimum 0: sphere and rastrigin at the origin,
# rosenbrock at all coordinates 1
FUNCTIONS = {"sphere": sphere, "rastrigin": rastrigin, "rosenbrock": rosenbrock}


def analytic_problem(name: str, dim: int = 10) -> Problem:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    func = FUNCTIONS[name]

    def evaluate(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return func(X), np.empty((len(X), 0))

    space = SearchSpace(lower=np.full(dim, -BOUND), upper=np.full(dim, BOUND))
    return Problem(name=name, space=space, evaluate=evaluate)
