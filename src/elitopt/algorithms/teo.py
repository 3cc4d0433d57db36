"""Thermal exchange optimization.

Agents are temperature vectors.  Each iteration the population is sorted and
split in half: the better half acts as cooling environments for the worse
half, which relaxes toward its (randomly cooled) environment at a rate set
by its own cost.  Only the cooled half is re-evaluated, so an iteration
costs half a population of evaluations.  Teo declares
``inject_before_step``: with the elite memory on, the run loop overwrites the
worst agents with the stored elites before each step, so the elites take part
in the split as environments.  A step draws each kind of random number for
the whole cooled half in one generator call (:func:`draw_cooling`) and cools
the half with array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (  # time_fraction is re-exported for the worked examples
    ConfigError,
    SearchSpace,
    check_field_types,
    clamp_to_bounds,
    ranked,
    time_fraction,
)

BETA_DELTA = 1e-10  # guard for the cost ratio on flat populations


@dataclass(frozen=True)
class TeoParams:
    """c1 toggles the time-independent part of environmental cooling, c2 the
    time-decaying part (both chosen from {0, 1}); jump_probability is the
    chance of re-drawing one variable of a cooled agent."""

    c1: int = 1
    c2: int = 1
    jump_probability: float = 0.3

    def __post_init__(self):
        check_field_types(self)
        if self.c1 not in (0, 1) or self.c2 not in (0, 1):
            raise ConfigError("c1 and c2 must be 0 or 1")
        if not 0 <= self.jump_probability <= 1:
            raise ConfigError("jump_probability must lie in [0, 1]")


def exchange_ratio(cost, worst_cost: float):
    """Cost ratio steering how fast an agent approaches its environment,
    elementwise on an array of costs.

    Costs are expected pre-shifted so the best is 0; lower cost means a
    smaller ratio and therefore a smaller position change.
    """
    if worst_cost == 0:
        raise ValueError("worst_cost must be nonzero")
    return cost / worst_cost


@dataclass
class CoolingDraws:
    """Every random number of one step, one row per cooled agent:
    ``cooling`` the ``(half, dim)`` environment damping draws, then the jump
    coins, the jump variable indices and the jump values, ``(half,)``
    each."""

    cooling: np.ndarray
    jump_coins: np.ndarray
    jump_index: np.ndarray
    jump_values: np.ndarray


def draw_cooling(half: int, dim: int, rng) -> CoolingDraws:
    """Make every draw of one step, each kind for the whole cooled half in
    one call, in this order: ``rng.random((half, dim))``,
    ``rng.random(half)``, ``rng.integers(dim, size=half)``,
    ``rng.random(half)``.  Every draw is made whatever the jump coins
    say."""
    return CoolingDraws(
        rng.random((half, dim)),
        rng.random(half),
        rng.integers(dim, size=half),
        rng.random(half),
    )


def cooled_environment(
    env: np.ndarray, frac: float, params: TeoParams, r: np.ndarray
) -> np.ndarray:
    """Randomly damp environment temperatures, one draw of ``r`` per
    component: ``(1 - (c1 + c2 * (1 - frac)) * r) * env``."""
    return (1.0 - (params.c1 + params.c2 * (1.0 - frac)) * r) * env


def updated_temperature(
    t_old: np.ndarray, t_env: np.ndarray, beta, frac: float
) -> np.ndarray:
    """Exponential relaxation toward the environment, elementwise; ``beta``
    broadcasts against the temperatures.  The result lies on the segment
    between the old temperature and the environment."""
    return t_env + (t_old - t_env) * np.exp(-beta * frac)


def random_component_jump(
    positions: np.ndarray,
    jump_probability: float,
    space: SearchSpace,
    coins: np.ndarray,
    index: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """For each row whose coin falls below ``jump_probability``, re-draw
    variable ``index`` inside its bounds from the uniform ``values``; at
    most one component of a row changes."""
    out = positions.copy()
    rows = np.flatnonzero(coins < jump_probability)
    j = index[rows]
    out[rows, j] = space.lower[j] + values[rows] * (space.upper[j] - space.lower[j])
    return out


class Teo:
    """Thermal exchange optimizer.  Requires an even population."""

    name = "teo"
    inject_before_step = True

    def __init__(self, params: TeoParams | None = None):
        self.params = params or TeoParams()

    def evals_per_iteration(self, population_size: int) -> int:
        """Half the population; it splits into two halves of equal size."""
        if population_size < 2 or population_size % 2 != 0:
            raise ConfigError("population size must be even and >= 2")
        return population_size // 2

    def init_population(self, ctx, n: int, rng):
        positions = ctx.problem.space.sample(n, rng)
        return positions, ctx.evaluate(positions), None

    def step(
        self,
        positions: np.ndarray,
        fitness: np.ndarray,
        state,
        ctx,
        frac: float,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        params = self.params
        space = ctx.problem.space
        half = len(fitness) // 2
        # the better half are the environments of the worse half
        positions, fitness = ranked(positions, fitness)
        best = fitness[0]
        denom = (fitness[-1] - best) + BETA_DELTA

        draws = draw_cooling(half, space.dim, rng)
        beta = exchange_ratio(fitness[half:] - best, denom)
        env = cooled_environment(positions[:half], frac, params, draws.cooling)
        cooled = updated_temperature(positions[half:], env, beta[:, None], frac)
        cooled = random_component_jump(
            cooled, params.jump_probability, space,
            draws.jump_coins, draws.jump_index, draws.jump_values,
        )
        cooled = clamp_to_bounds(cooled, space)
        return (
            np.concatenate([positions[:half], cooled]),
            np.concatenate([fitness[:half], ctx.evaluate(cooled)]),
        )
