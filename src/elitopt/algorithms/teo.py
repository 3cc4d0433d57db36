"""Thermal exchange optimization.

Agents are temperature vectors.  Each iteration the population is sorted and
split in half: the better half acts as cooling environments for the worse
half, which relaxes toward its (randomly cooled) environment at a rate set
by its own cost.  Only the cooled half is re-evaluated, so an iteration
costs half a population of evaluations.  Teo declares
``inject_before_step``: with the elite memory on, the run loop overwrites the
worst agents with the stored elites before each step, so the elites take part
in the split as environments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (  # time_fraction is re-exported for the worked examples
    ConfigError,
    SearchSpace,
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
        if self.c1 not in (0, 1) or self.c2 not in (0, 1):
            raise ConfigError("c1 and c2 must be 0 or 1")
        if not 0 <= self.jump_probability <= 1:
            raise ConfigError("jump_probability must lie in [0, 1]")


def exchange_ratio(cost: float, worst_cost: float) -> float:
    """Cost ratio steering how fast an agent approaches its environment.

    Costs are expected pre-shifted so the best is 0; lower cost means a
    smaller ratio and therefore a smaller position change.
    """
    if worst_cost == 0:
        raise ValueError("worst_cost must be nonzero")
    return cost / worst_cost


def cooled_environment(
    env: np.ndarray,
    frac: float,
    params: TeoParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Randomly damp an environment temperature, one fresh draw per
    component: ``(1 - (c1 + c2 * (1 - frac)) * rand) * env``."""
    r = rng.random(env.size)
    return (1.0 - (params.c1 + params.c2 * (1.0 - frac)) * r) * env


def updated_temperature(
    t_old: np.ndarray, t_env: np.ndarray, beta: float, frac: float
) -> np.ndarray:
    """Exponential relaxation toward the environment.  The result lies on
    the segment between the old temperature and the environment."""
    return t_env + (t_old - t_env) * np.exp(-beta * frac)


def random_component_jump(
    position: np.ndarray,
    jump_probability: float,
    space: SearchSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """With probability ``jump_probability`` re-draw one uniformly chosen
    variable inside its bounds; at most one component changes."""
    out = position.copy()
    if rng.random() < jump_probability:
        j = int(rng.integers(out.size))
        out[j] = space.lower[j] + rng.random() * (space.upper[j] - space.lower[j])
    return out


class Teo:
    """Thermal exchange optimizer.  Requires an even population."""

    name = "teo"
    inject_before_step = True

    def __init__(self, params: TeoParams | None = None):
        self.params = params or TeoParams()

    def evals_per_iteration(self, population_size: int) -> int:
        return population_size // 2

    def check_population(self, population_size: int) -> None:
        """The population splits into two halves of equal size."""
        if population_size < 2 or population_size % 2 != 0:
            raise ConfigError("population size must be even and >= 2")

    def init_population(self, ctx, space: SearchSpace, n: int, rng):
        positions = space.sample(n, rng)
        return positions, ctx.evaluate_batch(positions), None

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

        cooled = np.empty((half, space.dim))
        for k in range(half):
            beta = exchange_ratio(fitness[half + k] - best, denom)
            env = cooled_environment(positions[k], frac, params, rng)
            pos = updated_temperature(positions[half + k], env, beta, frac)
            cooled[k] = random_component_jump(pos, params.jump_probability, space, rng)

        cooled = clamp_to_bounds(cooled, space)
        return (
            np.concatenate([positions[:half], cooled]),
            np.concatenate([fitness[:half], ctx.evaluate_batch(cooled)]),
        )
