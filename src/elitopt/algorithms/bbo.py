"""Biogeography-based optimization.

Habitats (candidate designs) exchange suitability index variables through
immigration/emigration rates tied to their fitness rank, then mutate with a
rate inversely proportional to the species-count probability.  The best
habitats of the previous iteration replace the worst of the new one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ConfigError, SearchSpace, clamp_to_bounds, ranked


@dataclass(frozen=True)
class BboParams:
    """max_immigration and max_emigration are the rate ceilings (I and E),
    mutation_max the mutation probability ceiling, elite_keep the number of
    habitats preserved across an iteration."""

    max_immigration: float = 1.0
    max_emigration: float = 1.0
    mutation_max: float = 0.01
    elite_keep: int = 2

    def __post_init__(self):
        if self.max_immigration < 0 or self.max_emigration < 0:
            raise ConfigError("rate ceilings must be >= 0")
        if not 0 <= self.mutation_max <= 1:
            raise ConfigError("mutation_max must lie in [0, 1]")
        if self.elite_keep < 0:
            raise ConfigError("elite_keep must be >= 0")


def species_count(rank: int, n: int) -> int:
    """Rank-linear species model: the best habitat (rank 0) is the richest."""
    if not 0 <= rank < n:
        raise ValueError("rank out of range")
    return n - 1 - rank

def migration_rates(rank: int, n: int, params: BboParams) -> tuple[float, float]:
    """Immigration and emigration rate of the habitat at a fitness rank.

    With species count ``s`` out of ``n``: immigration ``I * (1 - s/n)``,
    emigration ``E * s/n``.  Good habitats emigrate, poor ones immigrate.
    """
    s = species_count(rank, n)
    lam = params.max_immigration * (1.0 - s / n)
    mu = params.max_emigration * (s / n)
    return lam, mu


def species_probability(rank: int, n: int) -> float:
    """Stand-in species-count probability: piecewise linear in the species
    count with its peak (1.0) at the median count and 0 at the extremes, so
    both the very best and the very worst habitats mutate the most."""
    s = species_count(rank, n)
    mid = (n - 1) / 2.0
    if mid == 0:
        return 1.0
    return 1.0 - abs(s - mid) / mid


def mutation_rate(p: float, p_max: float, params: BboParams) -> float:
    """Mutation probability ``m_max * (1 - p / p_max)``."""
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    if p < 0 or p > p_max:
        raise ValueError("species probability must lie in [0, p_max]")
    return params.mutation_max * (1.0 - p / p_max)


def _spin(cumulative: np.ndarray, total: float, skip: int, count: int, rng) -> np.ndarray:
    """``count`` roulette draws over weights with running sums ``cumulative``
    and sum ``total``, the weight at ``skip`` already zeroed; one draw from
    ``rng`` each."""
    if total <= 0:
        candidates = [i for i in range(cumulative.size) if i != skip]
        return np.array(
            [candidates[int(rng.integers(len(candidates)))] for _ in range(count)]
        )
    # one array of uniforms is the stream of as many scalar draws
    return np.searchsorted(cumulative, rng.random(count) * total, side="right")


def migrate(
    positions: np.ndarray,
    lambdas: np.ndarray,
    mus: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per habitat and per variable: with probability lambda_i replace the
    variable by the same variable of an emigration-selected donor.

    Donors always come from the pre-migration snapshot.  A single-habitat
    population is returned unchanged (no donor exists).  The donor of a
    pick is a roulette draw over the emigration rates ``mus`` with the
    habitat's own rate zeroed.  Row ``i`` of one ``(n, n)`` weight matrix
    with a zero diagonal holds those weights for habitat ``i``, so their
    running sums and totals are computed once per step.  Habitat by habitat,
    ``rng`` gives the ``dim`` immigration coins, then one draw per pick.
    """
    n, dim = positions.shape
    out = positions.copy()
    if n < 2:
        return out
    weights = np.tile(np.asarray(mus, dtype=float), (n, 1))
    np.fill_diagonal(weights, 0.0)
    cumulative = np.cumsum(weights, axis=1)
    totals = weights.sum(axis=1)
    for i in range(n):
        coins = rng.random(dim)
        picks = np.flatnonzero(coins < lambdas[i])
        if picks.size == 0:
            continue
        donors = _spin(cumulative[i], totals[i], i, picks.size, rng)
        out[i, picks] = positions[donors, picks]
    return out


def mutate(
    position: np.ndarray, rate: float, space: SearchSpace, rng: np.random.Generator
) -> np.ndarray:
    """Resample each variable uniformly within its bounds with probability
    ``rate``.  Coins are drawn for every variable first, then one value per
    mutating variable, in variable order."""
    out = np.asarray(position, dtype=float).copy()
    hit = rng.random(out.size) < rate
    count = np.count_nonzero(hit)
    if count:
        # one array of uniforms is the stream of as many scalar draws
        lower, upper = space.lower[hit], space.upper[hit]
        out[hit] = lower + rng.random(count) * (upper - lower)
    return out


class Bbo:
    """Biogeography-based optimizer with rank-linear migration rates."""

    name = "bbo"
    inject_before_step = False

    def __init__(self, params: BboParams | None = None):
        self.params = params or BboParams()

    def evals_per_iteration(self, population_size: int) -> int:
        return population_size

    def check_population(self, population_size: int) -> None:
        """Any population size runs."""

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
        n = len(fitness)
        positions, fitness = ranked(positions, fitness)
        keep = min(params.elite_keep, n)

        lambdas = np.empty(n)
        mus = np.empty(n)
        for rank in range(n):
            lambdas[rank], mus[rank] = migration_rates(rank, n, params)

        migrated = migrate(positions, lambdas, mus, rng)

        p_max = 1.0
        for rank in range(params.elite_keep, n):
            p = species_probability(rank, n)
            rate = mutation_rate(p, p_max, params)
            if rate > 0:
                migrated[rank] = mutate(migrated[rank], rate, space, rng)

        new_positions = clamp_to_bounds(migrated, space)
        new_positions, new_fitness = ranked(new_positions, ctx.evaluate_batch(new_positions))
        if keep > 0:
            # the best habitats of the previous generation replace the worst
            new_positions[n - keep:] = positions[:keep]
            new_fitness[n - keep:] = fitness[:keep]
            new_positions, new_fitness = ranked(new_positions, new_fitness)
        return new_positions, new_fitness
