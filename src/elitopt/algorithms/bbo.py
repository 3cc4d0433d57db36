"""Biogeography-based optimization.

Habitats (candidate designs) exchange suitability index variables through
immigration/emigration rates tied to their fitness rank, then mutate with a
rate inversely proportional to the species-count probability.  The best
habitats of the previous iteration replace the worst of the new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import ConfigError, SearchSpace, check_field_types, clamp_to_bounds, ranked


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
        check_field_types(self)
        for name in ("max_immigration", "max_emigration", "elite_keep"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if not 0 <= self.mutation_max <= 1:
            raise ConfigError("mutation_max must lie in [0, 1]")


def species_count(rank, n: int):
    """Rank-linear species model: the best habitat (rank 0) is the richest.
    Elementwise on arrays of ranks."""
    rank = np.asarray(rank)
    if np.any((rank < 0) | (rank >= n)):
        raise ValueError("rank out of range")
    s = n - 1 - rank
    return s if s.ndim else int(s)


def migration_rates(rank, n: int, params: BboParams):
    """Immigration and emigration rate of the habitat at a fitness rank,
    elementwise on arrays of ranks.

    With species count ``s`` out of ``n``: immigration ``I * (1 - s/n)``,
    emigration ``E * s/n``.  Good habitats emigrate, poor ones immigrate.
    """
    share = species_count(rank, n) / n
    lam = params.max_immigration * (1.0 - share)
    mu = params.max_emigration * share
    return lam, mu


def species_probability(rank, n: int):
    """Stand-in species-count probability, elementwise on arrays of ranks:
    piecewise linear in the species count with its peak (1.0) at the median
    count and 0 at the extremes, so both the very best and the very worst
    habitats mutate the most."""
    s = species_count(rank, n)
    mid = (n - 1) / 2.0
    if mid == 0:
        return np.ones(np.shape(s)) if np.ndim(s) else 1.0
    return 1.0 - abs(s - mid) / mid


def mutation_rate(p, p_max: float, params: BboParams):
    """Mutation probability ``m_max * (1 - p / p_max)``, elementwise on
    arrays of probabilities."""
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    if np.min(p) < 0 or np.max(p) > p_max:
        raise ValueError("species probability must lie in [0, p_max]")
    return params.mutation_max * (1.0 - p / p_max)


def migrate(
    positions: np.ndarray,
    lambdas: np.ndarray,
    mus: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per habitat and per variable: with probability lambda_i replace the
    variable by the same variable of an emigration-selected donor.

    Donors always come from the pre-migration snapshot.  A single-habitat
    population is returned unchanged and draws nothing (no donor exists).
    Otherwise ``rng.random((n, dim))`` gives the immigration coins, then
    ``rng.random(k)`` one uniform ``u`` per immigrating ``(i, j)`` in
    row-major order.  The donor is a roulette pick over the emigration
    rates ``mus`` with habitat ``i``'s own rate zeroed: row ``i`` of an
    ``(n, n)`` weight matrix with a zero diagonal, its donor the count of
    running sums ``<= u * total_i``.  When ``total_i <= 0`` the same ``u``
    picks uniformly among the other habitats.
    """
    n, dim = positions.shape
    out = positions.copy()
    if n < 2:
        return out
    coins = rng.random((n, dim))
    rows, cols = np.nonzero(coins < lambdas[:, None])
    u = rng.random(rows.size)
    weights = np.tile(np.asarray(mus, dtype=float), (n, 1))
    np.fill_diagonal(weights, 0.0)
    cumulative = np.cumsum(weights, axis=1)
    totals = weights.sum(axis=1)[rows]
    donors = np.count_nonzero(cumulative[rows] <= (u * totals)[:, None], axis=1)
    # no emigration weight: uniform among the other habitats, shifted past
    # the habitat itself
    flat = totals <= 0
    pick = (u[flat] * (n - 1)).astype(int)
    donors[flat] = pick + (pick >= rows[flat])
    out[rows, cols] = positions[donors, cols]
    return out


def mutate(
    positions: np.ndarray, rates: np.ndarray, space: SearchSpace, rng: np.random.Generator
) -> np.ndarray:
    """Resample each variable of habitat ``i`` uniformly within its bounds
    with probability ``rates[i]``.  ``rng.random((n, dim))`` gives the coins
    of every habitat, then ``rng.random(h)`` one value per mutating
    ``(i, j)`` in row-major order."""
    out = np.array(positions, dtype=float)
    coins = rng.random(out.shape)
    rows, cols = np.nonzero(coins < rates[:, None])
    lower, upper = space.lower[cols], space.upper[cols]
    out[rows, cols] = lower + rng.random(rows.size) * (upper - lower)
    return out


class Bbo:
    """Biogeography-based optimizer with rank-linear migration rates."""

    name = "bbo"
    inject_before_step = False

    def __init__(self, params: BboParams | None = None):
        self.params = params or BboParams()

    def evals_per_iteration(self, population_size: int) -> int:
        return population_size

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
        n = len(fitness)
        positions, fitness = ranked(positions, fitness)
        keep = min(params.elite_keep, n)

        # draw order: migration coins and picks, then mutation coins and
        # values; the kept elite ranks mutate at rate 0
        ranks = np.arange(n)
        lambdas, mus = migration_rates(ranks, n, params)
        rates = mutation_rate(species_probability(ranks, n), 1.0, params)
        rates[:keep] = 0.0
        migrated = mutate(migrate(positions, lambdas, mus, rng), rates, space, rng)

        new_positions = clamp_to_bounds(migrated, space)
        new_positions, new_fitness = ranked(new_positions, ctx.evaluate(new_positions))
        if keep > 0:
            # the best habitats of the previous generation replace the worst
            new_positions[n - keep:] = positions[:keep]
            new_fitness[n - keep:] = fitness[:keep]
            new_positions, new_fitness = ranked(new_positions, new_fitness)
        return new_positions, new_fitness
