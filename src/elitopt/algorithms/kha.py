"""Krill herd algorithm.

Each krill carries three motion components: induced motion from neighbors,
foraging toward a food point and its own best record, and random diffusion
that decays to zero over the run.  Optional crossover and mutation borrow
variables from other krill with probabilities tied to the distance from the
global best.  Positions advance by a time step proportional to the summed
bound widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Candidate, ConfigError, SearchSpace, clamp_to_bounds

POSITIVITY_DELTA = 1e-10  # shift guard for inverse-fitness weights


@dataclass(frozen=True)
class KhaParams:
    """Motion amplitudes and switches.

    induced_max, foraging_speed and diffusion_max are the ceilings of the
    three motion components; the two inertia weights are fixed over the run.
    time_factor scales the position time step.  epsilon guards unit-vector
    divisions.
    """

    induced_max: float = 0.01
    foraging_speed: float = 0.02
    diffusion_max: float = 0.005
    inertia_induced: float = 0.5
    inertia_foraging: float = 0.5
    time_factor: float = 0.5
    epsilon: float = 1e-10
    crossover: bool = True
    mutation: bool = True
    food_coeff_on_best: bool = True

    def __post_init__(self):
        for name in ("induced_max", "foraging_speed", "diffusion_max", "time_factor"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("inertia_induced", "inertia_foraging"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")


@dataclass
class KhaState:
    """Per-run mutable krill state.

    ``last_positions`` records where each slot ended the previous iteration;
    a mismatch at the next step start means the slot was replaced from the
    outside (elite injection) and its motion history no longer belongs to it.
    """

    induced_old: np.ndarray
    foraging_old: np.ndarray
    pb_positions: np.ndarray
    pb_fitness: np.ndarray
    last_positions: np.ndarray


def sensing_distance(i: int, positions: np.ndarray) -> float:
    """Neighborhood radius of krill ``i``: mean distance to the herd / 5."""
    dists = np.linalg.norm(positions - positions[i], axis=1)
    return float(dists.sum()) / (5.0 * positions.shape[0])


def fitness_ratio(k_i: float, k_j: float, spread: float) -> float:
    """Normalized fitness difference; defined as 0 on a flat population."""
    if spread <= 0:
        return 0.0
    return (k_i - k_j) / spread


def local_attraction(
    i: int,
    positions: np.ndarray,
    fitness: np.ndarray,
    spread: float,
    eps: float,
) -> np.ndarray:
    """Summed pull of neighbors inside the sensing distance."""
    dists = np.linalg.norm(positions - positions[i], axis=1)
    radius = sensing_distance(i, positions)
    alpha = np.zeros(positions.shape[1])
    for j in range(positions.shape[0]):
        if j == i or dists[j] >= radius:
            continue
        khat = fitness_ratio(fitness[i], fitness[j], spread)
        alpha += khat * (positions[j] - positions[i]) / (dists[j] + eps)
    return alpha


def target_attraction(
    i: int,
    positions: np.ndarray,
    fitness: np.ndarray,
    best_position: np.ndarray,
    best_fitness: float,
    spread: float,
    frac: float,
    eps: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pull toward the global best, amplified early and late by
    ``2 * (rand + frac)`` where ``frac`` is the elapsed iteration fraction."""
    c_best = 2.0 * (rng.random() + frac)
    khat = fitness_ratio(fitness[i], best_fitness, spread)
    diff = best_position - positions[i]
    return c_best * khat * diff / (np.linalg.norm(diff) + eps)


def food_point(
    positions: np.ndarray, fitness: np.ndarray
) -> tuple[np.ndarray, float]:
    """Inverse-fitness weighted center of the herd and its virtual fitness.

    Weights are ``1 / K``; when any fitness is non-positive all values are
    first shifted so the minimum becomes a small positive number.  The
    virtual food fitness is the harmonic mean in the same scale, so no extra
    objective evaluation is spent on the food point.
    """
    k = np.asarray(fitness, dtype=float)
    shift = 0.0
    if k.min() <= 0:
        shift = k.min() - POSITIVITY_DELTA
        k = k - shift
    if np.any(k == 0):
        raise ValueError("zero effective fitness in food weighting")
    w = 1.0 / k
    x_food = (positions * w[:, None]).sum(axis=0) / w.sum()
    k_food = k.size / w.sum() + shift
    return x_food, float(k_food)


def foraging_attraction(
    i: int,
    positions: np.ndarray,
    fitness: np.ndarray,
    food_position: np.ndarray,
    food_fitness: float,
    pb_position: np.ndarray,
    pb_fitness: float,
    spread: float,
    frac: float,
    eps: float,
    rng: np.random.Generator,
    food_coeff_on_best: bool = True,
) -> np.ndarray:
    """Food term plus personal-best term.  The food coefficient
    ``2 * (rand + frac)`` scales both terms unless ``food_coeff_on_best``
    is cleared, which restricts it to the food term."""
    c_food = 2.0 * (rng.random() + frac)
    diff_food = food_position - positions[i]
    beta_food = (
        fitness_ratio(fitness[i], food_fitness, spread)
        * diff_food
        / (np.linalg.norm(diff_food) + eps)
    )
    diff_pb = pb_position - positions[i]
    beta_best = (
        fitness_ratio(fitness[i], pb_fitness, spread)
        * diff_pb
        / (np.linalg.norm(diff_pb) + eps)
    )
    if food_coeff_on_best:
        return c_food * (beta_food + beta_best)
    return c_food * beta_food + beta_best


def induced_motion(
    alpha: np.ndarray, old: np.ndarray, n_max: float, inertia: float
) -> np.ndarray:
    """New induced-motion vector: ``n_max * alpha + inertia * old``."""
    return n_max * np.asarray(alpha, dtype=float) + inertia * np.asarray(
        old, dtype=float
    )


def foraging_motion(
    beta: np.ndarray, old: np.ndarray, speed: float, inertia: float
) -> np.ndarray:
    """New foraging vector: ``speed * beta + inertia * old``."""
    return speed * np.asarray(beta, dtype=float) + inertia * np.asarray(
        old, dtype=float
    )


def advance_position(
    position: np.ndarray, dt: float, motion_total: np.ndarray
) -> np.ndarray:
    """Move a krill by its summed motion over one time step."""
    return np.asarray(position, dtype=float) + dt * np.asarray(
        motion_total, dtype=float
    )


def diffusion(
    dim: int, frac: float, d_max: float, rng: np.random.Generator
) -> np.ndarray:
    """Random walk component, decaying linearly to exactly zero at the end
    of the run.  Directions are uniform in [-1, 1] per axis."""
    delta = 2.0 * rng.random(dim) - 1.0
    return d_max * (1.0 - frac) * delta


def time_step(time_factor: float, space: SearchSpace) -> float:
    """Position update scale: ``time_factor`` times the summed bound widths."""
    return time_factor * space.width_sum()


def operator_probability(khat_best: float) -> float:
    """Crossover/mutation probability ``0.05 / khat``, capped into [0, 1].
    A vanishing distance to the best maps to probability 1; the caller is
    responsible for exempting the global best itself."""
    if khat_best <= 0:
        return 1.0
    return min(1.0, 0.05 / khat_best)


def crossover(
    position: np.ndarray,
    donor: np.ndarray,
    prob: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-variable: with probability ``prob`` take the donor's value."""
    out = position.copy()
    coins = rng.random(out.size)
    take = coins < prob
    out[take] = donor[take]
    return out


def mutate_toward_best(
    position: np.ndarray,
    best_position: np.ndarray,
    donor_a: np.ndarray,
    donor_b: np.ndarray,
    mu: float,
    prob: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-variable: with probability ``prob`` rebuild the value from the
    best position plus a scaled difference of two donors."""
    out = position.copy()
    coins = rng.random(out.size)
    take = coins < prob
    out[take] = best_position[take] + mu * (donor_a[take] - donor_b[take])
    return out


class Kha:
    """Krill herd optimizer with optional crossover and mutation."""

    name = "kha"
    inject_before_step = False

    def __init__(self, params: KhaParams | None = None):
        self.params = params or KhaParams()

    def evals_per_iteration(self, population_size: int) -> int:
        return population_size

    def init_population(self, ctx, space: SearchSpace, n: int, rng):
        population = ctx.evaluate_batch(space.sample(n, rng))
        state = KhaState(
            induced_old=np.zeros((n, space.dim)),
            foraging_old=np.zeros((n, space.dim)),
            pb_positions=np.array([c.position for c in population]),
            pb_fitness=np.array([c.fitness for c in population]),
            last_positions=np.array([c.position for c in population]),
        )
        return population, state

    def step(
        self,
        population: list[Candidate],
        state: KhaState,
        ctx,
        frac: float,
        rng: np.random.Generator,
    ) -> list[Candidate]:
        params = self.params
        space = ctx.problem.space
        n = len(population)
        dim = space.dim
        best_position = ctx.best.position
        best_fitness = ctx.best.fitness

        positions = np.array([c.position for c in population])
        fitness = np.array([c.fitness for c in population])
        # slots replaced between steps (elite injection) restart as fresh
        # agents: no inherited motion, personal best set to their own record
        for i in range(n):
            if not np.array_equal(positions[i], state.last_positions[i]):
                state.induced_old[i] = 0.0
                state.foraging_old[i] = 0.0
                state.pb_positions[i] = positions[i].copy()
                state.pb_fitness[i] = fitness[i]
        spread = float(fitness.max()) - best_fitness
        x_food, k_food = food_point(positions, fitness)
        dt = time_step(params.time_factor, space)

        # Per krill, random draws happen in a fixed order: target coefficient,
        # food coefficient, diffusion directions, then the optional operators.
        new_positions = np.empty_like(positions)
        for i in range(n):
            alpha = local_attraction(i, positions, fitness, spread, params.epsilon)
            alpha += target_attraction(
                i, positions, fitness, best_position, best_fitness,
                spread, frac, params.epsilon, rng,
            )
            induced = induced_motion(
                alpha, state.induced_old[i], params.induced_max, params.inertia_induced
            )

            beta = foraging_attraction(
                i, positions, fitness, x_food, k_food,
                state.pb_positions[i], float(state.pb_fitness[i]),
                spread, frac, params.epsilon, rng, params.food_coeff_on_best,
            )
            foraging = foraging_motion(
                beta, state.foraging_old[i], params.foraging_speed,
                params.inertia_foraging,
            )

            diffuse = diffusion(dim, frac, params.diffusion_max, rng)

            state.induced_old[i] = induced
            state.foraging_old[i] = foraging

            x = positions[i].copy()
            is_best = population[i].fitness <= best_fitness
            khat_best = fitness_ratio(fitness[i], best_fitness, spread)
            if params.crossover and n >= 2:
                pick = int(rng.integers(n - 1))
                donor = pick if pick < i else pick + 1
                prob = 0.0 if is_best else operator_probability(khat_best)
                x = crossover(x, positions[donor], prob, rng)
            if params.mutation and n >= 3:
                r2 = int(rng.integers(n))
                while r2 == i:
                    r2 = int(rng.integers(n))
                r3 = int(rng.integers(n))
                while r3 == i or r3 == r2:
                    r3 = int(rng.integers(n))
                mu = rng.random()
                prob = 0.0 if is_best else operator_probability(khat_best)
                x = mutate_toward_best(
                    x, best_position, positions[r2], positions[r3], mu, prob, rng
                )

            new_positions[i] = advance_position(x, dt, induced + foraging + diffuse)

        new_population = ctx.evaluate_batch(clamp_to_bounds(new_positions, space))
        for i, cand in enumerate(new_population):
            if cand.fitness < state.pb_fitness[i]:
                state.pb_fitness[i] = cand.fitness
                state.pb_positions[i] = cand.position.copy()
        state.last_positions = np.array([c.position for c in new_population])
        return new_population
