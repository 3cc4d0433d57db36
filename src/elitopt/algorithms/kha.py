"""Krill herd algorithm.

Each krill carries three motion components: induced motion from neighbors,
foraging toward a food point and its own best record, and random diffusion
that decays to zero over the run.  Optional crossover and mutation borrow
variables from other krill with probabilities tied to the distance from the
global best.  Positions advance by a time step proportional to the summed
bound widths.

A step makes two passes.  The first draws each kind of random number for
the whole herd in one generator call (:func:`draw_herd`, whose order is the
stream contract of a step).  The second computes the motion of the whole
herd with array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import ConfigError, SearchSpace, check_field_types, clamp_to_bounds

POSITIVITY_DELTA = 1e-10  # shift guard for inverse-fitness weights


@dataclass
class KhaState:
    """Per-run krill state: the motion history and personal bests, updated
    every step, and two fields set once per run by ``Kha.init_population``.

    ``last_positions`` records where each slot ended the previous iteration;
    a mismatch at the next step start means the slot was replaced from the
    outside (elite injection) and its motion history no longer belongs to it.
    ``dt`` is the :func:`time_step` of the search space and ``pairs`` the
    index pairs ``i < j`` of the herd (``np.triu_indices(n, 1)``) that
    :func:`pair_distances` reads: neither changes during a run.
    """

    induced_old: np.ndarray
    foraging_old: np.ndarray
    pb_positions: np.ndarray
    pb_fitness: np.ndarray
    last_positions: np.ndarray
    dt: float
    pairs: tuple[np.ndarray, np.ndarray]


def pair_distances(
    positions: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """The ``(n, n)`` distances between the krill, from the pairs ``i < j``
    alone, each mirrored to ``[j, i]``; the diagonal is 0.

    Row ``i`` is ``np.linalg.norm(positions - positions[i], axis=1)`` bit
    for bit: the same squares summed by the same reduction, and
    ``p_j - p_i == -(p_i - p_j)`` squares to the same value, so the matrix
    is exactly symmetric.
    """
    n = len(positions)
    i, j = pairs
    diff = np.take(positions, j, axis=0)
    diff -= np.take(positions, i, axis=0)
    diff *= diff
    half = np.sqrt(np.add.reduce(diff, axis=1))
    dists = np.zeros(n * n)
    dists[i * n + j] = half
    dists[j * n + i] = half
    return dists.reshape(n, n)


def sensing_radii(dists: np.ndarray) -> np.ndarray:
    """Neighborhood radius of each krill from the ``(n, n)`` distance
    matrix: its mean distance to the herd / 5."""
    return dists.sum(axis=1) / (5.0 * dists.shape[0])


def fitness_ratio(k_i, k_j, spread: float):
    """Normalized fitness difference, elementwise on arrays; defined as 0 on
    a flat population."""
    ratio = np.subtract(k_i, k_j)
    ratio = ratio / spread if spread > 0 else np.zeros_like(ratio)
    return ratio if np.ndim(ratio) else float(ratio)


def local_attractions(
    positions: np.ndarray, fitness: np.ndarray, dists: np.ndarray, spread: float,
    eps: float,
) -> np.ndarray:
    """Summed pull of neighbors inside the sensing distance, for every krill,
    from the ``(n, n)`` distances ``dists``: one sum over ``j`` of the
    pulls, those from outside the radius set to 0.

    Few krill have a neighbor, so the differences ``positions[j] -
    positions[i]`` and the pulls are formed only for the rows ``i`` that
    have one.  Each such row goes through the same elementwise steps and the
    same reduction over ``j`` as in the full ``(n, n, dim)`` tensor, and a
    krill with no neighbor gets the ``+0.0`` that a sum of zeroed pulls
    gives, so the result is the same bit for bit.
    """
    near = dists < sensing_radii(dists)[:, None]
    np.fill_diagonal(near, False)
    rows = np.flatnonzero(near.any(axis=1))
    pulls = positions[None, :, :] - positions[rows, None, :]
    pulls *= fitness_ratio(fitness[rows, None], fitness[None, :], spread)[:, :, None]
    pulls /= (dists[rows] + eps)[:, :, None]
    pulls[~near[rows]] = 0.0
    alpha = np.zeros(positions.shape)
    alpha[rows] = pulls.sum(axis=1)
    return alpha


def random_coefficient(u, frac: float):
    """Amplifier ``2 * (u + frac)`` of a uniform draw ``u``, larger late in
    the run (``frac`` is the elapsed iteration fraction)."""
    return 2.0 * (u + frac)


def food_point(
    positions: np.ndarray, fitness: np.ndarray
) -> tuple[np.ndarray, float]:
    """Inverse-fitness weighted center of the herd and its virtual fitness.

    Weights are ``1 / K``; when any fitness is non-positive all values are
    first shifted so the minimum becomes a small positive number:
    ``POSITIVITY_DELTA``, or one unit in the last place where a minimum of
    large magnitude absorbs the delta.  The virtual food fitness is the
    harmonic mean in the same scale, so no extra objective evaluation is
    spent on the food point.
    """
    k = np.asarray(fitness, dtype=float)
    shift = 0.0
    if k.min() <= 0:
        shift = k.min() - POSITIVITY_DELTA
        if shift == k.min():
            shift = np.nextafter(shift, -np.inf)
        k = k - shift
    if np.any(k == 0):
        raise ValueError("zero effective fitness in food weighting")
    w = 1.0 / k
    x_food = (positions * w[:, None]).sum(axis=0) / w.sum()
    k_food = k.size / w.sum() + shift
    return x_food, float(k_food)


def herd_pulls(
    positions: np.ndarray,
    fitness: np.ndarray,
    best: tuple[np.ndarray, float],
    food: tuple[np.ndarray, float],
    personal: tuple[np.ndarray, np.ndarray],
    spread: float,
    c_best: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Pulls of every krill toward the global best, the food point and its
    own best, as one ``(3, n, dim)`` stack in that order, and the ``(n,)``
    fitness ratios to the global best.

    Each target is a ``(position, fitness)`` pair; the personal bests give
    one row per krill.  A pull is ``khat * diff / (|diff| + eps)``, with
    ``diff`` the target less the krill and ``khat`` the fitness ratio of the
    krill to the target, scaled by the coefficient ``c_best`` for the global
    best.  The norms come from one stacked row-times-column ``matmul``,
    which makes per row the ``dot`` that ``np.linalg.norm`` of the row alone
    makes, where a row-wise ``np.add.reduce`` may round differently.
    """
    n, dim = positions.shape
    diff = np.empty((3, n, dim))
    others = np.empty((3, n))
    for k, (target, target_fitness) in enumerate((best, food, personal)):
        diff[k] = target
        others[k] = target_fitness
    diff -= positions
    ratios = fitness_ratio(fitness, others, spread)
    khat = ratios.copy()
    khat[0] *= c_best
    norms = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])
    pulls = khat[..., None] * diff
    pulls /= (norms + eps)[..., None]
    return pulls, ratios[0]


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


def diffusion_motion(u: np.ndarray, frac: float, d_max: float) -> np.ndarray:
    """Random walk from uniform draws ``u``: directions ``2u - 1`` in
    [-1, 1], scaled to decay linearly to exactly zero at the end of the run."""
    return d_max * (1.0 - frac) * (2.0 * u - 1.0)


def time_step(time_factor: float, space: SearchSpace) -> float:
    """Position update scale: ``time_factor`` times the summed bound widths."""
    return time_factor * space.width_sum()


def operator_probability(khat_best):
    """Crossover/mutation probability ``0.05 / khat``, capped into [0, 1],
    elementwise on arrays.  A vanishing distance to the best maps to
    probability 1; the caller is responsible for exempting the global best
    itself."""
    khat = np.asarray(khat_best, dtype=float)
    prob = np.minimum(1.0, 0.05 / np.where(khat > 0, khat, 0.05))
    return prob if prob.ndim else float(prob)


def take_variables(positions, replacements, prob, coins) -> np.ndarray:
    """Per variable, the replacement where its coin falls below ``prob``:
    the crossover and the mutation of the herd."""
    return np.where(coins < prob, replacements, positions)


@dataclass
class HerdDraws:
    """Every random number of one step, one row per krill.

    ``uniforms`` holds the target and food coefficient draws, then the
    ``dim`` diffusion draws.  ``donors`` and ``cross_coins`` are the
    crossover donor and coins, ``None`` without crossover; ``mutation``
    holds the two mutation donors per krill, ``mu_coins`` the ``mu`` draw
    then the coins, both ``None`` without mutation.
    """

    uniforms: np.ndarray
    donors: np.ndarray | None
    cross_coins: np.ndarray | None
    mutation: np.ndarray | None
    mu_coins: np.ndarray | None


def draw_herd(n: int, dim: int, kha: Kha, rng) -> HerdDraws:
    """Make every draw of one step, each kind for the whole herd in one
    call, in this order:

    1. ``rng.random((n, dim + 2))``: the coefficients and diffusion;
    2. with crossover (and ``n >= 2``), ``rng.integers(n - 1, size=n)``,
       shifted past the krill's own index, for the donors, then
       ``rng.random((n, dim))`` for the coins;
    3. with mutation (and ``n >= 3``), ``rng.integers(n - 1, size=n)`` for
       the first donor and ``rng.integers(n - 2, size=n)`` for the second,
       each shifted past the indices it must avoid (an exact uniform pick,
       with no rejection), then ``rng.random((n, dim + 1))`` for ``mu`` and
       the coins.

    Every draw is made whatever the operator probability turns out to be.
    """
    own = np.arange(n)
    donors = cross_coins = mutation = mu_coins = None
    uniforms = rng.random((n, dim + 2))
    if kha.crossover and n >= 2:
        donors = _pick_other(rng.integers(n - 1, size=n), own)
        cross_coins = rng.random((n, dim))
    if kha.mutation and n >= 3:
        r2 = _pick_other(rng.integers(n - 1, size=n), own)
        r3 = rng.integers(n - 2, size=n)
        r3 = _pick_other(_pick_other(r3, np.minimum(own, r2)), np.maximum(own, r2))
        mutation = np.stack([r2, r3], axis=1)
        mu_coins = rng.random((n, dim + 1))
    return HerdDraws(uniforms, donors, cross_coins, mutation, mu_coins)


def _pick_other(pick: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Shift each pick at or above its ``skip`` up by one: a uniform pick
    among ``k`` indices becomes a uniform pick among ``k + 1`` less
    ``skip``.  Applied past the smaller skip first, then the larger, it
    avoids two indices."""
    return pick + (pick >= skip)


@dataclass(frozen=True)
class Kha:
    """Krill herd optimizer with optional crossover and mutation.

    induced_max, foraging_speed and diffusion_max are the ceilings of the
    three motion components; the two inertia weights are fixed over the run.
    time_factor scales the position time step.  epsilon guards unit-vector
    divisions.
    """

    name = "kha"
    inject_before_first_step = False

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
        check_field_types(self)
        for name in ("induced_max", "foraging_speed", "diffusion_max", "time_factor"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        for name in ("inertia_induced", "inertia_foraging"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be finite and positive")

    def evals_per_iteration(self, population_size: int) -> int:
        return population_size

    def init_population(self, ctx, n: int, rng):
        space = ctx.problem.space
        positions = space.sample(n, rng)
        fitness = ctx.evaluate(positions)
        state = KhaState(
            induced_old=np.zeros((n, space.dim)),
            foraging_old=np.zeros((n, space.dim)),
            pb_positions=positions.copy(),
            pb_fitness=fitness.copy(),
            last_positions=positions,
            dt=time_step(self.time_factor, space),
            pairs=np.triu_indices(n, 1),
        )
        return positions, fitness, state

    def step(
        self,
        positions: np.ndarray,
        fitness: np.ndarray,
        state: KhaState,
        ctx,
        frac: float,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        space = ctx.problem.space
        n = len(fitness)
        eps = self.epsilon
        best_position = ctx.best.position
        best_fitness = ctx.best.fitness

        # slots replaced between steps (elite injection) restart as fresh
        # agents: no inherited motion, personal best set to their own record
        fresh = np.any(positions != state.last_positions, axis=1)
        state.induced_old[fresh] = 0.0
        state.foraging_old[fresh] = 0.0
        state.pb_positions[fresh] = positions[fresh]
        state.pb_fitness[fresh] = fitness[fresh]
        spread = float(fitness.max()) - best_fitness

        draws = draw_herd(n, space.dim, self, rng)
        c_best, c_food = random_coefficient(draws.uniforms[:, :2].T, frac)
        dists = pair_distances(positions, state.pairs)
        alpha = local_attractions(positions, fitness, dists, spread, eps)
        pulls, best_ratio = herd_pulls(
            positions, fitness, (best_position, best_fitness),
            food_point(positions, fitness), (state.pb_positions, state.pb_fitness),
            spread, c_best, eps,
        )
        alpha += pulls[0]
        induced = induced_motion(
            alpha, state.induced_old, self.induced_max, self.inertia_induced
        )
        # the food coefficient scales the personal-best pull as well, unless
        # food_coeff_on_best is cleared
        c_food = c_food[:, None]
        if self.food_coeff_on_best:
            beta = c_food * (pulls[1] + pulls[2])
        else:
            beta = c_food * pulls[1] + pulls[2]
        foraging = foraging_motion(
            beta, state.foraging_old, self.foraging_speed, self.inertia_foraging
        )
        diffuse = diffusion_motion(draws.uniforms[:, 2:], frac, self.diffusion_max)
        state.induced_old = induced
        state.foraging_old = foraging

        # the global best itself is exempt from both operators
        prob = np.where(
            fitness <= best_fitness, 0.0, operator_probability(best_ratio)
        )[:, None]
        x = positions
        if draws.donors is not None:
            x = take_variables(x, positions[draws.donors], prob, draws.cross_coins)
        if draws.mutation is not None:
            donor_a = positions[draws.mutation[:, 0]]
            donor_b = positions[draws.mutation[:, 1]]
            mutants = best_position + draws.mu_coins[:, :1] * (donor_a - donor_b)
            x = take_variables(x, mutants, prob, draws.mu_coins[:, 1:])
        new_positions = advance_position(x, state.dt, induced + foraging + diffuse)

        new_positions = clamp_to_bounds(new_positions, space)
        new_fitness = ctx.evaluate(new_positions)
        better = new_fitness < state.pb_fitness
        state.pb_fitness[better] = new_fitness[better]
        state.pb_positions[better] = new_positions[better]
        # the step and the memory never write a generation's arrays in
        # place, so the next step can compare against them
        state.last_positions = new_positions
        return new_positions, new_fitness
