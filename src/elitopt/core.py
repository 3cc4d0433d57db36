"""Core machinery shared by all optimizers.

This module holds the pieces that do not depend on any particular search
strategy: bounded (optionally gridded) search spaces, evaluated candidates
with multiplicative constraint penalties, the bounded elite memory that can
be bolted onto any population algorithm, the seeded run loop with strict
evaluation accounting, and replicate statistics.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration value violates its contract."""


# what a value of each kind accepts (built-in types first: an abc check is
# slower) and the type it is stored as
_SCALARS = {
    "bool": (bool, bool),
    "int": ((int, numbers.Integral), int),
    "float": ((float, int, numbers.Real), float),
    "str": (str, str),
}
# JSON containers, which check_value takes and check_field_types leaves alone
_CONTAINERS = {"list": (list, list), "dict": (dict, dict)}


def check_value(value, kind: str, name: str):
    """``value`` as the type ``kind`` names (``bool``, ``int``, ``float``,
    ``str``, ``list`` or ``dict``, or one of those ``| None``); another type
    is a ``ConfigError`` naming ``name``.  A bool is never a number, nor a
    float an int."""
    scalar, _, rest = kind.partition(" | ")
    if value is None and rest == "None":
        return None
    accepted, stored = _SCALARS.get(scalar) or _CONTAINERS[scalar]
    if not isinstance(value, accepted) or (isinstance(value, bool) and stored is not bool):
        raise ConfigError(f"{name} must be {kind}, not {value!r}")
    try:
        return stored(value)
    except OverflowError:  # no repr: str() refuses a long enough int
        raise ConfigError(f"{name} must be {kind}, not an int this large") from None


def check_field_types(config) -> None:
    """Pass each field of the dataclass ``config`` declared ``bool``,
    ``int``, ``float`` or ``str`` (or one of those ``| None``) through
    :func:`check_value`, and store what it returns.  The annotations are read
    as the strings that ``from __future__ import annotations`` leaves."""
    for f in fields(config):
        kind, _, rest = f.type.partition(" | ")
        if kind in _SCALARS and rest in ("", "None"):
            value = check_value(getattr(config, f.name), f.type, f.name)
            object.__setattr__(config, f.name, value)


def read_json(path):
    """The JSON document in the file ``path``; ``ConfigError`` unless valid."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or an int past str()'s digit limit
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None


def params_from_table(params_cls, table, name: str):
    """``params_cls`` built from ``table``, a dict of its fields; an instance
    of ``params_cls`` is returned as it is.  A ``ConfigError`` names the
    table ``name``: ``bbo.elite_keep must be int, not 2.5``."""
    if isinstance(table, params_cls):
        return table
    if not isinstance(table, dict):
        raise ConfigError(f"{name} must be a table of parameters, not {table!r}")
    unknown = set(table) - {f.name for f in fields(params_cls)}
    if unknown:
        raise ConfigError(f"{name}.{min(unknown)} is not a {name} parameter")
    try:
        return params_cls(**table)
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc}") from None


class EvaluationError(RuntimeError):
    """Raised when an objective evaluation returns an unusable value."""


class AccountingError(RuntimeError):
    """Raised when an algorithm consumes a different number of evaluations
    per iteration than it declares."""


# ---------------------------------------------------------------------------
# Search space


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box, optionally with a discrete value grid per variable.

    Parameters
    ----------
    lower, upper : array_like
        Per-variable bounds, same length, ``lower[i] <= upper[i]``.
    grids : sequence of (array_like or None), optional
        For each variable either ``None`` (continuous) or a sorted list of
        admissible values lying inside the bounds.
    """

    lower: np.ndarray
    upper: np.ndarray
    grids: tuple = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ConfigError("bounds must be 1-d arrays of equal length")
        if lower.size == 0:
            raise ConfigError("search space needs at least one variable")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ConfigError("bounds must be finite")
        if np.any(lower > upper):
            raise ConfigError("lower bound exceeds upper bound")
        if self.grids is not None:
            if len(self.grids) != lower.size:
                raise ConfigError("grids length must match dimension")
            cleaned = []
            for j, g in enumerate(self.grids):
                if g is None:
                    cleaned.append(None)
                    continue
                arr = np.asarray(g, dtype=float)
                if arr.size == 0:
                    raise ConfigError(f"variable {j}: empty grid")
                if not np.all(np.isfinite(arr)):
                    raise ConfigError(f"variable {j}: grid values must be finite")
                if np.any(np.diff(arr) <= 0):
                    raise ConfigError(f"variable {j}: grid must be strictly increasing")
                if arr[0] < lower[j] or arr[-1] > upper[j]:
                    raise ConfigError(f"variable {j}: grid leaves the bounds")
                cleaned.append(arr)
            object.__setattr__(self, "grids", tuple(cleaned))

    @property
    def dim(self) -> int:
        return self.lower.size

    def width_sum(self) -> float:
        """Sum of per-variable bound widths."""
        return float(np.sum(self.upper - self.lower))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniformly sample ``n`` positions, ``lb + u * (ub - lb)`` per axis."""
        u = rng.random((n, self.dim))
        return self.lower + u * (self.upper - self.lower)


def _check_positions(position: np.ndarray, space: SearchSpace) -> np.ndarray:
    """``position`` as floats, one position ``(dim,)`` or a stack ``(k, dim)``."""
    position = np.asarray(position, dtype=float)
    if position.ndim not in (1, 2) or position.shape[-1] != space.dim:
        raise ValueError(
            f"position has shape {position.shape}, expected ({space.dim},) "
            f"or (k, {space.dim})"
        )
    return position


def clamp_to_bounds(position: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Project a position, or each row of a ``(k, dim)`` stack of them, onto
    the box; idempotent, in-bounds input unchanged."""
    return np.clip(_check_positions(position, space), space.lower, space.upper)


def snap_to_grid(position: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Round gridded variables to the nearest admissible value, for one
    position or each row of a ``(k, dim)`` stack.

    Ties resolve to the smaller grid value.  Variables without a grid pass
    through unchanged.  Each gridded column is snapped for all rows at once.
    """
    out = _check_positions(position, space).copy()
    if space.grids is None:
        return out
    for j, grid in enumerate(space.grids):
        if grid is None:
            continue
        x = out[..., j]
        idx = np.searchsorted(grid, x)
        # below the grid lo == hi == grid[0], above it both are grid[-1]
        lo = grid[np.maximum(idx - 1, 0)]
        hi = grid[np.minimum(idx, grid.size - 1)]
        # <= keeps the smaller value on an exact tie
        out[..., j] = np.where(x - lo <= hi - x, lo, hi)
    return out


# ---------------------------------------------------------------------------
# Candidates and penalties


@dataclass
class Candidate:
    """The best design of a run so far: its position, raw objective,
    violations and penalized fitness.  A generation in flight, and the elite
    memory, are held as arrays."""

    position: np.ndarray
    objective: float
    violations: np.ndarray
    fitness: float


@dataclass(frozen=True)
class PenaltyParams:
    """Multiplicative penalty: ``objective * (1 + scale * sum(v)) ** exponent``."""

    scale: float = 1.0
    exponent: float = 2.0

    def __post_init__(self):
        check_field_types(self)
        # the chained comparisons are False for NaN
        if not 0 <= self.scale < math.inf:
            raise ConfigError(
                f"penalty scale must be finite and >= 0, not {self.scale!r}"
            )
        if not 1 <= self.exponent < math.inf:
            raise ConfigError(
                f"penalty exponent must be finite and >= 1, not {self.exponent!r}"
            )


def penalized_fitness(objective, violations, params: PenaltyParams):
    """Fold constraint violations into a single minimization fitness.

    Takes one design, a float objective with its ``(c,)`` violations, and
    returns a float; or a batch, ``(k,)`` objectives with ``(k, c)``
    violations, and returns ``(k,)`` fitness, each row the bits of the
    one-design call.  Feasible designs (all violations zero) keep their raw
    objective.  The penalty multiplies, so it only ranks infeasible designs
    below feasible ones when the objective is non-negative: a constrained
    problem with a negative objective is rejected.  Unconstrained problems
    (``c = 0``) take any objective.
    """
    objectives = np.asarray(objective, dtype=float)
    v = np.asarray(violations, dtype=float)
    if objectives.ndim == 0:
        return float(_penalized(objectives[None], v[None], params)[0])
    return _penalized(objectives, v, params)


def _penalized(objectives: np.ndarray, v: np.ndarray, params: PenaltyParams) -> np.ndarray:
    if objectives.ndim != 1 or v.ndim != 2 or len(v) != len(objectives):
        raise ValueError(
            f"objectives of shape {objectives.shape} and violations of shape "
            f"{v.shape} are not (k,) and (k, c)"
        )
    if not v.shape[1]:
        # objective * (1 + scale * 0) ** exponent is objective * 1.0, exactly;
        # a copy, because objectives + 0.0 would turn -0.0 into +0.0
        return objectives.copy()
    if np.any(v < 0):
        raise ValueError("violations must be non-negative")
    negative = np.flatnonzero(objectives < 0)
    if negative.size:
        raise ValueError(
            f"objective {float(objectives[negative[0]])!r} is negative; the "
            f"multiplicative penalty needs a non-negative objective on a "
            f"constrained problem"
        )
    # a row sum of a C-contiguous array is the bits of np.sum of the row alone
    totals = np.ascontiguousarray(v).sum(axis=1)
    scale, exponent = params.scale, params.exponent
    # Python's float ** per row: np.power rounds some of these powers differently
    return np.array([
        o * (1.0 + scale * t) ** exponent
        for o, t in zip(objectives.tolist(), totals.tolist())
    ])


# ---------------------------------------------------------------------------
# Elite memory


class EliteMemory:
    """Bounded, deduplicated buffer of the best positions offered so far.

    The buffer is two arrays, ``positions (m, dim)`` and ``fitness (m,)``,
    best first: the ``capacity`` best distinct positions offered so far,
    ranked by fitness, equal fitness kept in arrival order.  Positions are
    matched by their bytes with -0.0 mapped to +0.0, which is elementwise
    equality for NaN-free positions.  Treat both arrays as read-only.

    A position keeps the fitness of its first offer.  When equal positions
    always come with equal fitness, as the deterministic evaluation of a
    :class:`Problem` guarantees, an evicted position can never come back
    (its fitness is no longer below the buffer's worst), so offering a
    stream in batches leaves the same arrays as offering it row by row.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("memory capacity must be >= 1")
        self.capacity = int(capacity)
        self.positions = np.empty((0, 0))
        self.fitness = np.empty(0)

    def __len__(self) -> int:
        return len(self.fitness)

    def offer(self, positions: np.ndarray, fitness: np.ndarray) -> int:
        """Merge an evaluated ``(k, dim)`` batch and its ``(k,)`` fitness
        into the buffer; return how many of the batch's rows it now holds."""
        positions = np.asarray(positions, dtype=float)
        fitness = np.asarray(fitness, dtype=float)
        m = len(self.fitness)
        if m >= self.capacity:
            # strict < : a row tying the worst entry ranks after it and loses
            below = fitness < self.fitness[-1]
            if not below.any():
                return 0
            positions, fitness = positions[below], fitness[below]
        if m:
            positions = np.concatenate([self.positions, positions])
            fitness = np.concatenate([self.fitness, fitness])
        # the first row of each position, in arrival order
        first = {}
        for i, row in enumerate(positions + 0.0):
            first.setdefault(row.tobytes(), i)
        unique = np.fromiter(first.values(), dtype=int, count=len(first))
        keep = unique[np.argsort(fitness[unique], kind="stable")[:self.capacity]]
        self.positions, self.fitness = positions[keep], fitness[keep]
        return int(np.count_nonzero(keep >= m))

    def inject(
        self, positions: np.ndarray, fitness: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Replace the worst members of a population with copies of the
        stored elites.  Population size and slot order are preserved; ties
        among equally bad members are broken by index order.  The input
        arrays are never written: the result is new arrays, or the inputs
        themselves when the memory is empty."""
        n, m = len(fitness), len(self.fitness)
        if not m:
            return positions, fitness
        if m > n:
            raise ValueError("memory holds more entries than the population")
        if m == n and self.fitness[0] > fitness.min():
            # cannot happen when the memory was fed from this population's
            # evaluations; a full replacement by strictly worse entries would
            # discard the population's best
            raise ValueError("memory entries are all worse than the population best")
        slots, _ = ranked(np.arange(n), fitness)
        # the very worst slot receives the best elite
        worst_first = slots[n - m:][::-1]
        positions = positions.copy()
        fitness = fitness.copy()
        positions[worst_first] = self.positions
        fitness[worst_first] = self.fitness
        return positions, fitness


def ranked(positions: np.ndarray, fitness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``positions`` and ``fitness`` best first, by a stable sort
    on fitness: equal fitness keeps index order.  New arrays."""
    order = np.argsort(fitness, kind="stable")
    return positions[order], fitness[order]


def memory_capacity(population_size: int, fraction: float) -> int:
    """Elite buffer size: ``floor(fraction * population_size)``, at least 1."""
    if population_size < 1:
        raise ConfigError("population size must be >= 1")
    if not 0 < fraction <= 1:
        raise ConfigError("memory fraction must lie in (0, 1]")
    return max(1, int(math.floor(fraction * population_size)))


# ---------------------------------------------------------------------------
# Problems


@dataclass(frozen=True)
class Problem:
    """A minimization task: a search space plus a pure evaluation function.

    ``evaluate(X)`` takes a ``(k, dim)`` array of positions and returns
    ``(objectives, violations)``: a ``(k,)`` float array and a ``(k, c)``
    float array of non-negative violations, one column per constraint
    (``c = 0`` for unconstrained problems).  Evaluation must be deterministic,
    and a row's results must not depend on the other rows.
    """

    name: str
    space: SearchSpace
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


# ---------------------------------------------------------------------------
# Run configuration and results


@dataclass(frozen=True)
class RunConfig:
    population_size: int
    max_iterations: int
    memory_fraction: float | None = 0.2
    seed: int = 0
    penalty: PenaltyParams = field(default_factory=PenaltyParams)

    def __post_init__(self):
        check_field_types(self)
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.memory_fraction is not None:
            # raises ConfigError when the fraction cannot yield a buffer
            memory_capacity(self.population_size, self.memory_fraction)


@dataclass
class RunResult:
    """Outcome of a single seeded run.

    ``history`` holds one ``(iteration, best_so_far, nfes)`` triple for the
    initial population (iteration 0) and for every iteration after it.
    ``design`` is the best position snapped to the problem's grid: the
    design whose objective and violations ``best`` carries.
    """

    best: Candidate
    history: list[tuple[int, float, int]]
    nfes: int
    design: np.ndarray


class RunContext:
    """Per-run evaluation funnel: counts evaluations, applies the penalty,
    offers each evaluated batch to the elite memory and keeps the best
    candidate ever seen as a :class:`Candidate` built from copies.

    Algorithms build a whole generation and hand it over at once through
    :meth:`evaluate`, the one way into the run's accounting.
    """

    def __init__(
        self,
        problem: Problem,
        penalty: PenaltyParams,
        memory: EliteMemory | None = None,
    ):
        self.problem = problem
        self.penalty = penalty
        self.memory = memory
        self.nfes = 0
        self.best: Candidate | None = None

    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        """Fitness of each row of the ``(k, dim)`` array ``positions``; one
        position is the batch ``x[None]``, and a 1-D array or a row that is
        not ``problem.space.dim`` wide is refused.

        The problem analyzes all rows at once, and the whole batch is checked
        before any row counts: the first row with a non-finite objective, then
        the first with a non-finite fitness, raises :class:`EvaluationError`,
        and :func:`penalized_fitness` raises ``ValueError`` on negative
        violations or objectives.  Then the ``k`` rows are counted, offered to
        the memory in one :meth:`EliteMemory.offer` and compared with the
        best, with the same outcome as if they had been evaluated one by one.
        """
        positions = np.asarray(positions, dtype=float)
        dim = self.problem.space.dim
        if positions.ndim != 2 or not len(positions) or positions.shape[1] != dim:
            raise ValueError(
                f"positions must be a (k, dim) array with k >= 1 and dim {dim}, "
                f"not {positions.shape}"
            )
        objectives, violations = self.problem.evaluate(positions)
        objectives = np.asarray(objectives, dtype=float)
        violations = np.asarray(violations, dtype=float)
        k = len(positions)
        if objectives.shape != (k,) or violations.ndim != 2 or len(violations) != k:
            raise EvaluationError(
                f"a batch of {k} positions gave objectives of shape "
                f"{objectives.shape} and violations of shape {violations.shape}, "
                f"not ({k},) and ({k}, c)"
            )
        bad = np.flatnonzero(~np.isfinite(objectives))
        if bad.size:
            i = bad[0]
            raise EvaluationError(
                f"row {i}: non-finite objective {float(objectives[i])!r} "
                f"at position {positions[i]!r}"
            )
        fitness = penalized_fitness(objectives, violations, self.penalty)
        bad = np.flatnonzero(~np.isfinite(fitness))
        if bad.size:
            i = bad[0]
            raise EvaluationError(
                f"row {i}: non-finite fitness {float(fitness[i])!r} from "
                f"violations {violations[i]!r} at position {positions[i]!r}"
            )
        self.nfes += k
        if self.memory is not None:
            self.memory.offer(positions, fitness)
        i = int(np.argmin(fitness))
        if self.best is None or fitness[i] < self.best.fitness:
            self.best = Candidate(
                position=positions[i].copy(),
                objective=float(objectives[i]),
                violations=violations[i].copy(),
                fitness=float(fitness[i]),
            )
        return fitness


def time_fraction(iteration: int, max_iterations: int) -> float:
    """Elapsed fraction of the run."""
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    return iteration / max_iterations


def run(algorithm, problem: Problem, config: RunConfig) -> RunResult:
    """Execute one seeded optimization run.

    A generation is two arrays: ``(n, dim)`` positions and their ``(n,)``
    fitness.  The algorithm protocol is ``evals_per_iteration(n)`` (the
    evaluations one iteration costs; raises :class:`ConfigError` when the
    algorithm cannot run ``n`` members, and is called first, before anything
    is drawn), ``init_population(ctx, n, rng) -> (positions, fitness,
    state)``, ``step(positions, fitness, state, ctx, frac, rng) ->
    (positions, fitness)`` and the attribute ``inject_before_first_step``.
    ``frac`` is the elapsed fraction ``g / max_iterations`` of iteration
    ``g``; the search space is ``ctx.problem.space``.

    ``config.memory_fraction`` sizes the elite memory; ``None`` runs without
    one.  Iteration ``g``: with a memory, ``memory.inject`` overwrites the
    worst members with the stored elites before the step, when ``g > 1`` or
    the algorithm sets ``inject_before_first_step``.  The step builds the
    whole new generation and evaluates it with one ``ctx.evaluate`` call (as
    ``init_population`` does the initial one), the run's only evaluation
    path: it counts the rows, returns their fitness and feeds the elite
    memory and the best.  Then the history is recorded.

    Identical ``(seed, config, problem)`` triples give bit-identical results.
    """
    declared = algorithm.evals_per_iteration(config.population_size)
    rng = np.random.default_rng(config.seed)
    memory = None
    if config.memory_fraction is not None:
        memory = EliteMemory(
            memory_capacity(config.population_size, config.memory_fraction)
        )
    ctx = RunContext(problem, config.penalty, memory)
    positions, fitness, state = algorithm.init_population(
        ctx, config.population_size, rng
    )
    if ctx.nfes != config.population_size:
        raise AccountingError(
            f"init evaluated {ctx.nfes} candidates, expected {config.population_size}"
        )
    history = [(0, ctx.best.fitness, ctx.nfes)]
    for g in range(1, config.max_iterations + 1):
        if memory is not None and (g > 1 or algorithm.inject_before_first_step):
            positions, fitness = memory.inject(positions, fitness)
        before = ctx.nfes
        positions, fitness = algorithm.step(
            positions, fitness, state, ctx, time_fraction(g, config.max_iterations), rng
        )
        used = ctx.nfes - before
        if used != declared:
            raise AccountingError(
                f"iteration {g}: {used} evaluations used, {declared} declared"
            )
        history.append((g, ctx.best.fitness, ctx.nfes))
    return RunResult(
        best=ctx.best, history=history, nfes=ctx.nfes,
        design=snap_to_grid(ctx.best.position, problem.space),
    )


def replicate_seed(base_seed: int, replicate: int) -> int:
    """Seed of replicate ``replicate`` for a run configured with ``base_seed``."""
    return (int(base_seed) + int(replicate)) % 2**64


# ---------------------------------------------------------------------------
# Replicate statistics


@dataclass(frozen=True)
class StatsRecord:
    best: float
    mean: float
    worst: float
    std: float
    nfes_median: float
    runs: int


def replicate_stats(finals: Sequence[float], nfes: Sequence[int]) -> StatsRecord:
    """Summary of a replicate batch from each run's final best fitness and
    final evaluation count.

    Standard deviation is the sample estimate (N-1 denominator), defined as
    0.0 for a single run.
    """
    finals = np.asarray(finals, dtype=float)
    if finals.size == 0:
        raise ValueError("no results to summarize")
    n = finals.size
    std = float(np.std(finals, ddof=1)) if n > 1 else 0.0
    # the middle count, or the mean of the two middle ones: what np.median
    # gives bit for bit, without the NaN check that imports all of numpy.ma
    counts = np.sort(np.asarray(nfes, dtype=float))
    half = counts.size // 2
    median = counts[half] if counts.size % 2 else (counts[half - 1] + counts[half]) / 2
    return StatsRecord(
        best=float(finals.min()),
        mean=float(finals.mean()),
        worst=float(finals.max()),
        std=std,
        nfes_median=float(median),
        runs=int(n),
    )
