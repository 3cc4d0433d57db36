import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elitopt.core import (
    AccountingError,
    Candidate,
    ConfigError,
    EliteMemory,
    EvaluationError,
    PenaltyParams,
    Problem,
    RunConfig,
    RunContext,
    SearchSpace,
    clamp_to_bounds,
    memory_capacity,
    penalized_fitness,
    replicate_seed,
    replicate_stats,
    run,
    snap_to_grid,
)
from oracles import memory_oracle, snap_to_grid_loop, sphere_problem


def unit_space(dim=1):
    return SearchSpace(lower=np.zeros(dim), upper=np.ones(dim))


def cand(fitness, position=None):
    pos = np.atleast_1d(np.asarray(position if position is not None else fitness,
                                   dtype=float))
    return Candidate(position=pos, objective=float(fitness),
                     violations=np.empty(0), fitness=float(fitness))


# ---------------------------------------------------------------------------
# SearchSpace


class TestSearchSpace:
    def test_dim_and_width(self):
        sp = SearchSpace(lower=[0.0, -1.0], upper=[1.0, 3.0])
        assert sp.dim == 2
        assert sp.width_sum() == 5.0

    def test_sample_inside_bounds(self, rng):
        sp = SearchSpace(lower=[-2.0, 0.0], upper=[-1.0, 10.0])
        pts = sp.sample(200, rng)
        assert pts.shape == (200, 2)
        assert np.all(pts >= sp.lower) and np.all(pts <= sp.upper)

    def test_sample_formula_with_scripted_rng(self):
        from conftest import FakeRng

        sp = SearchSpace(lower=[0.0], upper=[2.0])
        pts = sp.sample(1, FakeRng(randoms=[0.5]))
        assert pts[0, 0] == 1.0

    def test_degenerate_interval_collapses(self, rng):
        sp = SearchSpace(lower=[3.0], upper=[3.0])
        assert np.all(sp.sample(5, rng) == 3.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SearchSpace(lower=[1.0], upper=[0.0])
        with pytest.raises(ConfigError):
            SearchSpace(lower=[], upper=[])
        with pytest.raises(ConfigError):
            SearchSpace(lower=[0.0], upper=[1.0], grids=[[0.5, 0.5]])
        with pytest.raises(ConfigError):
            SearchSpace(lower=[0.0], upper=[1.0], grids=[[-0.5, 0.5]])
        with pytest.raises(ConfigError):
            SearchSpace(lower=[0.0, 0.0], upper=[1.0, 1.0], grids=[None])

    @pytest.mark.parametrize("lower, upper", [
        ([np.nan], [1.0]), ([0.0], [np.nan]), ([-np.inf], [1.0]), ([0.0], [np.inf]),
    ])
    def test_non_finite_bounds_rejected(self, lower, upper):
        # NaN passes "lower > upper", and either would make sample() return NaN
        with pytest.raises(ConfigError, match="finite"):
            SearchSpace(lower=lower, upper=upper)

    def test_non_finite_grid_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            SearchSpace(lower=[0.0], upper=[1.0], grids=[[np.nan]])


class TestClamp:
    def test_above_upper(self):
        assert clamp_to_bounds(np.array([1.5]), unit_space()) == np.array([1.0])

    def test_identity_inside(self):
        assert clamp_to_bounds(np.array([0.5]), unit_space()) == np.array([0.5])

    def test_both_extremes(self):
        out = clamp_to_bounds(np.array([-3.0, 2.0]), unit_space(2))
        assert np.array_equal(out, [0.0, 1.0])

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=3))
    def test_idempotent_and_inside(self, values):
        sp = SearchSpace(lower=[-1.0, 0.0, 2.0], upper=[1.0, 0.0, 5.0])
        out = clamp_to_bounds(np.array(values), sp)
        assert np.all(out >= sp.lower) and np.all(out <= sp.upper)
        assert np.array_equal(clamp_to_bounds(out, sp), out)

    def test_rows_of_a_stack(self, rng):
        sp = SearchSpace(lower=[-1.0, 0.0, 2.0], upper=[1.0, 0.0, 5.0])
        X = rng.uniform(-10.0, 10.0, size=(7, 3))
        out = clamp_to_bounds(X, sp)
        assert np.array_equal(out, [clamp_to_bounds(x, sp) for x in X])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            clamp_to_bounds(np.zeros((2, 2, 1)), unit_space())
        with pytest.raises(ValueError):
            clamp_to_bounds(np.zeros((2, 3)), unit_space(2))


class TestSnapToGrid:
    @pytest.fixture
    def gridded(self):
        grid = np.round(1.01 + 0.01 * np.arange(400), 12)
        return SearchSpace(lower=[1.01], upper=[5.0], grids=[grid])

    def test_nearest_below(self, gridded):
        assert snap_to_grid(np.array([1.014]), gridded)[0] == pytest.approx(1.01)

    def test_tie_goes_down(self, gridded):
        assert snap_to_grid(np.array([1.015]), gridded)[0] == pytest.approx(1.01)

    def test_beyond_last_point(self, gridded):
        assert snap_to_grid(np.array([5.2]), gridded)[0] == pytest.approx(5.0)

    def test_below_first_point(self, gridded):
        assert snap_to_grid(np.array([0.0]), gridded)[0] == pytest.approx(1.01)

    def test_continuous_axis_untouched(self):
        sp = SearchSpace(lower=[0.0, 0.0], upper=[1.0, 1.0],
                         grids=[None, [0.0, 1.0]])
        out = snap_to_grid(np.array([0.37, 0.4]), sp)
        assert out[0] == 0.37 and out[1] == 0.0

    @given(st.floats(-10, 10))
    def test_idempotent_and_on_grid(self, x):
        grid = np.array([-1.0, 0.0, 0.25, 2.0])
        sp = SearchSpace(lower=[-1.0], upper=[2.0], grids=[grid])
        out = snap_to_grid(np.array([x]), sp)
        assert out[0] in grid
        assert np.array_equal(snap_to_grid(out, sp), out)

    def test_stack_matches_the_per_value_loop(self, rng):
        grids = [np.array([-1.0, 0.0, 0.25, 2.0]), None,
                 np.round(1.01 + 0.01 * np.arange(400), 12)]
        sp = SearchSpace(lower=[-1.0, 0.0, 1.01], upper=[2.0, 1.0, 5.0], grids=grids)
        X = np.column_stack([rng.uniform(-3.0, 4.0, 300), rng.random(300),
                             rng.uniform(0.0, 6.0, 300)])
        # exact grid points and exact midpoints (ties go down)
        X[:4, 0] = [-1.0, 0.125, 1.125, 2.0]
        X[4:8, 2] = [1.015, 1.01, 5.0, 4.995]
        out = snap_to_grid(X, sp)
        for x, row in zip(X, out):
            assert row.tobytes() == snap_to_grid_loop(x, sp).tobytes()


# ---------------------------------------------------------------------------
# Penalty


class TestPenalizedFitness:
    def test_feasible_identity(self):
        assert penalized_fitness(100.0, [0.0, 0.0], PenaltyParams()) == 100.0

    def test_hand_value(self):
        assert penalized_fitness(100.0, [0.5], PenaltyParams(1.0, 2.0)) == 225.0

    def test_zero_objective(self):
        assert penalized_fitness(0.0, [3.0], PenaltyParams(1.0, 1.0)) == 0.0

    def test_negative_violation_rejected(self):
        with pytest.raises(ValueError):
            penalized_fitness(1.0, [-0.1], PenaltyParams())

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            PenaltyParams(scale=-1.0)
        with pytest.raises(ConfigError):
            PenaltyParams(exponent=0.5)

    @pytest.mark.parametrize("params", [
        {"scale": np.nan}, {"scale": np.inf},
        {"exponent": np.nan}, {"exponent": np.inf},
    ])
    def test_non_finite_params_rejected(self, params):
        with pytest.raises(ConfigError, match="finite"):
            PenaltyParams(**params)

    def test_negative_objective_rejected_when_constrained(self):
        # -1 * (1 + 1)^2 = -4 would rank this infeasible design above a
        # feasible one with objective -1
        with pytest.raises(ValueError, match="negative"):
            penalized_fitness(-1.0, [1.0], PenaltyParams())
        with pytest.raises(ValueError, match="negative"):
            penalized_fitness(-1.0, [0.0], PenaltyParams())

    def test_negative_objective_allowed_when_unconstrained(self):
        assert penalized_fitness(-1.0, [], PenaltyParams()) == -1.0

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(0, 10), st.floats(1, 4))
    def test_unconstrained_fitness_is_the_objective(self, objective, scale, exponent):
        # the same bits as objective * (1 + scale * 0) ** exponent
        out = penalized_fitness(objective, [], PenaltyParams(scale, exponent))
        assert type(out) is float
        assert np.float64(out).tobytes() == np.float64(
            objective * (1.0 + scale * 0.0) ** exponent).tobytes()

    @given(st.floats(0.01, 1e3), st.lists(st.floats(0, 10), max_size=4))
    def test_never_below_objective(self, objective, violations):
        out = penalized_fitness(objective, violations, PenaltyParams())
        assert out >= objective


# ---------------------------------------------------------------------------
# Elite memory


class TestEliteMemory:
    def test_insert_into_empty(self):
        mem = EliteMemory(2)
        assert mem.offer(cand(5.0))
        assert [e.fitness for e in mem.entries] == [5.0]

    def test_evicts_worst_when_better(self):
        mem = EliteMemory(2)
        mem.offer(cand(3.0))
        mem.offer(cand(5.0))
        assert mem.offer(cand(4.0))
        assert [e.fitness for e in mem.entries] == [3.0, 4.0]

    def test_rejects_outside_top(self):
        mem = EliteMemory(2)
        mem.offer(cand(3.0))
        mem.offer(cand(5.0))
        assert not mem.offer(cand(7.0))
        assert [e.fitness for e in mem.entries] == [3.0, 5.0]

    def test_equal_fitness_keeps_incumbent(self):
        mem = EliteMemory(1)
        mem.offer(cand(5.0, position=[1.0]))
        assert not mem.offer(cand(5.0, position=[2.0]))
        assert mem.best.position[0] == 1.0

    def test_duplicate_position_rejected(self):
        mem = EliteMemory(3)
        mem.offer(cand(5.0, position=[1.0, 2.0]))
        assert not mem.offer(cand(5.0, position=[1.0, 2.0]))
        assert len(mem) == 1

    def test_entries_are_copies(self):
        mem = EliteMemory(1)
        c = cand(1.0, position=[0.5])
        mem.offer(c)
        c.position[0] = 99.0
        assert mem.best.position[0] == 0.5

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            EliteMemory(0)

    def test_signed_zeros_are_one_position(self):
        mem = EliteMemory(3)
        assert mem.offer(cand(2.0, position=[0.0, -0.0]))
        assert not mem.offer(cand(1.0, position=[-0.0, 0.0]))
        assert [e.fitness for e in mem.entries] == [2.0]

    def test_evicted_position_admitted_again(self):
        mem = EliteMemory(2)
        mem.offer(cand(3.0, position=[3.0]))
        mem.offer(cand(5.0, position=[5.0]))
        assert mem.offer(cand(4.0, position=[4.0]))
        # [5.0] was evicted, so its position no longer counts as stored
        assert mem.offer(cand(1.0, position=[5.0]))
        assert [(e.fitness, e.position[0]) for e in mem.entries] == [(1.0, 5.0), (3.0, 3.0)]
        assert not mem.offer(cand(0.5, position=[3.0]))

    def test_full_buffer_rejects_no_better_candidate_unchanged(self):
        mem = EliteMemory(2)
        mem.offer(cand(3.0, position=[3.0]))
        mem.offer(cand(5.0, position=[5.0]))
        before = [(e.fitness, e.position.tobytes()) for e in mem.entries]
        # a duplicate, an equal and a worse fitness: all rejected, nothing moves
        for fitness, position in ((5.0, [3.0]), (5.0, [6.0]), (9.0, [7.0])):
            assert mem.offer(cand(fitness, position=position)) is False
        assert [(e.fitness, e.position.tobytes()) for e in mem.entries] == before
        assert mem.offer(cand(4.0, position=[6.0]))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, data):
        capacity = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 60))
        raw = data.draw(
            st.lists(st.integers(0, 20), min_size=n, max_size=n)
        )
        stream = []
        for k, f in enumerate(raw):
            # occasional exact repeats of an earlier candidate
            if stream and f % 5 == 0:
                stream.append(stream[k % len(stream)])
            else:
                stream.append(cand(float(f), position=[float(f), float(k)]))
        mem = EliteMemory(capacity)
        for c in stream:
            mem.offer(c)
        expected = memory_oracle(stream, capacity)
        got = mem.entries
        assert [e.fitness for e in got] == [e.fitness for e in expected]
        for g, e in zip(got, expected):
            assert np.array_equal(g.position, e.position)


class TestMemoryInject:
    def test_replaces_single_worst(self):
        mem = EliteMemory(1)
        mem.offer(cand(2.0))
        pop = [cand(1.0), cand(9.0), cand(10.0)]
        out = mem.inject(pop)
        assert [c.fitness for c in out] == [1.0, 9.0, 2.0]

    def test_empty_memory_is_noop(self):
        mem = EliteMemory(2)
        pop = [cand(1.0), cand(2.0)]
        out = mem.inject(pop)
        assert [c.fitness for c in out] == [1.0, 2.0]

    def test_ties_break_by_index(self):
        mem = EliteMemory(2)
        mem.offer(cand(1.0, position=[1.0]))
        mem.offer(cand(2.0, position=[2.0]))
        pop = [cand(5.0, position=[10.0]), cand(5.0, position=[11.0]),
               cand(5.0, position=[12.0])]
        out = mem.inject(pop)
        assert sorted(c.fitness for c in out) == [1.0, 2.0, 5.0]
        # earliest equal member survives; later ones give way
        assert out[0].position[0] == 10.0

    def test_worst_slot_gets_best_elite(self):
        mem = EliteMemory(2)
        mem.offer(cand(1.0))
        mem.offer(cand(2.0))
        pop = [cand(8.0), cand(9.0), cand(7.0)]
        out = mem.inject(pop)
        assert [c.fitness for c in out] == [2.0, 1.0, 7.0]

    def test_overfull_memory_rejected(self):
        mem = EliteMemory(3)
        for f in (1.0, 2.0, 3.0):
            mem.offer(cand(f))
        with pytest.raises(ValueError):
            mem.inject([cand(5.0), cand(6.0)])

    def test_full_replacement_by_worse_entries_rejected(self):
        # a memory never fed from this population could otherwise evict the
        # population's best; the operation refuses instead
        mem = EliteMemory(2)
        mem.offer(cand(5.0, position=[5.0]))
        mem.offer(cand(6.0, position=[6.0]))
        with pytest.raises(ValueError, match="worse than the population best"):
            mem.inject([cand(0.0), cand(0.0)])

    @given(st.lists(st.floats(0, 100), min_size=4, max_size=16),
           st.integers(1, 3))
    def test_size_kept_and_best_never_worse(self, stream_fits, capacity):
        # mirror the run loop: every population member passed through the
        # memory, the population is the latest window of the stream
        mem = EliteMemory(capacity)
        stream = [cand(f, position=[f, float(k)]) for k, f in enumerate(stream_fits)]
        for c in stream:
            mem.offer(c)
        pop = stream[-4:]
        out = mem.inject(pop)
        assert len(out) == len(pop)
        assert min(c.fitness for c in out) <= min(c.fitness for c in pop)


class TestMemoryCapacity:
    def test_default_fraction(self):
        assert memory_capacity(50, 0.2) == 10

    def test_floor_and_minimum(self):
        assert memory_capacity(7, 0.2) == 1
        assert memory_capacity(3, 0.2) == 1
        assert memory_capacity(10, 0.25) == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            memory_capacity(0, 0.2)
        with pytest.raises(ConfigError):
            memory_capacity(10, 0.0)
        with pytest.raises(ConfigError):
            memory_capacity(10, 1.5)

    @given(st.integers(1, 500), st.floats(0.01, 1.0))
    def test_always_in_range(self, np_, fraction):
        m = memory_capacity(np_, fraction)
        assert 1 <= m <= max(1, np_)


# ---------------------------------------------------------------------------
# Run loop


class RecordingMemory(EliteMemory):
    def __init__(self, capacity):
        super().__init__(capacity)
        self.offered = []

    def offer(self, candidate):
        self.offered.append(float(candidate.position[0]))
        return super().offer(candidate)


class TestEvaluateBatch:
    ROWS = np.array([[0.0], [1.0], [2.0], [3.0]])

    def scripted_problem(self, objectives, violations=None):
        """Row ``[i]`` has objective ``objectives[i]`` and violation row
        ``violations[i]`` (none by default); ``calls`` records what each
        evaluation call was handed."""
        calls = []

        def evaluate(X):
            calls.append(np.array(X))
            rows = X[:, 0].astype(int)
            if violations is None:
                return np.array(objectives)[rows], np.empty((len(X), 0))
            return np.array(objectives)[rows], np.array(violations)[rows]

        problem = Problem(name="scripted", space=SearchSpace(lower=[0.0], upper=[3.0]),
                          evaluate=evaluate)
        return problem, calls

    def test_problem_holds_name_space_and_evaluate(self):
        assert [f.name for f in dataclasses.fields(Problem)] == [
            "name", "space", "evaluate"]

    def test_rows_funnel_in_row_order(self):
        problem, calls = self.scripted_problem([3.0, 1.0, 1.0, 2.0])
        memory = RecordingMemory(4)
        ctx = RunContext(problem, PenaltyParams(), memory)
        out = ctx.evaluate_batch(self.ROWS)
        assert len(calls) == 1 and np.array_equal(calls[0], self.ROWS)
        assert [c.fitness for c in out] == [3.0, 1.0, 1.0, 2.0]
        assert memory.offered == [0.0, 1.0, 2.0, 3.0]
        assert ctx.nfes == 4
        # the earlier of two equal rows stays the best
        assert ctx.best.position[0] == 1.0

    def test_violation_rows_reach_their_candidates(self):
        violations = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.25], [1.0, 1.0]]
        problem, _ = self.scripted_problem([1.0, 1.0, 2.0, 3.0], violations)
        out = RunContext(problem, PenaltyParams()).evaluate_batch(self.ROWS)
        assert [c.violations.tolist() for c in out] == violations
        assert [type(c.objective) for c in out] == [float] * 4
        assert [c.fitness for c in out] == [
            penalized_fitness(o, v, PenaltyParams())
            for o, v in zip([1.0, 1.0, 2.0, 3.0], violations)]

    def test_first_non_finite_row_raises_after_the_rows_before_it(self):
        problem, _ = self.scripted_problem([3.0, 1.0, float("inf"), 0.5])
        memory = RecordingMemory(4)
        ctx = RunContext(problem, PenaltyParams(), memory)
        with pytest.raises(EvaluationError, match="non-finite objective"):
            ctx.evaluate_batch(self.ROWS)
        assert ctx.nfes == 2
        assert memory.offered == [0.0, 1.0]
        assert ctx.best.fitness == 1.0

    def test_evaluate_is_the_batch_of_one(self):
        problem, calls = self.scripted_problem([3.0, 1.0, 1.0, 2.0])
        ctx = RunContext(problem, PenaltyParams())
        assert ctx.evaluate(np.array([3.0])).fitness == 2.0
        assert [c.shape for c in calls] == [(1, 1)]

    def test_result_shapes_checked(self):
        space = SearchSpace(lower=[0.0], upper=[1.0])
        for objectives, violations in [
            (np.ones(1), np.empty((2, 0))),        # one objective for two rows
            (np.ones((2, 1)), np.empty((2, 0))),   # objectives as a column
            (np.ones(2), np.zeros(2)),             # violations as a 1-d array
            (np.ones(2), np.zeros((1, 3))),        # one violation row for two rows
        ]:
            bad = Problem(name="bad", space=space,
                          evaluate=lambda X: (objectives, violations))
            ctx = RunContext(bad, PenaltyParams())
            with pytest.raises(EvaluationError, match=r"not \(2,\) and \(2, c\)"):
                ctx.evaluate_batch(np.zeros((2, 1)))
            assert ctx.nfes == 0


class LyingAlgorithm:
    """Claims one evaluation per iteration but performs two."""

    inject_before_step = False

    def evals_per_iteration(self, population_size):
        return 1

    def init_population(self, ctx, space, n, rng):
        return [ctx.evaluate(p) for p in space.sample(n, rng)], None

    def step(self, population, state, ctx, frac, rng):
        ctx.evaluate(population[0].position)
        ctx.evaluate(population[1].position)
        return population


class RecordingAlgorithm:
    """Re-evaluates the population it is handed and records it.

    Initialization evaluates the optimum of the sphere first, so the memory
    holds an entry that beats everyone, but keeps it out of the population
    (a second copy of the last sample takes its slot).
    """

    def __init__(self, inject_before_step):
        self.inject_before_step = inject_before_step
        self.handed = []

    def evals_per_iteration(self, population_size):
        return population_size

    def init_population(self, ctx, space, n, rng):
        ctx.evaluate(np.zeros(space.dim))
        population = [ctx.evaluate(p) for p in space.sample(n - 1, rng)]
        return population + [population[-1].clone()], None

    def step(self, population, state, ctx, frac, rng):
        self.handed.append(list(population))
        return [ctx.evaluate(c.position) for c in population]


def holds_origin(population):
    return any(not np.any(c.position) and c.fitness == 0.0 for c in population)


class TestRunLoop:
    def test_history_shape_and_nfes(self):
        from elitopt.algorithms import get_algorithm

        config = RunConfig(population_size=10, max_iterations=50, seed=3)
        result = run(get_algorithm("bbo"), sphere_problem(), config)
        assert result.nfes == 10 * 51
        assert len(result.history) == 51
        assert result.history[0][0] == 0 and result.history[-1][0] == 50
        bests = [h[1] for h in result.history]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
        nfes = [h[2] for h in result.history]
        assert nfes == [10 * (1 + g) for g in range(51)]

    def test_same_seed_same_history(self):
        from elitopt.algorithms import get_algorithm

        config = RunConfig(population_size=10, max_iterations=20, seed=99)
        h1 = run(get_algorithm("kha"), sphere_problem(), config).history
        h2 = run(get_algorithm("kha"), sphere_problem(), config).history
        assert h1 == h2

    def test_accounting_error_on_undeclared_evals(self):
        config = RunConfig(population_size=4, max_iterations=3, seed=0,
                           memory_enabled=False)
        with pytest.raises(AccountingError):
            run(LyingAlgorithm(), sphere_problem(), config)

    def test_non_finite_objective_rejected(self):
        space = SearchSpace(lower=[0.0], upper=[1.0])
        bad = Problem(name="bad", space=space, evaluate=lambda X: (
            np.full(len(X), np.nan), np.empty((len(X), 0))))
        from elitopt.algorithms import get_algorithm

        with pytest.raises(Exception, match="non-finite"):
            run(get_algorithm("bbo"), bad,
                RunConfig(population_size=4, max_iterations=1, seed=0))

    def test_nan_violation_rejected(self):
        # penalized_fitness(1, [nan]) is nan, which would corrupt sorting
        # and the elite memory
        space = SearchSpace(lower=[0.0], upper=[1.0])
        bad = Problem(name="bad", space=space, evaluate=lambda X: (
            np.ones(len(X)), np.full((len(X), 1), np.nan)))
        memory = EliteMemory(2)
        ctx = RunContext(bad, PenaltyParams(), memory)
        with pytest.raises(EvaluationError, match="non-finite fitness"):
            ctx.evaluate(np.array([0.5]))
        assert ctx.nfes == 0
        assert len(memory) == 0 and ctx.best is None

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(population_size=0, max_iterations=1)
        with pytest.raises(ConfigError):
            RunConfig(population_size=10, max_iterations=0)
        with pytest.raises(ConfigError):
            RunConfig(population_size=10, max_iterations=1, seed=-1)
        with pytest.raises(ConfigError):
            RunConfig(population_size=10, max_iterations=1, memory_fraction=0.0)

    def test_inject_before_step(self):
        algo = RecordingAlgorithm(inject_before_step=True)
        run(algo, sphere_problem(), RunConfig(population_size=10,
                                              max_iterations=2, seed=0))
        assert holds_origin(algo.handed[0])

    def test_inject_after_step(self):
        algo = RecordingAlgorithm(inject_before_step=False)
        run(algo, sphere_problem(), RunConfig(population_size=10,
                                              max_iterations=2, seed=0))
        assert not holds_origin(algo.handed[0])
        assert holds_origin(algo.handed[1])

    def test_memory_off_never_injects(self):
        algo = RecordingAlgorithm(inject_before_step=True)
        run(algo, sphere_problem(), RunConfig(population_size=10, max_iterations=2,
                                              seed=0, memory_enabled=False))
        assert not any(holds_origin(p) for p in algo.handed)

    def test_algorithms_declare_injection_timing(self):
        from elitopt.algorithms import Bbo, Kha, Teo

        assert Teo.inject_before_step is True
        assert Bbo.inject_before_step is False
        assert Kha.inject_before_step is False


class TestReplicateSeed:
    def test_offsets(self):
        assert replicate_seed(100, 0) == 100
        assert replicate_seed(100, 7) == 107

    def test_wraps_at_64_bits(self):
        assert replicate_seed(2**64 - 1, 1) == 0


class TestReplicateStats:
    def test_single_run(self):
        s = replicate_stats([21.91], [5])
        assert s.best == s.mean == s.worst == 21.91
        assert s.std == 0.0 and s.runs == 1 and s.nfes_median == 5.0

    def test_two_runs_sample_std(self):
        s = replicate_stats([1.0, 3.0], [5, 7])
        assert (s.best, s.mean, s.worst) == (1.0, 2.0, 3.0)
        assert s.std == pytest.approx(np.sqrt(2.0))
        assert s.nfes_median == 6.0

    def test_constant_sample(self):
        assert replicate_stats([2.0, 2.0, 2.0], [5, 5, 5]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            replicate_stats([], [])
