import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elitopt.algorithms import Bbo, Kha, Teo
from elitopt.core import (
    AccountingError,
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
    ranked,
    replicate_seed,
    replicate_stats,
    run,
    snap_to_grid,
)
from elitopt.harness import ExperimentPlan
from elitopt.problems import get_problem
from oracles import (
    funnel_loop,
    inject_loop,
    memory_oracle,
    penalized_fitness_row,
    snap_to_grid_loop,
    sphere_problem,
)


def unit_space(dim=1):
    return SearchSpace(lower=np.zeros(dim), upper=np.ones(dim))


def row(fitness, position=None):
    """One evaluated row as a ``(1, dim)`` batch and its ``(1,)`` fitness; by
    default the one-variable position is the fitness."""
    pos = np.atleast_1d(np.asarray(position if position is not None else fitness,
                                   dtype=float))
    return pos[None], np.array([float(fitness)])


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

    def test_batch_of_rows(self):
        out = penalized_fitness(np.array([100.0, 100.0, 0.0]),
                                np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 1.0]]),
                                PenaltyParams(1.0, 2.0))
        assert out.tolist() == [100.0, 225.0, 0.0]

    def test_batch_without_constraints_keeps_signed_zeros(self):
        objectives = np.array([-0.0, 0.0, -2.5])
        out = penalized_fitness(objectives, np.empty((3, 0)), PenaltyParams())
        assert out.tobytes() == objectives.tobytes()
        assert not np.shares_memory(out, objectives)

    def test_batch_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            penalized_fitness(np.ones(2), np.array([[0.0], [-0.1]]), PenaltyParams())
        with pytest.raises(ValueError, match="negative"):
            penalized_fitness(np.array([1.0, -1.0]), np.zeros((2, 1)), PenaltyParams())

    def test_batch_shapes_checked(self):
        with pytest.raises(ValueError, match=r"not \(k,\) and \(k, c\)"):
            penalized_fitness(np.ones(2), np.zeros((3, 1)), PenaltyParams())

    @given(st.integers(1, 62), st.integers(1, 12), st.sampled_from([2.0, 1.5]),
           st.floats(0, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_batch_is_the_per_row_call_bit_for_bit(self, c, k, exponent, scale, seed):
        rng = np.random.default_rng(seed)
        params = PenaltyParams(scale, exponent)
        objectives = 10.0 ** rng.uniform(-3, 6, size=k)
        violations = 10.0 ** rng.uniform(-12, 3, size=(k, c))
        violations[rng.random((k, c)) < 0.3] = 0.0
        out = penalized_fitness(objectives, violations, params)
        for i in range(k):
            one = penalized_fitness(float(objectives[i]), violations[i], params)
            row = penalized_fitness_row(float(objectives[i]), violations[i], params)
            assert type(one) is float
            assert np.float64(one).tobytes() == out[i].tobytes()
            assert np.float64(row).tobytes() == out[i].tobytes()


# ---------------------------------------------------------------------------
# Elite memory


def stored(mem):
    """The buffer as ``(fitness, first coordinate)`` pairs, best first."""
    return list(zip(mem.fitness.tolist(), mem.positions[:, 0].tolist()))


def same_buffer(mem, positions, fitness):
    """The memory holds exactly these rows, best first, bit for bit."""
    return (mem.fitness.tobytes() == np.asarray(fitness, dtype=float).tobytes()
            and mem.positions.tobytes() == np.asarray(positions, dtype=float).tobytes())


class TestEliteMemory:
    def test_insert_into_empty(self):
        mem = EliteMemory(2)
        assert mem.offer(*row(5.0)) == 1
        assert mem.fitness.tolist() == [5.0]
        assert mem.positions.shape == (1, 1)

    def test_evicts_worst_when_better(self):
        mem = EliteMemory(2)
        mem.offer(*row(3.0))
        mem.offer(*row(5.0))
        assert mem.offer(*row(4.0)) == 1
        assert mem.fitness.tolist() == [3.0, 4.0]

    def test_rejects_outside_top(self):
        mem = EliteMemory(2)
        mem.offer(*row(3.0))
        mem.offer(*row(5.0))
        assert mem.offer(*row(7.0)) == 0
        assert mem.fitness.tolist() == [3.0, 5.0]

    def test_equal_fitness_keeps_incumbent(self):
        mem = EliteMemory(1)
        mem.offer(*row(5.0, position=[1.0]))
        assert mem.offer(*row(5.0, position=[2.0])) == 0
        assert stored(mem) == [(5.0, 1.0)]

    def test_duplicate_position_rejected(self):
        mem = EliteMemory(3)
        mem.offer(*row(5.0, position=[1.0, 2.0]))
        assert mem.offer(*row(5.0, position=[1.0, 2.0])) == 0
        assert len(mem) == 1

    def test_entries_are_copies(self):
        mem = EliteMemory(1)
        positions, fitness = row(1.0, position=[0.5])
        mem.offer(positions, fitness)
        positions[0, 0] = 99.0
        fitness[0] = 99.0
        assert stored(mem) == [(1.0, 0.5)]

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            EliteMemory(0)

    def test_signed_zeros_are_one_position(self):
        mem = EliteMemory(3)
        assert mem.offer(*row(2.0, position=[0.0, -0.0])) == 1
        assert mem.offer(*row(1.0, position=[-0.0, 0.0])) == 0
        assert mem.fitness.tolist() == [2.0]

    def test_evicted_position_admitted_again(self):
        mem = EliteMemory(2)
        mem.offer(*row(3.0, position=[3.0]))
        mem.offer(*row(5.0, position=[5.0]))
        assert mem.offer(*row(4.0, position=[4.0])) == 1
        # [5.0] was evicted, so its position no longer counts as stored
        assert mem.offer(*row(1.0, position=[5.0])) == 1
        assert stored(mem) == [(1.0, 5.0), (3.0, 3.0)]
        assert mem.offer(*row(0.5, position=[3.0])) == 0

    def test_full_buffer_rejects_no_better_candidate_unchanged(self):
        mem = EliteMemory(2)
        mem.offer(*row(3.0, position=[3.0]))
        mem.offer(*row(5.0, position=[5.0]))
        before = mem.positions.tobytes(), mem.fitness.tobytes()
        # a duplicate, an equal and a worse fitness: all rejected, nothing moves
        for fitness, position in ((5.0, [3.0]), (5.0, [6.0]), (9.0, [7.0])):
            assert mem.offer(*row(fitness, position=position)) == 0
        assert (mem.positions.tobytes(), mem.fitness.tobytes()) == before
        assert mem.offer(*row(4.0, position=[6.0])) == 1

    def test_batch_counts_the_rows_it_holds(self):
        mem = EliteMemory(3)
        mem.offer(*row(2.0, position=[2.0]))
        # a stored duplicate, a repeat inside the batch, a tie kept after the
        # incumbent, and a row pushed out by the better rows of its own batch
        positions = [[2.0], [1.0], [1.0], [9.0], [0.5], [2.5]]
        assert mem.offer(positions, [2.0, 1.0, 1.0, 9.0, 0.5, 2.5]) == 2
        assert stored(mem) == [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)]
        assert mem.offer(np.empty((0, 1)), np.empty(0)) == 0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, data):
        capacity = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 60))
        raw = data.draw(
            st.lists(st.integers(0, 20), min_size=n, max_size=n)
        )
        positions, fitness = [], []
        for k, f in enumerate(raw):
            # occasional exact repeats of an earlier row
            if positions and f % 5 == 0:
                positions.append(positions[k % len(positions)])
                fitness.append(fitness[k % len(fitness)])
            else:
                positions.append([float(f), float(k)])
                fitness.append(float(f))
        mem = EliteMemory(capacity)
        for position, value in zip(positions, fitness):
            mem.offer(*row(value, position=position))
        assert same_buffer(mem, *memory_oracle(positions, fitness, capacity))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_batches_match_rows_and_oracle(self, data):
        # a pool with ties, signed zeros and repeats; a position's fitness is
        # fixed by its value, so -0.0 and +0.0 share it, as evaluation would
        dim = data.draw(st.integers(1, 3))
        coords = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
        pool = data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                                  min_size=1, max_size=12))
        fitness_of = {}
        for p in pool:
            key = tuple(x + 0.0 for x in p)
            if key not in fitness_of:
                fitness_of[key] = data.draw(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 3.0]))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
        positions = np.array([pool[i] for i in picks], dtype=float).reshape(-1, dim)
        fitness = np.array([fitness_of[tuple(x + 0.0 for x in p)] for p in positions])
        capacity = data.draw(st.integers(1, 8))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(picks)), max_size=6)))
        batched, one_by_one = EliteMemory(capacity), EliteMemory(capacity)
        for lo, hi in zip([0] + cuts, cuts + [len(picks)]):
            batched.offer(positions[lo:hi], fitness[lo:hi])
        for i in range(len(picks)):
            one_by_one.offer(positions[i:i + 1], fitness[i:i + 1])
        assert same_buffer(batched, one_by_one.positions, one_by_one.fitness)
        assert same_buffer(batched, *memory_oracle(positions, fitness, capacity))


def pop_arrays(fitness, positions=None):
    """A population as ``(positions, fitness)`` arrays; by default each
    member's one-variable position is its fitness, as with :func:`row`."""
    fitness = np.asarray(fitness, dtype=float)
    if positions is None:
        positions = fitness[:, None]
    return np.array(positions, dtype=float), fitness.copy()


class TestMemoryInject:
    def test_replaces_single_worst(self):
        mem = EliteMemory(1)
        mem.offer(*row(2.0))
        _, fitness = mem.inject(*pop_arrays([1.0, 9.0, 10.0]))
        assert fitness.tolist() == [1.0, 9.0, 2.0]

    def test_empty_memory_is_noop(self):
        mem = EliteMemory(2)
        positions, fitness = mem.inject(*pop_arrays([1.0, 2.0]))
        assert fitness.tolist() == [1.0, 2.0]
        assert positions.tolist() == [[1.0], [2.0]]

    def test_ties_break_by_index(self):
        mem = EliteMemory(2)
        mem.offer(*row(1.0, position=[1.0]))
        mem.offer(*row(2.0, position=[2.0]))
        positions, fitness = mem.inject(
            *pop_arrays([5.0, 5.0, 5.0], positions=[[10.0], [11.0], [12.0]]))
        assert sorted(fitness.tolist()) == [1.0, 2.0, 5.0]
        # earliest equal member survives; later ones give way
        assert positions[0, 0] == 10.0

    def test_worst_slot_gets_best_elite(self):
        mem = EliteMemory(2)
        mem.offer(*row(1.0))
        mem.offer(*row(2.0))
        positions, fitness = mem.inject(*pop_arrays([8.0, 9.0, 7.0]))
        assert fitness.tolist() == [2.0, 1.0, 7.0]
        assert positions[:, 0].tolist() == [2.0, 1.0, 7.0]

    def test_overfull_memory_rejected(self):
        mem = EliteMemory(3)
        for f in (1.0, 2.0, 3.0):
            mem.offer(*row(f))
        with pytest.raises(ValueError):
            mem.inject(*pop_arrays([5.0, 6.0]))

    def test_full_replacement_by_worse_entries_rejected(self):
        # a memory never fed from this population could otherwise evict the
        # population's best; the operation refuses instead
        mem = EliteMemory(2)
        mem.offer(*row(5.0, position=[5.0]))
        mem.offer(*row(6.0, position=[6.0]))
        with pytest.raises(ValueError, match="worse than the population best"):
            mem.inject(*pop_arrays([0.0, 0.0]))

    @given(st.lists(st.floats(0, 100), min_size=4, max_size=16),
           st.integers(1, 3))
    def test_size_kept_and_best_never_worse(self, stream_fits, capacity):
        # mirror the run loop: every population member passed through the
        # memory, the population is the latest window of the stream
        mem = EliteMemory(capacity)
        stream = [row(f, position=[f, float(k)]) for k, f in enumerate(stream_fits)]
        for positions, fitness in stream:
            mem.offer(positions, fitness)
        window = np.concatenate([p for p, _ in stream[-4:]])
        window_fitness = np.concatenate([f for _, f in stream[-4:]])
        positions, fitness = mem.inject(window, window_fitness)
        assert positions.shape == (4, 2) and fitness.shape == (4,)
        assert fitness.min() <= window_fitness.min()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_sorted_index_reference(self, data):
        # coarse fitness values give ties inside the population, inside the
        # memory and between the two
        n = data.draw(st.integers(1, 12))
        capacity = data.draw(st.integers(1, n))
        fits = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        offers = data.draw(st.lists(st.integers(0, 6), min_size=capacity, max_size=20))
        mem = EliteMemory(capacity)
        for k, f in enumerate(offers):
            mem.offer(*row(float(f), position=[float(f), -1.0 - k]))
        positions, fitness = pop_arrays(
            fits, positions=[[float(f), float(i)] for i, f in enumerate(fits)])
        if len(mem) == n and mem.fitness[0] > fitness.min():
            return  # refused, see test_full_replacement_by_worse_entries_rejected
        got = mem.inject(positions, fitness)
        expect = inject_loop(mem.positions, mem.fitness.tolist(), positions, fitness)
        for g, e in zip(got, expect):
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()

    def test_input_arrays_never_written(self):
        mem = EliteMemory(2)
        mem.offer(*row(1.0, position=[1.0]))
        mem.offer(*row(2.0, position=[2.0]))
        positions, fitness = pop_arrays([8.0, 9.0, 7.0])
        before = positions.copy(), fitness.copy()
        out_positions, out_fitness = mem.inject(positions, fitness)
        assert positions.tobytes() == before[0].tobytes()
        assert fitness.tobytes() == before[1].tobytes()
        assert not np.shares_memory(out_positions, positions)
        assert not np.shares_memory(out_fitness, fitness)
        assert out_fitness.tolist() == [2.0, 1.0, 7.0]


class TestRanked:
    def test_stable_on_ties(self):
        positions = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        fitness = np.array([2.0, 1.0, 2.0, 1.0, 0.5])
        out_positions, out_fitness = ranked(positions, fitness)
        assert out_fitness.tolist() == [0.5, 1.0, 1.0, 2.0, 2.0]
        assert out_positions[:, 0].tolist() == [4.0, 1.0, 3.0, 0.0, 2.0]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    def test_is_the_sorted_index_order(self, fits):
        fitness = np.array(fits, dtype=float)
        order, out_fitness = ranked(np.arange(len(fits)), fitness)
        assert order.tolist() == sorted(range(len(fits)), key=lambda i: (fits[i], i))
        assert out_fitness.tolist() == sorted(fits)


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
# Field types of the config dataclasses


# each config dataclass with the least arguments it needs, and its scalar
# fields by declared type
CONFIGS = {
    PenaltyParams: ({}, {"scale": float, "exponent": float}),
    RunConfig: (
        dict(population_size=10, max_iterations=1),
        {"population_size": int, "max_iterations": int, "memory_fraction": float,
         "seed": int},
    ),
    Bbo: (
        {},
        {"max_immigration": float, "max_emigration": float, "mutation_max": float,
         "elite_keep": int},
    ),
    Kha: (
        {},
        {name: float for name in ("induced_max", "foraging_speed", "diffusion_max",
                                  "inertia_induced", "inertia_foraging",
                                  "time_factor", "epsilon")}
        | {"crossover": bool, "mutation": bool, "food_coeff_on_best": bool},
    ),
    Teo: ({}, {"c1": int, "c2": int, "jump_probability": float}),
    ExperimentPlan: (
        dict(algorithms=("bbo",), problems=("sphere",), memory_modes=(True,),
             replicates=1, population_size=10, root_seed=0, max_iterations=1),
        {"replicates": int, "population_size": int, "root_seed": int,
         "budget": int, "max_iterations": int, "memory_fraction": float, "dim": int},
    ),
}
WRONG = {float: [True, "1", None], int: [True, 1.5, "1", None], bool: [1, "yes", None]}
OPTIONAL = {(ExperimentPlan, "budget"), (ExperimentPlan, "max_iterations"),
            (RunConfig, "memory_fraction")}
SCALAR_FIELDS = [(cls, name, kind) for cls, (_, kinds) in CONFIGS.items()
                 for name, kind in kinds.items()]


class TestFieldTypes:
    def test_every_scalar_field_listed(self):
        for cls, (_, kinds) in CONFIGS.items():
            scalar = {f.name for f in dataclasses.fields(cls)
                      if f.type.split(" | ")[0] in ("bool", "int", "float")}
            assert set(kinds) == scalar, cls.__name__

    @pytest.mark.parametrize(
        "cls, name, value",
        [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
         for cls, name, kind in SCALAR_FIELDS for value in WRONG[kind]
         if not (value is None and (cls, name) in OPTIONAL)],
    )
    def test_wrong_type_rejected_naming_the_field(self, cls, name, value):
        # a bool for a number, a float for an int, a string, an int for a bool
        base, _ = CONFIGS[cls]
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            cls(**{**base, name: value})

    @pytest.mark.parametrize(
        "cls, name", [(cls, name) for cls, name, kind in SCALAR_FIELDS if kind is float]
    )
    def test_integral_value_stored_as_float(self, cls, name):
        base, _ = CONFIGS[cls]
        value = getattr(cls(**{**base, name: 1}), name)
        assert type(value) is float and value == 1.0

    @pytest.mark.parametrize(
        "cls, name", [(cls, name) for cls, name, kind in SCALAR_FIELDS if kind is float]
    )
    def test_int_too_large_for_a_float_rejected_naming_the_field(self, cls, name):
        base, _ = CONFIGS[cls]
        with pytest.raises(ConfigError, match=f"^{name} must be float"):
            cls(**{**base, name: 10**400})

    def test_numpy_scalars_stored_as_python_types(self):
        config = RunConfig(population_size=np.int64(10), max_iterations=1,
                           memory_fraction=np.float64(0.5))
        assert type(config.population_size) is int and config.population_size == 10
        assert type(config.memory_fraction) is float


# ---------------------------------------------------------------------------
# Run loop


class RecordingMemory(EliteMemory):
    """Keeps a copy of every ``(positions, fitness)`` batch it is offered."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.offers = []

    def offer(self, positions, fitness):
        self.offers.append((np.array(positions), np.array(fitness)))
        return super().offer(positions, fitness)


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
        out = ctx.evaluate(self.ROWS)
        assert len(calls) == 1 and np.array_equal(calls[0], self.ROWS)
        assert out.tolist() == [3.0, 1.0, 1.0, 2.0]
        [(positions, fitness)] = memory.offers
        assert np.array_equal(positions, self.ROWS)
        assert fitness.tolist() == [3.0, 1.0, 1.0, 2.0]
        assert ctx.nfes == 4
        # the earlier of two equal rows stays the best
        assert ctx.best.position[0] == 1.0

    def test_violations_fold_into_the_offered_fitness(self):
        violations = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.25], [1.0, 1.0]]
        problem, _ = self.scripted_problem([1.0, 1.0, 2.0, 3.0], violations)
        memory = RecordingMemory(4)
        ctx = RunContext(problem, PenaltyParams(), memory)
        out = ctx.evaluate(self.ROWS)
        expected = [penalized_fitness(o, v, PenaltyParams())
                    for o, v in zip([1.0, 1.0, 2.0, 3.0], violations)]
        assert out.tolist() == expected
        assert memory.offers[0][1].tolist() == expected
        # the best keeps its own objective and violation row
        assert type(ctx.best.objective) is float and ctx.best.objective == 1.0
        assert ctx.best.violations.tolist() == [0.0, 0.0]

    def test_full_memory_keeps_the_best_of_the_batch(self):
        problem, _ = self.scripted_problem([3.0, 1.0, 2.0, 2.5])
        memory = RecordingMemory(2)
        ctx = RunContext(problem, PenaltyParams(), memory)
        ctx.evaluate(self.ROWS[[0, 3]])  # fills the buffer: worst 3.0
        ctx.evaluate(self.ROWS[[1, 0, 2, 3]])
        # the whole batch is offered once; the stored rows fall out of the top 2
        assert len(memory.offers) == 2 and len(memory.offers[1][1]) == 4
        assert stored(memory) == [(1.0, 1.0), (2.0, 2.0)]

    @pytest.mark.parametrize("objectives, violations, message", [
        ([3.0, 1.0, float("inf"), float("nan")], None, "row 2: non-finite objective"),
        ([3.0, 1.0, 1.0, 0.5], [[0.0], [0.0], [np.nan], [np.nan]],
         "row 2: non-finite fitness"),
    ], ids=["objective", "fitness"])
    def test_unusable_row_raises_before_any_row_counts(self, objectives, violations,
                                                       message):
        problem, _ = self.scripted_problem(objectives, violations)
        memory = RecordingMemory(4)
        ctx = RunContext(problem, PenaltyParams(), memory)
        ctx.evaluate(self.ROWS[:1])
        with pytest.raises(EvaluationError, match=message) as raised:
            ctx.evaluate(self.ROWS)
        assert "position array([2.])" in str(raised.value)
        assert ctx.nfes == 1
        assert len(memory.offers) == 1 and len(memory) == 1
        assert ctx.best.fitness == 3.0

    def test_empty_batch_rejected(self):
        problem, calls = self.scripted_problem([3.0])
        with pytest.raises(ValueError, match="k >= 1"):
            RunContext(problem, PenaltyParams()).evaluate(np.empty((0, 1)))
        assert calls == []

    def test_one_position_must_be_a_batch(self):
        problem, calls = self.scripted_problem([3.0, 1.0, 1.0, 2.0])
        memory = RecordingMemory(4)
        ctx = RunContext(problem, PenaltyParams(), memory)
        with pytest.raises(ValueError, match=r"\(k, dim\) array"):
            ctx.evaluate(np.array([3.0]))
        assert calls == [] and ctx.nfes == 0
        assert memory.offers == [] and ctx.best is None
        assert ctx.evaluate(np.array([3.0])[None]).tolist() == [2.0]

    @pytest.mark.parametrize("name", ["sphere", "michell"])
    def test_batch_of_the_wrong_width_refused(self, name):
        # sphere summed the 5 columns it was given; michell raised from
        # inside snap_to_grid
        problem = get_problem(name, dim=10)
        memory = EliteMemory(2)
        ctx = RunContext(problem, PenaltyParams(), memory)
        for width in (problem.space.dim - 1, problem.space.dim + 1):
            with pytest.raises(ValueError, match=r"\(k, dim\) array .* dim 10, not \(2, "):
                ctx.evaluate(np.ones((2, width)))
        assert ctx.nfes == 0 and ctx.best is None and len(memory) == 0

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
                ctx.evaluate(np.zeros((2, 1)))
            assert ctx.nfes == 0


class TestFunnelMatchesLoop:
    """``RunContext.evaluate`` against the row-by-row funnel of
    ``oracles.funnel_loop``: the same fitness bits, evaluation count, memory
    arrays and best, bit for bit, over a run of random batches."""

    @staticmethod
    def problem(c):
        """Rows drawn from a small pool repeat; fitness rounded to one
        decimal ties, and in ``(-0.05, 0)`` gives -0.0 when ``c = 0``."""
        dim = 2 + c
        space = SearchSpace(lower=np.full(dim, -1.0), upper=np.full(dim, 1.0))

        def evaluate(X):
            objectives = np.round(X[:, 1], 1)
            if c:
                objectives = np.abs(objectives)
            return objectives, np.maximum(0.0, np.round(X[:, 2:], 1))

        return Problem(name=f"pool{c}", space=space, evaluate=evaluate)

    @staticmethod
    def same_bits(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def same_best(self, a, b):
        return (self.same_bits(a.position, b.position)
                and self.same_bits(a.objective, b.objective)
                and self.same_bits(a.violations, b.violations)
                and self.same_bits(a.fitness, b.fitness))

    @pytest.mark.parametrize("c", [0, 1, 5])
    @pytest.mark.parametrize("capacity", [1, 3, 40])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_batches(self, c, capacity, seed):
        rng = np.random.default_rng(seed)
        problem = self.problem(c)
        pool = problem.space.sample(12, rng)
        batch, loop = (RunContext(problem, PenaltyParams(), EliteMemory(capacity))
                       for _ in range(2))
        for _ in range(8):
            rows = pool[rng.integers(len(pool), size=int(rng.integers(1, 10)))]
            assert self.same_bits(batch.evaluate(rows), funnel_loop(loop, rows))
            assert batch.nfes == loop.nfes
            assert self.same_bits(batch.memory.fitness, loop.memory.fitness)
            assert self.same_bits(batch.memory.positions, loop.memory.positions)
            assert self.same_best(batch.best, loop.best)
        # the small buffers run full, the large one never fills
        assert (len(batch.memory) == capacity) == (capacity < len(pool))

    def test_signed_zero_objectives_keep_their_bits(self):
        problem = self.problem(0)
        rows = np.array([[0.0, -0.01], [0.0, 0.01]])
        batch, loop = (RunContext(problem, PenaltyParams()) for _ in range(2))
        out = batch.evaluate(rows)
        assert self.same_bits(out, funnel_loop(loop, rows))
        assert np.signbit(out).tolist() == [True, False]


class LyingAlgorithm:
    """Claims one evaluation per iteration but performs two."""

    inject_before_first_step = False

    def evals_per_iteration(self, population_size):
        return 1

    def init_population(self, ctx, n, rng):
        positions = ctx.problem.space.sample(n, rng)
        return positions, ctx.evaluate(positions), None

    def step(self, positions, fitness, state, ctx, frac, rng):
        ctx.evaluate(positions[0][None])
        ctx.evaluate(positions[1][None])
        return positions, fitness


class RecordingAlgorithm:
    """Re-evaluates the population it is handed and records it.

    Initialization evaluates the optimum of the sphere first, so the memory
    holds an entry that beats everyone, but keeps it out of the population
    (a second copy of the last sample takes its slot).
    """

    def __init__(self, inject_before_first_step):
        self.inject_before_first_step = inject_before_first_step
        self.handed = []

    def evals_per_iteration(self, population_size):
        return population_size

    def init_population(self, ctx, n, rng):
        space = ctx.problem.space
        ctx.evaluate(np.zeros(space.dim)[None])
        positions = space.sample(n - 1, rng)
        fitness = ctx.evaluate(positions)
        return np.vstack([positions, positions[-1:]]), np.append(fitness, fitness[-1]), None

    def step(self, positions, fitness, state, ctx, frac, rng):
        self.handed.append((positions.copy(), fitness.copy()))
        return positions, ctx.evaluate(positions)


def holds_origin(population):
    positions, fitness = population
    return bool(np.any(~np.any(positions, axis=1) & (fitness == 0.0)))


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
                           memory_fraction=None)
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
            ctx.evaluate(np.array([0.5])[None])
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

    def test_no_memory_fraction_is_not_range_checked(self):
        config = RunConfig(population_size=10, max_iterations=1, memory_fraction=None)
        assert config.memory_fraction is None
        for fraction in (0.0, 1.5, -0.2):
            with pytest.raises(ConfigError, match="memory fraction must lie in"):
                RunConfig(population_size=10, max_iterations=1, memory_fraction=fraction)

    def test_inject_before_step(self):
        algo = RecordingAlgorithm(inject_before_first_step=True)
        run(algo, sphere_problem(), RunConfig(population_size=10,
                                              max_iterations=2, seed=0))
        assert holds_origin(algo.handed[0])

    def test_first_injection_before_step_two(self):
        # without inject_before_first_step, step 1 meets no elite and
        # step 2 is the first to meet them
        algo = RecordingAlgorithm(inject_before_first_step=False)
        run(algo, sphere_problem(), RunConfig(population_size=10,
                                              max_iterations=2, seed=0))
        assert not holds_origin(algo.handed[0])
        assert holds_origin(algo.handed[1])

    def test_memory_off_never_injects(self):
        algo = RecordingAlgorithm(inject_before_first_step=True)
        run(algo, sphere_problem(), RunConfig(population_size=10, max_iterations=2,
                                              seed=0, memory_fraction=None))
        assert not any(holds_origin(p) for p in algo.handed)

    @pytest.mark.parametrize("name", ["bbo", "kha", "teo"])
    def test_init_population_samples_the_context_space(self, name):
        from elitopt.algorithms import get_algorithm

        # a box away from the origin, so a draw from any other space shows
        space = SearchSpace(lower=[10.0, -3.0], upper=[11.0, -2.0])
        problem = Problem(name="box", space=space, evaluate=lambda X: (
            np.sum(X * X, axis=1), np.empty((len(X), 0))))
        ctx = RunContext(problem, PenaltyParams())
        positions, fitness, _ = get_algorithm(name).init_population(
            ctx, 6, np.random.default_rng(0))
        assert positions.tobytes() == space.sample(6, np.random.default_rng(0)).tobytes()
        assert ctx.nfes == 6
        assert fitness.tobytes() == np.sum(positions * positions, axis=1).tobytes()

    def test_algorithms_declare_injection_timing(self):
        from elitopt.algorithms import Bbo, Kha, Teo

        assert Teo.inject_before_first_step is True
        assert Bbo.inject_before_first_step is False
        assert Kha.inject_before_first_step is False

    @pytest.mark.parametrize("name, calls", [("bbo", 4), ("kha", 4), ("teo", 5)])
    def test_injections_per_run(self, name, calls, monkeypatch):
        # of 5 steps, before every one but the first (4), and before the
        # first too for teo (5); none after the last step, whose result
        # nothing would read
        from elitopt.algorithms import get_algorithm

        injected = []
        inject = EliteMemory.inject

        def counted(memory, positions, fitness):
            injected.append(len(fitness))
            return inject(memory, positions, fitness)

        monkeypatch.setattr(EliteMemory, "inject", counted)
        for fraction, expected in ((0.2, calls), (None, 0)):
            injected.clear()
            run(get_algorithm(name), sphere_problem(), RunConfig(
                population_size=10, max_iterations=5, seed=0,
                memory_fraction=fraction))
            assert injected == [10] * expected


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

    @pytest.mark.parametrize("nfes", [
        [4000], [4000, 4000], [4001, 3998], [3050, 4000, 2050], [9, 2, 7, 4],
        [4000, 4000, 3999, 4001], [2**53 + 2, 2**53 - 1], [2**53 + 2, 1, 2**53 + 4, 3],
    ])
    def test_nfes_median_is_numpy_median(self, nfes):
        s = replicate_stats([1.0] * len(nfes), nfes)
        expected = float(np.median(np.asarray(nfes, dtype=float)))
        assert np.float64(s.nfes_median).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**60), min_size=1, max_size=9))
    def test_nfes_median_is_numpy_median_for_any_counts(self, nfes):
        s = replicate_stats([0.0] * len(nfes), nfes)
        assert s.nfes_median == float(np.median(np.asarray(nfes, dtype=float)))
