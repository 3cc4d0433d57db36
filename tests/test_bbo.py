import numpy as np
import pytest

from conftest import FakeRng
from oracles import bbo_step_loop, migrate_loop, mutate_loop, sphere_problem
from elitopt.algorithms.bbo import (
    Bbo,
    BboParams,
    migrate,
    migration_rates,
    mutate,
    mutation_rate,
    species_count,
    species_probability,
)
from elitopt.core import (
    ConfigError,
    PenaltyParams,
    RunConfig,
    RunContext,
    SearchSpace,
    run,
)


class TestSpeciesAndRates:
    def test_best_is_richest(self):
        assert species_count(0, 10) == 9
        assert species_count(9, 10) == 0

    def test_rank0_rates(self):
        lam, mu = migration_rates(0, 10, BboParams(max_immigration=1.0,
                                                   max_emigration=1.0))
        assert lam == pytest.approx(0.1)
        assert mu == pytest.approx(0.9)

    def test_worst_rank_boundary(self):
        params = BboParams(max_immigration=0.7, max_emigration=0.4)
        lam, mu = migration_rates(9, 10, params)
        assert lam == 0.7
        assert mu == 0.0

    def test_equal_ceilings_sum_identity(self):
        params = BboParams(max_immigration=1.0, max_emigration=1.0)
        for rank in range(8):
            lam, mu = migration_rates(rank, 8, params)
            assert lam + mu == pytest.approx(1.0)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            species_count(5, 5)
        with pytest.raises(ValueError):
            species_count(np.array([0, 5]), 5)

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    def test_elementwise_matches_scalar_calls(self, n):
        # the rate helpers on an array of ranks give the bits of one scalar
        # call per rank
        params = BboParams(max_immigration=0.7, max_emigration=0.9, mutation_max=0.03)
        ranks = np.arange(n)
        lambdas, mus = migration_rates(ranks, n, params)
        probs = species_probability(ranks, n)
        rates = mutation_rate(probs, 1.0, params)
        scalar = [migration_rates(rank, n, params) for rank in range(n)]
        assert lambdas.tobytes() == np.array([lam for lam, _ in scalar]).tobytes()
        assert mus.tobytes() == np.array([mu for _, mu in scalar]).tobytes()
        assert probs.tobytes() == np.array(
            [species_probability(rank, n) for rank in range(n)]).tobytes()
        assert rates.tobytes() == np.array(
            [mutation_rate(p, 1.0, params) for p in probs.tolist()]).tobytes()
        assert species_count(ranks, n).tolist() == [species_count(r, n) for r in range(n)]


class TestSpeciesProbability:
    def test_peak_at_median_zero_at_extremes(self):
        n = 5
        probs = [species_probability(rank, n) for rank in range(n)]
        assert probs[0] == 0.0 and probs[-1] == 0.0
        assert probs[2] == 1.0
        assert probs == sorted(probs[:3]) + sorted(probs[2:], reverse=True)[1:]

    def test_single_habitat(self):
        assert species_probability(0, 1) == 1.0


class TestMutationRate:
    def test_boundaries(self):
        params = BboParams(mutation_max=0.04)
        assert mutation_rate(1.0, 1.0, params) == 0.0
        assert mutation_rate(0.0, 1.0, params) == 0.04

    def test_half_probability(self):
        assert mutation_rate(0.5, 1.0, BboParams(mutation_max=0.04)) == \
            pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            mutation_rate(0.5, 0.0, BboParams())
        with pytest.raises(ValueError):
            mutation_rate(2.0, 1.0, BboParams())
        with pytest.raises(ValueError):
            mutation_rate(np.array([0.5, -0.1]), 1.0, BboParams())


class TestBboParams:
    @pytest.mark.parametrize("name", ["max_immigration", "max_emigration",
                                      "mutation_max", "elite_keep"])
    @pytest.mark.parametrize("value", [-1, float("nan"), float("inf")])
    def test_negative_or_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            BboParams(**{name: value})

    def test_zero_accepted(self):
        params = BboParams(max_immigration=0.0, max_emigration=0.0,
                           mutation_max=0.0, elite_keep=0)
        assert params.elite_keep == 0


class TestMigrate:
    def test_zero_immigration_identity(self, rng):
        positions = rng.random((4, 3))
        out = migrate(positions, np.zeros(4), np.ones(4), rng)
        assert np.array_equal(out, positions)

    def test_single_habitat_unchanged(self):
        # no donor exists, so nothing is drawn
        positions = np.array([[0.3, 0.7]])
        out = migrate(positions, np.ones(1), np.ones(1), FakeRng())
        assert np.array_equal(out, positions)

    def test_full_immigration_single_donor(self):
        positions = np.array([[10.0, 20.0], [1.0, 2.0]])
        lambdas = np.array([0.0, 1.0])
        mus = np.array([1.0, 0.0])
        # the 2 x 2 immigration coins, then one roulette uniform per pick
        fake = FakeRng(randoms=[0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        out = migrate(positions, lambdas, mus, fake)
        assert fake.exhausted
        assert np.array_equal(out[1], positions[0])
        assert np.array_equal(out[0], positions[0])

    def test_donors_come_from_snapshot(self):
        # habitat 0 immigrates from 1 first; habitat 1 must still receive
        # habitat 0's original value, not the freshly imported one
        positions = np.array([[5.0], [7.0]])
        lambdas = np.array([1.0, 1.0])
        mus = np.array([1.0, 1.0])
        fake = FakeRng(randoms=[0.0, 0.0, 0.3, 0.3])
        out = migrate(positions, lambdas, mus, fake)
        assert out[0, 0] == 7.0
        assert out[1, 0] == 5.0

    def test_roulette_counts_running_sums(self):
        # row 0 has weights [0, 3, 5]: running sums [0, 3, 8], so u = 0
        # counts the zeroed own weight's sum and picks 1, and 0.5 * 8 = 4
        # picks 2; row 2 has [2, 3, 0] with sums [2, 5, 5], and
        # 0.3 * 5 = 1.5 picks 0
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        lambdas = np.array([1.0, 0.0, 0.5])
        fake = FakeRng(randoms=[0.0, 0.0, 0.9, 0.9, 0.9, 0.0, 0.0, 0.5, 0.3])
        out = migrate(positions, lambdas, np.array([2.0, 3.0, 5.0]), fake)
        assert fake.exhausted
        assert out.tolist() == [[1.0, 2.0], [1.0, 1.0], [2.0, 0.0]]

    def test_migrant_never_its_own_donor(self):
        # a donor picked with a habitat's own weight zeroed: with every
        # coin below lambda, each variable comes from another habitat
        positions = np.arange(5.0)[:, None] * np.ones((5, 40))
        out = migrate(positions, np.ones(5), np.array([9.0, 1.0, 1.0, 1.0, 1.0]),
                      np.random.default_rng(4))
        assert not np.any(out == positions)

    def test_all_zero_emigration_picks_uniformly(self):
        # the pick's own uniform chooses among the other habitats, shifted
        # past the habitat itself: int(0.2 * 2) = 0 is habitat 0 and
        # int(0.7 * 2) = 1 is habitat 2; no integer is drawn
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        lambdas = np.array([0.0, 1.0, 0.0])
        fake = FakeRng(randoms=[0.5] * 2 + [0.0] * 2 + [0.5] * 2 + [0.2, 0.7])
        out = migrate(positions, lambdas, np.zeros(3), fake)
        assert fake.exhausted
        assert out[1].tolist() == [0.0, 2.0]

    def test_two_habitats_fall_back_to_the_other(self):
        # with two habitats the best one's only donor weight is the worst
        # habitat's emigration rate, 0, so its picks take the fallback
        _, mus = migration_rates(np.arange(2), 2, BboParams())
        assert mus.tolist() == [0.5, 0.0]
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        fake = FakeRng(randoms=[0.0, 0.9, 0.0] + [0.9, 0.0, 0.9] + [0.99, 0.0, 0.5])
        out = migrate(positions, np.array([0.5, 0.5]), mus, fake)
        assert fake.exhausted
        assert out.tolist() == [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_one_pick_at_a_time(self, seed):
        # the array migration gives the donors of the habitat-by-habitat
        # reference fed the same coins and uniforms, and leaves the
        # generator where the two documented calls do; seed 5 zeroes the
        # emigration weights, which takes the uniform fallback
        rng = np.random.default_rng(seed)
        n, dim = 2 + seed * 3, 1 + seed
        positions = rng.normal(size=(n, dim))
        lambdas = rng.random(n)
        mus = np.zeros(n) if seed == 5 else rng.random(n)
        mine, twin = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        for _ in range(5):
            out = migrate(positions, lambdas, mus, mine)
            coins = twin.random((n, dim))
            picks = twin.random(int(np.sum(coins < lambdas[:, None])))
            assert out.tobytes() == migrate_loop(positions, lambdas, mus, coins,
                                                 picks).tobytes()
            assert mine.bit_generator.state == twin.bit_generator.state


class TestMutate:
    def test_rate_zero_identity(self):
        space = SearchSpace(lower=[0.0, 0.0], upper=[1.0, 1.0])
        x = np.array([[0.4, 0.6]])
        fake = FakeRng(randoms=[0.9, 0.9])
        assert np.array_equal(mutate(x, np.zeros(1), space, fake), x)
        assert fake.exhausted

    def test_rate_one_degenerate_interval(self):
        space = SearchSpace(lower=[5.0], upper=[5.0])
        fake = FakeRng(randoms=[0.0, 0.123])
        out = mutate(np.array([[5.0]]), np.ones(1), space, fake)
        assert out[0, 0] == 5.0

    def test_rate_one_recorded_stream(self):
        space = SearchSpace(lower=[0.0, 0.0], upper=[1.0, 1.0])
        # two coins first, then the two replacement values
        fake = FakeRng(randoms=[0.0, 0.0, 0.25, 0.75])
        out = mutate(np.array([[0.5, 0.5]]), np.ones(1), space, fake)
        assert np.allclose(out, [[0.25, 0.75]])

    def test_coins_drawn_for_every_habitat(self):
        # a habitat at rate 0 (a kept elite) still draws its coins; the
        # values follow the coins of the whole generation, row by row
        space = SearchSpace(lower=[0.0, 0.0], upper=[1.0, 1.0])
        fake = FakeRng(randoms=[0.0, 0.0, 0.0, 0.6, 0.05, 0.75, 0.25, 0.75])
        out = mutate(np.full((3, 2), 0.5), np.array([0.0, 0.5, 0.1]), space, fake)
        assert fake.exhausted
        assert out.tolist() == [[0.5, 0.5], [0.25, 0.5], [0.75, 0.5]]

    @pytest.mark.parametrize("rate, dim", [(0.0, 7), (1.0, 7), (0.3, 7), (0.5, 1)])
    def test_matches_one_variable_at_a_time(self, rate, dim):
        # the array mutation gives the values of the habitat-by-habitat
        # reference fed the same coins and values, and leaves the generator
        # where the two documented calls do; rate 0 draws an empty array,
        # which must not move the generator
        space = SearchSpace(lower=np.linspace(-3.0, 1.0, dim),
                            upper=np.linspace(-1.0, 4.0, dim))
        mine, twin = np.random.default_rng(dim), np.random.default_rng(dim)
        x = space.sample(6, np.random.default_rng(99))
        rates = np.linspace(0.0, rate, 6)
        for _ in range(20):
            out = mutate(x, rates, space, mine)
            coins = twin.random(x.shape)
            values = twin.random(int(np.sum(coins < rates[:, None])))
            assert out.tobytes() == mutate_loop(x, rates, space, coins, values).tobytes()
            assert mine.bit_generator.state == twin.bit_generator.state
            x = out


class TestBboStep:
    def test_elitism_never_regresses(self):
        problem = sphere_problem(3, bound=1.0)
        config = RunConfig(population_size=10, max_iterations=15, seed=5,
                           memory_fraction=None)
        result = run(Bbo(BboParams(elite_keep=2)), problem, config)
        bests = [h[1] for h in result.history]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_all_operators_disabled_positions_fixed(self, rng):
        # no immigration, no mutation, no single-elitism: a step only
        # re-evaluates, so the position multiset must not move
        from elitopt.core import PenaltyParams, RunContext

        problem = sphere_problem(3, bound=1.0)
        algo = Bbo(BboParams(max_immigration=0.0, mutation_max=0.0,
                             elite_keep=0))
        ctx = RunContext(problem, PenaltyParams())
        positions, fitness, state = algo.init_population(ctx, 6, rng)
        before = sorted(map(tuple, positions))
        out, _ = algo.step(positions, fitness, state, ctx, 1 / 10, rng)
        after = sorted(map(tuple, out))
        assert before == after

    def test_population_size_preserved(self, rng):
        from elitopt.core import PenaltyParams, RunContext

        problem = sphere_problem(3, bound=1.0)
        algo = Bbo()
        ctx = RunContext(problem, PenaltyParams())
        positions, fitness, state = algo.init_population(ctx, 9, rng)
        out_positions, out_fitness = algo.step(positions, fitness, state, ctx, 1 / 10, rng)
        assert out_positions.shape == (9, 3) and out_fitness.shape == (9,)

    def test_declared_evaluation_cost(self):
        assert Bbo().evals_per_iteration(37) == 37

    def test_param_validation(self):
        with pytest.raises(Exception):
            BboParams(max_immigration=-0.1)
        with pytest.raises(Exception):
            BboParams(mutation_max=1.5)
        with pytest.raises(Exception):
            BboParams(elite_keep=-1)


class TestStepMatchesLoop:
    """``Bbo.step`` against the rank-by-rank, habitat-by-habitat reference,
    which makes the four documented draws on a twin generator: the same
    positions and fitness bit for bit, and the generator left where those
    four calls leave it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    @pytest.mark.parametrize("params", [
        BboParams(),
        BboParams(mutation_max=0.6),
        BboParams(max_emigration=0.0, mutation_max=0.3),
        BboParams(max_immigration=0.4, elite_keep=0, mutation_max=0.2),
        BboParams(elite_keep=5, mutation_max=1.0),
    ], ids=["default", "mutating", "no-emigration", "no-elites", "all-elites"])
    def test_steps(self, n, params):
        problem = sphere_problem(4, bound=3.0)
        for seed in (0, 1):
            ctx = RunContext(problem, PenaltyParams())
            mine, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            population = Bbo(params).init_population(ctx, n, mine)[:2]
            twin.bit_generator.state = mine.bit_generator.state
            expected = population
            for g in range(3):
                population = Bbo(params).step(*population, None, ctx, g / 3, mine)
                expected = bbo_step_loop(params, *expected, ctx, twin)
                assert population[0].tobytes() == expected[0].tobytes()
                assert population[1].tobytes() == expected[1].tobytes()
                assert mine.bit_generator.state == twin.bit_generator.state
