import numpy as np
import pytest

from conftest import FakeRng
from oracles import migrate_loop, mutate_loop, sphere_problem
from elitopt.algorithms.bbo import (
    Bbo,
    BboParams,
    migrate,
    migration_rates,
    mutate,
    mutation_rate,
    species_count,
    species_probability,
    _spin,
)
from elitopt.core import RunConfig, SearchSpace, run


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


class TestSpin:
    """Roulette draws over running sums whose weight at ``skip`` is zeroed,
    as ``migrate`` hands them over."""

    @staticmethod
    def spin(weights, skip, count, rng):
        w = np.array(weights, dtype=float)
        w[skip] = 0.0
        return _spin(np.cumsum(w), w.sum(), skip, count, rng)

    def test_single_nonzero_mass(self):
        picks = self.spin([1.0, 0.0], skip=1, count=1, rng=FakeRng(randoms=[0.5]))
        assert picks.tolist() == [0]

    def test_skip_never_chosen(self, rng):
        assert not np.any(self.spin([5.0, 1.0, 1.0], skip=0, count=200, rng=rng) == 0)

    def test_all_zero_degrades_to_uniform(self):
        # the uniform fallback picks among the other habitats: index 1 of
        # [0, 1] is habitat 1, index 0 of [1, 2] is habitat 1
        picks = self.spin([0.0, 0.0, 0.0], skip=2, count=1, rng=FakeRng(integers=[1]))
        assert picks.tolist() == [1]
        picks = self.spin([0.0, 0.0, 0.0], skip=0, count=1, rng=FakeRng(integers=[0]))
        assert picks.tolist() == [1]

    def test_consumes_one_draw_per_pick(self):
        fake = FakeRng(randoms=[0.1, 0.9, 0.5])
        picks = self.spin([2.0, 3.0, 5.0], skip=0, count=3, rng=fake)
        assert fake.exhausted
        assert picks.tolist() == [1, 2, 2]


class TestMigrate:
    def test_zero_immigration_identity(self, rng):
        positions = rng.random((4, 3))
        out = migrate(positions, np.zeros(4), np.ones(4), rng)
        assert np.array_equal(out, positions)

    def test_single_habitat_unchanged(self, rng):
        positions = np.array([[0.3, 0.7]])
        out = migrate(positions, np.ones(1), np.ones(1), rng)
        assert np.array_equal(out, positions)

    def test_full_immigration_single_donor(self):
        positions = np.array([[10.0, 20.0], [1.0, 2.0]])
        lambdas = np.array([0.0, 1.0])
        mus = np.array([1.0, 0.0])
        # habitat 1: 2 immigration coins, then 1 roulette draw per variable
        fake = FakeRng(randoms=[0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        out = migrate(positions, lambdas, mus, fake)
        assert np.array_equal(out[1], positions[0])
        assert np.array_equal(out[0], positions[0])

    def test_donors_come_from_snapshot(self):
        # habitat 0 immigrates from 1 first; habitat 1 must still receive
        # habitat 0's original value, not the freshly imported one
        positions = np.array([[5.0], [7.0]])
        lambdas = np.array([1.0, 1.0])
        mus = np.array([1.0, 1.0])
        fake = FakeRng(randoms=[0.0, 0.3, 0.0, 0.3])
        out = migrate(positions, lambdas, mus, fake)
        assert out[0, 0] == 7.0
        assert out[1, 0] == 5.0

    def test_migrant_never_its_own_donor(self):
        # a donor picked with a habitat's own weight zeroed: with every
        # coin below lambda, each variable comes from another habitat
        positions = np.arange(5.0)[:, None] * np.ones((5, 40))
        out = migrate(positions, np.ones(5), np.array([9.0, 1.0, 1.0, 1.0, 1.0]),
                      np.random.default_rng(4))
        assert not np.any(out == positions)

    def test_all_zero_emigration_picks_uniformly(self):
        # the habitat's picks fall back to the others, one draw each
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        lambdas = np.array([0.0, 1.0, 0.0])
        fake = FakeRng(randoms=[0.5] * 2 + [0.0] * 2 + [0.5] * 2, integers=[0, 1])
        out = migrate(positions, lambdas, np.zeros(3), fake)
        assert fake.exhausted
        assert out[1].tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_one_pick_at_a_time(self, seed):
        # all of a habitat's picks spun at once give the donors and leave
        # the generator where one draw per pick does; seed 5 zeroes the
        # emigration weights, which takes the uniform fallback
        rng = np.random.default_rng(seed)
        n, dim = 2 + seed * 3, 1 + seed
        positions = rng.normal(size=(n, dim))
        lambdas = rng.random(n)
        mus = np.zeros(n) if seed == 5 else rng.random(n)
        mine, loop = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        for _ in range(5):
            assert np.array_equal(migrate(positions, lambdas, mus, mine),
                                  migrate_loop(positions, lambdas, mus, loop))
            assert mine.bit_generator.state == loop.bit_generator.state


class TestMutate:
    def test_rate_zero_identity(self):
        space = SearchSpace(lower=[0.0, 0.0], upper=[1.0, 1.0])
        x = np.array([0.4, 0.6])
        fake = FakeRng(randoms=[0.9, 0.9])
        assert np.array_equal(mutate(x, 0.0, space, fake), x)

    def test_rate_one_degenerate_interval(self):
        space = SearchSpace(lower=[5.0], upper=[5.0])
        fake = FakeRng(randoms=[0.0, 0.123])
        out = mutate(np.array([5.0]), 1.0, space, fake)
        assert out[0] == 5.0

    def test_rate_one_recorded_stream(self):
        space = SearchSpace(lower=[0.0, 0.0], upper=[1.0, 1.0])
        # two coins first, then the two replacement values
        fake = FakeRng(randoms=[0.0, 0.0, 0.25, 0.75])
        out = mutate(np.array([0.5, 0.5]), 1.0, space, fake)
        assert np.allclose(out, [0.25, 0.75])

    @pytest.mark.parametrize("rate, dim", [(0.0, 7), (1.0, 7), (0.3, 7), (0.5, 1)])
    def test_matches_one_variable_at_a_time(self, rate, dim):
        # the mutating variables' values drawn as one array give the values
        # and leave the generator where one scalar draw each does; rate 0
        # draws an empty array, which must not move the generator
        space = SearchSpace(lower=np.linspace(-3.0, 1.0, dim),
                            upper=np.linspace(-1.0, 4.0, dim))
        mine, loop = np.random.default_rng(dim), np.random.default_rng(dim)
        x = space.sample(1, np.random.default_rng(99))[0]
        for _ in range(20):
            out = mutate(x, rate, space, mine)
            assert out.tobytes() == mutate_loop(x, rate, space, loop).tobytes()
            assert mine.bit_generator.state == loop.bit_generator.state
            x = out


class TestBboStep:
    def test_elitism_never_regresses(self):
        problem = sphere_problem(3, bound=1.0)
        config = RunConfig(population_size=10, max_iterations=15, seed=5,
                           memory_enabled=False)
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
        positions, fitness, state = algo.init_population(ctx, problem.space, 6, rng)
        before = sorted(map(tuple, positions))
        out, _ = algo.step(positions, fitness, state, ctx, 1 / 10, rng)
        after = sorted(map(tuple, out))
        assert before == after

    def test_population_size_preserved(self, rng):
        from elitopt.core import PenaltyParams, RunContext

        problem = sphere_problem(3, bound=1.0)
        algo = Bbo()
        ctx = RunContext(problem, PenaltyParams())
        positions, fitness, state = algo.init_population(ctx, problem.space, 9, rng)
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
