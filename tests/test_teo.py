import copy

import numpy as np
import pytest

from conftest import FakeRng
from oracles import sphere_problem, teo_step_loop
from elitopt.algorithms.teo import (
    CoolingDraws,
    Teo,
    cooled_environment,
    draw_cooling,
    exchange_ratio,
    random_component_jump,
    time_fraction,
    updated_temperature,
)
from elitopt.core import (
    ConfigError,
    PenaltyParams,
    Problem,
    RunConfig,
    RunContext,
    SearchSpace,
    run,
)


class TestExchangeRatio:
    def test_worst_agent(self):
        assert exchange_ratio(60.0, 60.0) == pytest.approx(1.0)

    def test_best_agent(self):
        assert exchange_ratio(0.0, 60.0) == 0.0

    def test_midpoint(self):
        assert exchange_ratio(30.0, 60.0) == pytest.approx(0.5)

    def test_flat_population_rejected(self):
        with pytest.raises(ValueError):
            exchange_ratio(0.0, 0.0)


class TestTimeFraction:
    def test_endpoints(self):
        assert time_fraction(0, 100) == 0.0
        assert time_fraction(100, 100) == 1.0

    def test_quarter(self):
        assert time_fraction(25, 100) == pytest.approx(0.25)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            time_fraction(1, 0)


class TestCooledEnvironment:
    def test_both_terms_off_is_identity(self):
        env = np.array([2.0, -3.0])
        out = cooled_environment(env, 0.5, Teo(c1=0, c2=0), np.array([0.9, 0.9]))
        assert np.array_equal(out, env)

    def test_full_damping(self):
        # c1=1, c2=0, rand=1 for every component wipes the environment out
        env = np.array([2.0, -3.0])
        out = cooled_environment(env, 0.5, Teo(c1=1, c2=0), np.array([1.0, 1.0]))
        assert np.allclose(out, 0.0)

    def test_decaying_term_vanishes_at_end(self):
        env = np.array([4.0])
        out = cooled_environment(env, 1.0, Teo(c1=0, c2=1), np.array([1.0]))
        assert np.array_equal(out, env)

    def test_per_component_draws(self):
        env = np.array([[1.0, 1.0], [2.0, 2.0]])
        r = np.array([[0.0, 1.0], [1.0, 0.5]])
        out = cooled_environment(env, 0.0, Teo(c1=1, c2=0), r)
        assert np.allclose(out, [[1.0, 0.0], [0.0, 1.0]])


class TestUpdatedTemperature:
    def test_zero_beta_keeps_old(self):
        old = np.array([3.0])
        out = updated_temperature(old, np.array([0.0]), 0.0, 0.7)
        assert np.array_equal(out, old)

    def test_zero_frac_keeps_old(self):
        old = np.array([3.0])
        out = updated_temperature(old, np.array([0.0]), 2.0, 0.0)
        assert np.array_equal(out, old)

    def test_large_exponent_reaches_environment(self):
        out = updated_temperature(np.array([3.0]), np.array([-1.0]), 1e6, 1.0)
        assert out[0] == pytest.approx(-1.0)

    def test_half_life(self):
        out = updated_temperature(np.array([1.0]), np.array([0.0]),
                                  beta=np.log(2.0), frac=1.0)
        assert out[0] == pytest.approx(0.5)

    def test_one_beta_per_row(self):
        old = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = updated_temperature(old, np.zeros((2, 2)),
                                  np.array([[0.0], [np.log(2.0)]]), 1.0)
        assert np.allclose(out, [[1.0, 1.0], [0.5, 0.5]])

    def test_stays_on_segment(self, rng):
        for _ in range(20):
            old = rng.uniform(-5, 5, 3)
            env = rng.uniform(-5, 5, 3)
            out = updated_temperature(old, env, rng.uniform(0, 5), rng.random())
            lo = np.minimum(old, env) - 1e-12
            hi = np.maximum(old, env) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)


class TestRandomJump:
    def space(self):
        return SearchSpace(lower=[0.0, 0.0, 0.0], upper=[4.0, 4.0, 4.0])

    def jump(self, x, probability, coins, index, values, space=None):
        return random_component_jump(
            x, probability, space or self.space(),
            np.array(coins), np.array(index), np.array(values))

    def test_no_trigger(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = self.jump(x, 0.3, [0.9], [1], [0.5])
        assert np.array_equal(out, x)

    def test_triggered_single_component(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = self.jump(x, 0.3, [0.0], [1], [0.5])
        assert out[0, 1] == pytest.approx(2.0)
        assert out[0, 0] == 1.0 and out[0, 2] == 3.0

    def test_rows_jump_apart(self):
        # only the rows whose coin falls below the probability move, each
        # in its own variable
        x = np.ones((3, 3))
        out = self.jump(x, 0.5, [0.1, 0.6, 0.4], [2, 0, 0], [0.25, 0.75, 1.0])
        assert np.array_equal(out, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [4.0, 1.0, 1.0]])

    def test_input_not_written(self):
        x = np.ones((1, 3))
        self.jump(x, 1.0, [0.0], [0], [0.0])
        assert np.all(x == 1.0)

    def test_redraw_respects_bounds(self, rng):
        space = self.space()
        x = np.tile([1.0, 2.0, 3.0], (50, 1))
        out = random_component_jump(x, 1.0, space, rng.random(50),
                                    rng.integers(3, size=50), rng.random(50))
        assert np.all(out >= space.lower) and np.all(out <= space.upper)
        assert np.all(np.count_nonzero(out != x, axis=1) <= 1)


class TestDrawCooling:
    def test_order_and_shapes(self):
        half, dim = 2, 3
        randoms = [0.1] * half * dim + [0.2, 0.3] + [0.4, 0.5]
        fake = FakeRng(randoms=randoms, integers=[2, 0])
        draws = draw_cooling(half, dim, fake)
        assert fake.exhausted
        assert draws.cooling.shape == (half, dim) and np.all(draws.cooling == 0.1)
        assert draws.jump_coins.tolist() == [0.2, 0.3]
        assert draws.jump_index.tolist() == [2, 0]
        assert draws.jump_values.tolist() == [0.4, 0.5]

    @staticmethod
    def twin_draws(rng, half, dim):
        # the documented calls, written out apart from draw_cooling
        return CoolingDraws(rng.random((half, dim)), rng.random(half),
                            rng.integers(dim, size=half), rng.random(half))

    @pytest.mark.parametrize("n", [2, 4, 50])
    @pytest.mark.parametrize("jump_probability", [0.0, 0.3, 1.0])
    def test_step_makes_only_the_documented_calls(self, n, jump_probability):
        # the step leaves the generator where the documented calls do, and
        # cools as the reference loop does with their numbers, so an extra
        # draw and a reordered one both fail; every draw is made whatever
        # the jump coins say
        teo = Teo(jump_probability=jump_probability)
        problem = sphere_problem(3, bound=5.0)
        for seed in (0, 1):
            ctx = RunContext(problem, PenaltyParams())
            positions, fitness, _ = teo.init_population(
                ctx, n, np.random.default_rng(100 + seed))
            loop = copy.deepcopy((positions, fitness, ctx))
            mine, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            out, out_fitness = teo.step(positions, fitness, None, ctx, 0.5, mine)
            draws = self.twin_draws(twin, n // 2, 3)
            expected, expected_fitness = teo_step_loop(teo, *loop, 0.5, draws)
            assert mine.bit_generator.state == twin.bit_generator.state
            assert out.tobytes() == expected.tobytes()
            assert out_fitness.tobytes() == expected_fitness.tobytes()


class TestStepMatchesLoop:
    """The array ``Teo.step`` against the agent-by-agent reference fed the
    same draws, over several steps, bit for bit."""

    @pytest.mark.parametrize("seed, n, dim", [(0, 10, 4), (1, 2, 1), (2, 50, 10)])
    @pytest.mark.parametrize("params", [Teo(), Teo(c1=0, c2=1, jump_probability=0.9)])
    def test_steps(self, seed, n, dim, params):
        problem = sphere_problem(dim, bound=5.0)
        ctx = RunContext(problem, PenaltyParams())
        rng = np.random.default_rng(seed)
        population = params.init_population(ctx, n, rng)[:2]
        loop_population, loop_ctx = copy.deepcopy((population, ctx))
        loop_rng = copy.deepcopy(rng)
        for g in range(1, 5):
            population = params.step(*population, None, ctx, g / 5, rng)
            draws = draw_cooling(n // 2, dim, loop_rng)
            loop_population = teo_step_loop(params, *loop_population, loop_ctx, g / 5, draws)
            for mine, ref in zip(population, loop_population):
                assert mine.tobytes() == ref.tobytes()


class TestTeoStep:
    def make_ctx(self, problem):
        return RunContext(problem, PenaltyParams())

    def test_odd_population_rejected(self):
        algo = Teo()
        for n in (0, 1, 7):
            with pytest.raises(ConfigError, match="even"):
                algo.evals_per_iteration(n)
        assert algo.evals_per_iteration(8) == 4

    def test_run_refuses_an_odd_population_before_the_generator_is_used(
        self, monkeypatch
    ):
        # a run asks before it draws or evaluates anything
        made, evaluated = [], []
        monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a))
        problem = Problem("probe", SearchSpace([0.0], [1.0]), evaluated.append)
        with pytest.raises(ConfigError, match="even"):
            run(Teo(), problem, RunConfig(population_size=7, max_iterations=1))
        assert made == [] and evaluated == []

    def test_declared_evaluation_cost(self):
        assert Teo().evals_per_iteration(50) == 25

    def test_step_spends_half_population(self, rng):
        problem = sphere_problem(2, bound=5.0)
        algo = Teo()
        ctx = self.make_ctx(problem)
        positions, fitness, state = algo.init_population(ctx, 10, rng)
        before = ctx.nfes
        algo.step(positions, fitness, state, ctx, 1 / 10, rng)
        assert ctx.nfes - before == 5

    def test_better_half_survives_unchanged(self, rng):
        problem = sphere_problem(2, bound=5.0)
        algo = Teo()
        ctx = self.make_ctx(problem)
        positions, fitness, state = algo.init_population(ctx, 8, rng)
        order = sorted(range(8), key=lambda i: fitness[i])
        out_positions, out_fitness = algo.step(positions, fitness, state, ctx, 1 / 10, rng)
        for k, i in enumerate(order[:4]):
            assert np.array_equal(out_positions[k], positions[i])
            assert out_fitness[k] == fitness[i]

    def test_best_never_regresses(self, rng):
        problem = sphere_problem(2, bound=5.0)
        algo = Teo()
        ctx = self.make_ctx(problem)
        positions, fitness, state = algo.init_population(ctx, 12, rng)
        best = fitness.min()
        for it in range(1, 6):
            positions, fitness = algo.step(positions, fitness, state, ctx, it / 6, rng)
            new_best = fitness.min()
            assert new_best <= best
            best = new_best

    def test_population_size_preserved(self, rng):
        problem = sphere_problem(2, bound=5.0)
        algo = Teo()
        ctx = self.make_ctx(problem)
        positions, fitness, state = algo.init_population(ctx, 10, rng)
        out_positions, out_fitness = algo.step(positions, fitness, state, ctx, 1 / 10, rng)
        assert out_positions.shape == (10, 2) and out_fitness.shape == (10,)

    def test_run_deterministic(self):
        problem = sphere_problem(3, bound=5.0)
        config = RunConfig(population_size=10, max_iterations=30, seed=9,
                           memory_fraction=0.2)
        r1 = run(Teo(), problem, config)
        r2 = run(Teo(), problem, config)
        assert r1.history == r2.history

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            Teo(c1=2)
        with pytest.raises(ConfigError):
            Teo(jump_probability=1.5)

    @pytest.mark.parametrize("name", ["c1", "c2", "jump_probability"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_param_rejected(self, name, value):
        with pytest.raises(ConfigError):
            Teo(**{name: value})
