import copy

import numpy as np
import pytest

from conftest import FakeRng
from oracles import _local_attraction_loop, kha_step_loop, sphere_problem
from elitopt.algorithms.kha import (
    Kha,
    KhaParams,
    advance_position,
    diffusion_motion,
    draw_herd,
    fitness_ratio,
    food_point,
    foraging_attractions,
    foraging_motion,
    induced_motion,
    local_attractions,
    operator_probability,
    random_coefficient,
    sensing_radii,
    take_variables,
    target_attractions,
    time_step,
)
from elitopt.core import (
    ConfigError,
    EliteMemory,
    PenaltyParams,
    Problem,
    RunConfig,
    RunContext,
    SearchSpace,
    run,
)
from elitopt.algorithms.kha import HerdDraws, KhaState

EPS = 1e-10
NO_OPERATORS = KhaParams(crossover=False, mutation=False)


def distances(positions):
    return np.linalg.norm(positions[:, None] - positions[None], axis=2)


class TestSensingAndRatio:
    def test_two_krill_radius(self):
        positions = np.array([[0.0], [1.0]])
        # sum of distances is 1 for either krill, herd of 2
        radii = sensing_radii(distances(positions))
        assert radii[0] == pytest.approx(0.1)
        assert radii[1] == pytest.approx(0.1)

    def test_two_krill_radius_excludes_both(self):
        # the radius (mean distance / 5) is always below the only pairwise
        # distance, so a herd of two has no neighbors at all
        positions = np.array([[0.0], [1.0]])
        assert sensing_radii(distances(positions))[0] < 1.0

    def test_flat_population(self):
        assert fitness_ratio(3.0, 5.0, 0.0) == 0.0
        assert fitness_ratio(3.0, 5.0, -1.0) == 0.0

    def test_sign_convention(self):
        # worse krill relative to a better one gives a positive ratio,
        # which points the motion toward the better one
        assert fitness_ratio(10.0, 0.0, 10.0) == pytest.approx(1.0)
        assert fitness_ratio(0.0, 10.0, 10.0) == pytest.approx(-1.0)


class TestLocalAttraction:
    def test_three_krill_single_neighbor(self):
        # krill 1 sits inside krill 0's radius (1.01 / 15), krill 2 outside;
        # only the near, better neighbor contributes: 0.1 * unit vector
        positions = np.array([[0.0], [0.01], [1.0]])
        fitness = np.array([1.0, 0.0, 10.0])
        alpha = local_attractions(positions, fitness, 10.0, EPS)[0]
        assert alpha[0] == pytest.approx(0.1, abs=1e-6)

    def test_no_neighbors(self):
        positions = np.array([[0.0], [5.0]])
        alpha = local_attractions(positions, fitness=np.array([1.0, 2.0]),
                                  spread=1.0, eps=EPS)[0]
        assert np.all(alpha == 0.0)

    def test_flat_fitness_gives_zero(self):
        positions = np.array([[0.0], [0.001], [0.002]])
        fitness = np.array([4.0, 4.0, 4.0])
        alpha = local_attractions(positions, fitness, 0.0, EPS)[1]
        assert np.all(alpha == 0.0)


def neighbor_counts(positions):
    dists = distances(positions)
    near = dists < (dists.sum(axis=1) / (5.0 * len(positions)))[:, None]
    np.fill_diagonal(near, False)
    return near.sum(axis=1)


class TestLocalAttractionsMatchLoop:
    """``local_attractions`` computes pulls only for the krill that have a
    neighbor; every krill's row must still equal the one-krill reference
    bit for bit, a krill without a neighbor included (``+0.0``)."""

    def check(self, positions, fitness, spread):
        alpha = local_attractions(positions, fitness, spread, EPS)
        assert alpha.shape == positions.shape and alpha.dtype == np.float64
        for i in range(len(positions)):
            assert_same_bits(
                alpha[i], _local_attraction_loop(i, positions, fitness, spread, EPS))
        return alpha

    def clustered(self, rng, n, dim, cluster):
        # a tight cluster among far krill: each cluster krill sees the
        # others inside its radius, the far krill see nobody
        positions = rng.uniform(-5.0, 5.0, size=(n, dim))
        positions[:cluster] = positions[0] + rng.normal(scale=0.01, size=(cluster, dim))
        return positions

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_order_of_a_long_sum(self, seed):
        rng = np.random.default_rng(seed)
        positions = self.clustered(rng, 20, 4, cluster=5)
        fitness = rng.uniform(0.0, 10.0, size=20)
        counts = neighbor_counts(positions)
        assert counts.max() >= 3 and (counts == 0).any()
        self.check(positions, fitness, float(fitness.max() - fitness.min()))

    def test_duplicates_at_distance_zero(self):
        rng = np.random.default_rng(3)
        positions = self.clustered(rng, 16, 3, cluster=4)
        positions[[5, 9, 12]] = positions[[1, 1, 7]]
        fitness = rng.uniform(1.0, 2.0, size=16)
        fitness[[5, 9, 12]] = fitness[[1, 1, 7]]
        assert distances(positions)[1, 9] == 0.0
        self.check(positions, fitness, 1.0)

    def test_one_variable_herd(self):
        # one variable: the pulls of a row lie contiguous in memory and the
        # sum over j pairs them up rather than adding them in turn
        rng = np.random.default_rng(4)
        positions = self.clustered(rng, 40, 1, cluster=12)
        fitness = rng.uniform(0.0, 3.0, size=40)
        assert neighbor_counts(positions).max() >= 8
        self.check(positions, fitness, 3.0)

    def test_one_sided_neighbor(self):
        # the far krill at 10 has the wider radius (about 81.2 / 50): it
        # sees the krill at 8.5, which does not see it back (69.2 / 50 < 1.5)
        positions = np.array([[0.0], [0.01], [0.02], [0.03], [0.04], [0.05],
                              [0.06], [0.07], [10.0], [8.5]])
        counts = neighbor_counts(positions)
        assert counts[8] == 1 and counts[9] == 0
        self.check(positions, np.linspace(5.0, 1.0, 10), 4.0)

    def test_no_neighbors(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5], [-1.0, 3.0]])
        assert not neighbor_counts(positions).any()
        alpha = self.check(positions, np.array([4.0, 1.0, 3.0, 2.0]), 3.0)
        assert not np.signbit(alpha).any()

    def test_flat_fitness(self):
        rng = np.random.default_rng(5)
        positions = self.clustered(rng, 12, 2, cluster=4)
        assert neighbor_counts(positions).any()
        alpha = self.check(positions, np.full(12, 7.0), 0.0)
        assert not alpha.any()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_herds(self, n):
        rng = np.random.default_rng(10 + n)
        positions = rng.uniform(-1.0, 1.0, size=(n, 3))
        self.check(positions, rng.uniform(0.0, 1.0, size=n), 1.0)
        # three krill, two of them close: those two are each other's neighbor
        if n == 3:
            positions[1] = positions[0] + 1e-3
            assert neighbor_counts(positions).tolist() == [1, 1, 0]
            self.check(positions, np.array([2.0, 1.0, 3.0]), 2.0)


class TestTargetAttraction:
    def test_best_krill_zero_but_draw_consumed(self):
        positions = np.array([[1.0, 1.0], [3.0, 0.0]])
        fitness = np.array([0.0, 5.0])
        # each krill draws its coefficients and diffusion, the best one too
        fake = FakeRng(randoms=[0.5] * 8)
        draws = draw_herd(2, 2, NO_OPERATORS, fake)
        assert fake.exhausted
        c_best = random_coefficient(draws.uniforms[:, 0], 0.5)
        pull = target_attractions(positions, fitness, positions[0], 0.0,
                                  5.0, c_best, EPS)[0]
        assert np.allclose(pull, 0.0)

    def test_late_run_amplifier(self):
        # khat = 1 and unit direction, so the output is the coefficient itself
        positions = np.array([[0.0, 0.0]])
        fitness = np.array([10.0])
        best = np.array([1.0, 0.0])
        pull = target_attractions(positions, fitness, best, 0.0, 10.0,
                                  c_best=random_coefficient(np.array([1.0]), 1.0),
                                  eps=EPS)[0]
        assert pull[0] == pytest.approx(4.0, abs=1e-6)
        assert pull[1] == pytest.approx(0.0)

    def test_early_run_amplifier(self):
        positions = np.array([[0.0, 0.0]])
        fitness = np.array([10.0])
        best = np.array([1.0, 0.0])
        pull = target_attractions(positions, fitness, best, 0.0, 10.0,
                                  c_best=random_coefficient(np.array([0.5]), 0.0),
                                  eps=EPS)[0]
        assert pull[0] == pytest.approx(1.0, abs=1e-6)


class TestFoodPoint:
    def test_equal_fitness_is_centroid(self):
        positions = np.array([[0.0, 0.0], [1.0, 2.0]])
        x_food, k_food = food_point(positions, np.array([2.0, 2.0]))
        assert np.allclose(x_food, [0.5, 1.0])
        assert k_food == pytest.approx(2.0)

    def test_better_krill_pulls_harder(self):
        # weights 1/1 and 1/2: food lands at 1/3 toward the worse one
        positions = np.array([[0.0], [1.0]])
        x_food, k_food = food_point(positions, np.array([1.0, 2.0]))
        assert x_food[0] == pytest.approx(1.0 / 3.0)
        assert k_food == pytest.approx(4.0 / 3.0)

    def test_single_krill(self):
        x_food, k_food = food_point(np.array([[3.0]]), np.array([5.0]))
        assert x_food[0] == pytest.approx(3.0)
        assert k_food == pytest.approx(5.0)

    def test_non_positive_fitness_shifted(self):
        positions = np.array([[0.0], [1.0]])
        x_food, k_food = food_point(positions, np.array([0.0, 1.0]))
        # the zero-fitness krill dominates the shifted weights
        assert x_food[0] == pytest.approx(0.0, abs=1e-6)
        assert np.isfinite(k_food)

    def test_negative_fitness_shifted(self):
        positions = np.array([[-2.0], [2.0]])
        x_food, k_food = food_point(positions, np.array([-4.0, 4.0]))
        assert x_food[0] == pytest.approx(-2.0, abs=1e-6)
        assert np.isfinite(k_food)


class TestForaging:
    def test_zero_differences(self):
        positions = np.array([[1.0, 2.0]])
        fitness = np.array([3.0])
        fake = FakeRng(randoms=[0.3, 0.7, 0.5, 0.5])
        draws = draw_herd(1, 2, NO_OPERATORS, fake)
        c_food = random_coefficient(draws.uniforms[:, 1], 0.5)
        beta = foraging_attractions(positions, fitness, positions[0], 3.0,
                                    positions, np.array([3.0]), 2.0, c_food, EPS)[0]
        assert np.allclose(beta, 0.0)
        assert fake.exhausted

    def test_food_coefficient(self):
        positions = np.array([[0.0, 0.0]])
        fitness = np.array([10.0])
        food = np.array([1.0, 0.0])
        beta = foraging_attractions(
            positions, fitness, food, 0.0, positions, np.array([10.0]),
            spread=10.0, c_food=random_coefficient(np.array([0.0]), 1.0), eps=EPS)[0]
        assert beta[0] == pytest.approx(2.0, abs=1e-6)

    def test_motion_recursion(self):
        out = foraging_motion(np.array([1.0, -1.0]), np.array([0.04, 0.0]),
                              speed=0.02, inertia=0.5)
        assert np.allclose(out, [0.04, -0.02])


class TestInducedMotion:
    def test_recursion(self):
        out = induced_motion(np.array([1.0, -1.0]), np.array([0.02, 0.0]),
                             n_max=0.01, inertia=0.5)
        assert np.allclose(out, [0.02, -0.01])

    def test_zero_ceiling_keeps_inertia_only(self):
        out = induced_motion(np.array([5.0]), np.array([0.8]), 0.0, 0.25)
        assert out[0] == pytest.approx(0.2)


class TestDiffusion:
    def test_final_iteration_is_zero(self):
        fake = FakeRng(randoms=[0.5, 0.5, 0.3, 0.9])
        draws = draw_herd(1, 2, NO_OPERATORS, fake)
        out = diffusion_motion(draws.uniforms[:, 2:], frac=1.0, d_max=0.005)
        assert np.all(out == 0.0)
        assert fake.exhausted

    def test_recorded_direction(self):
        out = diffusion_motion(np.array([1.0]), frac=0.5, d_max=0.005)
        assert out[0] == pytest.approx(0.0025)

    def test_bounded_by_ceiling(self, rng):
        out = diffusion_motion(rng.random(20), frac=0.0, d_max=0.005)
        assert np.all(np.abs(out) <= 0.005)


class TestTimeStep:
    def test_summed_widths(self):
        space = SearchSpace(lower=[0.0, 0.0], upper=[1.0, 2.0])
        assert time_step(0.5, space) == pytest.approx(1.5)

    def test_degenerate_space(self):
        space = SearchSpace(lower=[5.0], upper=[5.0])
        assert time_step(0.5, space) == 0.0

    def test_large_factor(self):
        space = SearchSpace(lower=[0.0], upper=[10.0])
        assert time_step(2.0, space) == pytest.approx(20.0)


class TestAdvance:
    def test_scaled_motion(self):
        out = advance_position(np.array([0.0]), 1.5, np.array([0.1]))
        assert out[0] == pytest.approx(0.15)

    def test_zero_motion(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(advance_position(x, 1.5, np.zeros(2)), x)


class TestOperatorProbability:
    def test_at_best(self):
        assert operator_probability(0.0) == 1.0
        assert operator_probability(-0.5) == 1.0

    def test_scaling(self):
        assert operator_probability(0.5) == pytest.approx(0.1)
        assert operator_probability(1.0) == pytest.approx(0.05)

    def test_capped(self):
        assert operator_probability(0.01) == 1.0


class TestCrossoverMutation:
    def test_crossover_all_copied(self):
        out = take_variables(np.array([0.0, 0.0]), np.array([1.0, 2.0]), 1.0,
                             np.array([0.5, 0.5]))
        assert np.allclose(out, [1.0, 2.0])

    def test_crossover_probability_zero(self):
        # both krill draw a donor and their coins whatever the probability
        fake = FakeRng(randoms=[0.5] * 12, integers=[0, 0])
        draws = draw_herd(2, 2, KhaParams(mutation=False), fake)
        out = take_variables(np.array([3.0, 4.0]), np.array([1.0, 2.0]), 0.0,
                             draws.cross_coins[0])
        assert np.allclose(out, [3.0, 4.0])
        assert fake.exhausted

    def test_crossover_per_variable_coins(self):
        out = take_variables(np.array([0.0, 0.0]), np.array([7.0, 7.0]), 0.5,
                             np.array([0.1, 0.9]))
        assert np.allclose(out, [7.0, 0.0])

    @staticmethod
    def mutants(best, donor_a, donor_b, mu):
        # the mutation's replacement values, as Kha.step builds them
        return best + mu * (donor_a - donor_b)

    def test_mutation_zero_mu_copies_best(self):
        best = np.array([1.0, 2.0])
        mutants = self.mutants(best, np.array([9.0, 9.0]), np.array([-9.0, -9.0]), 0.0)
        out = take_variables(np.array([5.0, 5.0]), mutants, 1.0, np.zeros(2))
        assert np.allclose(out, best)

    def test_mutation_identical_donors_copy_best(self):
        best, donor = np.array([1.0, 2.0]), np.array([4.0, -4.0])
        mutants = self.mutants(best, donor, donor, 0.77)
        out = take_variables(np.array([5.0, 5.0]), mutants, 1.0, np.zeros(2))
        assert np.allclose(out, best)

    def test_mutation_difference_scaled(self):
        mutants = self.mutants(np.array([1.0]), np.array([3.0]), np.array([1.0]), 0.5)
        out = take_variables(np.array([0.0]), mutants, 1.0, np.zeros(1))
        assert out[0] == pytest.approx(2.0)


class TestDrawHerd:
    """The stream contract of a kha step and the exactness of its picks."""

    @staticmethod
    def twin_draws(rng, n, dim, params):
        # the documented calls, written out apart from draw_herd
        own = np.arange(n)
        uniforms = rng.random((n, dim + 2))
        donors = cross_coins = mutation = mu_coins = None
        if params.crossover and n >= 2:
            pick = rng.integers(n - 1, size=n)
            donors = pick + (pick >= own)
            cross_coins = rng.random((n, dim))
        if params.mutation and n >= 3:
            r2 = rng.integers(n - 1, size=n)
            r2 = r2 + (r2 >= own)
            r3 = rng.integers(n - 2, size=n)
            r3 = r3 + (r3 >= np.minimum(own, r2))
            r3 = r3 + (r3 >= np.maximum(own, r2))
            mutation = np.stack([r2, r3], axis=1)
            mu_coins = rng.random((n, dim + 1))
        return HerdDraws(uniforms, donors, cross_coins, mutation, mu_coins)

    @pytest.mark.parametrize("n", [2, 3, 50])
    @pytest.mark.parametrize("crossover, mutation",
                             [(True, True), (True, False), (False, True), (False, False)])
    def test_step_makes_only_the_documented_calls(self, n, crossover, mutation):
        # the step leaves the generator where the documented calls do, and
        # moves the herd as the reference loop does with their numbers, so
        # an extra draw and a reordered one both fail; the operators always
        # fire, so their draws decide the positions
        params = KhaParams(crossover=crossover, mutation=mutation)
        problem = sphere_problem(4, bound=4.0)
        for seed in (0, 1):
            ctx = RunContext(problem, PenaltyParams())
            positions, fitness, state = Kha(params).init_population(
                ctx, problem.space, n, np.random.default_rng(100 + seed))
            ctx.evaluate(np.full(4, 0.01)[None])  # a best outside the herd
            loop = copy.deepcopy((positions, fitness, state, ctx))
            mine, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            out, _ = Kha(params).step(positions, fitness, state, ctx, 0.5, mine)
            draws = self.twin_draws(twin, n, 4, params)
            expected, _ = kha_step_loop(params, *loop, 0.5, draws)
            assert mine.bit_generator.state == twin.bit_generator.state
            assert out.tobytes() == expected.tobytes()

    def test_mutation_pairs_are_an_exact_uniform_pick(self):
        # each of the 3 * 2 raw draws of a krill maps to its own ordered
        # pair of two other krill, so every pair is hit exactly once
        n, dim = 4, 1
        params = KhaParams(crossover=False)
        raw = [(a, b) for a in range(n - 1) for b in range(n - 2)]
        pairs = {i: [] for i in range(n)}
        for a, b in raw:
            fake = FakeRng(randoms=[0.5] * n * (2 * dim + 3),
                           integers=[a] * n + [b] * n)
            for i, pair in enumerate(draw_herd(n, dim, params, fake).mutation):
                pairs[i].append(tuple(pair))
        for i in range(n):
            others = [k for k in range(n) if k != i]
            expected = sorted((a, b) for a in others for b in others if a != b)
            assert sorted(pairs[i]) == expected

    def test_crossover_donor_is_an_exact_uniform_pick(self):
        n = 5
        donors = {i: [] for i in range(n)}
        for a in range(n - 1):
            fake = FakeRng(randoms=[0.5] * n * 5, integers=[a] * n)
            for i, d in enumerate(draw_herd(n, 1, KhaParams(mutation=False), fake).donors):
                donors[i].append(int(d))
        for i in range(n):
            assert sorted(donors[i]) == [k for k in range(n) if k != i]


class TestKhaStep:
    def make_ctx(self, problem):
        return RunContext(problem, PenaltyParams())

    def test_population_size_preserved(self, rng):
        problem = sphere_problem(2, bound=4.0)
        algo = Kha()
        ctx = self.make_ctx(problem)
        positions, fitness, state = algo.init_population(ctx, problem.space, 7, rng)
        out_positions, out_fitness = algo.step(positions, fitness, state, ctx, 1 / 10, rng)
        assert out_positions.shape == (7, 2) and out_fitness.shape == (7,)

    def test_all_motion_off_positions_fixed(self, rng):
        params = KhaParams(induced_max=0.0, foraging_speed=0.0,
                           diffusion_max=0.0, crossover=False, mutation=False)
        problem = sphere_problem(2, bound=4.0)
        algo = Kha(params)
        ctx = self.make_ctx(problem)
        before, fitness, state = algo.init_population(ctx, problem.space, 5, rng)
        after, _ = algo.step(before, fitness, state, ctx, 1 / 10, rng)
        assert np.array_equal(before, after)

    def test_injected_slot_restarts_fresh(self, rng):
        # freeze all motion so a slot's state is directly observable, then
        # let the memory inject a candidate worse than the slot's personal
        # best: the stale personal best must be dropped for the slot's own
        # new record.  An inject that wrote into the step's arrays would
        # also rewrite state.last_positions, and the slot would look untouched
        params = KhaParams(induced_max=0.0, foraging_speed=0.0,
                           diffusion_max=0.0, crossover=False, mutation=False)
        problem = sphere_problem(2, bound=4.0)
        algo = Kha(params)
        ctx = self.make_ctx(problem)
        positions, fitness, state = algo.init_population(ctx, problem.space, 4, rng)
        positions, fitness = algo.step(positions, fitness, state, ctx, 1 / 10, rng)

        injected = np.array([3.5, 3.5])
        [injected_fitness] = ctx.evaluate(injected[None])
        memory = EliteMemory(1)
        memory.offer(injected[None], np.array([injected_fitness]))
        slot = int(np.argmax(fitness))
        assert injected_fitness > state.pb_fitness[slot]
        positions, fitness = memory.inject(positions, fitness)
        assert np.array_equal(positions[slot], injected)
        algo.step(positions, fitness, state, ctx, 2 / 10, rng)
        assert np.array_equal(state.pb_positions[slot], injected)
        assert state.pb_fitness[slot] == injected_fitness

    def test_untouched_slot_keeps_personal_best(self, rng):
        params = KhaParams(induced_max=0.0, foraging_speed=0.0,
                           diffusion_max=0.0, crossover=False, mutation=False)
        problem = sphere_problem(2, bound=4.0)
        algo = Kha(params)
        ctx = self.make_ctx(problem)
        positions, fitness, state = algo.init_population(ctx, problem.space, 4, rng)
        pb_before = state.pb_fitness.copy()
        algo.step(positions, fitness, state, ctx, 1 / 10, rng)
        assert np.array_equal(state.pb_fitness, pb_before)

    def test_declared_evaluation_cost(self):
        assert Kha().evals_per_iteration(25) == 25

    def test_run_never_regresses_and_deterministic(self):
        problem = sphere_problem(3, bound=4.0)
        config = RunConfig(population_size=12, max_iterations=20, seed=42,
                           memory_enabled=False)
        r1 = run(Kha(), problem, config)
        r2 = run(Kha(), problem, config)
        bests = [h[1] for h in r1.history]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
        assert r1.history == r2.history

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            KhaParams(induced_max=-0.1)
        with pytest.raises(ConfigError):
            KhaParams(inertia_induced=1.5)
        with pytest.raises(ConfigError):
            KhaParams(epsilon=0.0)

    @pytest.mark.parametrize("name", ["induced_max", "foraging_speed",
                                      "diffusion_max", "time_factor", "epsilon",
                                      "inertia_induced", "inertia_foraging"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_param_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            KhaParams(**{name: value})


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestHerdStepMatchesLoop:
    """The herd-wide ``Kha.step`` against the per-krill reference fed the
    same draws: the same positions and the same state arrays, bit for
    bit."""

    def herd(self, n, dim, seed, flat=False, injected=()):
        rng = np.random.default_rng(seed)
        problem = sphere_problem(dim, bound=4.0)
        if flat:
            problem = Problem("herd", problem.space,
                              lambda X: (np.full(len(X), 2.5), np.empty((len(X), 0))))
        ctx = RunContext(problem, PenaltyParams())
        # clusters tight against the herd's mean distance put some krill
        # inside each other's sensing radius
        centers = rng.uniform(-3.0, 3.0, size=(max(1, n // 4), dim))
        positions = centers[rng.integers(len(centers), size=n)]
        positions = np.clip(positions + rng.normal(scale=0.05, size=(n, dim)), -4, 4)
        if not flat:
            ctx.evaluate(rng.uniform(-0.1, 0.1, size=dim)[None])  # a best outside the herd
        fitness = ctx.evaluate(positions)
        last = positions.copy()
        for i in injected:
            last[i] += 0.5
        state = KhaState(
            induced_old=rng.normal(scale=0.01, size=(n, dim)),
            foraging_old=rng.normal(scale=0.01, size=(n, dim)),
            pb_positions=positions + rng.normal(scale=0.2, size=(n, dim)),
            pb_fitness=fitness - rng.uniform(0.0, 1.0, size=n),
            last_positions=last,
        )
        return (positions, fitness), state, ctx

    def check(self, params, population, state, ctx, steps=3, seed=5):
        herd = [population, state, ctx, np.random.default_rng(seed)]
        loop = copy.deepcopy(herd)
        n, dim = population[0].shape
        for g in range(1, steps + 1):
            frac = g / (steps + 1)
            herd[0] = Kha(params).step(*herd[0], herd[1], herd[2], frac, herd[3])
            draws = draw_herd(n, dim, params, loop[3])
            loop[0] = kha_step_loop(params, *loop[0], loop[1], loop[2], frac, draws)
            assert_same_bits(herd[0][0], loop[0][0])
            assert_same_bits(herd[0][1], loop[0][1])
            for name in ("induced_old", "foraging_old", "pb_positions",
                         "pb_fitness", "last_positions"):
                assert_same_bits(getattr(herd[1], name), getattr(loop[1], name))
            assert herd[3].bit_generator.state == loop[3].bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_herd(self, seed):
        population, state, ctx = self.herd(16, 5, seed)
        positions = population[0]
        dists = np.linalg.norm(positions[:, None] - positions[None], axis=2)
        radii = dists.sum(axis=1) / (5.0 * len(positions))
        near = (dists < radii[:, None]) & ~np.eye(len(positions), dtype=bool)
        assert near.any()
        self.check(KhaParams(), population, state, ctx)

    def test_flat_population(self):
        population, state, ctx = self.herd(10, 3, 4, flat=True)
        self.check(KhaParams(), population, state, ctx)

    def test_injected_slots(self):
        population, state, ctx = self.herd(12, 4, 5, injected=(0, 7))
        self.check(KhaParams(), population, state, ctx, steps=1)

    def test_operators_off(self):
        population, state, ctx = self.herd(12, 4, 6)
        self.check(KhaParams(crossover=False, mutation=False), population, state, ctx)

    def test_food_coefficient_off_best(self):
        population, state, ctx = self.herd(12, 4, 7)
        self.check(KhaParams(food_coeff_on_best=False), population, state, ctx)

    def test_one_variable_herd(self):
        # with one variable the neighbor pulls lie contiguous in memory, and
        # the sum over j pairs them up rather than adding them in turn
        population, state, ctx = self.herd(40, 1, 3)
        self.check(KhaParams(), population, state, ctx)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_herds(self, n):
        population, state, ctx = self.herd(n, 3, 8 + n)
        self.check(KhaParams(), population, state, ctx)
