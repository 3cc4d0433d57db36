"""Release gate: nine numbered end-to-end checks.

Each test prints exactly one ``[criterion N] PASS`` or ``FAIL`` line with
its measured numbers, then asserts.  The expensive benchmark grids are
module-scoped fixtures shared between criteria; their build time is charged
against the first criterion that needs them.
"""

import math
import time

import numpy as np
import pytest

from oracles import memory_oracle, random_stable_truss, solve_static_oracle

from elitopt.algorithms import get_algorithm
from elitopt.algorithms.bbo import BboParams, migration_rates, mutation_rate, species_count
from elitopt.algorithms.kha import (
    diffusion_motion,
    food_point,
    induced_motion,
    local_attractions,
    operator_probability,
    random_coefficient,
    sensing_radii,
    target_attractions,
    time_step,
)
from elitopt.algorithms.teo import exchange_ratio, time_fraction, updated_temperature
from elitopt.core import (
    EliteMemory,
    Problem,
    RunConfig,
    SearchSpace,
    clamp_to_bounds,
    memory_capacity,
    penalized_fitness,
    PenaltyParams,
    replicate_seed,
    run,
    snap_to_grid,
)
from elitopt.fem import (
    Material,
    TrussModel,
    TrussTopology,
    displacement_violation,
    frequency_violations,
    natural_frequencies,
    solve_static,
    stress_violations,
)
from elitopt.harness import (
    ExperimentPlan,
    cell_seed,
    iterations_for_budget,
    read_history_csv,
    run_cell,
    run_experiment,
    write_history_csv,
)
from elitopt.problems import get_problem, load_design, michell_analytical_weight

ROOT_SEED = 20260823
POP = 50
BUDGET = 4000
REPS = 20
STEEL = Material(young_modulus=210e9, density=7850.0)


def verdict(num: int, ok: bool, text: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


def run_grid(tmp_path_factory, name, algorithms, problems, memory_modes, dim=10):
    plan = ExperimentPlan(
        algorithms=algorithms,
        problems=problems,
        memory_modes=memory_modes,
        replicates=REPS,
        population_size=POP,
        root_seed=ROOT_SEED,
        budget=BUDGET,
        dim=dim,
    )
    out = tmp_path_factory.mktemp(name)
    t0 = time.perf_counter()
    results = {}
    for cell in plan.cells():
        results[(cell.algorithm, cell.problem, cell.memory)] = run_cell(
            cell, plan, out
        )
    return {
        "results": results,
        "dir": out,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def michell_grid(tmp_path_factory):
    return run_grid(tmp_path_factory, "michell_grid", ("bbo", "kha", "teo"),
                    ("michell",), (True, False))


@pytest.fixture(scope="module")
def sphere_grid(tmp_path_factory):
    return run_grid(tmp_path_factory, "sphere_grid", ("bbo", "kha", "teo"),
                    ("sphere",), (True, False))


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    return run_grid(tmp_path_factory, "smoke", ("bbo",),
                    ("forth", "truss37"), (True,))


def test_criterion_1_static_solver_vs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ROOT_SEED)
    worst = 0.0
    for k in range(50):
        nodes, members, areas, fixed, loads = random_stable_truss(rng, 3 + k % 4)
        topology = TrussTopology(len(nodes), members, STEEL, fixed, loads)
        model = TrussModel(nodes, areas, topology)
        res = solve_static(model)
        u_ref, s_ref = solve_static_oracle(model)
        du = np.abs(res.displacements.ravel() - u_ref).max()
        ds = np.abs(res.stresses - s_ref).max()
        worst = max(
            worst,
            du / max(np.abs(u_ref).max(), 1e-30),
            ds / max(np.abs(s_ref).max(), 1e-30),
        )

    cantilever = TrussModel(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0]]),
        areas=np.array([1e-4]),
        topology=TrussTopology(
            2,
            members=np.array([[0, 1]]),
            material=STEEL,
            fixed=np.array([[True, True], [False, True]]),
            loads=np.array([[0.0, 0.0], [21e3, 0.0]]),
        ),
    )
    res = solve_static(cantilever)
    cant_dev = max(
        abs(res.displacements[1, 0] - 1e-3) / 1e-3,
        abs(res.stresses[0] - 210e6) / 210e6,
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and cant_dev <= 1e-12 and elapsed < 5.0
    verdict(
        1,
        ok,
        f"static solver agrees with penalty-spring oracle on 50 random "
        f"trusses (worst rel dev {worst:.2e} <= 1e-9) and reproduces the "
        f"axial-bar textbook values (dev {cant_dev:.2e} <= 1e-12) "
        f"in {elapsed:.1f} s < 5 s",
    )


def test_criterion_2_modal_analysis():
    t0 = time.perf_counter()

    def oscillator(mass):
        return TrussModel(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0]]),
            areas=np.array([1e-5]),
            topology=TrussTopology(
                2,
                members=np.array([[0, 1]]),
                material=Material(young_modulus=1e11, density=0.0),
                fixed=np.array([[True, True], [False, True]]),
                masses=np.array([0.0, mass]),
            ),
        )

    f1 = natural_frequencies(oscillator(1.0))[0]
    f2 = natural_frequencies(oscillator(2.0))[0]
    expect = math.sqrt(1e6) / (2.0 * math.pi)
    dev_single = abs(f1 - expect) / expect
    dev_double = abs(f2 - f1 / math.sqrt(2.0)) / f1

    rng = np.random.default_rng(ROOT_SEED + 1)
    dev_scaling = 0.0
    for _ in range(5):
        nodes, members, areas, fixed, _ = random_stable_truss(rng, 5)
        topology = TrussTopology(len(nodes), members, STEEL, fixed)
        base = natural_frequencies(TrussModel(nodes, areas, topology))
        scaled = natural_frequencies(TrussModel(nodes, 4.2 * areas, topology))
        dev_scaling = max(
            dev_scaling, float(np.abs(scaled - base).max() / base.max())
        )
    elapsed = time.perf_counter() - t0
    ok = (
        dev_single <= 1e-9
        and dev_double <= 1e-9
        and dev_scaling <= 1e-6
        and elapsed < 5.0
    )
    verdict(
        2,
        ok,
        f"single-mass oscillator at {f1:.6f} Hz (dev {dev_single:.2e} <= "
        f"1e-9), mass doubling scales by 1/sqrt(2) (dev {dev_double:.2e}), "
        f"uniform area scaling leaves frequencies fixed (dev "
        f"{dev_scaling:.2e} <= 1e-6) in {elapsed:.1f} s < 5 s",
    )


def test_criterion_3_elite_memory_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ROOT_SEED + 2)
    streams = 0
    mismatch = None
    total_offers = 0
    for k in range(200):
        if k < 5:
            length = 10_000  # exercise the documented stream-length ceiling
        else:
            length = int(10 ** rng.uniform(0.5, 3.5))
        dim = int(rng.integers(1, 6))
        pool_n = max(1, length // 3)
        pool_pos = rng.random((pool_n, dim))
        pool_fit = np.round(rng.random(pool_n), 2)  # coarse: deliberate ties
        capacity = int(rng.choice([1, 2, 5, 20]))
        stream = rng.integers(pool_n, size=length)
        positions, fitness = pool_pos[stream], pool_fit[stream]
        memory = EliteMemory(capacity)
        for i in range(length):
            memory.offer(positions[i:i + 1], fitness[i:i + 1])
        total_offers += length
        expect_positions, expect_fitness = memory_oracle(positions, fitness, capacity)
        same = memory.fitness.tolist() == expect_fitness and all(
            np.array_equal(g, e) for g, e in zip(memory.positions, expect_positions)
        )
        if not same and mismatch is None:
            mismatch = f"stream {streams} (length {length}, capacity {capacity})"
        streams += 1
    elapsed = time.perf_counter() - t0
    ok = mismatch is None and elapsed < 30.0
    verdict(
        3,
        ok,
        f"elite buffer matches the brute-force reference on {streams} random "
        f"streams ({total_offers} offers total)"
        + (f"; first mismatch: {mismatch}" if mismatch else "")
        + f" in {elapsed:.1f} s < 30 s",
    )


def test_criterion_4_worked_examples():
    t0 = time.perf_counter()
    grid_space = SearchSpace(
        lower=[1.0], upper=[2.0], grids=(np.array([1.0, 1.5, 2.0]),)
    )
    box = SearchSpace(lower=[0.0, 0.0], upper=[5.0, 5.0])
    rates = migration_rates(0, 10, BboParams(max_immigration=1.0, max_emigration=1.0))
    food_x, food_k = food_point(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
    pull = target_attractions(
        np.array([[0.0, 0.0]]), np.array([10.0]), np.array([1.0, 0.0]),
        0.0, 10.0, random_coefficient(np.array([1.0]), 1.0), 1e-10)[0]
    alpha = local_attractions(
        np.array([[0.0], [0.01], [1.0]]), np.array([1.0, 0.0, 10.0]),
        10.0, 1e-10)[0]

    checks = [
        ("best habitat hosts n-1 species", species_count(0, 10), 9, 0.0),
        ("immigration rate at rank 0 of 10", rates[0], 0.1, 1e-12),
        ("emigration rate at rank 0 of 10", rates[1], 0.9, 1e-12),
        ("mutation rate at half the peak probability",
         mutation_rate(0.5, 1.0, BboParams(mutation_max=0.04)), 0.02, 1e-12),
        ("memory capacity, 50 agents at fraction 0.2",
         memory_capacity(50, 0.2), 10, 0.0),
        ("memory capacity floor of one", memory_capacity(3, 0.1), 1, 0.0),
        ("feasible candidate keeps its objective",
         penalized_fitness(100.0, [], PenaltyParams()), 100.0, 0.0),
        ("half a unit of violation squares to 2.25x",
         penalized_fitness(100.0, [0.3, 0.2], PenaltyParams()), 225.0, 1e-12),
        ("snap rounds to the nearest grid point",
         snap_to_grid(np.array([1.2]), grid_space)[0], 1.0, 0.0),
        ("snap resolves midpoint ties downward",
         snap_to_grid(np.array([1.25]), grid_space)[0], 1.0, 0.0),
        ("clamp projects the low side",
         clamp_to_bounds(np.array([-1.0, 7.0]), box)[0], 0.0, 0.0),
        ("clamp projects the high side",
         clamp_to_bounds(np.array([-1.0, 7.0]), box)[1], 5.0, 0.0),
        ("two-krill sensing radius",
         sensing_radii(np.array([[0.0, 1.0], [1.0, 0.0]]))[0], 0.1, 1e-12),
        ("induced motion recursion",
         induced_motion(np.array([1.0, -1.0]), np.array([0.02, 0.0]),
                        0.01, 0.5)[1], -0.01, 1e-12),
        ("food point of two krill with fitness 1 and 2", food_x[0],
         1.0 / 3.0, 1e-12),
        ("virtual food fitness is the harmonic mean", food_k, 4.0 / 3.0, 1e-12),
        ("diffusion halfway through the run",
         diffusion_motion(np.array([1.0]), 0.5, 0.005)[0], 0.0025, 1e-12),
        ("time step over summed widths",
         time_step(0.5, SearchSpace(lower=[0.0, 0.0], upper=[1.0, 2.0])),
         1.5, 1e-12),
        ("operator probability at half the best distance",
         operator_probability(0.5), 0.1, 1e-12),
        ("late-run target amplifier", pull[0], 4.0, 1e-6),
        ("single near-neighbor attraction", alpha[0], 0.1, 1e-6),
        ("exchange ratio at half the worst cost",
         exchange_ratio(30.0, 60.0), 0.5, 1e-12),
        ("time fraction a quarter in", time_fraction(25, 100), 0.25, 0.0),
        ("relaxation half life",
         updated_temperature(np.array([1.0]), np.array([0.0]),
                             math.log(2.0), 1.0)[0], 0.5, 1e-12),
        ("iterations from a 4000-evaluation budget, full-cost step",
         iterations_for_budget(4000, 50, 50), 79, 0.0),
        ("iterations from a 4000-evaluation budget, half-cost step",
         iterations_for_budget(4000, 50, 25), 158, 0.0),
        ("replicate seed wraps at 2^64",
         replicate_seed(2**64 - 1, 1), 0, 0.0),
        ("ideal arch weight formula", michell_analytical_weight(),
         12.0 / 240e6 * 1.0 * 200e3 * 7800.0 * math.tan(math.pi / 12.0),
         1e-12),
        ("stress a quarter over its limit",
         stress_violations(np.array([300e6]), 240e6)[0], 0.25, 1e-12),
        ("frequency a quarter under its bound",
         frequency_violations(np.array([30.0]), np.array([40.0]))[0],
         0.25, 1e-12),
        ("displacement violation past the limit",
         displacement_violation(-1.5, 1.0), 0.5, 1e-12),
    ]
    failures = []
    max_dev = 0.0
    for label, actual, expect, tol in checks:
        dev = abs(float(actual) - float(expect))
        if expect != 0:
            dev /= abs(float(expect))
        max_dev = max(max_dev, dev)
        if dev > tol:
            failures.append(f"{label}: got {actual!r}, expected {expect!r}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    verdict(
        4,
        ok,
        f"{len(checks)} worked examples reproduced (max rel deviation "
        f"{max_dev:.2e})"
        + ("; " + "; ".join(failures) if failures else "")
        + f" in {elapsed:.1f} s < 10 s",
    )


def test_criterion_5_determinism(tmp_path):
    t0 = time.perf_counter()
    problem = get_problem("sphere", dim=10)
    identical = 0
    variants = []
    for alg_name in ("bbo", "kha", "teo"):
        for mem in (True, False):
            config = RunConfig(
                population_size=20,
                max_iterations=100,
                seed=ROOT_SEED,
                memory_fraction=0.2 if mem else None,
            )
            paths = []
            for attempt in range(2):
                result = run(get_algorithm(alg_name), problem, config)
                path = tmp_path / f"{alg_name}-{int(mem)}-{attempt}.csv"
                write_history_csv(path, result.history)
                paths.append(path)
            same = paths[0].read_bytes() == paths[1].read_bytes()
            identical += same
            variants.append(f"{alg_name}{'+mem' if mem else ''}")
    elapsed = time.perf_counter() - t0
    ok = identical == 6 and elapsed < 30.0
    verdict(
        5,
        ok,
        f"{identical}/6 variants ({', '.join(variants)}) write byte-identical "
        f"history files when reseeded, 100 iterations on the 10-variable "
        f"sphere, in {elapsed:.1f} s < 30 s",
    )


def test_criterion_6_arch_benchmark_quality(michell_grid):
    reference = michell_analytical_weight()
    details = []
    ok = True
    for alg in ("bbo", "kha"):
        results = michell_grid["results"][(alg, "michell", True)]
        best = min((r.best for r in results), key=lambda c: c.fitness)
        dev = abs(best.objective - reference) / reference
        vsum = float(np.sum(best.violations))
        ok = ok and dev <= 0.15 and vsum <= 1e-8
        details.append(
            f"{alg} best {best.objective:.3f} kg, dev {100 * dev:.1f}%, "
            f"violation sum {vsum:.1e}"
        )
    elapsed = michell_grid["elapsed"]
    ok = ok and elapsed < 600.0
    verdict(
        6,
        ok,
        f"arch benchmark, {REPS} memory runs of {BUDGET} evaluations each: "
        + "; ".join(details)
        + f"; analytical reference {reference:.2f} kg, 15% band, "
        f"grid built in {elapsed:.0f} s < 600 s",
    )


def test_criterion_7_memory_benefit(michell_grid, sphere_grid):
    details = []
    ok = True
    for prob, grid in (("michell", michell_grid), ("sphere", sphere_grid)):
        wins = 0
        parts = []
        for alg in ("bbo", "kha", "teo"):
            mem = np.mean(
                [r.best.fitness for r in grid["results"][(alg, prob, True)]]
            )
            std = np.mean(
                [r.best.fitness for r in grid["results"][(alg, prob, False)]]
            )
            win = mem <= std * 1.02
            wins += win
            parts.append(f"{alg} {mem:.4g} vs {std:.4g}{'*' if win else ''}")
        ok = ok and wins >= 2
        details.append(f"{prob}: {wins}/3 within 2% of memoryless or better "
                       f"({', '.join(parts)})")
    elapsed = michell_grid["elapsed"] + sphere_grid["elapsed"]
    ok = ok and elapsed < 900.0
    verdict(
        7,
        ok,
        f"paired-seed means over {REPS} replicates, memory vs none: "
        + "; ".join(details)
        + f"; grids built in {elapsed:.0f} s < 900 s",
    )


def test_criterion_8_histories_and_accounting(michell_grid, sphere_grid):
    t0 = time.perf_counter()
    per_iter = {"bbo": POP, "kha": POP, "teo": POP // 2}
    files = 0
    problems = []
    for grid in (michell_grid, sphere_grid):
        for path in sorted(grid["dir"].rglob("run_*.csv")):
            history = read_history_csv(path)
            alg = path.parent.name.split("-")[0]
            bests = [h[1] for h in history]
            nfes = [h[2] for h in history]
            if any(b2 > b1 for b1, b2 in zip(bests, bests[1:])):
                problems.append(f"{path.name}: best-so-far increased")
            if nfes[0] != POP:
                problems.append(f"{path.name}: initial count {nfes[0]} != {POP}")
            steps = set(np.diff(nfes).tolist())
            if steps != {per_iter[alg]}:
                problems.append(
                    f"{path.name}: per-iteration counts {sorted(steps)} != "
                    f"{per_iter[alg]}"
                )
            files += 1

    # cross-check the declared counts against an instrumented objective
    counted_ok = 0
    for alg_name in ("bbo", "kha", "teo"):
        calls = 0

        def counting(X):
            nonlocal calls
            calls += len(X)
            return np.sum(X * X, axis=1), np.empty((len(X), 0))

        problem = Problem(
            name="counted",
            space=SearchSpace(lower=np.full(5, -1.0), upper=np.full(5, 1.0)),
            evaluate=counting,
        )
        result = run(
            get_algorithm(alg_name),
            problem,
            RunConfig(population_size=10, max_iterations=8, seed=3,
                      memory_fraction=0.2),
        )
        counted_ok += calls == result.nfes == result.history[-1][2]
    elapsed = time.perf_counter() - t0
    ok = not problems and counted_ok == 3
    verdict(
        8,
        ok,
        f"{files} history files monotone with exact evaluation arithmetic"
        + (f"; issues: {problems[:3]}" if problems else "")
        + f"; instrumented objectives match declared counts for "
        f"{counted_ok}/3 algorithms ({elapsed:.1f} s)",
    )


def test_criterion_9_bridge_and_tower_smoke(smoke_runs):
    references = {"forth": 11978.62, "truss37": 357.81}
    details = []
    ok = True
    for prob, reference in references.items():
        results = smoke_runs["results"][("bbo", prob, True)]
        best = min((r.best for r in results), key=lambda c: c.fitness)
        vsum = float(np.sum(best.violations))
        ratio = best.objective / reference
        ok = ok and vsum < 1e-3 and (1.0 / 3.0) <= ratio <= 3.0
        details.append(
            f"{prob} best {best.objective:.2f} kg ({ratio:.2f}x the "
            f"published {reference:.2f} kg, violation sum {vsum:.1e})"
        )
        if prob == "truss37":
            design = load_design("truss37")
            x = snap_to_grid(np.array(best.position), design.search_space())
            coords, areas = design.expand(x)
            freqs = natural_frequencies(
                TrussModel(coords, areas, design.topology), count=3
            )
            above = bool(np.all(freqs >= np.array([20.0, 40.0, 60.0]) - 1e-6))
            ok = ok and above
            details.append(
                "frequencies "
                + "/".join(f"{f:.2f}" for f in freqs)
                + " Hz clear the 20/40/60 Hz floors"
            )
    elapsed = smoke_runs["elapsed"]
    ok = ok and elapsed < 1200.0
    verdict(
        9,
        ok,
        f"{REPS} memory runs each: " + "; ".join(details)
        + f"; built in {elapsed:.0f} s < 1200 s",
    )


def test_cell_seeds_pair_memory_variants(tmp_path):
    # paired comparisons above are only meaningful because both variants of
    # a cell start from identical replicate seeds
    for alg in ("bbo", "kha", "teo"):
        base = cell_seed(ROOT_SEED, alg, "michell")
        assert replicate_seed(base, 3) == replicate_seed(base, 3)
        assert cell_seed(ROOT_SEED, alg, "sphere") != base
    # and so from the same initial population: row 0 of each memory-on
    # history (the best of the initial population) equals its memory-off
    # partner's, while the two replicates of a cell start apart
    plan = ExperimentPlan(
        algorithms=("bbo", "kha", "teo"), problems=("sphere",),
        memory_modes=(True, False), replicates=2, population_size=10,
        root_seed=ROOT_SEED, max_iterations=2, dim=3,
    )
    run_experiment(plan, tmp_path)
    for alg in plan.algorithms:
        rows = {
            memory: [read_history_csv(tmp_path / f"{alg}-sphere-{memory}"
                                      / f"run_{r:03d}.csv")[0] for r in range(2)]
            for memory in ("mem", "std")
        }
        assert rows["mem"] == rows["std"], alg
        assert rows["mem"][0] != rows["mem"][1], alg
