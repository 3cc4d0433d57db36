"""The benchmark tracer (``perfbench/tracing.py``) wraps package names where
their callers look them up.  Installing it here fails as soon as the package
drops or renames one of them, without running a benchmark; a tiny traced grid
fails when a wrapped name is still there but the package no longer calls it.
Two short repeats of each benchmark workload must pass the benchmark's own
output checks, which read the package's files and names."""

from pathlib import Path

import pytest

from elitopt.harness import ExperimentPlan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_wraps_and_restore_puts_back(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import grid
    import tracing

    from elitopt import core, fem
    from elitopt.algorithms import bbo, kha, teo
    from elitopt.problems import truss_geometry as tg

    hooks = [(tg, "TrussModel"), (tg, "solve_static"), (tg, "natural_frequencies"),
             (fem, "assemble_stiffness"), (tg.TrussDesign, "expand"),
             (tg.TrussDesign, "search_space")]
    hooks += [(tg, name) for name in tracing.CONSTRAINT_HELPERS]
    hooks += [(core, "penalized_fitness"), (core.EliteMemory, "offer"),
              (core.EliteMemory, "inject")]
    hooks += [(module, "clamp_to_bounds") for module in (bbo, kha, teo)]
    hooks += [(cls, name) for cls in (bbo.Bbo, kha.Kha, teo.Teo)
              for name in ("init_population", "step")]
    originals = [getattr(owner, name) for owner, name in hooks]
    patcher = grid.Patcher()
    try:
        tracing.install(tracing.Tracer(), patcher)
        for (owner, name), original in zip(hooks, originals):
            assert getattr(owner, name) is not original, name
    finally:
        patcher.restore()
    for (owner, name), original in zip(hooks, originals):
        assert getattr(owner, name) is original, name


def test_evaluate_span_has_one_call_per_generation(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import grid
    import tracing

    from elitopt import harness

    # teo evaluates half the population per step; at least two rows per
    # batch keep the tracer's truss observer on its multi-row path
    plan = ExperimentPlan(algorithms=("bbo", "kha", "teo"), problems=("sphere", "michell"),
                          memory_modes=(True,), replicates=1, population_size=6,
                          root_seed=1, max_iterations=3)
    tracer = tracing.Tracer()
    patcher = grid.Patcher()
    try:
        tracing.install(tracer, patcher)
        harness.run_experiment(plan, tmp_path)
    finally:
        patcher.restore()
    table = tracer.table()
    calls = table["calls"]
    generations = len(plan.cells()) * (1 + plan.max_iterations)
    assert calls.get("core.evaluate", 0) == generations
    assert table["self"]["core.evaluate"] > 0
    # the funnel hands each generation to the problem once
    problem_calls = calls["problems.truss.evaluate"] + calls["problems.analytic.evaluate"]
    assert problem_calls == generations
    assert not table["errors"]


@pytest.mark.parametrize("workload", ["small-truss", "forth", "analytic"])
def test_benchmark_checks_pass(monkeypatch, tmp_path, workload):
    # grid.check_cell reads read_stats_csv, plan.algorithm_instance, the
    # status column of report.csv and the violations of best.json
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import grid

    monkeypatch.setattr(grid, "OUT_BASE", tmp_path)
    record = grid.run_repeats(workload, 1, 0, repeats=2, budget=150)
    repeats = record["repeats"]
    assert len(repeats) == 2
    assert [(c["label"], c["problems"])
            for r in repeats for c in r["cells"] if c["problems"]] == []
    assert repeats[0]["digest"] == repeats[1]["digest"]
