"""The benchmark tracer (``perfbench/tracing.py``) wraps package names where
their callers look them up.  Installing it here fails as soon as the package
drops or renames one of them, without running a benchmark."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_wraps_and_restore_puts_back(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import grid
    import tracing

    from elitopt import core, fem
    from elitopt.algorithms import bbo, kha, teo
    from elitopt.problems import truss_geometry as tg

    hooks = [(tg, "TrussModel"), (tg, "solve_static"), (tg, "natural_frequencies"),
             (fem, "assemble_stiffness")]
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
