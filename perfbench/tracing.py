"""Outside-in layer trace of an elitopt grid.

``install`` wraps the package's public functions where the consuming module
looks them up (``truss_geometry`` imports the FEM entry points and
``snap_to_grid`` by name, the algorithms import ``clamp_to_bounds`` by name,
``RunContext.evaluate`` calls ``core.penalized_fitness`` through the module,
and the harness calls ``run``, ``get_problem`` and ``run_cell`` through its
own globals).  Nothing inside the package changes.

Each wrapper records a span.  Spans nest through one stack, so a span's self
time is its duration minus the durations of the spans opened inside it.  A
span's name starts with its layer: ``core``, ``algorithms``, ``problems``,
``fem`` or ``harness``.  Spans are aggregated per name as they close
(calls, total seconds, self seconds), so memory stays constant.

``layer_metrics`` turns the span table of a traced run into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from time import perf_counter

LAYERS = ("core", "algorithms", "problems", "fem", "harness")
ALGORITHMS = ("bbo", "kha", "teo")
CONSTRAINT_HELPERS = ("stress_violations", "displacement_violation", "frequency_violations")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self._stack: list[list[float]] = []
        self._algorithm = None
        self._designs: set[bytes] = set()

    def wrap(self, name: str, fn, observe=None, before=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs before the span opens and ``observe(result)``
        after it closes; neither is timed as part of the span.
        """
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - children[0]
            if observe is not None:
                observe(result)
            return result

        return traced

    # -- observers --------------------------------------------------------

    def start_run(self, args) -> None:
        """``core.run(algorithm, ...)`` starts: new duplicate scope."""
        self._algorithm = args[0].name
        self._designs = set()

    def note_design(self, snapped) -> None:
        """A truss evaluation snapped its design; count repeats in this run."""
        key = snapped.tobytes()
        self.counts[f"designs.{self._algorithm}"] += 1
        if key in self._designs:
            self.counts[f"duplicates.{self._algorithm}"] += 1
        else:
            self._designs.add(key)

    def note_offer(self, admitted: bool) -> None:
        self.counts["memory.admitted"] += bool(admitted)

    def table(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
        }


def install(tracer: Tracer, patcher) -> None:
    """Wrap the package's public functions; ``patcher.restore()`` undoes it."""
    from elitopt import core, fem, harness
    from elitopt.algorithms import bbo, kha, teo
    from elitopt.problems import truss_geometry as tg

    wrap = tracer.wrap

    def wrapped(owner, attr, name, **hooks):
        patcher.replace(owner, attr, wrap(name, getattr(owner, attr), **hooks))

    # harness
    wrapped(harness, "run_experiment", "harness.run_experiment")
    wrapped(harness, "run_cell", "harness.run_cell")
    wrapped(harness, "write_manifest", "harness.write_manifest")
    wrapped(harness, "write_report", "harness.write_report")

    # problems: every problem the harness builds gets a traced evaluate
    get_problem = harness.get_problem

    def note_truss_result(result) -> None:
        violations = result[1]
        if len(violations) == 1 and violations[0] == tg.DEGENERATE_VIOLATION:
            tracer.counts["truss.fallbacks"] += 1

    def traced_problem(*args, **kwargs):
        problem = get_problem(*args, **kwargs)
        if isinstance(getattr(problem.evaluate, "__self__", None), tg.TrussDesign):
            evaluate = wrap(
                "problems.truss.evaluate", problem.evaluate,
                observe=note_truss_result,
            )
        else:
            evaluate = wrap("problems.analytic.evaluate", problem.evaluate)
        return dataclasses.replace(problem, evaluate=evaluate)

    patcher.replace(harness, "get_problem", wrap("problems.get_problem", traced_problem))
    wrapped(tg.TrussDesign, "search_space", "problems.truss.search_space")
    wrapped(tg.TrussDesign, "expand", "problems.truss.expand")

    # core
    wrapped(harness, "run", "core.run", before=tracer.start_run)
    wrapped(core.RunContext, "evaluate", "core.evaluate")
    wrapped(core, "penalized_fitness", "core.penalized_fitness")
    wrapped(core.EliteMemory, "offer", "core.memory.offer", observe=tracer.note_offer)
    wrapped(core.EliteMemory, "inject", "core.memory.inject")
    wrapped(tg, "snap_to_grid", "core.snap_to_grid", observe=tracer.note_design)
    for module in (bbo, kha, teo):
        wrapped(module, "clamp_to_bounds", "core.clamp_to_bounds")

    # algorithms
    for cls in (bbo.Bbo, kha.Kha, teo.Teo):
        wrapped(cls, "init_population", f"algorithms.{cls.name}.init_population")
        wrapped(cls, "step", f"algorithms.{cls.name}.step")

    # fem
    wrapped(tg, "TrussModel", "fem.model_build")
    wrapped(tg, "solve_static", "fem.solve_static")
    wrapped(tg, "natural_frequencies", "fem.natural_frequencies")
    wrapped(fem, "assemble_stiffness", "fem.assemble_stiffness")
    for helper in CONSTRAINT_HELPERS:
        wrapped(tg, helper, f"fem.constraints.{helper}")


def layer_metrics(table: dict, repeats: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced run, as ``{name: (value, unit)}``.

    ``.us``/``.ms`` are mean durations per call, ``.self_us``/``.self_ms``
    mean self times per call.  A layer the workload never enters reads 0.
    """
    calls, total, self_time = table["calls"], table["total"], table["self"]
    counts = table["counts"]

    def per_call(name, scale, times=total):
        n = calls.get(name, 0)
        return scale * times.get(name, 0.0) / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    us, ms = 1e6, 1e3
    m = {}
    m["core.evaluate.self_us"] = (per_call("core.evaluate", us, self_time), "us")
    m["core.penalized_fitness.us"] = (per_call("core.penalized_fitness", us), "us")
    m["core.memory.offer.us"] = (per_call("core.memory.offer", us), "us")
    m["core.memory.offer.calls"] = (calls.get("core.memory.offer", 0) / repeats, "count")
    m["core.memory.admit_ratio"] = (
        ratio(counts.get("memory.admitted", 0), calls.get("core.memory.offer", 0)),
        "ratio",
    )
    m["core.memory.inject.us"] = (per_call("core.memory.inject", us), "us")
    m["core.snap_to_grid.us"] = (per_call("core.snap_to_grid", us), "us")
    for alg in ALGORITHMS:
        m[f"algorithms.{alg}.step.self_ms"] = (
            per_call(f"algorithms.{alg}.step", ms, self_time), "ms"
        )

    truss_evals = calls.get("problems.truss.evaluate", 0)
    m["problems.truss.evaluate.self_us"] = (
        per_call("problems.truss.evaluate", us, self_time), "us"
    )
    m["problems.truss.search_space.us"] = (per_call("problems.truss.search_space", us), "us")
    m["problems.truss.expand.us"] = (per_call("problems.truss.expand", us), "us")
    for alg in ALGORITHMS:
        m[f"problems.truss.duplicate_ratio.{alg}"] = (
            ratio(counts.get(f"duplicates.{alg}", 0), counts.get(f"designs.{alg}", 0)),
            "ratio",
        )
    m["problems.truss.fallback_ratio"] = (
        ratio(counts.get("truss.fallbacks", 0), truss_evals), "ratio"
    )
    m["problems.analytic.evaluate.us"] = (per_call("problems.analytic.evaluate", us), "us")

    m["fem.model_build.us"] = (per_call("fem.model_build", us), "us")
    m["fem.assemble_stiffness.us"] = (per_call("fem.assemble_stiffness", us), "us")
    m["fem.solve_static.self_us"] = (per_call("fem.solve_static", us, self_time), "us")
    m["fem.natural_frequencies.self_us"] = (
        per_call("fem.natural_frequencies", us, self_time), "us"
    )
    helpers = [f"fem.constraints.{h}" for h in CONSTRAINT_HELPERS]
    m["fem.constraints.calls_per_eval"] = (
        ratio(sum(calls.get(h, 0) for h in helpers), truss_evals), "calls/eval"
    )
    m["fem.constraints.us"] = (
        ratio(us * sum(total.get(h, 0.0) for h in helpers), truss_evals), "us/eval"
    )

    m["harness.cell_io.self_ms"] = (per_call("harness.run_cell", ms, self_time), "ms")
    m["harness.write_report.ms"] = (per_call("harness.write_report", ms), "ms")

    wall = total.get("harness.run_experiment", 0.0)
    for layer in LAYERS:
        layer_self = sum(t for name, t in self_time.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_share"] = (ratio(layer_self, wall), "ratio")
    m["trace_overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return m
