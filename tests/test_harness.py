import csv
import dataclasses
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from elitopt.algorithms import BboParams, KhaParams, TeoParams, get_algorithm
from elitopt.cli import main
from elitopt.core import ConfigError, PenaltyParams, StatsRecord
from elitopt.harness import (
    HISTORY_HEADER,
    STATS_HEADER,
    ExperimentPlan,
    PlanCell,
    build_report,
    cell_seed,
    cell_stats_from_files,
    emit_plot_data,
    iterations_for_budget,
    plan_from_file,
    read_history_csv,
    read_manifest,
    read_stats_csv,
    run_experiment,
    write_history_csv,
    write_manifest,
    write_stats_csv,
)
from elitopt.problems import get_problem


def failing_problem(monkeypatch, name):
    """Have the harness build problem ``name`` with an ``evaluate`` that
    raises, so that every cell on it fails at its first evaluation."""
    import elitopt.harness as harness

    build = harness.get_problem

    def get_problem(prob, dim=10):
        problem = build(prob, dim=dim)
        if prob != name:
            return problem

        def evaluate(X):
            raise RuntimeError(f"{name} refuses to evaluate")

        return dataclasses.replace(problem, evaluate=evaluate)

    monkeypatch.setattr(harness, "get_problem", get_problem)


def small_plan(**over):
    kwargs = dict(
        algorithms=("bbo",),
        problems=("sphere",),
        memory_modes=(True, False),
        replicates=2,
        population_size=10,
        root_seed=7,
        max_iterations=5,
        dim=3,
    )
    kwargs.update(over)
    return ExperimentPlan(**kwargs)


def write_stats_file(path, stats):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_stats_csv(fh, stats)


def tree_digest(root):
    """Map of relative path -> content hash for a whole directory."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(1, "bbo", "sphere") == cell_seed(1, "bbo", "sphere")

    def test_varies_with_every_input(self):
        base = cell_seed(1, "bbo", "sphere")
        assert cell_seed(2, "bbo", "sphere") != base
        assert cell_seed(1, "kha", "sphere") != base
        assert cell_seed(1, "bbo", "michell") != base

    def test_fits_uint64(self):
        seed = cell_seed(2**64 - 1, "teo", "forth")
        assert 0 <= seed < 2**64

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_plan_refuses_a_root_seed_that_would_alias_another(self, seed, tmp_path):
        # -1 gave the cells of 2**64 - 1, and 2**64 + 5 those of 5
        small_plan(root_seed=2**64 - 1)
        with pytest.raises(ConfigError, match=r"^root_seed must be in \[0, 2\*\*64\)$"):
            small_plan(root_seed=seed)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"problem": "sphere", "max_iterations": 5,
                                    "seed": seed}))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: root_seed"):
            plan_from_file(path)


class TestIterationsForBudget:
    def test_full_population_cost(self):
        assert iterations_for_budget(4000, 50, 50) == 79

    def test_half_population_cost(self):
        assert iterations_for_budget(4000, 50, 25) == 158

    def test_remainder_discarded(self):
        assert iterations_for_budget(4010, 50, 50) == 79

    def test_budget_too_small(self):
        with pytest.raises(ConfigError):
            iterations_for_budget(80, 50, 50)

    def test_bad_per_iteration(self):
        with pytest.raises(ConfigError):
            iterations_for_budget(4000, 50, 0)


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        history = [(0, 12.5, 10), (1, 3.25, 20), (2, 3.25, 30)]
        path = tmp_path / "run_000.csv"
        write_history_csv(path, history)
        assert read_history_csv(path) == history

    def test_header_written(self, tmp_path):
        path = tmp_path / "run_000.csv"
        write_history_csv(path, [(0, 1.0, 5)])
        assert path.read_text().splitlines()[0] == ",".join(HISTORY_HEADER)

    def test_bad_header_names_line_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n0,1,2\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1:"):
            read_history_csv(path)

    def test_malformed_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(HISTORY_HEADER) + "\n0,1.5,10\n1,oops,20\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3:"):
            read_history_csv(path)

    def test_wrong_field_count_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(HISTORY_HEADER) + "\n0,1.5\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2:"):
            read_history_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(HISTORY_HEADER) + "\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_history_csv(path)


class TestStatsCsv:
    def test_round_trip(self, tmp_path):
        stats = StatsRecord(best=1.5, mean=2.25, worst=3.0, std=0.75,
                            nfes_median=400.0, runs=3)
        path = tmp_path / "stats.csv"
        write_stats_file(path, stats)
        assert read_stats_csv(path) == stats

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("just text\n")
        with pytest.raises(ValueError):
            read_stats_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text(",".join(STATS_HEADER) + "\n1,2\n")
        with pytest.raises(ValueError, match=r"stats\.csv:2: 2 fields, expected 6"):
            read_stats_csv(path)


class TestPlanFromFile:
    def write(self, tmp_path, doc):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return path

    def base_doc(self):
        return {"problem": "sphere", "max_iterations": 5,
                "population_size": 10, "replicates": 2, "dim": 3}

    def test_singular_keys(self, tmp_path):
        doc = self.base_doc()
        doc["algorithm"] = "bbo"
        plan, out = plan_from_file(self.write(tmp_path, doc))
        assert plan.algorithms == ("bbo",)
        assert plan.problems == ("sphere",)
        assert out is None

    def test_plural_keys_and_out(self, tmp_path):
        doc = self.base_doc()
        del doc["problem"]
        doc.update(problems=["sphere", "michell"], algorithms=["bbo", "teo"],
                   out="results")
        plan, out = plan_from_file(self.write(tmp_path, doc))
        assert plan.problems == ("sphere", "michell")
        assert plan.algorithms == ("bbo", "teo")
        assert out == "results"

    def test_both_forms_rejected(self, tmp_path):
        doc = self.base_doc()
        doc.update(problems=["michell"])
        with pytest.raises(ConfigError, match="not both"):
            plan_from_file(self.write(tmp_path, doc))

    def test_defaults_are_the_plan_fields(self, tmp_path):
        doc = {"problem": "sphere", "max_iterations": 5}
        plan, _ = plan_from_file(self.write(tmp_path, doc))
        assert plan == ExperimentPlan(problems=("sphere",), max_iterations=5)
        assert (plan.algorithms, plan.memory_modes, plan.replicates,
                plan.population_size, plan.root_seed) == (
                    ("bbo", "kha", "teo"), (True, False), 20, 50, 0)

    def test_manifest_records_the_table_that_ran(self, tmp_path):
        # an integral time_factor runs as 1.0 and was recorded as 1
        doc = self.base_doc()
        doc.update(algorithm="kha", kha={"time_factor": 1})
        plan, _ = plan_from_file(self.write(tmp_path, doc))
        write_manifest(plan, tmp_path)
        text = (tmp_path / "manifest.json").read_text()
        assert '"time_factor": 1.0,' in text
        manifest = json.loads(text)
        assert manifest["algorithm_params"] == {
            "kha": dataclasses.asdict(KhaParams(time_factor=1.0))}
        assert manifest["problems"] == ["sphere"] and manifest["root_seed"] == 0

    def test_algorithms_default_to_all(self, tmp_path):
        plan, _ = plan_from_file(self.write(tmp_path, self.base_doc()))
        assert plan.algorithms == ("bbo", "kha", "teo")

    def test_memory_modes(self, tmp_path):
        doc = self.base_doc()
        plan, _ = plan_from_file(self.write(tmp_path, doc))
        assert set(plan.memory_modes) == {True, False}
        doc["memory_enabled"] = False
        plan, _ = plan_from_file(self.write(tmp_path, doc))
        assert plan.memory_modes == (False,)

    def test_unknown_key_rejected(self, tmp_path):
        doc = self.base_doc()
        doc["replicatez"] = 3
        with pytest.raises(ConfigError, match="replicatez"):
            plan_from_file(self.write(tmp_path, doc))

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            plan_from_file(path)

    def test_algorithm_parameter_table(self, tmp_path):
        doc = self.base_doc()
        doc["algorithm"] = "bbo"
        doc["bbo"] = {"elite_keep": 3}
        plan, _ = plan_from_file(self.write(tmp_path, doc))
        assert plan.algorithm_params == {"bbo": BboParams(elite_keep=3)}
        assert plan.algorithm_instance("bbo").params.elite_keep == 3

    @pytest.mark.parametrize(
        "alg, table, where",
        [
            ("bbo", {"elite_keep": 2.5}, "bbo.elite_keep"),
            ("bbo", {"elite_keep": True}, "bbo.elite_keep"),
            ("bbo", {"mutation_max": "0.1"}, "bbo.mutation_max"),
            ("kha", {"induced_max": float("nan")}, "kha.induced_max"),
            ("kha", {"foraging_speed": float("inf")}, "kha.foraging_speed"),
            ("kha", {"crossover": "no"}, "kha.crossover"),
            ("kha", {"crossover": 0}, "kha.crossover"),
            ("teo", {"c1": 1.0}, "teo.c1"),
            ("teo", {"foo": 1}, "teo.foo"),
            ("teo", [0.3], "teo"),
            ("kha", None, "kha"),
        ],
    )
    def test_mistyped_parameter_table_rejected(self, tmp_path, alg, table, where):
        # each would load and then fail every cell of the algorithm, run
        # with the wrong setting, or end in a bare TypeError
        doc = self.base_doc()
        doc[alg] = table
        path = self.write(tmp_path, doc)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {where}")):
            plan_from_file(path)

    def test_parameter_table_keeps_its_values(self, tmp_path):
        doc = self.base_doc()
        doc["bbo"] = {"mutation_max": 0, "elite_keep": 0}
        doc["kha"] = {"crossover": False, "induced_max": 0.02}
        doc["teo"] = {}
        plan, _ = plan_from_file(self.write(tmp_path, doc))
        assert plan.algorithm_params == {
            "bbo": BboParams(mutation_max=0, elite_keep=0),
            "kha": KhaParams(crossover=False, induced_max=0.02),
            "teo": TeoParams(),
        }
        assert plan.algorithm_instance("kha").params.crossover is False

    def test_budget_and_iterations_exclusive(self, tmp_path):
        doc = self.base_doc()
        doc["budget"] = 4000
        with pytest.raises(ConfigError, match="exactly one"):
            plan_from_file(self.write(tmp_path, doc))
        del doc["max_iterations"]
        plan, _ = plan_from_file(self.write(tmp_path, doc))
        assert plan.budget == 4000

    @pytest.mark.parametrize(
        "key, value",
        [
            ("memory_enabled", "false"),
            ("memory_enabled", 0),
            ("replicates", "2"),
            ("replicates", 2.0),
            ("replicates", True),
            ("population_size", 10.5),
            ("seed", "7"),
            ("budget", "4000"),
            ("max_iterations", 5.0),
            ("dim", False),
            ("memory_fraction", "0.2"),
            ("memory_fraction", True),
            ("out", 5),
        ],
    )
    def test_mistyped_value_rejected(self, tmp_path, key, value):
        doc = self.base_doc()
        if key == "budget":
            del doc["max_iterations"]
        doc[key] = value
        with pytest.raises(ConfigError, match=key):
            plan_from_file(self.write(tmp_path, doc))

    @pytest.mark.parametrize("key", ["scale", "exponent"])
    def test_mistyped_penalty_rejected(self, tmp_path, key):
        doc = self.base_doc()
        doc["penalty"] = {key: "2"}
        with pytest.raises(ConfigError, match=f"penalty.{key}"):
            plan_from_file(self.write(tmp_path, doc))

    @pytest.mark.parametrize("key", ["scale", "exponent"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_penalty_rejected(self, tmp_path, key, value):
        # Python's json reads NaN and Infinity; such a plan must not load
        doc = self.base_doc()
        doc["penalty"] = {key: value}
        path = self.write(tmp_path, doc)
        assert ("NaN" if value != value else "Infinity") in path.read_text()
        with pytest.raises(ConfigError, match=f"penalty {key} must be finite"):
            plan_from_file(path)

    def test_integral_number_accepted_where_float_expected(self, tmp_path):
        doc = self.base_doc()
        doc["memory_fraction"] = 1
        doc["penalty"] = {"scale": 2, "exponent": 1}
        plan, _ = plan_from_file(self.write(tmp_path, doc))
        assert plan.memory_fraction == 1.0 and plan.penalty.exponent == 1.0

    @pytest.mark.parametrize("table, key", [(None, "memory_fraction"),
                                            ("penalty", "scale")])
    def test_int_too_large_for_a_float_rejected(self, tmp_path, table, key):
        # 401 digits: float() of it raises OverflowError
        doc = self.base_doc()
        if table is None:
            doc[key] = 10**400
        else:
            doc[table] = {key: 10**400}
        path = self.write(tmp_path, doc)
        assert len(str(10**400)) == 401 and str(10**400) in path.read_text()
        where = key if table is None else f"{table}.{key}"
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {where} must be float")):
            plan_from_file(path)

    def test_int_past_the_digit_limit_rejected_naming_the_file(self, tmp_path):
        # Python reads at most 4300 digits of an int from text
        path = self.write(tmp_path, self.base_doc())
        path.write_text(path.read_text()[:-1] + ', "memory_fraction": 1' + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not valid JSON")):
            plan_from_file(path)

    def test_penalty_table(self, tmp_path):
        doc = self.base_doc()
        doc["penalty"] = {"scale": 2.0, "exponent": 1.0}
        plan, _ = plan_from_file(self.write(tmp_path, doc))
        assert plan.penalty.scale == 2.0
        assert plan.penalty.exponent == 1.0

    def test_unknown_penalty_key_rejected(self, tmp_path):
        doc = self.base_doc()
        doc["penalty"] = {"scal": 3}
        path = self.write(tmp_path, doc)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: penalty.scal")):
            plan_from_file(path)

    @pytest.mark.parametrize("key", ["algorithms", "problems"])
    @pytest.mark.parametrize("value", [5, {"bbo": 1}, ["sphere", 1]])
    def test_name_list_must_be_strings(self, tmp_path, key, value):
        # a number was a bare TypeError, an object gave its keys, and a
        # non-string entry was turned into a string
        doc = self.base_doc()
        del doc["problem"]
        doc["problems"] = ["sphere"]
        doc[key] = value
        path = self.write(tmp_path, doc)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {key} must be")):
            plan_from_file(path)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        cli = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        example = cli.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "plan.json"
        path.write_text(example)
        plan, out = plan_from_file(path)
        assert plan.algorithms == ("bbo", "kha", "teo")
        assert plan.problems == ("michell", "sphere")
        assert (plan.budget, plan.replicates, out) == (4000, 20, "results")


class TestPlanValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            small_plan(algorithms=("bbo", "bbo"))
        with pytest.raises(ConfigError):
            small_plan(problems=("sphere", "sphere"))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="unknown algorithms"):
            small_plan(algorithms=("cuckoo",))

    def test_replicates_positive(self):
        with pytest.raises(ConfigError):
            small_plan(replicates=0)

    def test_fraction_checked_only_with_memory(self):
        small_plan(memory_modes=(False,), memory_fraction=5.0)
        with pytest.raises(ConfigError, match="fraction"):
            small_plan(memory_fraction=5.0)

    def test_budget_iterations_exclusive(self):
        with pytest.raises(ConfigError):
            small_plan(budget=4000)
        with pytest.raises(ConfigError):
            small_plan(max_iterations=None)

    def test_budget_leaving_no_full_iteration_refused_when_built(self, tmp_path):
        # it was refused only by cells(), inside run_experiment and after
        # the output directory was made
        with pytest.raises(ConfigError, match="^budget 60 leaves no full iteration"):
            ExperimentPlan(problems=("sphere",), budget=60)
        # teo's iteration costs half a population, so 15 leaves it one
        small_plan(algorithms=("teo",), max_iterations=None, budget=15)
        with pytest.raises(ConfigError, match="^budget 15 leaves no full iteration"):
            small_plan(algorithms=("teo", "bbo"), max_iterations=None, budget=15)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"problem": "sphere", "budget": 60}))
        with pytest.raises(ConfigError, match="plan.json: budget 60 leaves no full"):
            plan_from_file(path)

    def test_unknown_parameter_table_rejected(self):
        with pytest.raises(ConfigError):
            small_plan(algorithm_params={"cuckoo": {}})

    @pytest.mark.parametrize("params", [
        {"bbo": {"foo": 1}},
        {"kha": {"induced_max": float("nan")}},  # kha is not in the grid
        {"bbo": {"max_emigration": float("inf")}},
        {"bbo": {"elite_keep": float("nan")}},
    ])
    def test_bad_parameter_value_or_key_rejected(self, params):
        # a plan built in Python, not loaded from a file, is checked too
        with pytest.raises(ConfigError):
            small_plan(algorithm_params=params)

    def test_mistyped_parameters_rejected(self):
        # bbo would fail every cell with a TypeError, kha would run with
        # crossover on, since "no" is truthy
        with pytest.raises(ConfigError, match=r"^bbo\.elite_keep must be int"):
            small_plan(algorithms=("bbo", "kha"),
                       algorithm_params={"bbo": {"elite_keep": 2.5},
                                         "kha": {"crossover": "no"}})
        with pytest.raises(ConfigError, match=r"^kha\.crossover must be bool"):
            small_plan(algorithm_params={"kha": {"crossover": "no"}})

    @pytest.mark.parametrize("modes", [(1,), (True, 0), ()])
    def test_memory_modes_must_be_bools(self, modes):
        # (1,) would load and then fail every cell at RunConfig
        with pytest.raises(ConfigError, match="^memory_modes"):
            small_plan(memory_modes=modes)

    @pytest.mark.parametrize("modes", [(True, True), (False, False)])
    def test_repeated_memory_mode_rejected(self, modes):
        # both cells would be labelled alike and run into one directory
        with pytest.raises(ConfigError, match="duplicate memory mode"):
            small_plan(memory_modes=modes)
        assert small_plan(memory_modes=(True, False)).memory_modes == (True, False)

    def test_manifest_writes_float_fields_as_floats(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "algorithm": "bbo", "problem": "sphere", "max_iterations": 5,
            "population_size": 10, "memory_fraction": 1, "penalty": {"scale": 2},
        }))
        plans = [small_plan(memory_fraction=1, penalty=PenaltyParams(scale=2)),
                 plan_from_file(path)[0]]
        for plan in plans:
            write_manifest(plan, tmp_path)
            text = (tmp_path / "manifest.json").read_text()
            assert '"memory_fraction": 1.0,' in text and '"scale": 2.0,' in text

    def test_unknown_parameter_key_is_a_config_error(self, tmp_path):
        # a plan file, a plan built in Python and get_algorithm share one check
        table = {"foo": 1, "induced_max": 0.02}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"problem": "sphere", "max_iterations": 5,
                                    "kha": table}))
        message = "kha.foo is not a kha parameter"
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
            plan_from_file(path)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            small_plan(algorithm_params={"kha": table})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            get_algorithm("kha", table)
        assert get_algorithm("kha", {"induced_max": 0.02}).params.induced_max == 0.02

    def test_each_parameter_table_built_once(self, tmp_path, monkeypatch):
        # the plan builds the kha table; no cell or replicate builds another
        built = []
        for cls in (BboParams, KhaParams, TeoParams):
            def counted(params, check=cls.__post_init__):
                built.append(type(params).__name__)
                check(params)

            monkeypatch.setattr(cls, "__post_init__", counted)
        plan = small_plan(algorithms=("kha",), replicates=3,
                          algorithm_params={"kha": {"time_factor": 0.4}})
        report = run_experiment(plan, tmp_path)
        assert [c.status for c in report.cells] == ["ok", "ok"]
        assert built == ["KhaParams"]

    def test_numpy_integer_in_a_table_runs_and_is_recorded(self, tmp_path):
        # the manifest held the np.int64 and json.dump raised before any cell ran
        plan = small_plan(memory_modes=(True,),
                          algorithm_params={"bbo": {"elite_keep": np.int64(2)}})
        report = run_experiment(plan, tmp_path)
        assert report.cells[0].status == "ok"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["algorithm_params"]["bbo"]["elite_keep"] == 2

    def test_params_dataclass_passes_through(self):
        params = KhaParams(time_factor=0.4)
        plan = small_plan(algorithms=("kha",), algorithm_params={"kha": params})
        assert plan.algorithm_params["kha"] is params
        assert plan.algorithm_instance("kha").params is params
        assert dataclasses.replace(plan, root_seed=9).algorithm_params["kha"] is params

    def test_population_checked_by_every_algorithm(self):
        # an odd population is fine for bbo and kha, not for teo
        small_plan(algorithms=("bbo", "kha"), population_size=9)
        with pytest.raises(ConfigError, match="even"):
            small_plan(algorithms=("bbo", "teo"), population_size=9)

    def test_cells_share_seed_across_memory_modes(self):
        cells = small_plan().cells()
        assert [c.label for c in cells] == ["bbo-sphere-mem", "bbo-sphere-std"]
        assert cells[0].seed == cells[1].seed
        assert cells[0].memory and not cells[1].memory

    def test_budget_iterations_depend_on_algorithm_cost(self):
        plan = small_plan(algorithms=("bbo", "teo"), max_iterations=None,
                          budget=4000, population_size=50)
        iters = {c.algorithm: c.iterations for c in plan.cells()}
        assert iters == {"bbo": 79, "teo": 158}


class TestRunExperiment:
    def test_one_file_per_replicate(self, tmp_path):
        plan = small_plan(memory_modes=(True,))
        run_experiment(plan, tmp_path / "out")
        cell = tmp_path / "out" / "bbo-sphere-mem"
        assert sorted(p.name for p in cell.glob("run_*.csv")) == [
            "run_000.csv", "run_001.csv"]
        assert (cell / "stats.csv").is_file()
        assert (cell / "best.json").is_file()
        assert not (cell / "error.txt").exists()

    def test_grid_files_and_report(self, tmp_path):
        out = tmp_path / "out"
        report = run_experiment(small_plan(), out)
        assert (out / "manifest.json").is_file()
        assert (out / "report.csv").is_file()
        assert (out / "improvements.csv").is_file()
        assert (out / "report.txt").is_file()
        assert len(report.cells) == 2
        assert all(s.status == "ok" for s in report.cells)
        assert len(report.improvements) == 1
        assert "Per-cell statistics" in (out / "report.txt").read_text()

    def test_improvement_arithmetic(self, tmp_path):
        out = tmp_path / "out"
        report = run_experiment(small_plan(), out)
        pair = report.improvements[0]
        mem = read_stats_csv(out / "bbo-sphere-mem" / "stats.csv")
        std = read_stats_csv(out / "bbo-sphere-std" / "stats.csv")
        assert pair.memory_mean == mem.mean
        assert pair.standard_mean == std.mean
        expect = 100.0 * (std.mean - mem.mean) / std.mean
        assert pair.improvement_pct == pytest.approx(expect, rel=1e-12)
        assert report.mean_improvement == pytest.approx(pair.improvement_pct)
        assert report.max_improvement == pytest.approx(pair.improvement_pct)

    def test_stats_file_matches_recomputation(self, tmp_path):
        # recomputing from the history files and writing again reproduces
        # stats.csv byte for byte (values live at fixed formatting precision)
        out = tmp_path / "out"
        run_experiment(small_plan(memory_modes=(False,)), out)
        cell = out / "bbo-sphere-std"
        again = tmp_path / "again.csv"
        write_stats_file(again, cell_stats_from_files(cell))
        assert again.read_bytes() == (cell / "stats.csv").read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        plan = small_plan()
        run_experiment(plan, tmp_path / "a")
        run_experiment(plan, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_two_workers_write_the_same_files(self, tmp_path):
        plan = small_plan(algorithms=("bbo", "teo"), replicates=2)
        run_experiment(plan, tmp_path / "serial", workers=1)
        run_experiment(plan, tmp_path / "pool", workers=2)

        def results(root):
            return {path: digest for path, digest in tree_digest(root).items()
                    if path.endswith(("stats.csv", "best.json"))
                    or "/run_" in path}

        serial = results(tmp_path / "serial")
        # 4 cells of 2 run files, a stats file and a best file
        assert len(serial) == 16
        assert results(tmp_path / "pool") == serial

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_refused_before_any_file(self, workers, tmp_path):
        # it ran quietly with one process
        with pytest.raises(ConfigError, match=f"^workers must be >= 1, not {workers}$"):
            run_experiment(small_plan(), tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()

    def test_rerun_with_fewer_replicates_drops_stale_runs(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(small_plan(memory_modes=(True,), replicates=3), out)
        report = run_experiment(small_plan(memory_modes=(True,), replicates=2), out)
        cell = out / "bbo-sphere-mem"
        assert [p.name for p in sorted(cell.glob("run_*.csv"))] == [
            "run_000.csv", "run_001.csv"]
        assert report.cells[0].stats.runs == 2
        assert cell_stats_from_files(cell).runs == 2

    def test_failed_rerun_leaves_no_stale_results(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_experiment(small_plan(algorithms=("teo",), memory_modes=(True,)), out)
        # the rerun fails at its first evaluation
        failing_problem(monkeypatch, "sphere")
        run_experiment(small_plan(algorithms=("teo",), memory_modes=(True,)), out)
        cell = out / "teo-sphere-mem"
        assert (cell / "error.txt").is_file()
        assert not (cell / "best.json").exists()
        assert not list(cell.glob("run_*.csv"))

    def test_interrupted_rerun_leaves_no_stale_report(self, tmp_path, monkeypatch):
        # a rerun with another seed is interrupted in its second cell: the
        # first run's report, which reads ok for both cells, must be gone
        import elitopt.harness as harness

        out = tmp_path / "out"
        run_experiment(small_plan(root_seed=1), out)
        assert "ok" in (out / "report.csv").read_text()
        run_cell = harness.run_cell
        calls = []

        def interrupted(cell, *args, **kwargs):
            calls.append(cell.label)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return run_cell(cell, *args, **kwargs)

        monkeypatch.setattr(harness, "run_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(small_plan(root_seed=2), out)
        assert calls == ["bbo-sphere-mem", "bbo-sphere-std"]
        assert not list((out / "bbo-sphere-std").iterdir())
        for name in ("report.csv", "improvements.csv", "report.txt"):
            assert not (out / name).exists()

    def test_seed_changes_histories(self, tmp_path):
        run_experiment(small_plan(root_seed=1), tmp_path / "a")
        run_experiment(small_plan(root_seed=2), tmp_path / "b")
        a = (tmp_path / "a" / "bbo-sphere-mem" / "run_000.csv").read_text()
        b = (tmp_path / "b" / "bbo-sphere-mem" / "run_000.csv").read_text()
        assert a != b

    def test_failed_cell_is_isolated(self, tmp_path, monkeypatch):
        # the rastrigin cells fail at their first evaluation, the sphere
        # cells of the same algorithm run
        failing_problem(monkeypatch, "rastrigin")
        out = tmp_path / "out"
        plan = small_plan(problems=("sphere", "rastrigin"))
        report = run_experiment(plan, out)
        by_label = {s.label: s for s in report.cells}
        assert by_label["bbo-sphere-mem"].status == "ok"
        assert by_label["bbo-rastrigin-mem"].status == "failed"
        assert (out / "bbo-rastrigin-mem" / "error.txt").is_file()
        assert "refuses to evaluate" in (
            out / "bbo-rastrigin-mem" / "error.txt").read_text()
        assert not (out / "bbo-sphere-mem" / "error.txt").exists()
        # only the healthy pair is compared
        assert [p.problem for p in report.improvements] == ["sphere"]

    def test_manifest_round_trip(self, tmp_path):
        out = tmp_path / "out"
        plan = small_plan()
        run_experiment(plan, out)
        assert read_manifest(out) == plan.cells()

    def test_best_json_contents(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(small_plan(memory_modes=(True,)), out)
        doc = json.loads((out / "bbo-sphere-mem" / "best.json").read_text())
        assert set(doc) == {"replicate", "fitness", "objective", "violations",
                            "position", "design"}
        assert len(doc["position"]) == 3
        assert doc["fitness"] >= 0

    @pytest.mark.parametrize("problem", ["michell", "sphere"])
    def test_best_design_reproduces_its_record(self, tmp_path, problem):
        # the recorded design, evaluated alone, gives the recorded objective
        # and violations bit for bit; on gridded michell it is the snap of
        # the raw position, which differs from it
        out = tmp_path / "out"
        plan = small_plan(algorithms=("kha",), problems=(problem,),
                          memory_modes=(True,), population_size=12)
        run_experiment(plan, out)
        doc = json.loads((out / f"kha-{problem}-mem" / "best.json").read_text())
        design = np.array([doc["design"]])
        objectives, violations = get_problem(problem, dim=plan.dim).evaluate(design)
        assert objectives[0].tobytes() == np.float64(doc["objective"]).tobytes()
        assert violations[0].tobytes() == np.array(doc["violations"]).tobytes()
        if problem == "michell":
            assert doc["design"] != doc["position"]
        else:
            assert doc["design"] == doc["position"]

    def test_interrupted_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        dump = json.dump

        def dump_then_fail(obj, fh, **kwargs):
            if fh.name.endswith("best.json.tmp"):
                fh.write('{"replicate": ')
                raise OSError("disk full")
            return dump(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", dump_then_fail)
        out = tmp_path / "out"
        run_experiment(small_plan(memory_modes=(True,)), out)
        cell = out / "bbo-sphere-mem"
        assert "disk full" in (cell / "error.txt").read_text()
        assert not (cell / "best.json").exists()
        assert not list(out.rglob("*.tmp"))

    def test_cell_failing_after_its_stats_is_reported_failed(self, tmp_path, monkeypatch):
        dump = json.dump

        def dump_then_fail(obj, fh, **kwargs):
            if fh.name.endswith("bbo-sphere-mem/best.json.tmp"):
                raise OSError("disk full")
            return dump(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", dump_then_fail)
        out = tmp_path / "out"
        report = run_experiment(small_plan(), out)
        assert (out / "bbo-sphere-mem" / "stats.csv").exists()
        status = {c.label: c.status for c in report.cells}
        assert status == {"bbo-sphere-mem": "failed", "bbo-sphere-std": "ok"}
        assert report.improvements == ()
        assert report.mean_improvement is None
        with open(out / "report.csv", newline="") as fh:
            rows = {row["cell"]: row["status"] for row in csv.DictReader(fh)}
        assert rows == status

    def test_failed_rewrite_keeps_the_complete_file(self, tmp_path):
        path = tmp_path / "run_000.csv"
        write_history_csv(path, [(0, 1.5, 10)])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_history_csv(path, [(0, 1.0, 10), (1, None, 20)])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run_000.csv"]


class TestReportEdgeCases:
    def make_cell(self, out, label, alg, mem, mean):
        cell_dir = out / label
        cell_dir.mkdir(parents=True)
        write_stats_file(cell_dir / "stats.csv",
                         StatsRecord(best=mean, mean=mean, worst=mean, std=0.0,
                                     nfes_median=100.0, runs=2))
        return PlanCell(label=label, algorithm=alg, problem="sphere",
                        memory=mem, seed=0, iterations=5)

    def test_zero_standard_mean_skipped(self, tmp_path):
        cells = [
            self.make_cell(tmp_path, "bbo-sphere-mem", "bbo", True, 1.0),
            self.make_cell(tmp_path, "bbo-sphere-std", "bbo", False, 0.0),
        ]
        report = build_report(tmp_path, cells)
        assert report.improvements == ()
        assert report.mean_improvement is None

    def test_unequal_run_counts_skipped(self, tmp_path):
        cells = [
            self.make_cell(tmp_path, "bbo-sphere-mem", "bbo", True, 1.0),
            self.make_cell(tmp_path, "bbo-sphere-std", "bbo", False, 2.0),
        ]
        bad = StatsRecord(best=1.0, mean=1.0, worst=1.0, std=0.0,
                          nfes_median=100.0, runs=3)
        write_stats_file(tmp_path / "bbo-sphere-mem" / "stats.csv", bad)
        report = build_report(tmp_path, cells)
        assert report.improvements == ()

    def test_short_stats_row_reported_failed(self, tmp_path):
        cells = [
            self.make_cell(tmp_path, "bbo-sphere-mem", "bbo", True, 1.0),
            self.make_cell(tmp_path, "bbo-sphere-std", "bbo", False, 2.0),
        ]
        (tmp_path / "bbo-sphere-mem" / "stats.csv").write_text(
            ",".join(STATS_HEADER) + "\n1,2\n")
        report = build_report(tmp_path, cells)
        assert [c.status for c in report.cells] == ["failed", "ok"]
        assert report.improvements == ()

    def test_missing_partner_skipped(self, tmp_path):
        cells = [self.make_cell(tmp_path, "bbo-sphere-mem", "bbo", True, 1.0)]
        report = build_report(tmp_path, cells)
        assert report.improvements == ()
        assert report.cells[0].status == "ok"


class TestPlotData:
    def test_merges_files_with_cell_and_run_columns(self, tmp_path):
        cell = tmp_path / "bbo-sphere-mem"
        cell.mkdir()
        write_history_csv(cell / "run_000.csv", [(0, 5.0, 10), (1, 4.0, 20)])
        write_history_csv(cell / "run_001.csv", [(0, 6.0, 10), (1, 3.0, 20)])
        stream = io.StringIO()
        emit_plot_data(sorted(cell.glob("run_*.csv")), stream)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "cell,run,iteration,best_so_far,nfes"
        assert lines[1] == "bbo-sphere-mem,0,0,5,10"
        assert lines[3] == "bbo-sphere-mem,1,0,6,10"
        assert len(lines) == 5

    def test_requires_at_least_one_file(self):
        with pytest.raises(ValueError):
            emit_plot_data([], io.StringIO())


class TestCli:
    def write_plan(self, tmp_path, **extra):
        doc = {"algorithm": "bbo", "problem": "sphere", "max_iterations": 5,
               "population_size": 10, "replicates": 2, "dim": 3, "seed": 3}
        doc.update(extra)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return path

    def test_list_verbs(self, capsys):
        assert main(["list-problems"]) == 0
        assert capsys.readouterr().out.split() == [
            "forth", "michell", "rastrigin", "rosenbrock", "sphere", "truss37"]
        assert main(["list-algorithms"]) == 0
        assert capsys.readouterr().out.split() == ["bbo", "kha", "teo"]

    def test_run_writes_grid_and_prints_report(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(plan), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Per-cell statistics" in printed
        assert (out / "report.csv").is_file()
        assert (out / "bbo-sphere-mem" / "run_001.csv").is_file()

    def test_run_refuses_a_population_the_algorithm_cannot_run(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, algorithm="teo", population_size=9)
        out = tmp_path / "out"
        assert main(["run", str(plan), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError" and "even" in error["message"]
        assert not out.exists()

    def test_run_refuses_a_mistyped_parameter_table(self, tmp_path, capsys):
        # it would run every bbo cell into error.txt and exit 0
        plan = self.write_plan(tmp_path, bbo={"elite_keep": 2.5})
        out = tmp_path / "out"
        assert main(["run", str(plan), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert "bbo.elite_keep" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "root_seed must be in [0, 2**64)"),
        ("--workers", "0", "workers must be >= 1, not 0"),
    ])
    def test_run_refuses_a_bad_override(self, flag, value, message, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(plan), "--out", str(out), flag, value]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "ConfigError", "message": message}
        assert not out.exists()

    def test_run_out_from_plan_file(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, out=str(tmp_path / "from_plan"))
        assert main(["run", str(plan)]) == 0
        capsys.readouterr()
        assert (tmp_path / "from_plan" / "report.csv").is_file()

    def test_run_memory_override(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(plan), "--out", str(out), "--memory", "off"]) == 0
        capsys.readouterr()
        assert (out / "bbo-sphere-std").is_dir()
        assert not (out / "bbo-sphere-mem").exists()

    def test_run_memory_both_override(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path, memory_enabled=True)
        out = tmp_path / "out"
        assert main(["run", str(plan), "--out", str(out), "--memory", "both"]) == 0
        capsys.readouterr()
        assert (out / "bbo-sphere-mem").is_dir() and (out / "bbo-sphere-std").is_dir()

    def test_run_seed_override(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        main(["run", str(plan), "--out", str(tmp_path / "a")])
        main(["run", str(plan), "--out", str(tmp_path / "b"), "--seed", "99"])
        capsys.readouterr()
        a = (tmp_path / "a" / "bbo-sphere-mem" / "run_000.csv").read_text()
        b = (tmp_path / "b" / "bbo-sphere-mem" / "run_000.csv").read_text()
        assert a != b

    def test_overrides_run_with_the_plan_tables(self, tmp_path, capsys):
        # --seed and --memory replace fields of the loaded plan, and the
        # worker processes get its built tables
        plan = self.write_plan(tmp_path, bbo={"elite_keep": 0, "mutation_max": 0.5})
        out = tmp_path / "out"
        assert main(["run", str(plan), "--out", str(out), "--seed", "99",
                     "--memory", "off", "--workers", "2"]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["root_seed"], manifest["memory_modes"]) == (99, [False])
        assert manifest["algorithm_params"]["bbo"]["mutation_max"] == 0.5
        loaded, _ = plan_from_file(plan)
        expected = dataclasses.replace(loaded, root_seed=99, memory_modes=(False,))
        default = dataclasses.replace(expected, algorithm_params={})
        run_experiment(expected, tmp_path / "expected")
        run_experiment(default, tmp_path / "default")
        run = "bbo-sphere-std/run_000.csv"
        assert (out / run).read_bytes() == (tmp_path / "expected" / run).read_bytes()
        assert (out / run).read_bytes() != (tmp_path / "default" / run).read_bytes()

    def test_stats_verb_matches_stats_file(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        out = tmp_path / "out"
        main(["run", str(plan), "--out", str(out)])
        capsys.readouterr()
        cell = out / "bbo-sphere-std"
        assert main(["stats", str(cell)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(STATS_HEADER)
        assert lines[1] == (cell / "stats.csv").read_text().splitlines()[1]

    def test_plotdata_verb_glob(self, tmp_path, capsys):
        plan = self.write_plan(tmp_path)
        out = tmp_path / "out"
        main(["run", str(plan), "--out", str(out)])
        capsys.readouterr()
        target = tmp_path / "plot.csv"
        code = main(["plotdata", str(out / "bbo-sphere-mem" / "run_*.csv"),
                     "--output", str(target)])
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "cell,run,iteration,best_so_far,nfes"
        assert all(line.startswith("bbo-sphere-mem,") for line in lines[1:])

    @pytest.mark.parametrize("key, value", [
        ("problem", "michel"),
        ("dim", 0),
        ("population_size", 0),
        ("memory_fraction", 5.0),
    ])
    def test_bad_plan_value_fails_at_load(self, tmp_path, capsys, key, value):
        plan = self.write_plan(tmp_path, **{key: value})
        out = tmp_path / "out"
        assert main(["run", str(plan), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_errors_are_json_on_stderr(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        doc = json.loads(captured.err)
        assert set(doc) == {"error", "message"}
        assert "missing.json" in doc["message"]

    def test_stats_error_path(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nowhere")]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ValueError"

    def test_plotdata_failure_keeps_previous_output(self, tmp_path, capsys):
        # a malformed history file fails the merge with exit code 2 and
        # leaves the earlier output as it was, with no partial file
        good = tmp_path / "good" / "run_000.csv"
        good.parent.mkdir()
        write_history_csv(good, [(0, 1.5, 10), (1, 1.25, 20)])
        bad = tmp_path / "bad" / "run_000.csv"
        bad.parent.mkdir()
        bad.write_text(",".join(HISTORY_HEADER) + "\n0,oops,10\n")
        target = tmp_path / "plot.csv"
        assert main(["plotdata", str(good), "--output", str(target)]) == 0
        before = target.read_bytes()
        assert main(["plotdata", str(good), str(bad), "--output", str(target)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad", "good", "plot.csv"]

    def test_plotdata_merges_each_file_once(self, tmp_path, capsys):
        # a file named both literally and by a glob was merged twice
        cell = tmp_path / "bbo-sphere-mem"
        cell.mkdir()
        for r in range(2):
            write_history_csv(cell / f"run_{r:03d}.csv", [(0, 2.0 + r, 10), (1, 1.0, 20)])
        target = tmp_path / "plot.csv"
        assert main(["plotdata", str(cell / "run_000.csv"), str(cell / "run_*.csv"),
                     str(cell / ".." / cell.name / "run_001.csv"),
                     "--output", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["0", "0", "1", "1"]

    def test_plotdata_no_match(self, tmp_path, capsys):
        assert main(["plotdata", str(tmp_path / "nope_*.csv")]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "FileNotFoundError"

    def test_plotdata_refuses_a_pattern_that_matches_nothing(self, tmp_path, capsys):
        # a typo beside a pattern that matches was dropped, with exit code 0
        cell = tmp_path / "c"
        cell.mkdir()
        write_history_csv(cell / "run_000.csv", [(0, 2.0, 10), (1, 1.0, 20)])
        target = tmp_path / "plot.csv"
        typo = str(tmp_path / "typo_*.csv")
        assert main(["plotdata", str(cell / "run_000.csv"), typo,
                     "--output", str(target)]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "FileNotFoundError" and repr(typo) in doc["message"]
        assert not target.exists()
