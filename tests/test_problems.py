import json
import math
import re

import numpy as np
import pytest

from elitopt.core import ConfigError, PenaltyParams, RunContext, snap_to_grid
from elitopt.fem import ModelError, TrussModel, natural_frequencies
from elitopt.problems import (
    DATA_DIR_ENV,
    data_dir,
    get_problem,
    load_design,
    michell_analytical_weight,
    problem_names,
)
from elitopt.problems.analytic import (
    FUNCTIONS,
    analytic_problem,
    rastrigin,
    rosenbrock,
    sphere,
)
from elitopt.problems.truss_geometry import DEGENERATE_VIOLATION, TrussDesign
from oracles import bundled_doc, contract, evaluate_design, expand_loop


def mid_vector(space):
    return 0.5 * (space.lower + space.upper)


def evaluate_one(design, x):
    """``(weight, violation row)`` of one design, as a batch of one."""
    weights, violations = design.evaluate(np.asarray(x, dtype=float)[None])
    return weights[0], violations[0]


class TestAnalyticFunctions:
    def test_sphere(self):
        assert sphere([1.0, 2.0]) == 5.0
        assert sphere(np.zeros(10)) == 0.0

    def test_rastrigin(self):
        assert rastrigin(np.zeros(4)) == 0.0
        # integer points kill the cosine term: 10n + sum(x^2) - 10n + ...
        assert rastrigin([1.0, 1.0]) == pytest.approx(2.0)

    def test_rosenbrock(self):
        assert rosenbrock(np.ones(6)) == 0.0
        assert rosenbrock([0.0, 0.0]) == pytest.approx(1.0)

    def test_problem_wrapper(self):
        problem = analytic_problem("sphere", dim=4)
        assert problem.space.dim == 4
        assert np.all(problem.space.lower == -5.12)
        assert np.all(problem.space.upper == 5.12)
        values, violations = problem.evaluate(np.array([[1.0, 0.0, 0.0, 2.0]]))
        assert values.tolist() == [5.0]
        assert violations.shape == (1, 0)

    @pytest.mark.parametrize("name", ["sphere", "rastrigin", "rosenbrock"])
    @pytest.mark.parametrize("dim", [1, 2, 10, 23])
    def test_batch_matches_rows(self, name, dim):
        problem = analytic_problem(name, dim=dim)
        rng = np.random.default_rng(dim)
        X = problem.space.sample(60, rng)
        X[::7] = np.round(X[::7])  # integer points, where cos is exactly 1
        values, violations = problem.evaluate(X)
        assert values.shape == (len(X),) and violations.shape == (len(X), 0)
        for x, value in zip(X, values):
            alone = FUNCTIONS[name](x)
            assert isinstance(alone, float)
            assert value.tobytes() == np.float64(alone).tobytes()

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            analytic_problem("sphere", dim=0)

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            analytic_problem("ackley")


class TestRegistry:
    def test_names(self):
        assert problem_names() == [
            "forth", "michell", "rastrigin", "rosenbrock", "sphere", "truss37",
        ]

    def test_analytic_dim_passthrough(self):
        assert get_problem("rastrigin", dim=7).space.dim == 7

    def test_truss_dims_come_from_file(self):
        assert get_problem("michell").space.dim == 10
        assert get_problem("forth").space.dim == 26
        assert get_problem("truss37").space.dim == 19

    def test_unknown_problem(self):
        with pytest.raises(KeyError, match="available"):
            get_problem("nonexistent")

    def test_data_dir_from_environment(self, tmp_path, monkeypatch):
        doc = json.loads((data_dir() / "michell_arch.json").read_text())
        doc["name"] = "michell_copy"
        (tmp_path / "michell_arch.json").write_text(json.dumps(doc))
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert load_design("michell").name == "michell_copy"


def collapsing_doc():
    """Tiny triangle whose apex can be driven onto a support node."""
    return {
        "name": "collapsing",
        "material": {"young_modulus": 210e9, "density": 7800.0},
        "nodes": [
            {"id": 1, "x": 0.0, "y": 0.0},
            {"id": 2, "x": 1.0, "y": 0.0},
            {"id": 3, "x": 1.0, "y": 1.0},
        ],
        "elements": [
            {"id": 1, "nodes": [1, 2], "group": "base"},
            {"id": 2, "nodes": [1, 3], "group": "legs"},
            {"id": 3, "nodes": [2, 3], "group": "legs"},
        ],
        "supports": [
            {"node": 1, "fix_x": True, "fix_y": True},
            {"node": 2, "fix_y": True},
        ],
        "loads": [{"node": 3, "fy": -1e4}],
        "size_variables": [
            {"name": "a_base", "groups": ["base"], "lower": 1.0,
             "upper": 5.0, "unit_scale": 1e-4, "grid": None},
            {"name": "a_legs", "groups": ["legs"], "lower": 1.0,
             "upper": 5.0, "unit_scale": 1e-4, "grid": None},
        ],
        "shape_variables": [
            {"name": "y_apex", "lower": 0.0, "upper": 1.0, "unit_scale": 1.0,
             "targets": [{"node": 3, "axis": "y", "coeff": 1.0, "datum": 0.0}]},
        ],
        "constraints": {"stress_limit": 240e6, "displacement_limits": [],
                        "frequency_bounds": []},
    }


class TestTrussDesignMapping:
    """The loaded design against references that read the geometry
    document itself, not the design's parse of it."""

    def test_expand_contract_round_trip(self, rng):
        design = load_design("michell")
        space = design.search_space()
        x = space.lower + rng.random(space.dim) * (space.upper - space.lower)
        coords, areas = design.expand(x)
        assert np.allclose(contract(bundled_doc("michell"), coords, areas), x, rtol=1e-12)

    def test_shape_targets_apply_datum_and_coeff(self):
        design, doc = load_design("michell"), bundled_doc("michell")
        x = mid_vector(design.search_space())
        coords, _ = design.expand(x)
        nodes = {n["id"]: k for k, n in enumerate(doc["nodes"])}
        ns = len(doc["size_variables"])
        for k, var in enumerate(doc["shape_variables"]):
            for t in var["targets"]:
                expect = t["datum"] + t["coeff"] * var["unit_scale"] * x[ns + k]
                got = coords[nodes[t["node"]], "xy".index(t["axis"])]
                assert got == pytest.approx(expect)

    @pytest.mark.parametrize("name", ["michell", "truss37", "forth"])
    def test_expand_matches_per_variable_loop(self, name, rng):
        design = load_design(name)
        space = design.search_space()
        x = space.lower + rng.random(space.dim) * (space.upper - space.lower)
        coords, areas = expand_loop(bundled_doc(name), x)
        got_coords, got_areas = design.expand(x)
        assert np.array_equal(got_coords, coords)
        assert np.array_equal(got_areas, areas)

    def test_coordinate_targeted_twice_keeps_its_last_target(self):
        doc = apex_doc()
        # y_apex sets the apex y first, then y_again twice
        doc["shape_variables"].append(
            {"name": "y_again", "lower": 0.0, "upper": 1.0, "unit_scale": 0.5,
             "targets": [{"node": 3, "axis": "y", "coeff": 2.0, "datum": 0.25},
                         {"node": 3, "axis": "y", "coeff": 1.0, "datum": 0.125}]})
        design = TrussDesign(doc)
        x = np.array([2.0, 3.0, 0.75, 0.5, 0.375])
        coords, areas = design.expand(x)
        ref_coords, ref_areas = expand_loop(doc, x)
        assert np.array_equal(coords, ref_coords)
        assert np.array_equal(areas, ref_areas)
        assert coords[2].tolist() == [0.5, 0.125 + 0.5 * 0.375]

    @pytest.mark.parametrize("name", ["michell", "truss37", "forth"])
    def test_search_space_matches_document(self, name):
        space, doc = load_design(name).search_space(), bundled_doc(name)
        variables = doc["size_variables"] + doc.get("shape_variables", [])
        assert space.lower.tolist() == [v["lower"] for v in variables]
        assert space.upper.tolist() == [v["upper"] for v in variables]
        grids = [v.get("grid") for v in variables]
        if not any(grids):
            assert space.grids is None
            return
        for grid, spec in zip(space.grids, grids):
            if spec is None:
                assert grid is None
                continue
            count = round((spec["stop"] - spec["start"]) / spec["step"]) + 1
            assert grid.size == count
            assert np.allclose(grid, spec["start"] + spec["step"] * np.arange(count),
                               rtol=0, atol=1e-12)

    def test_unit_scale_converts_sizes(self):
        design, doc = load_design("michell"), bundled_doc("michell")
        x = mid_vector(design.search_space())
        x[0] = 2.5
        _, areas = design.expand(x)
        var = doc["size_variables"][0]
        members = [k for k, e in enumerate(doc["elements"]) if e["group"] in var["groups"]]
        assert members
        assert np.allclose(areas[members], 2.5 * var["unit_scale"])

    def test_wrong_length_rejected(self):
        design = load_design("michell")
        with pytest.raises(ValueError):
            design.expand(np.zeros(3))

    def test_fixed_chord_areas_ignore_design_vector(self, rng):
        design = load_design("truss37")
        space = design.search_space()
        fixed_idx = [
            k for k, g in enumerate(design.member_groups) if g == "chord_fixed"
        ]
        assert len(fixed_idx) == 10
        for _ in range(3):
            x = space.lower + rng.random(space.dim) * (space.upper - space.lower)
            _, areas = design.expand(x)
            assert np.allclose(areas[fixed_idx], 4e-3)

    def test_groups_without_area_source_rejected(self):
        doc = collapsing_doc()
        doc["size_variables"].pop()
        with pytest.raises(ConfigError, match="legs"):
            TrussDesign(doc)

    def test_duplicate_group_assignment_rejected(self):
        doc = collapsing_doc()
        doc["size_variables"].append(
            {"name": "again", "groups": ["base"], "lower": 1.0, "upper": 2.0,
             "unit_scale": 1e-4, "grid": None})
        with pytest.raises(ConfigError, match="twice"):
            TrussDesign(doc)


def with_value(doc, path, value):
    """``doc`` with the entry at ``path`` (keys and indices) set to ``value``."""
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


def fixed_base_doc():
    """``collapsing_doc`` with the base member's area fixed, not a variable."""
    doc = collapsing_doc()
    doc["size_variables"].pop(0)
    doc["fixed_areas"] = [{"group": "base", "area": 1e-4}]
    return doc


def typed_doc():
    """``collapsing_doc`` with a grid, a mass, a frequency bound and a
    displacement limit, so that every typed entry of the schema is present."""
    doc = collapsing_doc()
    doc["size_variables"][0]["grid"] = {"start": 1.0, "stop": 5.0, "step": 0.5}
    doc["masses"] = [{"node": 3, "mass": 10.0}]
    doc["constraints"]["frequency_bounds"] = [1.0]
    doc["constraints"]["displacement_limits"] = [{"node": 3, "axis": "y", "limit": 0.01}]
    return doc


# (document, path, wrong value, the entry its ConfigError names)
MISTYPED_VALUES = (
    [(typed_doc, path, value, entry) for path, entry in [
        (("nodes", 2, "x"), "node 3 x"),
        (("nodes", 0, "y"), "node 1 y"),
        (("loads", 0, "fy"), "load fy"),
        (("size_variables", 0, "lower"), "'a_base' lower"),
        (("size_variables", 1, "upper"), "'a_legs' upper"),
        (("size_variables", 0, "unit_scale"), "'a_base' unit_scale"),
        (("shape_variables", 0, "targets", 0, "datum"), "'y_apex' target datum"),
        (("shape_variables", 0, "targets", 0, "coeff"), "'y_apex' target coeff"),
        (("material", "young_modulus"), "material young_modulus"),
        (("material", "density"), "material density"),
        (("size_variables", 0, "grid", "start"), "'a_base' grid start"),
        (("size_variables", 0, "grid", "stop"), "'a_base' grid stop"),
        (("size_variables", 0, "grid", "step"), "'a_base' grid step"),
        (("constraints", "frequency_bounds", 0), "frequency bound"),
        (("constraints", "displacement_limits", 0, "limit"), "displacement limit"),
        (("masses", 0, "mass"), "mass"),
    ] for value in (None, "1.5", True)]
    # null is a valid stress_limit: it means no stress constraint
    + [(typed_doc, ("constraints", "stress_limit"), value, "stress_limit")
       for value in ("1.5", True)]
    + [(fixed_base_doc, ("fixed_areas", 0, "area"), value, "fixed area of group 'base'")
       for value in (None, "1.5", True)]
    + [(typed_doc, path, value, entry) for path, entry in [
        (("nodes", 0, "id"), "node id"),
        (("supports", 0, "node"), "support node"),
        (("loads", 0, "node"), "load node"),
        (("masses", 0, "node"), "mass node"),
        (("elements", 1, "nodes", 1), "element 2 node"),
        (("shape_variables", 0, "targets", 0, "node"), "shape variable 'y_apex' node"),
        (("constraints", "displacement_limits", 0, "node"), "displacement limit node"),
    ] for value in (1.5, "3", True)]
    + [(typed_doc, ("supports", 1, "fix_x"), value, "support fix_x")
       for value in ("false", 1, None)]
    + [
        (typed_doc, ("elements", 0, "group"), 5, "element 1 group"),
        (typed_doc, ("size_variables", 0, "groups", 0), 5, "size variable 'a_base' group"),
        (fixed_base_doc, ("fixed_areas", 0, "group"), 5, "fixed area group"),
        (typed_doc, ("shape_variables", 0, "targets", 0, "axis"), 0,
         "shape variable 'y_apex' axis"),
        (typed_doc, ("constraints", "displacement_limits", 0, "axis"), None,
         "displacement limit axis"),
    ]
)


class TestLoadValidation:
    """Values that would only fail, or silently change the problem, at the
    first evaluation are refused when the geometry file is read."""

    @pytest.mark.parametrize("make, path, value, entry", MISTYPED_VALUES)
    def test_mistyped_value_rejected(self, make, path, value, entry):
        # each loaded (float("1.5"), int(1.5), bool("false")) or raised a bare
        # TypeError or ValueError naming neither the design nor the entry
        doc = make()
        TrussDesign(doc)
        with pytest.raises(ConfigError, match=f"^collapsing: {re.escape(entry)} must be "):
            TrussDesign(with_value(doc, path, value))

    def test_mistyped_design_name_rejected(self):
        with pytest.raises(ConfigError, match=r"^5: name must be str, not 5$"):
            TrussDesign(with_value(collapsing_doc(), ("name",), 5))

    @pytest.mark.parametrize("path", [
        ("nodes", 2, "x"),
        ("nodes", 0, "y"),
        ("loads", 0, "fy"),
        ("size_variables", 0, "lower"),
        ("size_variables", 1, "upper"),
        ("size_variables", 0, "unit_scale"),
        ("shape_variables", 0, "targets", 0, "datum"),
        ("shape_variables", 0, "targets", 0, "coeff"),
        ("material", "young_modulus"),
        ("material", "density"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, path, value):
        doc = with_value(collapsing_doc(), path, value)
        with pytest.raises(ConfigError, match="finite"):
            TrussDesign(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_fixed_area_rejected(self, value):
        doc = with_value(fixed_base_doc(), ("fixed_areas", 0, "area"), value)
        with pytest.raises(ConfigError, match="finite"):
            TrussDesign(doc)

    @pytest.mark.parametrize("make, path", [
        (fixed_base_doc, ("fixed_areas", 0, "area")),
        (collapsing_doc, ("size_variables", 0, "lower")),
        (collapsing_doc, ("size_variables", 1, "unit_scale")),
    ], ids=["fixed_area", "lower", "unit_scale"])
    @pytest.mark.parametrize("value", [0.0, -1e-4])
    def test_non_positive_area_source_rejected(self, make, path, value):
        # each would load and then give some member an area <= 0, so that
        # evaluation raised ModelError
        doc = make()
        TrussDesign(doc)
        with pytest.raises(ConfigError, match="must be positive"):
            TrussDesign(with_value(doc, path, value))

    @pytest.mark.parametrize("key", ["start", "stop", "step"])
    def test_non_finite_grid_rejected(self, key):
        doc = collapsing_doc()
        doc["size_variables"][0]["grid"] = {"start": 1.0, "stop": 5.0, "step": 0.5}
        TrussDesign(doc)
        doc["size_variables"][0]["grid"][key] = float("nan")
        with pytest.raises(ConfigError, match="finite"):
            TrussDesign(doc)

    @pytest.mark.parametrize("step", [0.0, -0.5])
    def test_grid_step_must_be_positive(self, step):
        doc = collapsing_doc()
        doc["size_variables"][0]["grid"] = {"start": 1.0, "stop": 5.0, "step": step}
        with pytest.raises(ConfigError, match="grid step must be positive"):
            TrussDesign(doc)

    @pytest.mark.parametrize("path, value, message", [
        (("supports", 1, "node"), 999, "support names unknown node 999"),
        (("loads", 0, "node"), 999, "load names unknown node 999"),
        (("elements", 1, "nodes"), [1, 999], "element 2 names unknown node 999"),
        (("masses",), [{"node": 999, "mass": 1.0}], "mass names unknown node 999"),
        (("shape_variables", 0, "targets", 0, "node"), 999,
         "shape variable 'y_apex' names unknown node 999"),
        (("shape_variables", 0, "targets", 0, "axis"), "z",
         "shape variable 'y_apex' names unknown axis 'z'"),
        (("constraints", "displacement_limits"), [{"node": 999, "axis": "y", "limit": 0.01}],
         "displacement limit names unknown node 999"),
        (("constraints", "displacement_limits"), [{"node": 3, "axis": "z", "limit": 0.01}],
         "displacement limit names unknown axis 'z'"),
    ])
    def test_unknown_node_or_axis_rejected_naming_the_entry(self, path, value, message):
        # each was a bare KeyError: 999 or KeyError: 'z'
        doc = with_value(collapsing_doc(), path, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'collapsing: {message}')}$"):
            TrussDesign(doc)

    @pytest.mark.parametrize("path, value, message", [
        (("shape_variables", 0, "upper"), -0.5, "'y_apex' upper -0.5 is below its lower 0.0"),
        (("size_variables", 1, "upper"), float("nan"), "'a_legs' upper must be finite, not nan"),
        (("size_variables", 0, "grid"), {"start": 0.5, "stop": 5.0, "step": 0.5},
         "'a_base' grid is empty or leaves [1.0, 5.0]"),
        (("size_variables", 0, "grid"), {"start": 5.0, "stop": 1.0, "step": 0.5},
         "'a_base' grid is empty or leaves [1.0, 5.0]"),
        (("size_variables", 0, "grid"), {"start": 1.0, "stop": 1.000000000001, "step": 1e-13},
         "'a_base' grid step 1e-13 is below its 1e-12 rounding"),
    ], ids=["upper_below_lower", "nan_upper", "grid_below_lower", "empty_grid",
            "step_below_rounding"])
    def test_bad_bounds_rejected_naming_the_variable(self, path, value, message):
        # each was a SearchSpace error naming neither the file nor the variable
        doc = with_value(collapsing_doc(), path, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'collapsing: {message}')}$"):
            TrussDesign(doc)

    @pytest.mark.parametrize("path", [
        ("material",), ("nodes",), ("elements",), ("material", "density"),
        ("nodes", 1, "x"), ("supports", 0, "node"), ("loads", 0, "node"),
        ("size_variables", 0, "lower"), ("shape_variables", 0, "targets", 0, "axis"),
    ])
    def test_missing_required_key_rejected(self, path):
        doc = collapsing_doc()
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        del target[last]
        with pytest.raises(ConfigError, match=re.escape(f"collapsing: lacks required key {last!r}")):
            TrussDesign(doc)

    def test_bad_bundled_file_names_itself(self, tmp_path, monkeypatch):
        doc = json.loads((data_dir() / "michell_arch.json").read_text())
        doc["supports"][0]["node"] = 999
        (tmp_path / "michell_arch.json").write_text(json.dumps(doc))
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        with pytest.raises(ConfigError, match="^michell_arch: support names unknown node 999$"):
            get_problem("michell")

    def test_all_fixed_supports_rejected(self):
        doc = collapsing_doc()
        doc["supports"] = [{"node": k, "fix_x": True, "fix_y": True} for k in (1, 2, 3)]
        with pytest.raises(ConfigError, match="no free DOFs"):
            TrussDesign(doc)

    def test_non_finite_mass_rejected(self):
        doc = collapsing_doc()
        doc["masses"] = [{"node": 3, "mass": float("inf")}]
        with pytest.raises(ConfigError, match="finite"):
            TrussDesign(doc)

    @pytest.mark.parametrize("limit", [0.0, -240e6, float("nan"), float("inf")])
    def test_stress_limit_must_be_positive_and_finite(self, limit):
        # null, not 0, means no stress constraint
        doc = collapsing_doc()
        doc["constraints"]["stress_limit"] = limit
        with pytest.raises(ConfigError, match="stress_limit"):
            TrussDesign(doc)

    @pytest.mark.parametrize("limit", [0.0, -0.01, float("nan"), float("inf")])
    def test_displacement_limit_must_be_positive_and_finite(self, limit):
        doc = collapsing_doc()
        doc["constraints"]["displacement_limits"] = [
            {"node": 3, "axis": "y", "limit": limit}]
        with pytest.raises(ConfigError, match="displacement limit"):
            TrussDesign(doc)

    @pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), float("inf")])
    def test_frequency_bound_must_be_positive_and_finite(self, bound):
        doc = collapsing_doc()
        doc["constraints"]["frequency_bounds"] = [5.0, bound]
        with pytest.raises(ConfigError, match="frequency bound"):
            TrussDesign(doc)

    def test_more_frequency_bounds_than_free_dofs_rejected(self):
        # the triangle has 3 free DOFs, so it has 3 natural frequencies
        doc = collapsing_doc()
        doc["masses"] = [{"node": 3, "mass": 10.0}]
        doc["constraints"]["frequency_bounds"] = [1.0, 2.0, 3.0]
        TrussDesign(doc)
        doc["constraints"]["frequency_bounds"].append(4.0)
        with pytest.raises(ConfigError, match="4 frequency bounds but only 3 free DOFs"):
            TrussDesign(doc)

    def test_violation_width_fixed_at_load(self):
        doc = collapsing_doc()
        doc["constraints"] = {
            "stress_limit": 240e6,
            "displacement_limits": [{"node": "all", "axis": "y", "limit": 0.01},
                                    {"node": 3, "axis": "x", "limit": 0.01}],
            "frequency_bounds": [1.0, 2.0],
        }
        doc["masses"] = [{"node": 3, "mass": 10.0}]
        design = TrussDesign(doc)
        _, violations = design.evaluate(np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 0.0]]))
        # 3 stress + 3 nodes + 1 node + 2 modes, for a healthy and a degenerate row
        assert violations.shape == (2, 9)
        assert violations[1].tolist() == [DEGENERATE_VIOLATION] + [0.0] * 8


class TestTrussEvaluation:
    def test_grid_snap_before_analysis(self):
        design = load_design("michell")
        space = design.search_space()
        x = mid_vector(space)
        x_off = x.copy()
        x[0] = 2.00
        x_off[0] = 2.004  # snaps back onto the 0.01 grid point
        assert evaluate_one(design, x_off)[0] == evaluate_one(design, x)[0]

    def test_degenerate_member_flagged_not_raised(self):
        design = TrussDesign(collapsing_doc())
        weight, violations = evaluate_one(design, [2.0, 2.0, 0.0])
        assert np.isfinite(weight)
        # the marker, then zeros for the other stress columns
        assert list(violations) == [DEGENERATE_VIOLATION, 0.0, 0.0]

    def test_mechanism_flagged_not_raised(self):
        doc = collapsing_doc()
        doc["nodes"][2]["x"] = 0.5
        design = TrussDesign(doc)
        # apex flattens onto the base line but member lengths stay finite
        weight, violations = evaluate_one(design, [2.0, 2.0, 0.0])
        assert np.isfinite(weight)
        # the marker, then zeros for the other stress columns
        assert list(violations) == [DEGENERATE_VIOLATION, 0.0, 0.0]

    def test_nonpositive_area_raised_not_flagged(self):
        # out-of-bounds sizes are a caller fault, not a degenerate design
        design = TrussDesign(collapsing_doc())
        with pytest.raises(ModelError, match="areas"):
            evaluate_one(design, [-2.0, 2.0, 1.0])

    def test_models_share_the_validated_topology(self, monkeypatch):
        import elitopt.problems.truss_geometry as tg

        topologies = []

        def recording(nodes, areas, topology):
            topologies.append(topology)
            return TrussModel(nodes, areas, topology)

        monkeypatch.setattr(tg, "TrussModel", recording)
        design = load_design("michell")
        fan = [math.cos(math.pi / 6.0), math.sin(math.pi / 3.0), 1.0]
        thick, thin = np.array([5.0] * 7 + fan), np.array([2.0] * 7 + fan)
        design.evaluate(np.array([thick]))
        design.evaluate(np.array([thin]))
        assert len(topologies) == 2
        assert all(t is design.topology for t in topologies)

    def test_invalid_supports_rejected_on_load(self):
        doc = collapsing_doc()
        doc["supports"] = [{"node": 1, "fix_x": True}]
        with pytest.raises(ConfigError, match="restrained"):
            TrussDesign(doc)

    def test_healthy_design_constraint_vector(self):
        design = TrussDesign(collapsing_doc())
        weight, violations = evaluate_one(design, [2.0, 2.0, 1.0])
        # one stress entry per member, nothing else configured
        assert violations.size == design.topology.n_members
        assert np.all(violations == 0.0)
        assert weight > 0

    def test_michell_fan_design_feasible_and_heavier_than_ideal(self):
        design = load_design("michell")
        x = np.array([5.0] * 7 + [math.cos(math.pi / 6.0),
                                  math.sin(math.pi / 3.0), 1.0])
        weight, violations = evaluate_one(design, x)
        assert np.all(violations == 0.0)
        assert weight > michell_analytical_weight()

    def test_forth_midpoint_assembles(self):
        design = load_design("forth")
        weight, violations = evaluate_one(design, mid_vector(design.search_space()))
        assert np.isfinite(weight) and weight > 0
        assert np.all(np.isfinite(violations))

    def test_truss37_frequencies_and_weight_monotone(self):
        design = load_design("truss37")
        space = design.search_space()
        x = mid_vector(space)
        freqs = natural_frequencies(
            TrussModel(*design.expand(x), design.topology), count=3)
        assert np.all(np.diff(freqs) >= 0)
        bigger = x.copy()
        bigger[:14] = space.upper[:14]
        assert evaluate_one(design, bigger)[0] > evaluate_one(design, x)[0]

    def test_weight_matches_density_area_length(self):
        design = TrussDesign(collapsing_doc())
        weight, _ = evaluate_one(design, [2.0, 3.0, 1.0])
        # base: 2 cm^2 over 1 m; legs: 3 cm^2 over sqrt(2) and 1 m
        expect = 7800.0 * (2e-4 * 1.0 + 3e-4 * (math.sqrt(2.0) + 1.0))
        assert weight == pytest.approx(expect, rel=1e-12)

    def test_two_bar_weight(self):
        # bars of 2 m at 0.01 m^2 and 1.5 m at 0.02 m^2, density 1000 kg/m^3
        doc = {
            "name": "two_bar",
            "material": {"young_modulus": 1e9, "density": 1000.0},
            "nodes": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 2.0, "y": 0.0},
                      {"id": 3, "x": 2.0, "y": 1.5}],
            "elements": [{"id": 1, "nodes": [1, 2], "group": "a"},
                         {"id": 2, "nodes": [2, 3], "group": "b"}],
            "supports": [{"node": 1, "fix_x": True, "fix_y": True},
                         {"node": 3, "fix_x": True, "fix_y": True}],
            "size_variables": [
                {"name": "a", "groups": ["a"], "lower": 0.01, "upper": 0.02},
                {"name": "b", "groups": ["b"], "lower": 0.01, "upper": 0.02},
            ],
        }
        weight, _ = evaluate_one(TrussDesign(doc), [0.01, 0.02])
        assert weight == pytest.approx(1000 * (0.01 * 2 + 0.02 * 1.5))


def apex_doc():
    """``collapsing_doc`` with the apex x free too.  At y_apex = 0 the apex
    lies on the base line: on node 2 at x_apex = 1 (a zero-length member),
    between the supports below that (a mechanism)."""
    doc = collapsing_doc()
    doc["shape_variables"].append(
        {"name": "x_apex", "lower": 0.5, "upper": 1.0, "unit_scale": 1.0,
         "targets": [{"node": 3, "axis": "x", "coeff": 1.0, "datum": 0.0}]})
    return doc


APEX_ROWS = np.array([
    [2.0, 3.0, 1.0, 1.0],   # healthy
    [2.0, 2.0, 0.0, 1.0],   # apex on node 2: zero-length member
    [2.5, 2.0, 1.0, 0.7],   # healthy
    [2.0, 2.0, 0.0, 0.5],   # apex between the supports: mechanism
    [4.0, 1.5, 0.5, 0.8],   # healthy
])


def assert_matches_per_design(design, doc, X):
    """Each row against the design analyzed alone, bit for bit, by the
    oracle that reads ``doc``, the design's geometry document; the oracle's
    degenerate ``[DEGENERATE_VIOLATION]`` is padded with zeros to the width
    of the batch.  Returns the degenerate-row mask."""
    weights, violations = design.evaluate(X)
    assert weights.shape == (len(X),) and violations.shape[0] == len(X)
    degenerate = []
    for x, weight, row in zip(X, weights, violations):
        ref_weight, ref = evaluate_design(design, doc, x)
        assert weight.tobytes() == np.float64(ref_weight).tobytes()
        degenerate.append(ref.tolist() == [DEGENERATE_VIOLATION])
        if degenerate[-1]:
            ref = np.concatenate([ref, np.zeros(row.size - 1)])
        assert row.tobytes() == ref.tobytes()
    return degenerate


class TestBatchEvaluation:
    @pytest.mark.parametrize("name", ["michell", "truss37", "forth"])
    def test_population_matches_per_design_bit_for_bit(self, name, rng):
        design, doc = load_design(name), bundled_doc(name)
        space = design.search_space()
        # the paper's population, analyzed as one stack
        X = space.sample(50, rng)
        # variables pushed onto their bounds bring short members on michell
        at_bound = rng.random(X.shape) < 0.2
        X[at_bound] = np.where(rng.random(X.shape) < 0.5, space.lower, space.upper)[at_bound]
        assert_matches_per_design(design, doc, X)

    @pytest.mark.parametrize("name, analysis", [
        ("forth", "solve_static"),
        ("truss37", "natural_frequencies"),
    ])
    def test_population_analyzed_in_one_call(self, name, analysis, monkeypatch, rng):
        import elitopt.problems.truss_geometry as tg

        calls = []
        wrapped = getattr(tg, analysis)

        def counting(model, **kwargs):
            calls.append(model.stack_shape)
            return wrapped(model, **kwargs)

        monkeypatch.setattr(tg, analysis, counting)
        design = load_design(name)
        design.evaluate(design.search_space().sample(50, rng))
        assert calls == [(50,)]

    def test_degenerate_and_mechanism_rows_among_healthy_ones(self):
        doc = apex_doc()
        design = TrussDesign(doc)
        degenerate = assert_matches_per_design(design, doc, APEX_ROWS)
        assert degenerate == [False, True, False, True, False]

    def test_massless_free_dof_still_raises(self):
        doc = collapsing_doc()
        doc["material"]["density"] = 0.0
        doc["constraints"] = {"stress_limit": None, "displacement_limits": [],
                              "frequency_bounds": [1.0]}
        design = TrussDesign(doc)
        with pytest.raises(ModelError, match="mass"):
            design.evaluate(np.array([[2.0, 2.0, 1.0], [3.0, 3.0, 0.5]]))
        # a call that raises remembers nothing
        assert not design._memo[0] and not design._memo[1].size

    def test_expand_stacks_rows(self, rng):
        design = load_design("forth")
        X = design.search_space().sample(4, rng)
        coords, areas = design.expand(X)
        for i, x in enumerate(X):
            one_coords, one_areas = design.expand(x)
            assert np.array_equal(coords[i], one_coords)
            assert np.array_equal(areas[i], one_areas)

    def test_without_constraints_one_column_carries_the_marker(self):
        doc = apex_doc()
        doc["constraints"] = {"stress_limit": None, "displacement_limits": [],
                              "frequency_bounds": []}
        design = TrussDesign(doc)
        # a healthy row, then the apex on node 2: a zero-length member
        X = np.array([[2.0, 3.0, 1.0, 1.0], [2.0, 2.0, 0.0, 1.0]])
        weights, violations = design.evaluate(X)
        assert violations.tolist() == [[0.0], [DEGENERATE_VIOLATION]]
        ctx = RunContext(design.problem(), PenaltyParams())
        healthy, degenerate = ctx.evaluate(X)
        assert healthy == weights[0] == evaluate_design(design, doc, X[0])[0]
        assert degenerate > weights[1]

    def test_problem_offers_the_batch(self):
        design = load_design("michell")
        problem = design.problem()
        assert problem.evaluate == design.evaluate



def spy_on_analysis(design, monkeypatch):
    """The list of the row arrays that ``design``'s evaluation hands to its
    analysis, one entry per analysis call."""
    seen = []
    analyze = design._analyze_rows

    def spy(X):
        seen.append(X.copy())
        return analyze(X)

    monkeypatch.setattr(design, "_analyze_rows", spy)
    return seen


def on_grid_sample(design, n, rng):
    """``n`` random designs, snapped, some variables pushed onto their bounds
    (which brings short members on michell)."""
    space = design.search_space()
    X = space.sample(n, rng)
    at_bound = rng.random(X.shape) < 0.2
    X[at_bound] = np.where(rng.random(X.shape) < 0.5, space.lower, space.upper)[at_bound]
    return snap_to_grid(X, space)


def off_grid_twins(design, X, rng):
    """The snapped rows ``X`` moved by under half a grid step on their
    gridded variables: other bytes, the same designs once snapped."""
    twins = X.copy()
    for j, grid in enumerate(design.search_space().grids or ()):
        if grid is not None and grid.size > 1:
            twins[:, j] += rng.uniform(-0.3, 0.3, len(X)) * (grid[1] - grid[0])
    return twins


class TestEvaluationMemory:
    def test_duplicates_in_a_batch_analyzed_once(self, monkeypatch, rng):
        design, doc = load_design("michell"), bundled_doc("michell")
        X = on_grid_sample(design, 3, rng)
        twins = off_grid_twins(design, X, rng)
        assert not np.array_equal(twins, X)
        seen = spy_on_analysis(design, monkeypatch)
        # 7 rows of 3 designs; the first row of each design is analyzed
        assert_matches_per_design(design, doc, np.concatenate([X, twins[::-1], X[:1]]))
        assert [rows.tobytes() for rows in seen] == [X.tobytes()]

    def test_previous_batch_not_analyzed_again(self, monkeypatch, rng):
        design, doc = load_design("truss37"), bundled_doc("truss37")
        X = on_grid_sample(design, 6, rng)
        seen = spy_on_analysis(design, monkeypatch)
        first = design.evaluate(X)
        again = design.evaluate(off_grid_twins(design, X, rng))
        assert len(seen) == 1
        for a, b in zip(first, again):
            assert a.tobytes() == b.tobytes()
        # only the rows the previous batch did not hold are analyzed
        new = on_grid_sample(design, 2, rng)
        assert_matches_per_design(design, doc, np.array([X[2], new[0], X[0], new[1], new[0]]))
        assert len(seen) == 2 and seen[1].tobytes() == new.tobytes()

    @pytest.mark.parametrize("name", ["michell", "truss37", "forth", "apex"])
    def test_calls_match_per_design_bit_for_bit(self, name, monkeypatch, rng):
        if name == "apex":
            # degenerate and mechanism rows among healthy ones
            doc, pool = apex_doc(), APEX_ROWS
            design = TrussDesign(doc)
        else:
            design, doc = load_design(name), bundled_doc(name)
            pool = on_grid_sample(design, 12, rng)
        pool = np.concatenate([pool, off_grid_twins(design, pool, rng)])
        batches = [pool[rng.integers(0, len(pool), size=15)] for _ in range(4)]
        batches.insert(2, batches[1])
        seen = spy_on_analysis(design, monkeypatch)
        for X in batches:
            assert_matches_per_design(design, doc, X)
        assert sum(map(len, seen)) < sum(map(len, batches))

    def test_memo_holds_only_the_last_call(self, monkeypatch, rng):
        design, doc = load_design("michell"), bundled_doc("michell")
        space = design.search_space()
        X = on_grid_sample(design, 10, rng)
        design.evaluate(X)
        last = np.concatenate([X[:2], on_grid_sample(design, 2, rng)])
        design.evaluate(off_grid_twins(design, last, rng))
        keys, weights, violations = design._memo
        assert set(keys) == {row.tobytes() for row in snap_to_grid(last, space)}
        assert len(weights) <= len(last) and len(violations) <= len(last)
        # rows of the call before the last one are analyzed again
        seen = spy_on_analysis(design, monkeypatch)
        assert_matches_per_design(design, doc, X[4:6])
        assert len(seen) == 1 and seen[0].tobytes() == X[4:6].tobytes()

    def test_writing_into_results_changes_no_later_result(self, rng):
        design = load_design("michell")
        X = on_grid_sample(design, 4, rng)
        expect = [a.copy() for a in design.evaluate(X)]
        # the first call analyzed every row, the later ones copy them
        for _ in range(3):
            weights, violations = design.evaluate(X)
            assert weights.tobytes() == expect[0].tobytes()
            assert violations.tobytes() == expect[1].tobytes()
            weights[:] = -1.0
            violations[:] = -1.0

    def test_call_that_raises_leaves_the_memo(self, monkeypatch):
        doc = collapsing_doc()
        design = TrussDesign(doc)
        design.evaluate(np.array([[2.0, 2.0, 1.0], [3.0, 3.0, 0.5]]))
        keys, weights, violations = design._memo
        before = dict(keys), weights.tobytes(), violations.tobytes()
        # the middle row has a nonpositive area
        bad = np.array([[3.0, 3.0, 0.5], [-2.0, 2.0, 1.0], [4.0, 4.0, 0.8]])
        with pytest.raises(ModelError, match="areas"):
            design.evaluate(bad)
        keys, weights, violations = design._memo
        assert (keys, weights.tobytes(), violations.tobytes()) == before
        seen = spy_on_analysis(design, monkeypatch)
        assert_matches_per_design(design, doc, bad[[0, 2]])
        assert [rows.tobytes() for rows in seen] == [bad[2:].tobytes()]

    def test_signed_zeros_analyzed_apart(self, monkeypatch):
        doc = apex_doc()
        # x_apex may reach 0: the apex above the pinned node
        doc["shape_variables"][1]["lower"] = -0.5
        design = TrussDesign(doc)
        X = np.array([[2.0, 3.0, 1.0, 0.0], [2.0, 3.0, 1.0, -0.0], [2.0, 3.0, 1.0, 0.0]])
        seen = spy_on_analysis(design, monkeypatch)
        assert_matches_per_design(design, doc, X)
        assert [rows.tobytes() for rows in seen] == [X[:2].tobytes()]
        assert_matches_per_design(design, doc, X[::-1])
        assert len(seen) == 1

class TestMichellReference:
    def test_reference_value(self):
        assert michell_analytical_weight() == pytest.approx(
            12.0 / 240e6 * 1.0 * 200e3 * 7800.0 * math.tan(math.pi / 12.0))
        assert michell_analytical_weight() == pytest.approx(20.9, abs=0.01)

    def test_load_scaling(self):
        assert michell_analytical_weight(load=400e3) == pytest.approx(
            2.0 * michell_analytical_weight())

    def test_stress_scaling(self):
        assert michell_analytical_weight(stress_limit=480e6) == pytest.approx(
            0.5 * michell_analytical_weight())

    def test_validation(self):
        with pytest.raises(ValueError):
            michell_analytical_weight(load=0.0)


class TestProvenance:
    def test_files_name_their_sources(self):
        for name in ("michell", "forth", "truss37"):
            design = load_design(name)
            assert design.provenance, name
            joined = " ".join(design.provenance)
            assert any(ch.isdigit() for ch in joined)
