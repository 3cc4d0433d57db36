"""Truss benchmark geometry files and their design-variable mapping.

A geometry file is a JSON document with these keys, fixed quantities in SI
units and design variables in scaled units declared per variable.  A unit or
``num`` stands for a JSON number (never a bool), and ``int``, ``str`` and
``bool`` for those JSON types; a value of another type is a ``ConfigError``
naming the design and the entry.  A ``label`` may be any JSON value.

``name``            str, a short identifier.
``provenance``      list of free-text lines about where the data comes from.
``material``        ``{"young_modulus": Pa, "density": kg/m^3}``.
``nodes``           list of ``{"id": int, "x": m, "y": m}``; ids are arbitrary.
``elements``        list of ``{"id": label, "nodes": [int, int], "group": str}``.
``supports``        list of ``{"node": int, "fix_x": bool, "fix_y": bool}``.
``loads``           list of ``{"node": int, "fx": N, "fy": N}``.
``masses``          list of ``{"node": int, "mass": kg}``.
``fixed_areas``     list of ``{"group": str, "area": m^2}`` (positive) for groups
                    that are not design variables.
``size_variables``  ordered list of ``{"name": label, "groups": [str, ...],
                    "lower": num, "upper": num, "unit_scale": num, "grid"}``.
                    The design value times ``unit_scale`` is the member area
                    in m^2, so ``lower`` and ``unit_scale`` must be positive;
                    ``grid`` is null or ``{"start": num, "stop": num, "step":
                    num}`` inside the bounds.
``shape_variables`` ordered list of ``{"name": label, "lower": num, "upper":
                    num, "unit_scale": num, "targets"}`` where each target is
                    ``{"node": int, "axis": "x"|"y", "coeff": num, "datum":
                    num}``.  The node coordinate becomes ``datum + coeff *
                    unit_scale * value``, which expresses linked coordinates
                    such as mirrored pairs (coeff -1) or shared offsets; of two
                    targets on one coordinate the later one counts.
``constraints``     ``{"stress_limit": Pa|null, "displacement_limits":
                    [{"node": int|"all", "axis": "x"|"y", "limit": m}],
                    "frequency_bounds": [Hz, ...]}``.

The design vector is the concatenation of size variables then shape
variables, in file order; each ``upper`` is finite and at least ``lower``.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from ..core import ConfigError, Problem, SearchSpace, check_value, snap_to_grid
from ..fem import (
    AnalysisError,
    Material,
    ModelError,
    TrussModel,
    TrussTopology,
    displacement_violation,
    frequency_violations,
    natural_frequencies,
    solve_static,
    stress_violations,
)

DATA_DIR_ENV = "ELITOPT_DATA_DIR"
DEGENERATE_LENGTH = 1e-6  # m; shorter members mark the design infeasible
DEGENERATE_VIOLATION = 1e3

_AXES = {"x": 0, "y": 1}


def _finite(value, what: str) -> float:
    """The number ``value`` as a float; :class:`ConfigError` unless finite."""
    value = check_value(value, "float", what)
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, not {value!r}")
    return value


def _positive(value, what: str) -> float:
    """The number ``value`` as a float; :class:`ConfigError` unless finite, > 0."""
    value = check_value(value, "float", what)
    # the chained comparison is False for NaN
    if not 0 < value < math.inf:
        raise ConfigError(f"{what} must be positive and finite, not {value!r}")
    return value


def _upper(var: dict, lower: float) -> float:
    """The upper bound of the design variable ``var``: finite, >= ``lower``."""
    upper = _finite(var["upper"], f"{var['name']!r} upper")
    if upper < lower:
        raise ConfigError(f"{var['name']!r} upper {upper!r} is below its lower {lower!r}")
    return upper


def _grid(var: dict, lower: float, upper: float) -> np.ndarray:
    """The grid of the size variable ``var``: not empty, inside its bounds."""
    what = f"{var['name']!r} grid"
    start, stop = (_finite(var["grid"][key], f"{what} {key}") for key in ("start", "stop"))
    step = _positive(var["grid"]["step"], f"{what} step")
    if step < 1e-12:  # the grid is rounded to 12 decimals, so points would repeat
        raise ConfigError(f"{what} step {step!r} is below its 1e-12 rounding")
    count = int(round((stop - start) / step)) + 1
    grid = np.round(start + step * np.arange(count), decimals=12)
    if not (grid.size and lower <= grid[0] and grid[-1] <= upper):
        raise ConfigError(f"{what} is empty or leaves [{lower!r}, {upper!r}]")
    return grid


def data_dir() -> Path:
    """Directory holding the bundled geometry files; the environment
    variable named in ``DATA_DIR_ENV`` overrides it."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "data"


class TrussDesign:
    """A geometry file, read once into what its evaluation uses.

    Everything that no design variable changes is built and validated here,
    in one pass over the file: the search space, the :class:`TrussTopology`
    (members, supports, loads, masses, and the indices its analyses reuse),
    the index arrays with which :meth:`expand` writes every variable at
    once, and the displacement checks.  A file that lacks a required key,
    names an unknown node, axis or group, or gives a value of another type
    or outside its range is a ``ConfigError`` naming the design and entry.
    """

    def __init__(self, doc: dict):
        try:
            self._read(doc)
        except (KeyError, ConfigError, ModelError) as exc:
            what = f"lacks required key {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(f"{doc.get('name', 'geometry file')}: {what}") from None

    def _node(self, node_id, entry: str) -> int:
        """Index of the node ``node_id`` that ``entry`` of the file names."""
        node_id = check_value(node_id, "int", f"{entry} node")
        if node_id not in self._id_to_index:
            raise ConfigError(f"{entry} names unknown node {node_id!r}")
        return self._id_to_index[node_id]

    def _axis(self, axis, entry: str) -> int:
        if check_value(axis, "str", f"{entry} axis") not in _AXES:
            raise ConfigError(f"{entry} names unknown axis {axis!r}")
        return _AXES[axis]

    def _read(self, doc: dict) -> None:
        self.name = check_value(doc["name"], "str", "name")
        self.provenance = list(doc.get("provenance", []))
        material = Material(**{
            key: check_value(doc["material"][key], "float", f"material {key}")
            for key in ("young_modulus", "density")
        })

        ids = [check_value(n["id"], "int", "node id") for n in doc["nodes"]]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate node id")
        self._id_to_index = {nid: k for k, nid in enumerate(ids)}
        self.base_nodes = np.array(
            [[_finite(n[a], f"node {n['id']} {a}") for a in "xy"] for n in doc["nodes"]]
        )
        n = len(ids)

        members, self.member_groups, group_members = [], [], {}
        for idx, e in enumerate(doc["elements"]):
            entry = f"element {e.get('id')}"
            members.append([self._node(node, entry) for node in e["nodes"][:2]])
            g = check_value(e["group"], "str", f"{entry} group")
            self.member_groups.append(g)
            group_members.setdefault(g, []).append(idx)
        members = np.array(members, dtype=int)

        fixed = np.zeros((n, 2), dtype=bool)
        for s in doc.get("supports", []):
            k = self._node(s["node"], "support")
            for a, key in enumerate(("fix_x", "fix_y")):
                fixed[k, a] = check_value(s.get(key, False), "bool", f"support {key}")

        loads = np.zeros((n, 2))
        for l in doc.get("loads", []):
            k = self._node(l["node"], "load")
            for a, key in enumerate(("fx", "fy")):
                loads[k, a] += check_value(l.get(key, 0.0), "float", f"load {key}")

        masses = np.zeros(n)
        for m in doc.get("masses", []):
            masses[self._node(m["node"], "mass")] += check_value(m["mass"], "float", "mass")

        self.base_areas = np.full(members.shape[0], np.nan)
        assigned = set()
        for fa in doc.get("fixed_areas", []):
            g = check_value(fa["group"], "str", "fixed area group")
            if g not in group_members:
                raise ConfigError(f"fixed area for unknown group {g!r}")
            self.base_areas[group_members[g]] = _positive(
                fa["area"], f"fixed area of group {g!r}"
            )
            assigned.add(g)

        # design variable k is entry k of the bounds; the size variables
        # come first, and each sets the area of every member of its groups
        lower, upper, grids = [], [], []
        area_members, area_vars, area_scales = [], [], []
        for k, sv in enumerate(doc.get("size_variables", [])):
            # a member area is value * unit_scale, value >= lower
            lower.append(_positive(sv["lower"], f"{sv['name']!r} lower"))
            upper.append(_upper(sv, lower[-1]))
            grids.append(_grid(sv, lower[-1], upper[-1]) if sv.get("grid") else None)
            scale = _positive(sv.get("unit_scale", 1.0), f"{sv['name']!r} unit_scale")
            for g in sv["groups"]:
                g = check_value(g, "str", f"size variable {sv['name']!r} group")
                if g not in group_members:
                    raise ConfigError(f"size variable {sv['name']!r}: unknown group {g!r}")
                if g in assigned:
                    raise ConfigError(f"group {g!r} assigned twice")
                assigned.add(g)
                area_members += group_members[g]
                area_vars += [k] * len(group_members[g])
                area_scales += [scale] * len(group_members[g])
        missing = sorted(set(group_members) - assigned)
        if missing:
            raise ConfigError(f"groups without an area source: {missing}")
        self._area_members = np.array(area_members, dtype=int)
        self._area_vars = np.array(area_vars, dtype=int)
        self._area_scales = np.array(area_scales, dtype=float)

        # a shape variable sets each node coordinate it targets to
        # datum + coeff * unit_scale * value; a coordinate targeted twice
        # keeps its last target, as a loop would
        last = {}
        for k, sv in enumerate(doc.get("shape_variables", []), start=len(lower)):
            entry = f"shape variable {sv['name']!r}"
            lower.append(_finite(sv["lower"], f"{sv['name']!r} lower"))
            upper.append(_upper(sv, lower[-1]))
            grids.append(None)
            scale = _finite(sv.get("unit_scale", 1.0), f"{sv['name']!r} unit_scale")
            if not sv["targets"]:
                raise ConfigError(f"{entry} has no targets")
            for t in sv["targets"]:
                coord = 2 * self._node(t["node"], entry) + self._axis(t["axis"], entry)
                last[coord] = (
                    k,
                    _finite(t.get("coeff", 1.0), f"{sv['name']!r} target coeff") * scale,
                    _finite(t.get("datum", 0.0), f"{sv['name']!r} target datum"),
                )
        self._coord_index = np.array(list(last), dtype=int)
        self._coord_vars = np.array([c[0] for c in last.values()], dtype=int)
        self._coord_scales = np.array([c[1] for c in last.values()], dtype=float)
        self._coord_datums = np.array([c[2] for c in last.values()], dtype=float)
        self._space = SearchSpace(
            lower=np.array(lower),
            upper=np.array(upper),
            grids=None if all(g is None for g in grids) else tuple(grids),
        )

        c = doc.get("constraints", {})
        limit = c.get("stress_limit")
        self.stress_limit = None if limit is None else _positive(limit, "stress_limit")
        self.frequency_bounds = np.array(
            [_positive(f, "frequency bound") for f in c.get("frequency_bounds", [])]
        )
        # (nodes, axis, limit) of each displacement limit
        self._displacement_checks = []
        for dl in c.get("displacement_limits", []):
            axis = self._axis(dl["axis"], "displacement limit")
            limit = _positive(dl["limit"], "displacement limit")
            nodes = np.arange(n)
            if dl["node"] != "all":
                nodes = np.array([self._node(dl["node"], "displacement limit")])
            self._displacement_checks.append((nodes, axis, limit))

        self.topology = TrussTopology(n, members, material, fixed, loads, masses)
        if self.frequency_bounds.size > self.topology.free.size:
            raise ConfigError(
                f"{self.frequency_bounds.size} frequency bounds but "
                f"only {self.topology.free.size} free DOFs"
            )
        # one violation column per constraint, and at least one to carry
        # the degenerate marker
        self._columns = max(
            1,
            (self.topology.n_members if self.stress_limit is not None else 0)
            + sum(nodes.size for nodes, _, _ in self._displacement_checks)
            + self.frequency_bounds.size,
        )
        # the previous call of :meth:`evaluate`: each row's key mapped to its
        # index in that call's objectives and violations
        self._memo: tuple[dict, np.ndarray, np.ndarray] = (
            {}, np.zeros(0), np.zeros((0, self._columns))
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "TrussDesign":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    # -- design-vector mapping ------------------------------------------

    @property
    def dim(self) -> int:
        return self._space.dim

    def search_space(self) -> SearchSpace:
        return self._space

    def expand(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Design vector -> (node coordinates, member areas), both in SI; a
        ``(k, dim)`` stack of vectors gives ``(k, n, 2)`` and ``(k, m)``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(
                f"design vector has shape {x.shape}, expected ({self.dim},) "
                f"or (k, {self.dim})"
            )
        stack = x.shape[:-1]
        areas = np.tile(self.base_areas, stack + (1,))
        areas[..., self._area_members] = self._area_scales * x[..., self._area_vars]
        coords = np.tile(self.base_nodes, stack + (1, 1))
        coords.reshape(stack + (-1,))[..., self._coord_index] = (
            self._coord_datums + self._coord_scales * x[..., self._coord_vars]
        )
        return coords, areas

    # -- evaluation ------------------------------------------------------

    def evaluate(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives (structural mass, kg) ``(k,)`` and normalized violations
        ``(k, c)`` of the rows of the ``(k, dim)`` array ``X``.

        Gridded variables are snapped to their grid before analysis, so the
        optimizer may move in continuous space.  A design with a near-zero
        member length, or a mechanism, yields a finite objective and the
        violation row ``[DEGENERATE_VIOLATION, 0, ..., 0]`` instead of
        aborting the run.

        The search space and the topology were validated when the design was
        loaded; each call checks only what ``X`` changes (areas > 0, member
        lengths > 0, and for frequency constraints that free DOFs carry
        mass).

        A row's result is a pure function of the bits of its snapped row: the
        analysis is deterministic and does not depend on the other rows it is
        stacked with.  So each call looks every row up once in a copy of the
        previous call's key-to-row map; a key not in it gets the next row of
        the results table and is analyzed, all such rows in one stacked model
        (see :meth:`_analyze_rows`), and every row is then gathered from the
        table.  The memo of one call is bounded by its batch size (on forth,
        50 rows of 183 columns, about 73 KB).  Rows are keyed by their exact
        bytes, so ``-0.0`` and ``0.0`` are analyzed apart.  A call that raises
        leaves the memo as it was.
        """
        X = snap_to_grid(X, self._space)
        if X.ndim != 2:
            raise ValueError(f"designs must be a (k, {self.dim}) array")
        keys = [row.tobytes() for row in X]
        seen, seen_weights, seen_violations = self._memo
        # row of each key in the previous results followed by the fresh ones
        table = dict(seen)
        fresh: list[int] = []
        slots = np.empty(len(keys), dtype=np.intp)
        for i, key in enumerate(keys):
            slot = table.get(key)
            if slot is None:
                slot = table[key] = len(seen_weights) + len(fresh)
                fresh.append(i)
            slots[i] = slot
        if fresh:
            new_weights, new_violations = self._analyze_rows(X[fresh])
            seen_weights = np.concatenate([seen_weights, new_weights])
            seen_violations = np.concatenate([seen_violations, new_violations])
        weights, violations = seen_weights[slots], seen_violations[slots]
        # copies, so that a caller writing into the results cannot change them
        self._memo = (dict(zip(keys, range(len(keys)))), weights.copy(), violations.copy())
        return weights, violations

    def _analyze_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives and violation rows of the snapped ``(k, dim)`` rows
        ``X``, each analyzed.  The rows without a short member are analyzed
        together as one stacked model: one static solve and one modal
        analysis of the whole stack, each as its truss's constraints need.
        Mechanisms found by an analysis drop out and the rest is analyzed
        again."""
        coords, areas = self.expand(X)
        topo = self.topology
        d = coords[:, topo.members[:, 1]] - coords[:, topo.members[:, 0]]
        lengths = np.sqrt(np.add.reduce(d * d, axis=-1))
        weights = topo.material.density * (areas * lengths).sum(axis=-1)
        # every row starts degenerate; analyzed rows are overwritten whole
        violations = np.zeros((len(X), self._columns))
        violations[:, 0] = DEGENERATE_VIOLATION
        # a design with a short member is degenerate whatever else is wrong
        # with it; not "<" keeps a NaN length in the analysis, as the model does
        rows = np.flatnonzero(~(lengths.min(axis=-1) < DEGENERATE_LENGTH))
        while rows.size:
            model = TrussModel(coords[rows], areas=areas[rows], topology=topo)
            try:
                violations[rows] = self._violations(model)
                break
            except AnalysisError as exc:
                rows = rows[~exc.mechanisms]
        return weights, violations

    def _violations(self, model: TrussModel):
        """Violation rows of a stacked model, one per configuration, ``0.0``
        for a truss without constraints."""
        parts = []
        if self.stress_limit is not None or self._displacement_checks:
            res = solve_static(model)
            if self.stress_limit is not None:
                parts.append(stress_violations(res.stresses, self.stress_limit))
            for nodes, axis, limit in self._displacement_checks:
                parts.append(
                    displacement_violation(res.displacements[:, nodes, axis], limit)
                )
        if self.frequency_bounds.size:
            freqs = natural_frequencies(model, count=self.frequency_bounds.size)
            parts.append(frequency_violations(freqs, self.frequency_bounds))
        return np.concatenate(parts, axis=-1) if parts else 0.0

    def problem(self, name: str | None = None) -> Problem:
        return Problem(name or self.name, self._space, self.evaluate)
