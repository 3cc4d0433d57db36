"""Truss benchmark geometry files and their design-variable mapping.

A geometry file is a JSON document with these keys (all fixed quantities in
SI units; design variables may use scaled units declared per variable):

``name``            short identifier.
``provenance``      list of free-text lines about where the data comes from.
``material``        ``{"young_modulus": Pa, "density": kg/m^3}``.
``nodes``           list of ``{"id", "x", "y"}``; ids are arbitrary ints.
``elements``        list of ``{"id", "nodes": [a, b], "group": str}``.
``supports``        list of ``{"node", "fix_x", "fix_y"}``.
``loads``           list of ``{"node", "fx", "fy"}`` in newtons.
``masses``          list of ``{"node", "mass"}`` in kilograms.
``fixed_areas``     list of ``{"group", "area"}`` in m^2 (positive) for groups
                    that are not design variables.
``size_variables``  ordered list of ``{"name", "groups", "lower", "upper",
                    "unit_scale", "grid"}``.  The design value times
                    ``unit_scale`` is the member area in m^2, so ``lower``
                    and ``unit_scale`` must be positive; ``grid`` is
                    either null or ``{"start", "stop", "step"}`` in design
                    units.
``shape_variables`` ordered list of ``{"name", "lower", "upper",
                    "unit_scale", "targets"}`` where each target is
                    ``{"node", "axis", "coeff", "datum"}``.  The node
                    coordinate becomes ``datum + coeff * unit_scale * value``,
                    which expresses linked coordinates such as mirrored pairs
                    (coeff -1) or shared offsets.
``constraints``     ``{"stress_limit": Pa|null, "displacement_limits":
                    [{"node": id|"all", "axis", "limit"}], "frequency_bounds":
                    [Hz, ...]}``.

The design vector is the concatenation of size variables then shape
variables, in file order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import ConfigError, Problem, SearchSpace, snap_to_grid
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
    """``value`` as a float; :class:`ConfigError` unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, not {value!r}")
    return value


def _positive(value, what: str) -> float:
    """``value`` as a float; :class:`ConfigError` unless it is finite and > 0."""
    value = float(value)
    # the chained comparison is False for NaN
    if not 0 < value < math.inf:
        raise ConfigError(f"{what} must be positive and finite, not {value!r}")
    return value


def data_dir() -> Path:
    """Directory holding the bundled geometry files; the environment
    variable named in ``DATA_DIR_ENV`` overrides it."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class SizeVariable:
    name: str
    member_indices: np.ndarray
    lower: float
    upper: float
    unit_scale: float
    grid: np.ndarray | None


@dataclass(frozen=True)
class ShapeTarget:
    node: int
    axis: int
    coeff: float
    datum: float


@dataclass(frozen=True)
class ShapeVariable:
    name: str
    lower: float
    upper: float
    unit_scale: float
    targets: tuple


class TrussDesign:
    """A parsed geometry file plus the design-vector mapping.

    Everything that no design variable changes is built and validated once,
    here: the search space, the :class:`TrussTopology` (members, supports,
    loads, masses, and the indices its analyses reuse), and the index arrays
    that :meth:`expand` and the displacement checks use.  A file that lacks
    a required key or names an unknown node or axis is a ``ConfigError``.
    """

    def __init__(self, doc: dict):
        try:
            self._read(doc)
        except KeyError as exc:
            name = doc.get("name", "geometry file")
            raise ConfigError(f"{name}: lacks required key {exc}") from None

    def _node(self, node_id, entry: str) -> int:
        """Index of the node ``node_id`` that ``entry`` of the file names."""
        if int(node_id) not in self._id_to_index:
            raise ConfigError(f"{self.name}: {entry} names unknown node {node_id!r}")
        return self._id_to_index[int(node_id)]

    def _axis(self, axis, entry: str) -> int:
        if axis not in _AXES:
            raise ConfigError(f"{self.name}: {entry} names unknown axis {axis!r}")
        return _AXES[axis]

    def _read(self, doc: dict) -> None:
        self.name = doc["name"]
        self.provenance = list(doc.get("provenance", []))
        try:
            material = Material(
                young_modulus=float(doc["material"]["young_modulus"]),
                density=float(doc["material"]["density"]),
            )
        except ModelError as exc:
            raise ConfigError(f"{self.name}: {exc}") from None

        ids = [int(n["id"]) for n in doc["nodes"]]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate node id")
        self._id_to_index = {nid: k for k, nid in enumerate(ids)}
        self.base_nodes = np.array(
            [[_finite(n[a], f"node {n['id']} {a}") for a in "xy"] for n in doc["nodes"]]
        )
        n = len(ids)

        members = np.array(
            [
                [self._node(node, f"element {e.get('id')}") for node in e["nodes"][:2]]
                for e in doc["elements"]
            ],
            dtype=int,
        )
        self.member_groups = [str(e["group"]) for e in doc["elements"]]

        fixed = np.zeros((n, 2), dtype=bool)
        for s in doc.get("supports", []):
            k = self._node(s["node"], "support")
            fixed[k, 0] = bool(s.get("fix_x", False))
            fixed[k, 1] = bool(s.get("fix_y", False))

        loads = np.zeros((n, 2))
        for l in doc.get("loads", []):
            k = self._node(l["node"], "load")
            loads[k, 0] += float(l.get("fx", 0.0))
            loads[k, 1] += float(l.get("fy", 0.0))

        masses = np.zeros(n)
        for m in doc.get("masses", []):
            masses[self._node(m["node"], "mass")] += float(m["mass"])

        group_members: dict[str, list[int]] = {}
        for idx, g in enumerate(self.member_groups):
            group_members.setdefault(g, []).append(idx)

        self.base_areas = np.full(members.shape[0], np.nan)
        assigned = set()
        for fa in doc.get("fixed_areas", []):
            g = str(fa["group"])
            if g not in group_members:
                raise ConfigError(f"fixed area for unknown group {g!r}")
            self.base_areas[group_members[g]] = _positive(
                fa["area"], f"fixed area of group {g!r}"
            )
            assigned.add(g)

        self.size_variables: list[SizeVariable] = []
        for sv in doc.get("size_variables", []):
            groups = [str(g) for g in sv["groups"]]
            idx: list[int] = []
            for g in groups:
                if g not in group_members:
                    raise ConfigError(f"size variable {sv['name']!r}: unknown group {g!r}")
                if g in assigned:
                    raise ConfigError(f"group {g!r} assigned twice")
                assigned.add(g)
                idx.extend(group_members[g])
            grid = None
            if sv.get("grid"):
                start, stop = (
                    _finite(sv["grid"][key], f"{sv['name']!r} grid {key}")
                    for key in ("start", "stop")
                )
                step = _positive(sv["grid"]["step"], f"{sv['name']!r} grid step")
                count = int(round((stop - start) / step)) + 1
                grid = np.round(start + step * np.arange(count), decimals=12)
            self.size_variables.append(
                SizeVariable(
                    name=str(sv["name"]),
                    member_indices=np.array(idx, dtype=int),
                    # a member area is value * unit_scale, value >= lower
                    lower=_positive(sv["lower"], f"{sv['name']!r} lower"),
                    upper=float(sv["upper"]),
                    unit_scale=_positive(
                        sv.get("unit_scale", 1.0), f"{sv['name']!r} unit_scale"
                    ),
                    grid=grid,
                )
            )
        missing = sorted(set(group_members) - assigned)
        if missing:
            raise ConfigError(f"groups without an area source: {missing}")

        self.shape_variables: list[ShapeVariable] = []
        for sv in doc.get("shape_variables", []):
            targets = tuple(
                ShapeTarget(
                    node=self._node(t["node"], f"shape variable {sv['name']!r}"),
                    axis=self._axis(t["axis"], f"shape variable {sv['name']!r}"),
                    coeff=_finite(t.get("coeff", 1.0), f"{sv['name']!r} target coeff"),
                    datum=_finite(t.get("datum", 0.0), f"{sv['name']!r} target datum"),
                )
                for t in sv["targets"]
            )
            if not targets:
                raise ConfigError(f"shape variable {sv['name']!r} has no targets")
            self.shape_variables.append(
                ShapeVariable(
                    name=str(sv["name"]),
                    lower=float(sv["lower"]),
                    upper=float(sv["upper"]),
                    unit_scale=_finite(
                        sv.get("unit_scale", 1.0), f"{sv['name']!r} unit_scale"
                    ),
                    targets=targets,
                )
            )

        c = doc.get("constraints", {})
        self.stress_limit = c.get("stress_limit")
        if self.stress_limit is not None:
            self.stress_limit = _positive(self.stress_limit, "stress_limit")
        self.frequency_bounds = np.array(
            [_positive(f, "frequency bound") for f in c.get("frequency_bounds", [])]
        )
        self.displacement_limits: list[tuple[int | None, int, float]] = []
        for dl in c.get("displacement_limits", []):
            axis = self._axis(dl["axis"], "displacement limit")
            limit = _positive(dl["limit"], "displacement limit")
            if dl["node"] == "all":
                self.displacement_limits.append((None, axis, limit))
            else:
                self.displacement_limits.append(
                    (self._node(dl["node"], "displacement limit"), axis, limit)
                )

        try:
            self.topology = TrussTopology(n, members, material, fixed, loads, masses)
        except ModelError as exc:
            raise ConfigError(f"{self.name}: {exc}") from None
        if self.frequency_bounds.size > self.topology.free.size:
            raise ConfigError(
                f"{self.name}: {self.frequency_bounds.size} frequency bounds but "
                f"only {self.topology.free.size} free DOFs"
            )
        self._space = self.search_space()
        self._displacement_checks = [
            (np.arange(n) if node is None else np.array([node]), axis, limit)
            for node, axis, limit in self.displacement_limits
        ]
        # one violation column per constraint, and at least one to carry
        # the degenerate marker
        self._columns = max(
            1,
            (self.topology.n_members if self.stress_limit is not None else 0)
            + sum(nodes.size for nodes, _, _ in self._displacement_checks)
            + self.frequency_bounds.size,
        )
        self._compile_expand()
        # the previous call of :meth:`evaluate`: each row's key mapped to its
        # index in that call's objectives and violations
        self._memo: tuple[dict, np.ndarray, np.ndarray] = (
            {}, np.zeros(0), np.zeros((0, self._columns))
        )

    def _compile_expand(self) -> None:
        """Index arrays that let :meth:`expand` write all variables at once."""
        self._area_members = np.concatenate(
            [v.member_indices for v in self.size_variables] + [np.zeros(0, dtype=int)]
        )
        self._area_vars = np.repeat(
            np.arange(len(self.size_variables), dtype=int),
            [v.member_indices.size for v in self.size_variables],
        )
        self._area_scales = np.array(
            [v.unit_scale for v in self.size_variables], dtype=float
        )[self._area_vars]
        # a coordinate targeted twice keeps its last target, as a loop would
        last = {}
        ns = len(self.size_variables)
        for k, v in enumerate(self.shape_variables):
            for t in v.targets:
                last[2 * t.node + t.axis] = (ns + k, t.coeff * v.unit_scale, t.datum)
        self._coord_index = np.array(list(last), dtype=int)
        self._coord_vars = np.array([c[0] for c in last.values()], dtype=int)
        self._coord_scales = np.array([c[1] for c in last.values()], dtype=float)
        self._coord_datums = np.array([c[2] for c in last.values()], dtype=float)

    @classmethod
    def from_file(cls, path: str | Path) -> "TrussDesign":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    # -- design-vector mapping ------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.size_variables) + len(self.shape_variables)

    def search_space(self) -> SearchSpace:
        lower = [v.lower for v in self.size_variables] + [
            v.lower for v in self.shape_variables
        ]
        upper = [v.upper for v in self.size_variables] + [
            v.upper for v in self.shape_variables
        ]
        grids = [v.grid for v in self.size_variables] + [
            None for _ in self.shape_variables
        ]
        if all(g is None for g in grids):
            grids = None
        else:
            grids = tuple(grids)
        return SearchSpace(lower=np.array(lower), upper=np.array(upper), grids=grids)

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
        if self.stress_limit is not None or self.displacement_limits:
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
