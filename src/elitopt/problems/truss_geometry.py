"""Truss benchmark geometry files and their design-variable mapping.

A geometry file is a JSON document with these keys, fixed quantities in SI
units and design variables in scaled units declared per variable.  A unit or
``num`` stands for a JSON number (never a bool), and ``int``, ``str``,
``bool``, a list and a ``{...}`` object for those JSON types; a value of
another type is a ``ConfigError`` naming the design and the entry.  A
``label`` may be any JSON value.

``name``            str, a short identifier.
``provenance``      list of str, free-text lines about where the data comes from.
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
                    in m^2 of every member of its (non-empty) ``groups``, so
                    ``lower`` and ``unit_scale`` must be positive; ``grid`` is
                    null (or absent) or ``{"start": num, "stop": num, "step":
                    num}`` with all three keys, inside the bounds, of at
                    most ``MAX_GRID_POINTS`` points.
``shape_variables`` ordered list of ``{"name": label, "lower": num, "upper":
                    num, "unit_scale": num, "targets"}`` where ``targets`` is a
                    non-empty list and each target is
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

import math
import os
from pathlib import Path

import numpy as np

from ..core import ConfigError, Problem, SearchSpace, check_value, read_json, snap_to_grid
from ..fem import (
    Material,
    ModelError,
    TrussModel,
    TrussTopology,
    displacement_violation,
    frequency_violations,
    member_vectors,
    natural_frequencies,
    solve_static,
    stress_violations,
)

DATA_DIR_ENV = "ELITOPT_DATA_DIR"
DEGENERATE_LENGTH = 1e-6  # m; shorter members mark the design infeasible
DEGENERATE_VIOLATION = 1e3
MAX_GRID_POINTS = 10**6  # a size variable's grid holds at most this many points

_AXES = {"x": 0, "y": 1}
# write table row: entry ``index`` of a flat design is ``datum + scale * x[var]``
_WRITE = np.dtype([("index", np.intp), ("var", np.intp), ("scale", float), ("datum", float)])
# displacement table row: entry ``index`` of the flat displacements and its limit
_LIMIT = np.dtype([("index", np.intp), ("limit", float)])


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


def _objects(value, what: str) -> list[dict]:
    """The JSON list of objects ``value``; :class:`ConfigError` unless it is one."""
    return [check_value(v, "dict", f"{what} entry") for v in check_value(value, "list", what)]


def _upper(var: dict, lower: float) -> float:
    """The upper bound of the design variable ``var``: finite, >= ``lower``."""
    upper = _finite(var["upper"], f"{var['name']!r} upper")
    if upper < lower:
        raise ConfigError(f"{var['name']!r} upper {upper!r} is below its lower {lower!r}")
    return upper


def _grid(var: dict, lower: float, upper: float) -> np.ndarray | None:
    """The grid of the size variable ``var``, None for a null or absent one:
    not empty, inside its bounds."""
    what = f"{var['name']!r} grid"
    spec = check_value(var.get("grid"), "dict | None", what)
    if spec is None:
        return None
    start, stop = (_finite(spec[key], f"{what} {key}") for key in ("start", "stop"))
    step = _positive(spec["step"], f"{what} step")
    if step < 1e-12:  # the grid is rounded to 12 decimals, so points would repeat
        raise ConfigError(f"{what} step {step!r} is below its 1e-12 rounding")
    steps = (stop - start) / step  # inf when it overflows
    # from MAX_GRID_POINTS - 0.5 steps on, the grid has more points
    if not steps < MAX_GRID_POINTS - 0.5:
        raise ConfigError(f"{what} has more than {MAX_GRID_POINTS} points")
    grid = np.round(start + step * np.arange(int(round(steps)) + 1), decimals=12)
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
    (members, supports, loads, masses, and the indices its analyses reuse)
    and two flat tables.  The write table has a row (flat index, variable,
    scale, datum) per entry that a design variable writes in a design's
    flat vector (node coordinates ``x0, y0, x1, ...``, then member areas),
    so :meth:`expand` is one tile and one scatter; the displacement table
    has the flat index and limit of each limited displacement, one gather.
    A design variable that writes no entry, a group given two areas, a grid
    of more than ``MAX_GRID_POINTS`` points, frequency bounds on a free DOF
    that carries no mass, or a file that lacks a required key, names an
    unknown node, axis or group, or gives a value of another type or outside
    its range is a ``ConfigError`` naming the design and entry.
    """

    def __init__(self, doc: dict):
        name = "geometry file"
        try:
            name = check_value(doc, "dict", "geometry document").get("name", name)
            self._read(doc)
        except (KeyError, ConfigError, ModelError) as exc:
            what = f"lacks required key {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(f"{name}: {what}") from None

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
        provenance = check_value(doc.get("provenance", []), "list", "provenance")
        self.provenance = [check_value(line, "str", "provenance entry") for line in provenance]
        material = check_value(doc["material"], "dict", "material")
        material = Material(*(check_value(material[key], "float", f"material {key}")
                              for key in ("young_modulus", "density")))

        nodes = _objects(doc["nodes"], "nodes")
        ids = [check_value(n["id"], "int", "node id") for n in nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate node id")
        self._id_to_index = {nid: k for k, nid in enumerate(ids)}
        coords = [_finite(n[a], f"node {n['id']} {a}") for n in nodes for a in "xy"]
        n = len(ids)

        # the flat design's area entry (2n + member) of each group's members
        members, group_entries = [], {}
        for idx, e in enumerate(_objects(doc["elements"], "elements")):
            entry = f"element {e.get('id')}"
            pair = check_value(e["nodes"], "list", f"{entry} nodes")
            if len(pair) != 2:
                raise ConfigError(f"{entry} must name two nodes, not {pair!r}")
            members.append([self._node(node, entry) for node in pair])
            g = check_value(e["group"], "str", f"{entry} group")
            group_entries.setdefault(g, []).append(2 * n + idx)
        members = np.array(members, dtype=int)

        fixed = np.zeros((n, 2), dtype=bool)
        for s in _objects(doc.get("supports", []), "supports"):
            k = self._node(s["node"], "support")
            for a, key in enumerate(("fix_x", "fix_y")):
                fixed[k, a] = check_value(s.get(key, False), "bool", f"support {key}")

        loads = np.zeros((n, 2))
        for l in _objects(doc.get("loads", []), "loads"):
            k = self._node(l["node"], "load")
            for a, key in enumerate(("fx", "fy")):
                loads[k, a] += check_value(l.get(key, 0.0), "float", f"load {key}")

        masses = np.zeros(n)
        for m in _objects(doc.get("masses", []), "masses"):
            masses[self._node(m["node"], "mass")] += check_value(m["mass"], "float", "mass")

        assigned = set()

        def assign(g, entry: str) -> list[int]:
            """The area entries of the group ``g`` that ``entry`` sets; no
            group is set twice."""
            g = check_value(g, "str", f"{entry} group")
            if g not in group_entries:
                raise ConfigError(f"{entry}: unknown group {g!r}")
            if g in assigned:
                raise ConfigError(f"group {g!r} assigned twice")
            assigned.add(g)
            return group_entries[g]

        # one design flat: node coordinates x0, y0, x1, ..., then member areas
        self._base = np.array(coords + [np.nan] * len(members))
        for fa in _objects(doc.get("fixed_areas", []), "fixed_areas"):
            entries = assign(fa["group"], "fixed area")
            self._base[entries] = _positive(fa["area"], f"fixed area of group {fa['group']!r}")

        # design variable k is entry k of the bounds, the size variables
        # first; each writes datum + scale * value into entries of the flat
        # design (a member area is value * unit_scale, a node coordinate
        # datum + coeff * unit_scale * value), and of two writes to one
        # entry the later one counts, as a loop would
        lower, upper, grids, writes = [], [], [], {}
        variables = [(kind, var) for kind in ("size", "shape") for var in
                     _objects(doc.get(f"{kind}_variables", []), f"{kind}_variables")]
        for k, (kind, var) in enumerate(variables):
            entry, size = f"{kind} variable {var['name']!r}", kind == "size"
            # a size variable's lower and scale keep every area it writes positive
            number = _positive if size else _finite
            lower.append(number(var["lower"], f"{var['name']!r} lower"))
            upper.append(_upper(var, lower[-1]))
            grids.append(_grid(var, lower[-1], upper[-1]) if size else None)
            scale = number(var.get("unit_scale", 1.0), f"{var['name']!r} unit_scale")
            if size:
                entries = [(i, scale, 0.0)
                           for g in check_value(var["groups"], "list", f"{entry} groups")
                           for i in assign(g, entry)]
            else:
                entries = [
                    (2 * self._node(t["node"], entry) + self._axis(t["axis"], entry),
                     _finite(t.get("coeff", 1.0), f"{var['name']!r} target coeff") * scale,
                     _finite(t.get("datum", 0.0), f"{var['name']!r} target datum"))
                    for t in _objects(var["targets"], f"{entry} targets")
                ]
            if not entries:
                raise ConfigError(f"{entry} writes no entry")
            writes.update((i, (k, scale, datum)) for i, scale, datum in entries)
        missing = sorted(set(group_entries) - assigned)
        if missing:
            raise ConfigError(f"groups without an area source: {missing}")
        self._writes = np.array([(i, *w) for i, w in writes.items()], dtype=_WRITE)
        self._space = SearchSpace(
            lower=np.array(lower),
            upper=np.array(upper),
            grids=None if all(g is None for g in grids) else tuple(grids),
        )

        c = check_value(doc.get("constraints", {}), "dict", "constraints")
        limit = c.get("stress_limit")
        self.stress_limit = None if limit is None else _positive(limit, "stress_limit")
        bounds = check_value(c.get("frequency_bounds", []), "list", "frequency_bounds")
        self.frequency_bounds = np.array([_positive(f, "frequency bound") for f in bounds])
        # one violation column per limited entry of the flat displacements
        # (u0, v0, u1, ...), "all" in node order
        limits = []
        for dl in _objects(c.get("displacement_limits", []), "displacement_limits"):
            axis = self._axis(dl["axis"], "displacement limit")
            limit = _positive(dl["limit"], "displacement limit")
            node = dl["node"]
            nodes = range(n) if node == "all" else [self._node(node, "displacement limit")]
            limits += [(2 * i + axis, limit) for i in nodes]
        self._limits = np.array(limits, dtype=_LIMIT)

        self.topology = TrussTopology(n, members, material, fixed, loads, masses)
        free = self.topology.free
        if self.frequency_bounds.size > free.size:
            raise ConfigError(
                f"{self.frequency_bounds.size} frequency bounds but only {free.size} free DOFs"
            )
        if self.frequency_bounds.size:
            # a node's mass is its own plus, at density > 0, half of each member's
            massive = (masses > 0) | ((material.density > 0) & np.isin(np.arange(n), members))
            massless = free[~massive[free // 2]]
            if massless.size:
                raise ConfigError(f"free DOF {massless[0]} carries no mass")
        # one violation column per constraint, and at least one to carry
        # the degenerate marker
        self._columns = max(
            1,
            (self.topology.n_members if self.stress_limit is not None else 0)
            + self._limits.size
            + self.frequency_bounds.size,
        )
        # the previous call of :meth:`evaluate`: each row's key mapped to its
        # index in that call's objectives and violations
        self._memo: tuple[dict, np.ndarray, np.ndarray] = (
            {}, np.zeros(0), np.zeros((0, self._columns))
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "TrussDesign":
        return cls(read_json(path))

    # -- design-vector mapping ------------------------------------------

    @property
    def dim(self) -> int:
        return self._space.dim

    def search_space(self) -> SearchSpace:
        return self._space

    def expand(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(k, dim)`` design vectors ``X`` -> node coordinates
        ``(k, n, 2)`` and member areas ``(k, m)``, both in SI and both views
        of one ``(k, 2n + m)`` array of flat designs."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"designs have shape {X.shape}, expected (k, {self.dim})")
        w = self._writes
        flat = np.tile(self._base, (len(X), 1))
        flat[:, w["index"]] = w["datum"] + w["scale"] * X[:, w["var"]]
        n2 = 2 * self.topology.n_nodes
        return flat[:, :n2].reshape(len(X), -1, 2), flat[:, n2:]

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
        loaded, and so was that every free DOF carries mass when there are
        frequency constraints; each call checks only what ``X`` changes
        (areas > 0 and member lengths > 0).

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
        A row that either analysis marks a mechanism (NaN) keeps the
        degenerate row, as a row with a short member does."""
        coords, areas = self.expand(X)
        topo = self.topology
        vectors, lengths = member_vectors(coords, topo)
        weights = topo.material.density * (areas * lengths).sum(axis=-1)
        # every row starts degenerate; analyzed rows are overwritten whole
        violations = np.zeros((len(X), self._columns))
        violations[:, 0] = DEGENERATE_VIOLATION
        # a design with a short member is degenerate whatever else is wrong
        # with it; not "<" keeps a NaN length in the analysis, as the model does
        rows = np.flatnonzero(~(lengths.min(axis=-1) < DEGENERATE_LENGTH))
        if rows.size:
            # the analyzed rows' member vectors and lengths are not computed
            # again, and when every row is analyzed no array is copied
            pick = slice(None) if rows.size == len(X) else rows
            model = TrussModel(coords[pick], areas[pick], topo,
                               geometry=(vectors[pick], lengths[pick]))
            analyzed = self._violations(model)
            # the analyses mark a mechanism NaN; it stays degenerate
            ok = ~np.isnan(analyzed).any(axis=-1)
            violations[rows[ok]] = analyzed[ok]
        return weights, violations

    def _violations(self, model: TrussModel) -> np.ndarray:
        """Violation rows of a stacked model, one per configuration, a
        ``(k, 1)`` zero column for a truss without constraints; a
        mechanism's row holds NaN."""
        parts = []
        if self.stress_limit is not None or self._limits.size:
            res = solve_static(model)
            if self.stress_limit is not None:
                parts.append(stress_violations(res.stresses, self.stress_limit))
            if self._limits.size:
                u = res.displacements.reshape(len(res.displacements), -1)
                parts.append(displacement_violation(u[:, self._limits["index"]],
                                                    self._limits["limit"]))
        if self.frequency_bounds.size:
            freqs = natural_frequencies(model)
            parts.append(frequency_violations(freqs, self.frequency_bounds))
        return np.concatenate(parts, axis=-1) if parts else np.zeros((len(model.areas), 1))

    def problem(self, name: str | None = None) -> Problem:
        return Problem(name or self.name, self._space, self.evaluate)
