"""Independent reference implementations used only by the tests.

The static solver here deliberately takes a different route from the
package: per-element transformation matrices instead of direction-cosine
outer products, and supports enforced by stiff penalty springs on the full
system instead of row/column elimination.  Agreement between the two is
therefore meaningful.
"""

import json
import math

import numpy as np

from elitopt.core import Candidate, EvaluationError, Problem, SearchSpace
from elitopt.fem import (
    Material,
    ModelError,
    TrussModel,
    TrussTopology,
    assemble_stiffness,
    displacement_violation,
    frequency_violations,
    natural_frequencies,
    solve_static,
    stress_violations,
)
from elitopt.problems import _TRUSS_FILES, data_dir
from elitopt.problems.truss_geometry import DEGENERATE_LENGTH, DEGENERATE_VIOLATION


def element_stiffness(xa, xb, area, young_modulus):
    """4x4 global-frame stiffness of one bar between points xa and xb.

    DOF order (ua_x, ua_y, ub_x, ub_y).  The matrix is (EA/L) times the
    outer-product pattern of the direction cosines; symmetric and singular
    (rank 1) on its own.
    """
    d = np.asarray(xb, dtype=float) - np.asarray(xa, dtype=float)
    length = float(np.linalg.norm(d))
    if length <= 0:
        raise ModelError("zero-length element")
    c, s = d / length
    k = young_modulus * area / length
    cc, ss, cs = c * c, s * s, c * s
    return k * np.array(
        [
            [cc, cs, -cc, -cs],
            [cs, ss, -cs, -ss],
            [-cc, -cs, cc, cs],
            [-cs, -ss, cs, ss],
        ]
    )


def full_stiffness(model):
    """Unsupported (2n, 2n) stiffness of a stack of one, summed element by
    element."""
    topo = model.topology
    (nodes,), (areas,) = model.nodes, model.areas
    K = np.zeros((2 * topo.n_nodes, 2 * topo.n_nodes))
    for (a, b), area in zip(topo.members, areas):
        k = element_stiffness(nodes[a], nodes[b], area, topo.material.young_modulus)
        dofs = [2 * a, 2 * a + 1, 2 * b, 2 * b + 1]
        K[np.ix_(dofs, dofs)] += k
    return K


def solve_static_oracle(model, spring_scale=1e14):
    """Full displacement vector and member stresses of a stack of one by the
    penalty method."""
    topo = model.topology
    (nodes,), (areas,) = model.nodes, model.areas
    n_dof = 2 * topo.n_nodes
    E = topo.material.young_modulus
    K = np.zeros((n_dof, n_dof))
    for (a, b), area in zip(topo.members, areas):
        xa, xb = nodes[a], nodes[b]
        d = xb - xa
        length = float(np.hypot(*d))
        c, s = d / length
        T = np.array([[c, s, 0.0, 0.0], [0.0, 0.0, c, s]])
        k_local = (E * area / length) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        k_elem = T.T @ k_local @ T
        dofs = [2 * a, 2 * a + 1, 2 * b, 2 * b + 1]
        for i in range(4):
            for j in range(4):
                K[dofs[i], dofs[j]] += k_elem[i, j]

    spring = spring_scale * float(np.max(np.diag(K)))
    for dof in np.flatnonzero(topo.fixed.ravel()):
        K[dof, dof] += spring
    u = np.linalg.solve(K, topo.loads.ravel())

    stresses = np.empty(topo.n_members)
    for m, (a, b) in enumerate(topo.members):
        xa, xb = nodes[a], nodes[b]
        d = xb - xa
        length = float(np.hypot(*d))
        c, s = d / length
        u_elem = np.array([u[2 * a], u[2 * a + 1], u[2 * b], u[2 * b + 1]])
        stresses[m] = (E / length) * np.array([-c, -s, c, s]) @ u_elem
    return u, stresses


class Mechanism(Exception):
    """The references' own mechanism signal: ``mechanisms`` is a ``(k,)``
    bool array marking each configuration of the analyzed stack found to
    be a mechanism."""

    def __init__(self, mechanisms):
        super().__init__("mechanism")
        self.mechanisms = np.asarray(mechanisms, dtype=bool)


def dense_static(model):
    """``(displacements, stresses)`` of a stacked model by the dense solve of
    the free stiffness: a Cholesky check of each configuration, then
    ``np.linalg.solve``, whatever the topology's layout.  Raises
    ``Mechanism`` marking each configuration whose Cholesky fails.  The
    reference for the block elimination of ``solve_static``."""
    topo = model.topology
    K = assemble_stiffness(model)
    ok = np.ones(len(K), dtype=bool)
    for i, matrix in enumerate(K):
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            ok[i] = False
    if not ok.all():
        raise Mechanism(~ok)
    u = np.zeros((len(K), 2 * topo.n_nodes))
    u[:, topo.free] = np.linalg.solve(K, topo.loads.ravel()[topo.free])
    u = u.reshape(model.nodes.shape)
    du = u[:, topo.members[:, 1]] - u[:, topo.members[:, 0]]
    elongation = np.sum(du * model.cosines, axis=-1)
    return u, topo.material.young_modulus * elongation / model.lengths


def thin_truss(panels, pendant=None):
    """A long, thin Warren truss on its own topology: ``panels`` square
    panels of 1 m between a bottom and a top chord, pinned at the left end
    and on a roller at the right, loaded down at every inner bottom node.

    With ``pendant = (x, y)`` one more node hangs from the two bottom nodes
    of the first panel by two bars; placed on the chord between them it has
    no vertical stiffness, so the truss is a mechanism.  Returns the
    topology, the node coordinates and the member areas."""
    bottom = [(float(i), 0.0) for i in range(panels + 1)]
    top = [(i + 0.5, 1.0) for i in range(panels)]
    nodes = bottom + top
    n_bottom = panels + 1
    members = [(i, i + 1) for i in range(panels)]
    members += [(n_bottom + i, n_bottom + i + 1) for i in range(panels - 1)]
    for i in range(panels):
        members += [(i, n_bottom + i), (n_bottom + i, i + 1)]
    if pendant is not None:
        nodes.append(tuple(pendant))
        members += [(0, len(nodes) - 1), (1, len(nodes) - 1)]
    n = len(nodes)
    fixed = np.zeros((n, 2), dtype=bool)
    fixed[0] = True
    fixed[panels, 1] = True
    loads = np.zeros((n, 2))
    loads[1:panels, 1] = -1e4
    topology = TrussTopology(n, members, Material(210e9, 7850.0), fixed, loads)
    return topology, np.array(nodes), np.full(len(members), 1e-3)


def random_stable_truss(rng, n_nodes):
    """A complete-graph truss on well-spread points with two pinned nodes.

    Full connectivity plus two pins makes the structure stable whenever the
    points are not collinear, which the sampler enforces.
    """
    assert n_nodes >= 3
    while True:
        nodes = rng.uniform(-2.0, 2.0, size=(n_nodes, 2))
        dists = np.linalg.norm(nodes[:, None] - nodes[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() < 0.5:
            continue
        centered = nodes - nodes.mean(axis=0)
        if np.linalg.svd(centered, compute_uv=False)[-1] > 0.3:
            break
    members = np.array(
        [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)]
    )
    areas = rng.uniform(1e-4, 5e-4, size=len(members))
    fixed = np.zeros((n_nodes, 2), dtype=bool)
    fixed[0] = fixed[1] = True
    loads = np.zeros((n_nodes, 2))
    loads[2:] = rng.uniform(-5e4, 5e4, size=(n_nodes - 2, 2))
    return nodes, members, areas, fixed, loads


def memory_oracle(positions, fitness, capacity):
    """Expected elite-buffer ``(positions, fitness)`` after offering the
    rows of a whole stream, as lists best first.

    Duplicate positions keep their first occurrence; survivors are the
    ``capacity`` best by (fitness, arrival order).  Positions are compared
    by their bytes after adding 0.0, as the memory does, which coincides
    with elementwise equality for the NaN-free streams the tests generate.
    """
    seen = {}
    for position, value in zip(positions, fitness):
        seen.setdefault((np.asarray(position, dtype=float) + 0.0).tobytes(),
                        (np.array(position, dtype=float), float(value)))
    kept = list(seen.values())
    order = sorted(range(len(kept)), key=lambda i: (kept[i][1], i))[:capacity]
    return [kept[i][0] for i in order], [kept[i][1] for i in order]


def inject_loop(memory_positions, memory_fitness, positions, fitness):
    """``EliteMemory.inject`` over lists: the stored entries (best first)
    overwrite the worst slots, found by ``sorted(range(n), key=(fitness,
    i))``, the very worst slot getting the best entry.  The reference for
    the array ``inject``."""
    n, m = len(fitness), len(memory_fitness)
    order = sorted(range(n), key=lambda i: (fitness[i], i))
    out_positions = [np.array(p) for p in positions]
    out_fitness = list(fitness)
    for slot, position, value in zip(reversed(order[n - m:]), memory_positions,
                                     memory_fitness):
        out_positions[slot] = np.array(position)
        out_fitness[slot] = value
    return np.array(out_positions), np.array(out_fitness)


def penalized_fitness_row(objective, violations, params):
    """The penalty of one design on Python floats: ``np.sum`` of the
    violation row, then ``objective * (1 + scale * total) ** exponent``.
    The per-row reference for the batch ``core.penalized_fitness``."""
    v = np.asarray(violations, dtype=float)
    if not v.size:
        return float(objective)
    if float(np.min(v)) < 0:
        raise ValueError("violations must be non-negative")
    if objective < 0:
        raise ValueError(f"objective {objective!r} is negative")
    total = float(np.sum(v))
    return float(objective) * (1.0 + params.scale * total) ** params.exponent


def funnel_loop(ctx, positions):
    """``RunContext.evaluate``, the generation funnel, one row at a time:
    each row is checked, penalized, counted, offered to the memory as a batch
    of one and compared with the best before the next row starts, so the
    first unusable row raises with the rows before it already counted.
    Returns the fitness array.  The reference the funnel must match bit for
    bit on usable batches."""
    positions = np.asarray(positions, dtype=float)
    objectives, violations = ctx.problem.evaluate(positions)
    fitness = []
    for position, objective, row in zip(
        positions, np.asarray(objectives, dtype=float).tolist(),
        np.asarray(violations, dtype=float),
    ):
        if not math.isfinite(objective):
            raise EvaluationError(f"non-finite objective {objective!r}")
        value = penalized_fitness_row(objective, row, ctx.penalty)
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite fitness {value!r}")
        ctx.nfes += 1
        if ctx.memory is not None:
            ctx.memory.offer(position[None], np.array([value]))
        if ctx.best is None or value < ctx.best.fitness:
            ctx.best = Candidate(position=position.copy(), objective=objective,
                                 violations=row.copy(), fitness=value)
        fitness.append(value)
    return np.array(fitness)


def bundled_doc(name):
    """The geometry document behind the bundled truss benchmark ``name``."""
    with open(data_dir() / _TRUSS_FILES[name], encoding="utf-8") as fh:
        return json.load(fh)


def _node_indices(doc):
    return {int(n["id"]): k for k, n in enumerate(doc["nodes"])}


def expand_loop(doc, x):
    """``TrussDesign.expand`` of one design vector, read from the geometry
    document ``doc`` one variable and one target at a time: a target
    written later overwrites one written earlier."""
    nodes = _node_indices(doc)
    coords = np.array([[float(n["x"]), float(n["y"])] for n in doc["nodes"]])
    groups = [str(e["group"]) for e in doc["elements"]]
    areas = np.full(len(groups), np.nan)
    for fa in doc.get("fixed_areas", []):
        areas[[g == str(fa["group"]) for g in groups]] = float(fa["area"])
    sizes = doc.get("size_variables", [])
    for var, value in zip(sizes, x):
        own = {str(g) for g in var["groups"]}
        for m, g in enumerate(groups):
            if g in own:
                areas[m] = var.get("unit_scale", 1.0) * value
    for var, value in zip(doc.get("shape_variables", []), x[len(sizes):]):
        for t in var["targets"]:
            coords[nodes[int(t["node"])], "xy".index(t["axis"])] = (
                t.get("datum", 0.0) + t.get("coeff", 1.0) * var.get("unit_scale", 1.0) * value
            )
    return coords, areas


def contract(doc, coords, areas):
    """Inverse of ``TrussDesign.expand``, read from the geometry document
    ``doc``: the design vector back out of full per-member areas and
    per-node coordinates."""
    nodes = _node_indices(doc)
    groups = [str(e["group"]) for e in doc["elements"]]
    x = [
        areas[groups.index(str(var["groups"][0]))] / var.get("unit_scale", 1.0)
        for var in doc.get("size_variables", [])
    ]
    for var in doc.get("shape_variables", []):
        t = var["targets"][0]
        coord = coords[nodes[int(t["node"])], "xy".index(t["axis"])]
        x.append((coord - t.get("datum", 0.0))
                 / (t.get("coeff", 1.0) * var.get("unit_scale", 1.0)))
    return np.array(x)


def snap_to_grid_loop(position, space):
    """One variable and one value at a time: the reference for the
    column-wise ``core.snap_to_grid``."""
    out = np.array(position, dtype=float)
    if space.grids is None:
        return out
    for j, grid in enumerate(space.grids):
        if grid is None:
            continue
        x = out[j]
        idx = int(np.searchsorted(grid, x))
        if idx == 0:
            out[j] = grid[0]
        elif idx == grid.size:
            out[j] = grid[-1]
        else:
            lo, hi = grid[idx - 1], grid[idx]
            out[j] = lo if x - lo <= hi - x else hi
    return out


def evaluate_design(design, doc, x):
    """``(objective, violations)`` of one design analyzed alone: a stack of
    one, one static and one modal analysis, with the degenerate and mechanism
    fallbacks of ``TrussDesign.evaluate``.  A mechanism is found by checks of
    its own: a free stiffness whose Cholesky fails (``dense_static``) for a
    truss with static constraints, one with a lowest eigenvalue at or below
    roundoff (a singular stiffness included) for a truss with frequency
    bounds.  The design vector is expanded and the constraints are read from
    ``doc``, the geometry document ``design`` was loaded from.  The
    reference that the stacked evaluation of a population must match bit for
    bit: a healthy row exactly, a degenerate row as ``[DEGENERATE_VIOLATION]``
    followed by zeros."""
    degenerate = np.array([DEGENERATE_VIOLATION])
    topo = design.topology
    x = snap_to_grid_loop(x, design.search_space())
    coords, areas = expand_loop(doc, x)
    try:
        model = TrussModel(coords[None], areas[None], topo)
    except ModelError:
        d = coords[topo.members[:, 1]] - coords[topo.members[:, 0]]
        lengths = np.sqrt(np.add.reduce(d * d, axis=1))
        if np.min(lengths) >= DEGENERATE_LENGTH:
            raise
        return float(topo.material.density * np.sum(areas * lengths)), degenerate
    weight = float(topo.material.density * np.sum(model.areas[0] * model.lengths[0]))
    if model.lengths.min() < DEGENERATE_LENGTH:
        return weight, degenerate
    constraints = doc.get("constraints", {})
    stress_limit = constraints.get("stress_limit")
    limits = constraints.get("displacement_limits", [])
    bounds = np.array([float(f) for f in constraints.get("frequency_bounds", [])])
    violations = []
    try:
        if stress_limit or limits:
            dense_static(model)
            res = solve_static(model)
            if stress_limit:
                violations.append(stress_violations(res.stresses[0], float(stress_limit)))
            for limit in limits:
                nodes = (np.arange(topo.n_nodes) if limit["node"] == "all"
                         else [_node_indices(doc)[int(limit["node"])]])
                violations.append(displacement_violation(
                    res.displacements[0, nodes, "xy".index(limit["axis"])],
                    float(limit["limit"])))
        if bounds.size:
            # the eigenvalues of M^(-1/2) K M^(-1/2) have the signs of K's
            lams = np.linalg.eigvalsh(assemble_stiffness(model)[0])
            if lams[0] <= 1e-8 * max(1.0, np.abs(lams).max()):
                raise Mechanism([True])
            freqs = natural_frequencies(model)[0]
            violations.append(frequency_violations(freqs, bounds))
    except Mechanism:
        return weight, degenerate
    return weight, np.concatenate(violations) if violations else np.zeros(0)


def sphere_problem(dim=2, bound=5.12):
    """Unconstrained ``sum(x ** 2)`` on ``[-bound, bound] ** dim``."""
    space = SearchSpace(lower=np.full(dim, -bound), upper=np.full(dim, bound))

    def evaluate(X):
        return np.sum(X * X, axis=1), np.empty((len(X), 0))

    return Problem(name="sphere", space=space, evaluate=evaluate)


def _ratio_loop(k_i, k_j, spread):
    return 0.0 if spread <= 0 else (k_i - k_j) / spread


def _probability_loop(khat_best):
    return 1.0 if khat_best <= 0 else min(1.0, 0.05 / khat_best)


def _local_attraction_loop(i, positions, fitness, spread, eps):
    dists = np.linalg.norm(positions - positions[i], axis=1)
    radius = float(dists.sum()) / (5.0 * positions.shape[0])
    pulls = np.zeros_like(positions)
    for j in range(positions.shape[0]):
        if j == i or dists[j] >= radius:
            continue
        khat = _ratio_loop(fitness[i], fitness[j], spread)
        pulls[j] = khat * (positions[j] - positions[i]) / (dists[j] + eps)
    return pulls.sum(axis=0)


def _unit_pull_loop(khat, diff, eps):
    return khat * diff / (np.linalg.norm(diff) + eps)


def kha_step_loop(params, positions, fitness, state, ctx, frac, draws):
    """``Kha.step`` one krill at a time over the given ``HerdDraws``: each
    krill computes its motion before the next one starts, its neighbor
    pulls summed by one sum over ``j``.  The reference for the arithmetic
    of the herd-wide step, which must match it bit for bit in positions
    and state; the draw order is checked apart."""
    from elitopt.algorithms.kha import food_point, time_step
    from elitopt.core import clamp_to_bounds

    space = ctx.problem.space
    n = len(fitness)
    eps = params.epsilon
    best_position = ctx.best.position
    best_fitness = ctx.best.fitness

    for i in range(n):
        if not np.array_equal(positions[i], state.last_positions[i]):
            state.induced_old[i] = 0.0
            state.foraging_old[i] = 0.0
            state.pb_positions[i] = positions[i].copy()
            state.pb_fitness[i] = fitness[i]
    spread = float(fitness.max()) - best_fitness
    x_food, k_food = food_point(positions, fitness)
    dt = time_step(params.time_factor, space)

    new_positions = np.empty_like(positions)
    for i in range(n):
        u = draws.uniforms[i]
        alpha = _local_attraction_loop(i, positions, fitness, spread, eps)
        c_best = 2.0 * (u[0] + frac)
        alpha += _unit_pull_loop(
            c_best * _ratio_loop(fitness[i], best_fitness, spread),
            best_position - positions[i], eps)
        induced = params.induced_max * alpha + params.inertia_induced * state.induced_old[i]

        c_food = 2.0 * (u[1] + frac)
        beta_food = _unit_pull_loop(
            _ratio_loop(fitness[i], k_food, spread), x_food - positions[i], eps)
        beta_best = _unit_pull_loop(
            _ratio_loop(fitness[i], float(state.pb_fitness[i]), spread),
            state.pb_positions[i] - positions[i], eps)
        if params.food_coeff_on_best:
            beta = c_food * (beta_food + beta_best)
        else:
            beta = c_food * beta_food + beta_best
        foraging = params.foraging_speed * beta + params.inertia_foraging * state.foraging_old[i]

        diffuse = params.diffusion_max * (1.0 - frac) * (2.0 * u[2:] - 1.0)

        state.induced_old[i] = induced
        state.foraging_old[i] = foraging

        x = positions[i].copy()
        is_best = fitness[i] <= best_fitness
        prob = 0.0 if is_best else _probability_loop(
            _ratio_loop(fitness[i], best_fitness, spread))
        if draws.donors is not None:
            take = draws.cross_coins[i] < prob
            x[take] = positions[draws.donors[i]][take]
        if draws.mutation is not None:
            r2, r3 = draws.mutation[i]
            mu = draws.mu_coins[i, 0]
            take = draws.mu_coins[i, 1:] < prob
            x[take] = best_position[take] + mu * (positions[r2][take] - positions[r3][take])

        new_positions[i] = x + dt * (induced + foraging + diffuse)

    new_positions = clamp_to_bounds(new_positions, space)
    new_fitness = ctx.evaluate(new_positions)
    for i in range(n):
        if new_fitness[i] < state.pb_fitness[i]:
            state.pb_fitness[i] = new_fitness[i]
            state.pb_positions[i] = new_positions[i].copy()
    state.last_positions = new_positions.copy()
    return new_positions, new_fitness


def teo_step_loop(params, positions, fitness, ctx, frac, draws):
    """``Teo.step`` one cooled agent at a time over the given
    ``CoolingDraws``: rank the population, then relax agent ``half + k``
    toward the cooled agent ``k`` and maybe re-draw one of its variables.
    The reference for the arithmetic of the array step, which must match it
    bit for bit; the draw order is checked apart."""
    from elitopt.core import clamp_to_bounds

    space = ctx.problem.space
    n = len(fitness)
    half = n // 2
    order = sorted(range(n), key=lambda i: (fitness[i], i))
    positions, fitness = positions[order], fitness[order]
    best = fitness[0]
    denom = (fitness[-1] - best) + 1e-10
    damping = params.c1 + params.c2 * (1.0 - frac)
    cooled = np.empty((half, space.dim))
    for k in range(half):
        beta = (fitness[half + k] - best) / denom
        env = (1.0 - damping * draws.cooling[k]) * positions[k]
        t = env + (positions[half + k] - env) * np.exp(-beta * frac)
        if draws.jump_coins[k] < params.jump_probability:
            j = draws.jump_index[k]
            t[j] = space.lower[j] + draws.jump_values[k] * (space.upper[j] - space.lower[j])
        cooled[k] = t
    cooled = clamp_to_bounds(cooled, space)
    return (
        np.concatenate([positions[:half], cooled]),
        np.concatenate([fitness[:half], ctx.evaluate(cooled)]),
    )


def migrate_loop(positions, lambdas, mus, coins, picks):
    """BBO migration habitat by habitat over the drawn arrays: variable
    ``j`` of habitat ``i`` immigrates when ``coins[i, j] < lambdas[i]`` and
    takes the next of ``picks``, consumed in row-major order, as its
    roulette spin over ``mus`` with habitat ``i``'s own weight zeroed.  The
    reference for the arithmetic of ``bbo.migrate``."""
    n, dim = positions.shape
    out = positions.copy()
    picks = iter(picks)
    for i in range(n):
        weights = np.array(mus, dtype=float)
        weights[i] = 0.0
        cumulative, total = np.cumsum(weights), weights.sum()
        others = [k for k in range(n) if k != i]
        for j in range(dim):
            if not coins[i, j] < lambdas[i]:
                continue
            u = next(picks)
            if total <= 0:
                donor = others[int(u * len(others))]
            else:
                donor = int(np.searchsorted(cumulative, u * total, side="right"))
            out[i, j] = positions[donor, j]
    assert next(picks, None) is None, "a pick left unused"
    return out


def mutate_loop(positions, rates, space, coins, values):
    """BBO mutation habitat by habitat over the drawn arrays: variable ``j``
    of habitat ``i`` is resampled within its bounds from the next of
    ``values``, consumed in row-major order, when ``coins[i, j] <
    rates[i]``.  The reference for the arithmetic of ``bbo.mutate``."""
    out = np.array(positions, dtype=float)
    values = iter(values)
    n, dim = out.shape
    for i in range(n):
        for j in range(dim):
            if coins[i, j] < rates[i]:
                out[i, j] = space.lower[j] + next(values) * (space.upper[j] - space.lower[j])
    assert next(values, None) is None, "a value left unused"
    return out


def bbo_step_loop(params, positions, fitness, ctx, rng):
    """``Bbo.step`` rank by rank and habitat by habitat: the rates from the
    scalar rate functions, the documented draws written out apart from the
    package, then :func:`migrate_loop` and :func:`mutate_loop` over them.
    The reference for both the arithmetic and the stream of a step."""
    from elitopt.algorithms.bbo import migration_rates, mutation_rate, species_probability
    from elitopt.core import clamp_to_bounds

    space = ctx.problem.space
    n, dim = positions.shape
    order = sorted(range(n), key=lambda i: (fitness[i], i))
    positions, fitness = positions[order], fitness[order]
    lambdas, mus, rates = np.empty(n), np.empty(n), np.zeros(n)
    for rank in range(n):
        lambdas[rank], mus[rank] = migration_rates(rank, n, params)
        if rank >= params.elite_keep:
            rates[rank] = mutation_rate(species_probability(rank, n), 1.0, params)

    x = positions
    if n >= 2:
        coins = rng.random((n, dim))
        picks = rng.random(int(np.sum(coins < lambdas[:, None])))
        x = migrate_loop(positions, lambdas, mus, coins, picks)
    coins = rng.random((n, dim))
    values = rng.random(int(np.sum(coins < rates[:, None])))
    x = clamp_to_bounds(mutate_loop(x, rates, space, coins, values), space)

    new_fitness = ctx.evaluate(x)
    order = sorted(range(n), key=lambda i: (new_fitness[i], i))
    x, new_fitness = x[order], new_fitness[order]
    keep = min(params.elite_keep, n)
    if keep > 0:
        x[n - keep:] = positions[:keep]
        new_fitness[n - keep:] = fitness[:keep]
        order = sorted(range(n), key=lambda i: (new_fitness[i], i))
        x, new_fitness = x[order], new_fitness[order]
    return x, new_fitness
