"""Linear-elastic analysis of 2D pin-jointed trusses.

Small dense direct-stiffness solver: two translational degrees of freedom
per node, axial bar elements, static displacements and stresses, and natural
frequencies from a lumped (diagonal) mass matrix.  Sign convention: tension
positive.

A :class:`TrussTopology` holds what no design variable changes and is
validated once.  A :class:`TrussModel` puts node coordinates and member
areas on a topology: one configuration, or a stack of ``k`` configurations
(node arrays ``(k, n, 2)``, area arrays ``(k, m)``).  Every analysis works
on either: a stack is analyzed with one stacked call per LAPACK routine, and
each configuration of it gets the same bits as when analyzed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ModelError(ValueError):
    """Raised when a truss model is not analyzable as posed."""


class AnalysisError(RuntimeError):
    """Raised when the reduced system is singular (a mechanism).

    ``mechanisms`` is a bool array over the analyzed model's stack (shape
    ``()`` for one configuration) that marks each configuration found to be
    a mechanism.
    """

    def __init__(self, message: str, mechanisms):
        super().__init__(message)
        self.mechanisms = np.asarray(mechanisms, dtype=bool)


@dataclass(frozen=True)
class Material:
    young_modulus: float
    density: float

    def __post_init__(self):
        # the chained comparisons are False for NaN
        if not (0 < self.young_modulus < np.inf and 0 <= self.density < np.inf):
            raise ModelError("need finite E > 0 and finite density >= 0")


class TrussTopology:
    """The part of a truss that no design variable changes.

    n_nodes : number of nodes
    members : (m, 2) int array of node index pairs
    material : :class:`Material`
    fixed : (n, 2) bool array, True where a DOF is restrained
    loads : (n, 2) float array of nodal forces [N]
    masses : (n,) float array of lumped nonstructural masses [kg]

    Everything here is validated once, on construction (including that at
    least one DOF is free), and stored as read-only copies.  Construction
    also precomputes what every analysis of a model on this topology
    reuses: the free DOFs, the load vector on them, and the scatter indices
    that assemble stiffness and lumped masses.
    """

    def __init__(self, n_nodes, members, material, fixed, loads=None, masses=None):
        n = int(n_nodes)
        members = np.array(members, dtype=int)
        fixed = np.array(fixed, dtype=bool)
        if members.ndim != 2 or members.shape[1] != 2:
            raise ModelError("members must be an (m, 2) array")
        if members.min(initial=0) < 0 or members.max(initial=-1) >= n:
            raise ModelError("member endpoint out of range")
        if np.any(members[:, 0] == members[:, 1]):
            raise ModelError("member with identical endpoints")
        if fixed.shape != (n, 2):
            raise ModelError("fixed must be an (n, 2) bool array")
        if int(fixed.sum()) < 3:
            raise ModelError("at least three restrained DOFs are required")
        if fixed.all():
            raise ModelError("no free DOFs")
        loads = np.zeros((n, 2)) if loads is None else np.array(loads, dtype=float)
        if loads.shape != (n, 2):
            raise ModelError("loads must be an (n, 2) array")
        if not np.all(np.isfinite(loads)):
            raise ModelError("loads must be finite")
        masses = np.zeros(n) if masses is None else np.array(masses, dtype=float)
        if masses.shape != (n,):
            raise ModelError("masses must be an (n,) array")
        if not np.all((masses >= 0) & (masses < np.inf)):
            raise ModelError("lumped masses must be finite and >= 0")

        n_dof = 2 * n
        free = np.flatnonzero(~fixed.ravel())
        a, b = members[:, 0], members[:, 1]
        # global DOFs of each member's 4x4 block, row-major within the block
        dofs = np.column_stack([2 * a, 2 * a + 1, 2 * b, 2 * b + 1])
        rows = np.repeat(dofs, 4, axis=1).ravel()
        cols = np.tile(dofs, (1, 4)).ravel()
        position = np.full(n_dof, -1)
        position[free] = np.arange(free.size)
        on_free = (position[rows] >= 0) & (position[cols] >= 0)

        self.n_nodes = n
        self.members = members
        self.material = material
        self.fixed = fixed
        self.loads = loads
        self.masses = masses
        self.free = free
        self.free_loads = loads.ravel()[free]
        self.free_entries = np.flatnonzero(on_free)
        self.free_stiffness_index = (
            position[rows[on_free]] * free.size + position[cols[on_free]]
        )
        # each node's own mass first, then member starts, then member ends
        self.mass_index = np.concatenate([np.arange(n), a, b])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def n_members(self) -> int:
        return self.members.shape[0]


class TrussModel:
    """One truss configuration, or a stack of them: node coordinates and
    member areas on a :class:`TrussTopology`.

    The topology was validated when it was built, so a model checks only
    what a design changes: the node array shape, areas > 0 and member
    lengths > 0.  Member lengths and direction cosines are computed here,
    once, and shared by every analysis of the model, as is the stiffness on
    the free DOFs (:attr:`free_stiffness`).  That free DOFs carry mass is
    checked by :func:`natural_frequencies`, the one analysis that needs it.

    nodes : (n, 2) float array of coordinates [m], or (k, n, 2) for a stack
        of k configurations
    areas : (m,) float array of cross sections [m^2], or (k, m)
    topology : the :class:`TrussTopology` both are placed on
    lengths : (m,) or (k, m) member lengths [m], computed
    cosines : (m, 2) or (k, m, 2) member direction cosines, computed
    """

    def __init__(self, nodes, areas, topology: TrussTopology):
        nodes = np.asarray(nodes, dtype=float)
        if not 2 <= nodes.ndim <= 3 or nodes.shape[-1] != 2:
            raise ModelError("nodes must be an (n, 2) or (k, n, 2) array")
        if nodes.shape[-2] != topology.n_nodes:
            raise ModelError("nodes do not match the topology's node count")
        areas = np.asarray(areas, dtype=float)
        if areas.shape != nodes.shape[:-2] + (topology.n_members,):
            raise ModelError("areas must match the member count")
        if (areas <= 0).any():
            raise ModelError("member areas must be positive")
        members = topology.members
        d = nodes[..., members[:, 1], :] - nodes[..., members[:, 0], :]
        # what np.linalg.norm(d, axis=-1) computes, without its overhead
        lengths = np.sqrt(np.add.reduce(d * d, axis=-1))
        if (lengths <= 0).any():
            raise ModelError("zero-length member")
        self.nodes = nodes
        self.areas = areas
        self.topology = topology
        self.lengths = lengths
        self.cosines = d / lengths[..., None]

    @property
    def stack_shape(self) -> tuple:
        """``()`` for one configuration, ``(k,)`` for a stack of k."""
        return self.areas.shape[:-1]

    @cached_property
    def free_stiffness(self) -> np.ndarray:
        """Stiffness on the free DOFs, assembled on first use."""
        return assemble_stiffness(self)


def _scatter(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sum each row of ``weights`` (one per configuration) into ``size``
    bins by ``index``, in index order, with one ``np.bincount``: row ``r``
    is shifted into bins ``r * size`` to ``(r + 1) * size - 1``, so no bin
    mixes configurations and each sums in the same order as alone."""
    rows = weights.shape[0]
    shifted = index + size * np.arange(rows)[:, None]
    return np.bincount(
        shifted.ravel(), weights=weights.ravel(), minlength=rows * size
    ).reshape(rows, size)


def assemble_stiffness(model: TrussModel) -> np.ndarray:
    """Stiffness on the free DOFs: the rows and columns of the topology's
    ``free`` DOFs of the unsupported (2n, 2n) matrix, assembled directly
    without it; ``(k, f, f)`` for a stack.

    Each entry sums its members' contributions in member order, the order in
    which ``np.add.at`` would add them into the full matrix, so the result
    is that matrix's restriction bit for bit.
    """
    # per-member 4-vector (c, s, -c, -s); element matrix is k * outer(v, v)
    v = np.concatenate([model.cosines, -model.cosines], axis=-1)
    topo = model.topology
    k = topo.material.young_modulus * model.areas / model.lengths
    blocks = k[..., None, None] * v[..., :, None] * v[..., None, :]
    n = topo.free.size
    blocks = blocks.reshape(-1, 16 * topo.n_members)[:, topo.free_entries]
    return _scatter(topo.free_stiffness_index, blocks, n * n).reshape(
        model.stack_shape + (n, n)
    )


@dataclass
class StaticResult:
    """displacements is (n, 2) with zeros on restrained DOFs; stresses is
    per-member axial stress [Pa], tension positive.  For a stack both gain
    the stack's leading axis."""

    displacements: np.ndarray
    stresses: np.ndarray


def _positive_definite(K: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack ``K`` is positive definite, by a
    Cholesky factorization.  A stacked factorization raises for the whole
    stack when any matrix fails, so only then is each matrix tried alone."""
    try:
        np.linalg.cholesky(K)
        return np.ones(K.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    flat = K.reshape((-1,) + K.shape[-2:])
    ok = np.ones(len(flat), dtype=bool)
    for i, matrix in enumerate(flat):
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            ok[i] = False
    return ok.reshape(K.shape[:-2])


def solve_static(model: TrussModel) -> StaticResult:
    """Displacements and stresses under the model's nodal loads.

    Raises :class:`AnalysisError` when any configuration is a mechanism.
    """
    topo = model.topology
    K_red = model.free_stiffness
    ok = _positive_definite(K_red)
    if not ok.all():
        eigmin = float(np.linalg.eigvalsh(K_red[~ok][0])[0])
        raise AnalysisError(
            f"reduced stiffness is not positive definite "
            f"(smallest eigenvalue {eigmin:.3e}); the truss is a mechanism",
            ~ok,
        )
    u_free = np.linalg.solve(K_red, topo.free_loads)
    stack = model.stack_shape
    u = np.zeros(stack + (2 * topo.n_nodes,))
    u[..., topo.free] = u_free
    u = u.reshape(stack + (topo.n_nodes, 2))

    du = u[..., topo.members[:, 1], :] - u[..., topo.members[:, 0], :]
    # flattened to (k * m, 2), each member's two-term dot product runs in
    # the same einsum loop as for a single configuration
    elongation = np.einsum(
        "ij,ij->i", du.reshape(-1, 2), model.cosines.reshape(-1, 2)
    ).reshape(model.lengths.shape)
    stresses = topo.material.young_modulus * elongation / model.lengths
    return StaticResult(displacements=u, stresses=stresses)


def lumped_masses(model: TrussModel) -> np.ndarray:
    """Per-node translational mass: lumped nonstructural mass plus half of
    each adjacent member's structural mass; ``(k, n)`` for a stack."""
    topo = model.topology
    tributary = 0.5 * topo.material.density * model.areas * model.lengths
    stack = model.stack_shape
    masses = np.broadcast_to(topo.masses, stack + topo.masses.shape)
    weights = np.concatenate([masses, tributary, tributary], axis=-1)
    return _scatter(
        topo.mass_index, weights.reshape(-1, weights.shape[-1]), topo.n_nodes
    ).reshape(stack + (topo.n_nodes,))


def natural_frequencies(model: TrussModel, count: int | None = None) -> np.ndarray:
    """Lowest natural frequencies [Hz], ascending; ``(k, count)`` for a stack.

    The generalized problem with the diagonal mass matrix is reduced to a
    symmetric standard problem through a M^(-1/2) similarity transform.
    Tiny negative eigenvalues from roundoff are clamped to zero; a larger
    negative one marks a mechanism and raises :class:`AnalysisError`.
    """
    free = model.topology.free
    # DOF 2k and 2k + 1 both carry node k's mass
    mass = lumped_masses(model)[..., free // 2]
    massless = (mass <= 0).reshape(-1, free.size)
    if massless.any():
        bad = free[np.argwhere(massless)[0, 1]]
        raise ModelError(f"free DOF {bad} carries no mass")
    K = model.free_stiffness
    inv_sqrt = 1.0 / np.sqrt(mass)
    A = inv_sqrt[..., :, None] * K * inv_sqrt[..., None, :]
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    lams = np.linalg.eigvalsh(A)
    tol = 1e-8 * np.maximum(1.0, np.abs(lams).max(axis=-1))
    mechanisms = lams[..., 0] < -tol
    if mechanisms.any():
        first = lams[..., 0][mechanisms][0]
        raise AnalysisError(
            f"negative stiffness eigenvalue {first:.3e}; the truss is a mechanism",
            mechanisms,
        )
    lams = np.clip(lams, 0.0, None)
    freqs = np.sqrt(lams) / (2.0 * np.pi)
    if count is not None:
        freqs = freqs[..., : int(count)]
    return freqs


# ---------------------------------------------------------------------------
# Constraint helpers (normalized, >= 0 means violated amount)


def stress_violations(stresses: np.ndarray, limit: float) -> np.ndarray:
    """Per-member ``max(0, |sigma| / limit - 1)``."""
    if limit <= 0:
        raise ValueError("stress limit must be positive")
    return np.maximum(0.0, np.abs(stresses) / limit - 1.0)


def displacement_violation(value, limit: float):
    """``max(0, |u| / limit - 1)`` for one displacement bound, elementwise
    when ``value`` is an array of displacements."""
    if limit <= 0:
        raise ValueError("displacement limit must be positive")
    return np.maximum(0.0, np.abs(value) / limit - 1.0)


def frequency_violations(freqs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-mode lower bounds: ``max(0, 1 - f_k / f_min_k)``, along the last
    axis of ``freqs``."""
    freqs = np.asarray(freqs, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if np.any(bounds <= 0):
        raise ValueError("frequency bounds must be positive")
    if freqs.shape[-1] < bounds.size:
        raise ValueError("fewer frequencies than bounds")
    return np.maximum(0.0, 1.0 - freqs[..., : bounds.size] / bounds)
