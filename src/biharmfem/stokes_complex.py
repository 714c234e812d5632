"""Constructive discrete Stokes-complex machinery.

Builds the weakly rot-free basis of the continuous quadratic velocity space,
adds quadratic bubbles so that the broken rot vanishes pointwise, inverts the
broken gradient, and verifies exactness of the discrete complexes by rank
computations.

Every step works on all basis functions at once, touching only the
(function, cell) blocks of their supports, and passes plain sparse
matrices with the mesh or space they live on.  G2 coefficient
vectors are the columns of one sparse matrix, and piecewise polynomials are
sparse (function x cell * shape) matrices, whose (function, cell) blocks are
read in SciPy's BSR form, over one fixed shape set per degree, the
monomials in the reference coordinates (lam_1, lam_2):
GRADIENT_SHAPES for the two components of a gradient (12 columns per cell)
and CUBIC_SHAPES for the cubics (10 columns per cell).
Differentiation, antidifferentiation, vertex values and edge moments are
linear maps tabulated once on the reference cell and composed with each
cell's grad_lambda.  Integration constants are matched on each
function's support, with the function 0 off it, along one breadth-first
order of the support blocks' edge adjacency.

The piecewise-cubic functions produced this way span the nonconforming
biharmonic space; each is supported in one vertex or edge patch.  b3_basis
returns them as the rows of one such cubic matrix, beside the G2 coefficient
columns of their broken gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import kernel_dimension, matrix_rank
from .mesh import Mesh
from .polynomials import EDGE_LEGENDRE, BaryPoly, poly1d_eval
from .quadrature import edge_rule
from .schemes import DECOMPOSED, PAIRS, SCHEMES
from .spaces import Space, assemble_bilinear, build_space, shape_set, tabulate


class ComplexError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# reference maps and per-cell blocks
# ---------------------------------------------------------------------------

#: The shape sets of the per-cell polynomials: monomials xi^a eta^b in the
#: reference coordinates xi = lam_1, eta = lam_2, so that a constant is one
#: coefficient and every derivative table is exact.
GRADIENT_SHAPES, CUBIC_SHAPES = "ref2", "ref3"
#: columns per cell of a gradient (two P2 components) and of a cubic
NGRAD, NCUBIC = 12, 10
#: relative tolerances of the exactness checks: a nonzero mean of a cell's
#: rot, a pointwise rot, a constant mismatch across an edge or boundary
#: vertex, and the size below which a per-cell cubic is dropped
MEAN_TOL, ROT_TOL, CONSISTENCY_TOL, SNAP_TOL = 1e-10, 1e-10, 1e-9, 1e-12
#: quadrature degree of the edge moments in b3_membership_violation
MEMBERSHIP_QUAD_DEGREE = 10


def _ref_coeffs(p: BaryPoly, shapes: str) -> np.ndarray:
    """Coefficients of p in a shape set "ref<k>" of at least its degree:
    lam_0 is replaced by 1 - lam_1 - lam_2."""
    index = {e: k for k, s in enumerate(shape_set(shapes)) for e in s.coeffs}
    lam0 = BaryPoly({(0, 0, 0): 1.0, (0, 1, 0): -1.0, (0, 0, 1): -1.0})
    out = np.zeros(len(index))
    for (a, b, c), coef in p.coeffs.items():
        term = BaryPoly({(0, b, c): float(coef)})
        for _ in range(a):
            term = term * lam0
        for e, v in term.coeffs.items():
            out[index[e]] += v
    return out


@dataclass(frozen=True)
class _Reference:
    antider: np.ndarray    # (10, 12): reference gradient -> cubic, constant 0
    vertex: np.ndarray     # (10, 3): the cubic shapes at the vertices
    rot: np.ndarray        # (6, 3, 3): d(gradient shape)/dlam_i at vertex j
    bubble: np.ndarray     # (3, 3): d(G2 bubble)/dlam_i at vertex j


@lru_cache(maxsize=None)
def _reference() -> _Reference:
    cubic = shape_set(CUBIC_SHAPES)
    dlam = np.array([[_ref_coeffs(s.dlam(i), GRADIENT_SHAPES) for s in cubic]
                     for i in range(3)]).transpose(0, 2, 1)
    # lam_0 does not occur, so d/dxi = d/dlam_1 and d/deta = d/dlam_2
    return _Reference(
        antider=np.linalg.pinv(np.concatenate(dlam[1:])),
        vertex=tabulate(CUBIC_SHAPES, np.eye(3))[0],
        rot=tabulate(GRADIENT_SHAPES, np.eye(3))[1],
        bubble=tabulate("g2", np.eye(3))[1][-1])


def _cell_blocks(M, width: int):
    """The nonzero blocks of an (nrows, ncells * width) matrix whose columns
    c * width ... c * width + width - 1 belong to cell c: row and cell index
    of each block, in (row, cell) order, and its (nblocks, width) values.
    The blocks are read from M in BSR form with (1, width) blocks, after M
    is brought to canonical CSR (on a copy: sum_duplicates sorts in place)."""
    M = sp.csr_matrix(M)
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    B = M.tobsr(blocksize=(1, width))
    return (np.repeat(np.arange(M.shape[0]), np.diff(B.indptr)),
            B.indices.astype(np.int64), B.data.reshape(-1, width))


def _gradient_operator(space: Space) -> sp.csr_matrix:
    """(ncells * 12, ndof): coefficients of a vector space -> each cell's
    (x, y) components in GRADIENT_SHAPES."""
    T = np.array([_ref_coeffs(p, GRADIENT_SHAPES)
                  for p in shape_set(space.shapes)]).T
    return sp.kron(sp.identity(space.mesh.n_cells),
                   np.kron(np.eye(2), T) @ space.A.T, format="csr") @ space.P


def _rot_at_vertices(gl: np.ndarray, cells: np.ndarray,
                     grad: np.ndarray) -> np.ndarray:
    """Rot of (nblocks, 12) P2 pairs on the given cells, at the vertices:
    rot v = d(v_y)/dx - d(v_x)/dy is linear on each cell."""
    d = (grad.reshape(-1, 2, 6) @ _reference().rot.reshape(6, 9)).reshape(
        -1, 2, 3, 3)                        # (block, x|y, i, j)
    g = gl[cells]
    return (np.einsum("bij,bi->bj", d[:, 1], g[:, :, 0])
            - np.einsum("bij,bi->bj", d[:, 0], g[:, :, 1]))


def _colmax(M) -> np.ndarray:
    return abs(M).max(axis=0).toarray().ravel()


# ---------------------------------------------------------------------------
# weakly rot-free basis and bubble correction
# ---------------------------------------------------------------------------

@dataclass
class WeakRotFreeBasis:
    """Basis of the weakly rot-free subspace of S2_0, in G2_0 coefficients."""

    space: Space                    # G2_0
    matrix: sp.csc_matrix           # (ndof, nfunc): the functions as columns
    labels: list[tuple]             # ("vx"|"vy"|"patch", vertex) or ("edge", e)
    cells: sp.csr_matrix            # (nfunc, ncells) support indicator

    def __len__(self):
        return self.matrix.shape[1]


def weak_rotfree_basis(mesh: Mesh) -> WeakRotFreeBasis:
    """Columns: (vx, vy) per interior vertex, the unit normal mean per
    interior edge, then per interior vertex the patch function with unit
    tangential edge integrals away from it."""
    # the cubic scheme's velocity space, whose vertex and edge DOFs are S2_0's
    g2 = build_space(mesh, PAIRS[SCHEMES["cubic"][1]][0])
    vdofs = g2.meta["vertex_dofs"]
    edofs = g2.meta["edge_dofs"]
    iv, ie = mesh.interior_vertices(), mesh.interior_edges()
    nv, ne = iv.size, ie.size
    tang = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    length = np.linalg.norm(tang, axis=1)
    unit = tang / length[:, None]
    rows = [vdofs[iv].ravel(), edofs[ie].ravel()]
    cols = [np.arange(2 * nv), 2 * nv + np.repeat(np.arange(ne), 2)]
    vals = [np.ones(2 * nv), np.column_stack([unit[ie, 1], -unit[ie, 0]]).ravel()]
    patch = np.full(mesh.n_vertices, -1)
    patch[iv] = 2 * nv + ne + np.arange(nv)
    # the fint of an edge moment is its mean times |e|
    for end, sign in ((0, 1.0), (1, -1.0)):
        a = mesh.edges[:, end]
        k = np.flatnonzero(patch[a] >= 0)
        rows.append(edofs[k].ravel())
        cols.append(np.repeat(patch[a[k]], 2))
        vals.append((sign * unit[k] / length[k, None]).ravel())
    M = sp.csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(g2.ndof, 3 * nv + ne))
    if matrix_rank(M, tol=1e-10) != M.shape[1]:
        raise ComplexError("weak rot-free candidate functions are dependent")
    nc = mesh.n_cells
    vertex_cells = sp.csr_matrix(
        (np.ones(3 * nc), (mesh.cells.ravel(), np.repeat(np.arange(nc), 3))),
        shape=(mesh.n_vertices, nc))
    edge_cells = sp.csr_matrix(
        (np.ones(2 * ne), (np.repeat(np.arange(ne), 2),
                           mesh.edge_cells[ie].ravel())), shape=(ne, nc))
    cells = sp.vstack([vertex_cells[np.repeat(iv, 2)], edge_cells,
                       vertex_cells[iv]], format="csr")
    labels = ([(tag, int(a)) for a in iv for tag in ("vx", "vy")]
              + [("edge", int(e)) for e in ie]
              + [("patch", int(a)) for a in iv])
    return WeakRotFreeBasis(g2, M, labels, cells)


def bubble_correct(g2: Space, coeffs):
    """Add cell bubbles so the broken rot vanishes pointwise on each cell.

    coeffs holds G2 coefficient columns, dense or sparse; a vector is one
    column.  The result has the form of coeffs.  On each cell the rot is
    linear; its mean must vanish, and the bubbles cancel its two mean-zero
    coordinates (lam_0 - lam_2 and lam_1 - lam_2 at the vertices).
    """
    if g2.shapes != "g2":
        raise ValueError("bubble_correct expects a G2 space")
    sparse_in = sp.issparse(coeffs)
    C = sp.csc_matrix(coeffs if sparse_in
                      else np.asarray(coeffs, dtype=float).reshape(g2.ndof, -1))
    gl = g2.mesh.geometry_arrays()[0]
    scale = np.maximum(1.0, _colmax(C))
    f, cells, grad = _cell_blocks(C.T @ _gradient_operator(g2).T, NGRAD)
    rot = _rot_at_vertices(gl, cells, grad)
    mean = rot.mean(axis=1)
    bad = np.flatnonzero(np.abs(mean) > MEAN_TOL * scale[f])
    if bad.size:
        k = bad[0]
        raise ComplexError(f"cell {cells[k]}: rot has nonzero mean "
                           f"{mean[k]:.3e}")
    # rot(c1 b, c2 b) = c2 b_x - c1 b_y must cancel the mean-zero part of rot
    db = np.einsum("ij,cid->cdj", _reference().bubble, gl)
    db = db[..., :2] - db[..., 2:]                   # (cell, x|y, coordinate)
    system = np.stack([-db[:, 1], db[:, 0]], axis=-1)
    rhs = rot[:, 2:] - rot[:, :2]
    try:
        sol = np.linalg.solve(system[cells], rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        c = int(np.argmin(np.abs(np.linalg.det(system))))
        raise ComplexError(f"singular bubble system on cell {c}") from exc
    bdofs = g2.meta["cell_dofs"][cells]
    out = C + sp.csc_matrix((sol.ravel(), (bdofs.ravel(), np.repeat(f, 2))),
                            shape=C.shape)
    out.eliminate_zeros()
    if sparse_in:
        return out
    return out.toarray().reshape(np.shape(coeffs))


# ---------------------------------------------------------------------------
# the gradient inverse
# ---------------------------------------------------------------------------

def _constants(mesh: Mesh, f, cells, W, scale) -> np.ndarray:
    """The integration constants of the cubic blocks W of fields f on
    cells, each field 0 off its blocks (grad_inverse).  Each edge-connected
    part of a field's blocks is seeded with 0 at the first end of its first
    edge that leads to the boundary or off them; the constants follow
    breadth-first through shared vertex values, for all parts at once.
    Every interior edge is checked against its other side, and every
    boundary vertex against 0."""
    from scipy.sparse.csgraph import (breadth_first_order,  # lazy: 1 MB RSS
                                      connected_components)
    nb, nc = f.size, mesh.n_cells
    # local edge i runs from corner i + 1 to corner i + 2: ends holds a
    # block's values there, and across those of the same field's block nbr
    # on the other side, or 0 (nbr -1: boundary or off the field's blocks)
    V = W @ _reference().vertex
    ring = [[1, 2], [2, 0], [0, 1]]
    ends, at = V[:, ring], mesh.cells[cells][:, ring]
    pair = mesh.edge_cells[mesh.cell_edges[cells]]
    other = np.where(pair[..., 0] == cells[:, None], pair[..., 1], pair[..., 0])
    key, want = f * nc + cells, f[:, None] * nc + other
    nbr = np.minimum(np.searchsorted(key, want), max(nb - 1, 0))
    nbr = np.where((other >= 0) & (key[nbr] == want), nbr, -1)
    corner = np.argmax(mesh.cells[other][:, :, None] == at[..., None], axis=-1)
    across = np.where(nbr[..., None] >= 0,
                      np.take_along_axis(V[nbr], corner, axis=-1), 0.0)
    # a root, block nb, joined to one seed per part: the part's first exit
    rows, cols = np.nonzero(nbr >= 0)[0], nbr[nbr >= 0]
    part = connected_components(sp.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(nb, nb)), directed=False)[1]
    exit_b = np.nonzero(nbr < 0)[0]
    seed = exit_b[np.unique(part[exit_b], return_index=True)[1]]
    order, pred = breadth_first_order(sp.csr_matrix(
        (np.ones(rows.size + seed.size), (np.append(rows, [nb] * seed.size),
                                          np.append(cols, seed))),
        shape=(nb + 1, nb + 1)), nb, directed=False, return_predecessors=True)
    # const[child] = const[parent] + the parent's value less the child's at
    # the first end of the child's edge to it; a seed's parent is the root,
    # whose value on the seed's first exit and const are 0.  One unit lower
    # triangular solve in breadth-first order; const[nb] = const[-1] = 0,
    # the root's, is what const[nbr] reads off the field's blocks.
    child, parent = order[1:], pred[order[1:]]
    k = np.argmax(nbr[child] == np.where(parent < nb, parent, -1)[:, None],
                  axis=1)
    position = np.empty(nb + 1, dtype=np.int64)
    position[order] = np.arange(nb + 1)
    const = spla.spsolve_triangular(
        sp.csr_matrix((-np.ones(nb), (np.arange(1, nb + 1), position[parent])),
                      shape=(nb + 1, nb + 1)),
        np.append(0.0, across[child, k, 0] - ends[child, k, 0]),
        unit_diagonal=True)[position]
    values = ends + const[:nb, None, None]
    mismatch = np.where(other >= 0, np.abs(
        values - across - const[nbr, None]).max(axis=2), 0.0)
    bad_b, bad_i = np.nonzero(mismatch > CONSISTENCY_TOL * scale[f, None])
    if bad_b.size:     # the first edge, then the first field on it
        edge = mesh.cell_edges[cells[bad_b], bad_i]
        k = np.lexsort((f[bad_b], edge))[0]
        raise ComplexError(
            f"constant mismatch {mismatch[bad_b[k], bad_i[k]]:.2e} across "
            f"edge {edge[k]}; input is not a broken gradient, or its "
            "antiderivative is a nonzero constant on cells that its support "
            "encloses")
    spread = np.where(mesh.vertex_is_boundary[at], np.abs(values),
                      0.0).max(axis=(1, 2))
    bad = np.flatnonzero(spread > CONSISTENCY_TOL * scale[f])
    if bad.size:
        raise ComplexError(f"boundary vertex values spread "
                           f"{spread[f == f[bad[0]]].max():.2e}; input is "
                           "not in the discrete gradient space")
    return const[:nb]


def grad_inverse(mesh: Mesh, grad) -> sp.csr_matrix:
    """Cell-wise antiderivatives of pointwise rot-free piecewise P2 fields.

    grad holds one field per row, (nfields, ncells * 12), dense or sparse,
    or one field as an (ncells * 12,) vector: on cell c, columns
    c * 12 + 6 * k + s hold component k (x, then y) in GRADIENT_SHAPES.
    Returns the cubics as an (nfields, ncells * 10) CSR matrix: row f, cell
    c at columns c * 10 ... c * 10 + 9 in CUBIC_SHAPES.  A field's cubic is
    taken to be 0 off its support, the cells where it has stored values,
    and at the boundary, so the work touches the support blocks only
    (_constants).  Inconsistencies beyond tolerance abort, naming the first
    edge (then field) or field at fault; a cubic that is a nonzero constant
    on cells its support encloses fails as a mismatch.
    """
    G = grad if sp.issparse(grad) else np.atleast_2d(
        np.asarray(grad, dtype=float))
    nf, nc = G.shape[0], mesh.n_cells
    if G.shape[1] != nc * NGRAD:
        raise ValueError(f"grad has {G.shape[1]} columns, expected "
                         f"{nc * NGRAD}")
    gl, _, verts = mesh.geometry_arrays()
    f, cells, g = _cell_blocks(G, NGRAD)
    scale = np.ones(nf)
    np.maximum.at(scale, f, np.abs(g).max(axis=1))
    rot = np.abs(_rot_at_vertices(gl, cells, g)).max(axis=1)
    bad = np.flatnonzero(rot > ROT_TOL * scale[f])
    if bad.size:
        raise ComplexError(f"cell {cells[bad[0]]}: field is not pointwise "
                           "rot-free")
    # (d/dxi, d/deta) = J^T (d/dx, d/dy) with J = [v1 - v0, v2 - v0]
    J = verts[cells, 1:] - verts[cells, :1]
    W = np.einsum("bkd,bds->bks", J, g.reshape(-1, 2, 6)).reshape(
        -1, NGRAD) @ _reference().antider.T
    # cubic = antiderivative + constant (shape 0); cubics below SNAP_TOL
    # (the zero-gradient cells, up to round-off) are dropped
    W[:, 0] += _constants(mesh, f, cells, W, scale)
    keep = np.abs(W).max(axis=1) > SNAP_TOL * scale[f]
    f, cells, W = f[keep], cells[keep], W[keep]
    # the blocks come in (field, cell) order, that of BSR block rows
    return sp.bsr_matrix((W[:, None], cells, np.searchsorted(
        f, np.arange(nf + 1))), shape=(nf, nc * NCUBIC)).tocsr()


# ---------------------------------------------------------------------------
# the locally supported cubic basis
# ---------------------------------------------------------------------------

@dataclass
class B3Basis:
    """The basis functions as the rows of coeffs, (nfunc, ncells * 10) in
    grad_inverse's layout, and their broken gradients as the columns of
    gradient_coeffs (G2_0 coefficients)."""

    g2: Space
    coeffs: sp.csr_matrix
    gradient_coeffs: sp.csc_matrix
    labels: list[tuple]

    def __len__(self):
        return len(self.labels)


def b3_basis(mesh: Mesh) -> B3Basis:
    base = weak_rotfree_basis(mesh)
    g2 = base.space     # G2_0, where the broken gradients lie
    C = bubble_correct(g2, base.matrix)
    w = grad_inverse(mesh, (_gradient_operator(g2) @ C).T)
    f, cells, _ = _cell_blocks(w, NCUBIC)
    grown = base.cells[f[:, None], cells[:, None]].toarray().ravel() == 0
    if grown.any():
        k = f[grown][0]
        raise ComplexError(f"support of {base.labels[k]} grew: "
                           f"{sorted(cells[grown & (f == k)].tolist())}")
    return B3Basis(g2, w, C, base.labels)


@lru_cache(maxsize=None)
def _edge_moments(degree: int):
    """Moments of the cubic shapes along local edge i of a cell, with the
    canonical parameter running along the local direction (o = 0) or against
    it (o = 1): (3, 2, 10) means of the values and (3, 2, 10, 3, 2) first two
    canonical Legendre moments of each lam-derivative."""
    rule = edge_rule(degree)
    t = rule.points
    lam = np.zeros((3, 2, t.size, 3))
    for i in range(3):
        for o, s in enumerate((t, 1.0 - t)):
            lam[i, o, :, (i + 1) % 3] = 1.0 - s
            lam[i, o, :, (i + 2) % 3] = s
    legendre = rule.weights * np.array(
        [poly1d_eval([float(x) for x in EDGE_LEGENDRE[m]], t) for m in (0, 1)])
    val, d1, _ = tabulate(CUBIC_SHAPES, lam)
    return (np.einsum("sioq,q->ios", val, rule.weights),
            np.einsum("sjioq,mq->iosjm", d1, legendre))


def _edge_jump_violation(mesh: Mesh, coeffs, degree: int) -> float:
    """Largest jump, over all fields (rows of coeffs, grad_inverse's layout)
    and edges, of the mean value and of the canonical Legendre moments 0 and
    1 of the normal derivative; boundary edges take the single trace."""
    f, cells, W = _cell_blocks(coeffs, NCUBIC)
    gl = mesh.geometry_arrays()[0]
    mean, normal = _edge_moments(degree)
    edges = mesh.cell_edges[cells]
    flip = mesh.cell_edge_signs[cells] < 0
    tang = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    nrm = np.column_stack([tang[:, 1], -tang[:, 0]]) \
        / np.linalg.norm(tang, axis=1)[:, None]
    value = np.einsum("ios,bs->bio", mean, W)
    value = np.where(flip, value[..., 1], value[..., 0])
    dn = np.einsum("iosjm,bs->biojm", normal, W)
    dn = np.where(flip[..., None, None], dn[:, :, 1], dn[:, :, 0])
    dn = np.einsum("bijm,bjd,bid->bim", dn, gl[cells], nrm[edges])
    moments = np.concatenate([value[..., None], dn], axis=2)  # (b, i, 3)
    sign = np.where(mesh.edge_cells[edges, 0] == cells[:, None], 1.0, -1.0)
    jumps = sp.csr_matrix(
        ((sign[..., None] * moments).ravel(),
         ((edges[..., None] * 3 + np.arange(3)).ravel(), np.repeat(f, 9))),
        shape=(3 * mesh.n_edges, coeffs.shape[0]))
    return float(np.abs(jumps.data).max(initial=0.0))


def _vertex_violation(mesh: Mesh, coeffs) -> float:
    """Largest spread, over all fields and vertices, of the values on the
    cells around an interior vertex (max - min), or largest |value| at a
    boundary vertex; cells where a field is zero count with value 0: a
    (field, vertex) key with fewer blocks than the vertex has cells."""
    f, cells, W = _cell_blocks(coeffs, NCUBIC)
    nv = mesh.n_vertices
    key = np.repeat(f, 3) * nv + mesh.cells[cells].ravel()
    order = np.argsort(key)
    key, starts, count = np.unique(key[order], return_index=True,
                                   return_counts=True)
    values = (W @ _reference().vertex).ravel()[order]
    top = np.maximum.reduceat(values, starts)
    low = np.minimum.reduceat(values, starts)
    implied = count < np.bincount(mesh.cells.ravel(), minlength=nv)[key % nv]
    np.maximum(top, 0.0, out=top, where=implied)
    np.minimum(low, 0.0, out=low, where=implied)
    spread = np.where(mesh.vertex_is_boundary[key % nv],
                      np.maximum(top, -low), top - low)
    return float(spread.max(initial=0.0))


def b3_membership_violation(mesh: Mesh, coeffs) -> float:
    """Worst violation of the piecewise-cubic space's continuity clauses,
    over all fields, the rows of coeffs in grad_inverse's layout.

    Checks vertex continuity (zero values on the boundary), mean value
    continuity across edges, and first-order normal-derivative moment
    continuity, including the homogeneous boundary clauses.
    """
    return max(_edge_jump_violation(mesh, coeffs, MEMBERSHIP_QUAD_DEGREE),
               _vertex_violation(mesh, coeffs))


# ---------------------------------------------------------------------------
# exactness verification
# ---------------------------------------------------------------------------

@dataclass
class ExactnessReport:
    order: str
    n_cells: int
    n_interior_vertices: int
    n_interior_edges: int
    dim_velocity: int
    dim_pressure_meanzero: int
    rank: int
    kernel: int
    expected_rank: int
    kernel_dim_formula: int          # closed form in #interior vertices/edges
    kernel_dim_derived: int          # dim(velocity) - dim(pressure_0)
    aux_identity_ok: bool
    basis_kernel_residual: float | None = None
    basis_membership_violation: float | None = None
    basis_count: int | None = None

    @property
    def surjective(self) -> bool:
        return self.rank == self.expected_rank

    @property
    def exact(self) -> bool:
        """aux_identity_ok fails exactly when xi - ei + T != 1 (holes)."""
        return (self.surjective and self.kernel == self.kernel_dim_derived
                and self.aux_identity_ok)

    def to_text(self) -> str:
        lines = [
            f"order: {self.order}",
            f"cells: {self.n_cells}  interior vertices: "
            f"{self.n_interior_vertices}  interior edges: {self.n_interior_edges}",
            f"dim velocity: {self.dim_velocity}  dim pressure (mean-zero): "
            f"{self.dim_pressure_meanzero}",
            f"rank {self.rank}, kernel {self.kernel}, exact: "
            f"{'PASS' if self.exact else 'FAIL'}",
            f"surjectivity (rank == {self.expected_rank}): "
            f"{'PASS' if self.surjective else 'FAIL'}",
            f"kernel dimension: derived {self.kernel_dim_derived}, "
            f"closed form {self.kernel_dim_formula}, measured {self.kernel}",
            f"auxiliary dimension identity: "
            f"{'PASS' if self.aux_identity_ok else 'FAIL'}",
        ]
        if self.basis_count is not None:
            lines.append(
                f"basis functions: {self.basis_count}, max kernel residual "
                f"{self.basis_kernel_residual:.3e}, max membership violation "
                f"{self.basis_membership_violation:.3e}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        head = ("order,n_cells,dim_velocity,dim_pressure,rank,kernel,"
                "expected_rank,kernel_formula,kernel_derived,exact")
        row = (f"{self.order},{self.n_cells},{self.dim_velocity},"
               f"{self.dim_pressure_meanzero},{self.rank},{self.kernel},"
               f"{self.expected_rank},{self.kernel_dim_formula},"
               f"{self.kernel_dim_derived},{int(self.exact)}")
        return head + "\n" + row + "\n"


def exactness_report(mesh: Mesh, order: str = "cubic",
                     with_basis: bool = True) -> ExactnessReport:
    row = SCHEMES.get(order)
    if row is None:
        raise ValueError(f"unknown order '{order}'; known: {list(DECOMPOSED)}")
    xi = mesh.n_interior_vertices
    ei = mesh.n_interior_edges
    nt = mesh.n_cells
    vel, dg = (build_space(mesh, kind) for kind in PAIRS[row[1]])
    # surjective: rot onto the mean-zero subspace of the pressure space
    expected_rank = dg.ndof - 1
    if order == "cubic":
        kernel_formula = 3 * xi + ei
        # dim(B3+) + dim(DG1) - 1 == dim(G2+): (xi + 3 ei) + (3 nt - 1)
        aux_ok = (xi + 3 * ei) + (3 * nt - 1) == 2 * (nt + 2 * ei)
    else:
        # quartic: dim(G3_0) = 6 ei + 2 nt and rank = 6 nt - 1, so the kernel
        # is 6 ei - 4 nt + 1; Euler on the square (xi - ei + nt = 1) turns
        # this into 4 xi + 2 ei - 3 (the often quoted 3 xi + 2 ei - 3
        # undercounts by one per interior vertex)
        kernel_formula = 4 * xi + 2 * ei - 3
        # the two facts the closed form rests on: the measured velocity
        # dimension and Euler's formula
        aux_ok = vel.ndof == 6 * ei + 2 * nt and xi - ei + nt == 1
    B = assemble_bilinear(vel, dg, "rot_pressure")
    kernel = kernel_dimension(B, tol=1e-8)
    rank = B.shape[1] - kernel
    rep = ExactnessReport(
        order=order, n_cells=nt, n_interior_vertices=xi, n_interior_edges=ei,
        dim_velocity=vel.ndof, dim_pressure_meanzero=expected_rank, rank=rank,
        kernel=kernel, expected_rank=expected_rank,
        kernel_dim_formula=kernel_formula,
        kernel_dim_derived=vel.ndof - expected_rank, aux_identity_ok=aux_ok)
    if order == "cubic" and with_basis:
        basis = b3_basis(mesh)
        C = basis.gradient_coeffs
        res = _colmax(B @ C) / (abs(B).max() * np.maximum(1.0, _colmax(C)))
        rep.basis_kernel_residual = float(res.max(initial=0.0))
        rep.basis_membership_violation = b3_membership_violation(
            mesh, basis.coeffs)
        rep.basis_count = len(basis)
    return rep
