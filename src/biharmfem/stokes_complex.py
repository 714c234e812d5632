"""Constructive discrete Stokes-complex machinery.

Builds the weakly rot-free basis of the continuous quadratic velocity space,
adds quadratic bubbles so that the broken rot vanishes pointwise, inverts the
broken gradient, and verifies exactness of the discrete complexes by rank
computations.

Every step works on all basis functions and all cells at once.  Coefficient
vectors are the columns of one sparse matrix, and piecewise polynomials are
sparse (function x cell * shape) matrices over one fixed shape set per
degree, the monomials in the reference coordinates (lam_1, lam_2):
GRADIENT_SHAPES for the two components of a gradient (12 columns per cell)
and CUBIC_SHAPES for the cubics (10 columns per cell).
Differentiation, antidifferentiation, vertex values and edge moments are
linear maps tabulated once on the reference cell and composed with each
cell's grad_lambda.  Integration constants are matched along one
breadth-first order of the cell adjacency.

The piecewise-cubic functions produced this way span the nonconforming
biharmonic space; each is supported in one vertex or edge patch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .linalg import kernel_dimension, matrix_rank
from .mesh import Mesh
from .polynomials import EDGE_LEGENDRE, BaryPoly, poly1d_eval
from .quadrature import edge_rule
from .spaces import (Space, assemble_bilinear, block_diagonal, build_space,
                     shape_set)


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


def _dlam_at_vertices(polys) -> np.ndarray:
    """[p, i, j] = (d p / d lam_i) at vertex j."""
    eye = np.eye(3)
    return np.array([[p.dlam(i).eval(eye) for i in range(3)] for p in polys])


@dataclass(frozen=True)
class _Reference:
    dlam: np.ndarray       # (3, 6, 10): d/dlam_i, cubic -> gradient shapes
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
        dlam=dlam, antider=np.linalg.pinv(np.concatenate(dlam[1:])),
        vertex=np.array([s.eval(np.eye(3)) for s in cubic]),
        rot=_dlam_at_vertices(shape_set(GRADIENT_SHAPES)),
        bubble=_dlam_at_vertices(shape_set("g2")[-1:])[0])


def _cell_blocks(M, width: int):
    """The nonzero blocks of an (nrows, ncells * width) matrix whose columns
    c * width ... c * width + width - 1 belong to cell c: row and cell index
    of each block, in (row, cell) order, and its (nblocks, width) values."""
    M = sp.coo_matrix(M)
    M.sum_duplicates()
    ncells = M.shape[1] // width
    key = M.row.astype(np.int64) * ncells + M.col // width
    keys, inv = np.unique(key, return_inverse=True)
    vals = np.zeros((keys.size, width))
    vals[inv, M.col % width] = M.data
    return keys // ncells, keys % ncells, vals


def _from_blocks(rows, cells, vals, shape) -> sp.csr_matrix:
    width = vals.shape[1]
    cols = cells[:, None] * width + np.arange(width)
    return sp.csr_matrix((vals.ravel(), (np.repeat(rows, width), cols.ravel())),
                         shape=shape)


def _gradient_operator(space: Space) -> sp.csr_matrix:
    """(ncells * 12, ndof): coefficients of a vector space -> each cell's
    (x, y) components in GRADIENT_SHAPES."""
    nc = space.mesh.n_cells
    T = np.array([_ref_coeffs(p, GRADIENT_SHAPES)
                  for p in shape_set(space.shapes)]).T
    A = np.broadcast_to(space.A, (nc, *space.A.shape[-2:]))
    return block_diagonal(np.kron(np.eye(2), T)
                          @ np.swapaxes(A, -1, -2)) @ space.P


def _rot_at_vertices(gl: np.ndarray, cells: np.ndarray,
                     grad: np.ndarray) -> np.ndarray:
    """Rot of (nblocks, 12) P2 pairs on the given cells, at the vertices:
    rot v = d(v_y)/dx - d(v_x)/dy is linear on each cell."""
    R = _reference().rot
    g = gl[cells]
    gx, gy = grad[:, :6], grad[:, 6:]
    return (np.einsum("sij,bi,bs->bj", R, g[:, :, 0], gy)
            - np.einsum("sij,bi,bs->bj", R, g[:, :, 1], gx))


def _at_corners(ncells: int, nfields: int, f, cells, W) -> np.ndarray:
    """(3 * ncells, nfields): the cubic blocks W of fields f on cells at the
    cell corners, row 3 * cell + corner; zero off the blocks."""
    out = np.zeros((3 * ncells, nfields))
    out[3 * cells[:, None] + np.arange(3), f[:, None]] = W @ _reference().vertex
    return out


def _colmax(M) -> np.ndarray:
    return abs(M).max(axis=0).toarray().ravel()


# ---------------------------------------------------------------------------
# weakly rot-free basis and bubble correction
# ---------------------------------------------------------------------------

@dataclass
class WeakRotFreeBasis:
    """Basis of the weakly rot-free subspace of the S2 velocity space."""

    space: Space                    # S2_0
    matrix: sp.csc_matrix           # (ndof, nfunc): the functions as columns
    labels: list[tuple]             # ("vx"|"vy"|"patch", vertex) or ("edge", e)
    cells: sp.csr_matrix            # (nfunc, ncells) support indicator

    def __len__(self):
        return self.matrix.shape[1]

    @property
    def vectors(self) -> list[np.ndarray]:
        return list(self.matrix.toarray().T)

    @property
    def supports(self) -> list[frozenset]:
        S = self.cells
        return [frozenset(S.indices[S.indptr[k]:S.indptr[k + 1]].tolist())
                for k in range(S.shape[0])]


def weak_rotfree_basis(mesh: Mesh) -> WeakRotFreeBasis:
    """Columns: (vx, vy) per interior vertex, the unit normal mean per
    interior edge, then per interior vertex the patch function with unit
    tangential edge integrals away from it."""
    if mesh.n_interior_vertices < 1:
        raise ComplexError("mesh must have at least one interior vertex")
    s2 = build_space(mesh, "S2_0")
    vdofs = s2.meta["vertex_dofs"]
    edofs = s2.meta["edge_dofs"]
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
                      shape=(s2.ndof, 3 * nv + ne))
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
    return WeakRotFreeBasis(s2, M, labels, cells)


def embed_s2_in_g2(s2: Space, g2: Space, coeffs):
    """S2_0 coefficients (a vector or columns, dense or sparse) extend by
    zero bubbles; the DoF layouts are aligned."""
    pad = g2.ndof - s2.ndof
    if sp.issparse(coeffs):
        return sp.vstack([coeffs, sp.csc_matrix((pad, coeffs.shape[1]))],
                         format="csc")
    coeffs = np.asarray(coeffs, dtype=float)
    return np.concatenate([coeffs, np.zeros((pad, *coeffs.shape[1:]))])


def bubble_correct(g2: Space, coeffs):
    """Add cell bubbles so the broken rot vanishes pointwise on each cell.

    coeffs holds G2 coefficient columns, dense or sparse; a vector is one
    column.  The result has the form of coeffs.  On each cell the rot is
    linear; its mean must vanish, and the bubbles cancel its two mean-zero
    coordinates (lam_0 - lam_2 and lam_1 - lam_2 at the vertices).
    """
    if g2.kind not in ("G2_0", "G2"):
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
# cell-wise fields and the gradient inverse
# ---------------------------------------------------------------------------

@dataclass
class CellwiseField:
    """Scalar fields given as one cubic per cell.

    Row f of coeffs holds field f on every cell in CUBIC_SHAPES, cell c at
    columns c * 10 ... c * 10 + 9.  support lists the cells on which some
    field is nonzero.
    """

    mesh: Mesh
    coeffs: sp.csr_matrix
    support: frozenset = field(default_factory=frozenset)

    def __len__(self):
        return self.coeffs.shape[0]

    def row(self, f: int) -> "CellwiseField":
        """Field f alone."""
        r = self.coeffs[f]
        return CellwiseField(self.mesh, r,
                             frozenset((r.indices // NCUBIC).tolist()))

    def blocks(self):
        """(field, cell, (nblocks, 10) coefficients) of the nonzero cells."""
        return _cell_blocks(self.coeffs, NCUBIC)

    def poly(self, c: int) -> BaryPoly:
        """The cubic of the first field on cell c (see row for the others)."""
        vals = self.coeffs[0, c * NCUBIC:(c + 1) * NCUBIC].toarray().ravel()
        p = BaryPoly()
        for w, s in zip(vals, shape_set(CUBIC_SHAPES)):
            if w != 0.0:
                p = p + float(w) * s
        return p

    def gradient(self) -> sp.csr_matrix:
        """The broken gradients, in the layout grad_inverse reads: row f,
        cell c, columns c * 12 + 6 * k + s for component k and shape s of
        GRADIENT_SHAPES."""
        f, cells, W = self.blocks()
        gl = self.mesh.geometry_arrays()[0]
        g = np.einsum("its,bs,bik->bkt", _reference().dlam, W, gl[cells])
        return _from_blocks(f, cells, g.reshape(-1, NGRAD),
                            (len(self), self.mesh.n_cells * NGRAD))


def grad_inverse(mesh: Mesh, grad) -> CellwiseField:
    """Cell-wise antiderivatives of pointwise rot-free piecewise P2 fields.

    grad holds one field per row, (nfields, ncells * 12), dense or sparse,
    or one field as an (ncells * 12,) vector: on cell c, columns
    c * 12 + 6 * k + s hold component k (x, then y) in GRADIENT_SHAPES.
    Integration constants are matched breadth-first over edge-adjacent cells
    through shared vertex values; the global constant is fixed by zero
    boundary vertex values.  Inconsistencies beyond tolerance abort.
    """
    G = sp.csr_matrix(grad if sp.issparse(grad)
                      else np.atleast_2d(np.asarray(grad, dtype=float)))
    nf, nc = G.shape[0], mesh.n_cells
    if G.shape[1] != nc * NGRAD:
        raise ValueError(f"grad has {G.shape[1]} columns, expected "
                         f"{nc * NGRAD}")
    ref = _reference()
    gl, _, verts = mesh.geometry_arrays()
    scale = np.maximum(1.0, abs(G).max(axis=1).toarray().ravel())
    f, cells, g = _cell_blocks(G, NGRAD)
    rot = np.abs(_rot_at_vertices(gl, cells, g)).max(axis=1)
    bad = np.flatnonzero(rot > ROT_TOL * scale[f])
    if bad.size:
        raise ComplexError(f"cell {cells[bad[0]]}: field is not pointwise "
                           "rot-free")
    # (d/dxi, d/deta) = J^T (d/dx, d/dy) with J = [v1 - v0, v2 - v0]
    J = verts[cells, 1:] - verts[cells, :1]
    g_ref = np.einsum("bkd,bds->bks", J, g.reshape(-1, 2, 6))
    W = g_ref.reshape(-1, NGRAD) @ ref.antider.T
    values = _at_corners(nc, nf, f, cells, W)    # before the constants
    # constants, breadth-first from the lowest-index boundary cell
    interior = mesh.interior_edges()
    c0, c1 = mesh.edge_cells[interior].T
    adj = sp.csr_matrix((interior + 1, (c0, c1)), shape=(nc, nc))
    start = int(np.flatnonzero(mesh.edge_is_boundary[mesh.cell_edges]
                               .any(axis=1))[0])
    order, pred = breadth_first_order(adj, start, directed=False,
                                      return_predecessors=True)
    if order.size < nc:
        raise ComplexError("mesh cells are not edge-connected")
    child = order[1:]
    parent = pred[child]
    edge = np.asarray((adj + adj.T)[parent, child]).ravel() - 1
    va = mesh.edges[edge, 0]

    def corner_of(c, a):
        return 3 * c + np.argmax(mesh.cells[c] == a[:, None], axis=1)

    delta = values[corner_of(parent, va)] - values[corner_of(child, va)]
    const = np.zeros((nc, nf))
    for c, p, d in zip(child.tolist(), parent.tolist(), delta):
        const[c] = const[p] + d
    values += np.repeat(const, 3, axis=0)
    ends = mesh.edges[interior]
    mismatch = np.zeros((interior.size, nf))
    for side in range(2):
        a = ends[:, side]
        mismatch = np.maximum(mismatch, np.abs(values[corner_of(c0, a)]
                                               - values[corner_of(c1, a)]))
    bad = np.argwhere(mismatch > CONSISTENCY_TOL * scale)
    if bad.size:
        k, j = bad[0]
        raise ComplexError(
            f"constant mismatch {mismatch[k, j]:.2e} across edge "
            f"{interior[k]}; input is not a broken gradient")
    on_boundary = np.flatnonzero(mesh.vertex_is_boundary[mesh.cells].ravel())
    shift = values[on_boundary[0]]
    worst = np.abs(values[on_boundary] - shift).max(axis=0)
    bad = np.flatnonzero(worst > CONSISTENCY_TOL * scale)
    if bad.size:
        raise ComplexError(f"boundary vertex values spread "
                           f"{worst[bad[0]]:.2e}; input is not in the "
                           "discrete gradient space")
    # cubic = antiderivative + constant (shape 0); cells whose cubic is
    # below SNAP_TOL (the zero-gradient cells, up to round-off) are dropped
    offset = const - shift
    keys_in = f * nc + cells
    extra = np.flatnonzero((np.abs(offset) > SNAP_TOL * scale).T.ravel())
    keys = np.union1d(keys_in, extra)
    rows, cols = keys // nc, keys % nc
    vals = np.zeros((keys.size, NCUBIC))
    vals[np.searchsorted(keys, keys_in)] = W
    vals[:, 0] += offset[cols, rows]
    keep = np.abs(vals).max(axis=1) > SNAP_TOL * scale[rows]
    coeffs = _from_blocks(rows[keep], cols[keep], vals[keep],
                          (nf, nc * NCUBIC))
    return CellwiseField(mesh, coeffs, frozenset(cols[keep].tolist()))


# ---------------------------------------------------------------------------
# the locally supported cubic basis
# ---------------------------------------------------------------------------

@dataclass
class B3Function:
    """One locally supported member of the piecewise-cubic biharmonic space."""

    field: CellwiseField
    gradient_coeffs: np.ndarray     # G2_0 coefficients of its broken gradient
    label: tuple
    input_support: frozenset


@dataclass
class B3Basis:
    """The basis functions as the rows of one CellwiseField, and their broken
    gradients as the columns of gradient_coeffs (G2_0 coefficients)."""

    mesh: Mesh
    g2: Space
    field: CellwiseField
    gradient_coeffs: sp.csc_matrix
    labels: list[tuple]
    input_supports: list[frozenset]

    def __len__(self):
        return len(self.labels)

    @cached_property
    def functions(self) -> list[B3Function]:
        return [B3Function(self.field.row(k),
                           self.gradient_coeffs[:, k].toarray().ravel(),
                           label, support)
                for k, (label, support) in enumerate(zip(self.labels,
                                                         self.input_supports))]


def b3_basis(mesh: Mesh) -> B3Basis:
    base = weak_rotfree_basis(mesh)
    g2 = build_space(mesh, "G2_0")
    C = bubble_correct(g2, embed_s2_in_g2(base.space, g2, base.matrix))
    w = grad_inverse(mesh, (_gradient_operator(g2) @ C).T)
    f, cells, _ = w.blocks()
    grown = np.asarray(base.cells[f, cells]).ravel() == 0
    if grown.any():
        k = f[grown][0]
        raise ComplexError(f"support of {base.labels[k]} grew: "
                           f"{sorted(cells[grown & (f == k)].tolist())}")
    return B3Basis(mesh, g2, w, C, base.labels, base.supports)


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
    cubic = shape_set(CUBIC_SHAPES)
    val = np.array([p.eval(lam) for p in cubic])
    d1 = np.array([[p.dlam(j).eval(lam) for j in range(3)] for p in cubic])
    return (np.einsum("sioq,q->ios", val, rule.weights),
            np.einsum("sjioq,mq->iosjm", d1, legendre))


def _edge_jump_violation(mesh: Mesh, w: CellwiseField, degree: int) -> float:
    """Largest jump, over all fields and edges, of the mean value and of the
    canonical Legendre moments 0 and 1 of the normal derivative; boundary
    edges take the single trace."""
    f, cells, W = w.blocks()
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
        shape=(3 * mesh.n_edges, len(w)))
    return float(np.abs(jumps.data).max(initial=0.0))


def _vertex_violation(mesh: Mesh, w: CellwiseField) -> float:
    """Largest spread, over all fields and vertices, of the values on the
    cells around an interior vertex (max - min), or largest |value| at a
    boundary vertex; cells where a field is zero count with value 0."""
    values = _at_corners(mesh.n_cells, len(w), *w.blocks())
    vertex = mesh.cells.ravel()
    order = np.argsort(vertex, kind="stable")
    starts = np.searchsorted(vertex[order], np.arange(mesh.n_vertices))
    hi = np.maximum.reduceat(values[order], starts)
    lo = np.minimum.reduceat(values[order], starts)
    spread = np.where(mesh.vertex_is_boundary[:, None], np.maximum(hi, -lo),
                      hi - lo)
    return float(spread.max(initial=0.0))


def b3_membership_violation(mesh: Mesh, w: CellwiseField) -> float:
    """Worst violation of the piecewise-cubic space's continuity clauses,
    over all fields of w.

    Checks vertex continuity (zero values on the boundary), mean value
    continuity across edges, and first-order normal-derivative moment
    continuity, including the homogeneous boundary clauses.
    """
    return max(_edge_jump_violation(mesh, w, MEMBERSHIP_QUAD_DEGREE),
               _vertex_violation(mesh, w))


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
        return self.surjective and self.kernel == self.kernel_dim_derived

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
    xi = mesh.n_interior_vertices
    ei = mesh.n_interior_edges
    nt = mesh.n_cells
    if order == "cubic":
        vel = build_space(mesh, "G2_0")
        dg = build_space(mesh, "DG1")
        expected_rank = 3 * nt - 1
        kernel_formula = 3 * xi + ei
        # dim(B3+) + dim(DG1) - 1 == dim(G2+): (xi + 3 ei) + (3 nt - 1)
        aux_ok = (xi + 3 * ei) + (3 * nt - 1) == 2 * (nt + 2 * ei)
    elif order == "quartic":
        vel = build_space(mesh, "G3_0")
        dg = build_space(mesh, "DG2")
        expected_rank = 6 * nt - 1
        # dim(G3_0) = 6 ei + 2 nt and rank = 6 nt - 1, so the kernel is
        # 6 ei - 4 nt + 1; Euler on the square (xi - ei + nt = 1) turns this
        # into 4 xi + 2 ei - 3 (the often quoted 3 xi + 2 ei - 3 undercounts
        # by one per interior vertex)
        kernel_formula = 4 * xi + 2 * ei - 3
        # the two facts the closed form rests on: the measured velocity
        # dimension and Euler's formula
        aux_ok = vel.ndof == 6 * ei + 2 * nt and xi - ei + nt == 1
    else:
        raise ValueError("order must be 'cubic' or 'quartic'")
    B = assemble_bilinear(vel, dg, "rot_pressure")
    kernel = kernel_dimension(B, tol=1e-8)
    rank = B.shape[1] - kernel
    npres = dg.ndof - 1  # mean-zero subspace of the discontinuous space
    rep = ExactnessReport(
        order=order, n_cells=nt, n_interior_vertices=xi, n_interior_edges=ei,
        dim_velocity=vel.ndof, dim_pressure_meanzero=npres, rank=rank,
        kernel=kernel, expected_rank=expected_rank,
        kernel_dim_formula=kernel_formula,
        kernel_dim_derived=vel.ndof - expected_rank, aux_identity_ok=aux_ok)
    if order == "cubic" and with_basis:
        basis = b3_basis(mesh)
        C = basis.gradient_coeffs
        res = _colmax(B @ C) / (abs(B).max() * np.maximum(1.0, _colmax(C)))
        rep.basis_kernel_residual = float(res.max())
        rep.basis_membership_violation = b3_membership_violation(mesh,
                                                                 basis.field)
        rep.basis_count = len(basis)
    return rep
