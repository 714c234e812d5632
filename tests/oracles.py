"""Reference implementations that only the tests use.

The cell-polynomial oracle rebuilds a field cell by cell as BaryPoly
objects from a space's P, A and shape_set, and differentiates them
symbolically.  It shares no code with the library's array evaluation
(spaces.tabulate and the chain-rule contraction), so the two can check each
other.  The whole-mesh load and error norms evaluate every callback once on
all (cell, point) pairs, the reference for the library's blocked walk.
exact_det is the exact-rational determinant of the golden DOF matrices.
inverse_path_operator is the cell-to-global operator of a normal-DOF space
by the per-cell inverse of its DOF matrix, the reference for the library's
closed-form normal rows, and coo_operator builds P from the layout terms
by a COO scatter and a COO -> CSR conversion, the reference for the
library's direct CSR build.  _negative_pivots counts the negative eigenvalues
of a dense symmetric matrix by a Bunch-Kaufman factorization, the reference
for the library's sparse inertia count in kernel_dimension.
pcg_saddle_solve is a hand-written Schur-complement PCG, the reference for
saddle_solve's SciPy cg.  coo_cell_blocks finds the (row, cell) blocks of a
matrix by a COO round trip and np.unique, the reference for the BSR read of
stokes_complex._cell_blocks.  restricted_edge_average restricts a
polynomial to an edge as a 1-D polynomial, multiplies and integrates it term
by term, the reference for BaryPoly.edge_average's simplex moments.
"""

from fractions import Fraction
from math import comb

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from biharmfem import linalg
from biharmfem.elements import (REFERENCE_EXACT, DofFunctional,
                                _affine_rows, _interior_weights, dof_matrix,
                                nodal_coefficients)
from biharmfem.polynomials import EDGE_LEGENDRE, BaryPoly, poly1d_eval
from biharmfem.quadrature import edge_rule, tri_rule
from biharmfem.spaces import _derivative, reference_tables, shape_set
from biharmfem.stokes_complex import CUBIC_SHAPES, NCUBIC


def is_symmetric(A, rel: float = 1e-12) -> bool:
    """Whether max |A - A^T| <= rel * max |A|."""
    A = sp.csr_matrix(A)
    d = abs(A - A.T)
    if d.nnz == 0:
        return True
    amax = abs(A).max() if A.nnz else 0.0
    return d.max() <= rel * max(amax, 1e-300)


# -- cell polynomials ---------------------------------------------------------

def combine(weights, polys) -> BaryPoly:
    """sum_s weights[s] polys[s] with float weights; zero weights skipped."""
    out = BaryPoly()
    for w, p in zip(weights, polys):
        if w != 0.0:
            out = out + float(w) * p
    return out


def cell_poly(space, coeffs, c: int):
    """The field with global coefficients coeffs on cell c: a BaryPoly, or a
    (px, py) pair on a vector space."""
    local = space.P[c * space.nloc:(c + 1) * space.nloc] @ coeffs
    svec = local @ space.A
    polys = [combine(part, shape_set(space.shapes))
             for part in svec.reshape(2 if space.vector else 1, -1)]
    return tuple(polys) if space.vector else polys[0]


def cubic_poly(row, c: int) -> BaryPoly:
    """The cubic on cell c of one field: row holds its coefficients in
    grad_inverse's layout (cell c at columns c * 10 ... c * 10 + 9), as a
    vector or a one-row sparse matrix."""
    if sp.issparse(row):
        row = row.toarray()
    vals = np.ravel(row)[c * NCUBIC:(c + 1) * NCUBIC]
    return combine(vals, shape_set(CUBIC_SHAPES))


def poly_gradient(p: BaryPoly, grad_lambda) -> tuple[BaryPoly, BaryPoly]:
    """Cartesian gradient of p via the chain rule; grad_lambda is 3x2."""
    gx = BaryPoly()
    gy = BaryPoly()
    for i in range(3):
        d = p.dlam(i)
        if d.is_zero():
            continue
        gx = gx + d * grad_lambda[i][0]
        gy = gy + d * grad_lambda[i][1]
    return gx, gy


def poly_hessian(p: BaryPoly, grad_lambda):
    """Cartesian Hessian entries (xx, xy, yy) via the chain rule."""
    hxx = BaryPoly()
    hxy = BaryPoly()
    hyy = BaryPoly()
    for i in range(3):
        di = p.dlam(i)
        if di.is_zero():
            continue
        for j in range(3):
            dij = di.dlam(j)
            if dij.is_zero():
                continue
            gi, gj = grad_lambda[i], grad_lambda[j]
            hxx = hxx + dij * (gi[0] * gj[0])
            hxy = hxy + dij * (gi[0] * gj[1])
            hyy = hyy + dij * (gi[1] * gj[1])
    return hxx, hxy, hyy


def field_at(space, coeffs, points, order: int = 0) -> np.ndarray:
    """The derivatives of the given order of a field at points (npts, 2):
    (npts, ncomp, 2, ..., 2), one axis of length 2 per order.  A point
    belongs to the lowest-index cell where its barycentric coordinates, from
    a linear solve with the cell's vertices, are all >= -1e-12."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    mesh = space.mesh
    out = np.zeros((len(pts), 2 if space.vector else 1, *(2,) * order))
    todo = np.ones(len(pts), dtype=bool)
    for c in range(mesh.n_cells):
        geom = mesh.geometry(c)
        system = np.vstack([geom.verts.T, np.ones(3)])
        lam = np.linalg.solve(system, np.vstack([pts.T, np.ones(len(pts))])).T
        hit = todo & (lam >= -1e-12).all(axis=1)
        if not hit.any():
            continue
        todo &= ~hit
        polys = cell_poly(space, coeffs, c)
        gl = geom.grad_lambda
        for k, p in enumerate(polys if space.vector else (polys,)):
            if order == 0:
                out[hit, k] = p.eval(lam[hit])
            elif order == 1:
                out[hit, k] = np.column_stack(
                    [g.eval(lam[hit]) for g in poly_gradient(p, gl)])
            else:
                hxx, hxy, hyy = (h.eval(lam[hit])
                                 for h in poly_hessian(p, gl))
                out[hit, k] = np.stack([hxx, hxy, hxy, hyy],
                                       axis=1).reshape(-1, 2, 2)
    if todo.any():
        raise ValueError(f"point {tuple(pts[todo][0])} outside the mesh")
    return out


# -- whole-mesh quadrature ----------------------------------------------------

def quadrature_points(mesh, degree: int):
    """Every (cell, point) pair of tri_rule(degree), as flat x and y."""
    xy = tri_rule(degree).points @ mesh.geometry_arrays()[2]
    return xy[..., 0].ravel(), xy[..., 1].ravel()


def _at_points(values, x):
    return np.broadcast_to(np.asarray(values, dtype=float), x.shape)


def whole_mesh_load(space, f, quad_degree: int = 12) -> np.ndarray:
    """assemble_load with f called once on every quadrature point."""
    rule = tri_rule(quad_degree)
    val = reference_tables(space.shapes, quad_degree)[0]
    area = space.mesh.geometry_arrays()[1]
    x, y = quadrature_points(space.mesh, quad_degree)
    fv = _at_points(f(x, y), x).reshape(len(area), -1)
    shape_load = area[:, None] * ((fv * rule.weights) @ val.T)
    local = (space.A @ shape_load[:, :, None])[:, :, 0]
    return space.P.T @ local.ravel()


def whole_mesh_error_norms(field, u, grad_u=None, hess_u=None,
                           quad_degree: int = 17):
    """error_norms with each callback called once on every quadrature point."""
    space = field.space
    w = tri_rule(quad_degree).weights
    tables = reference_tables(space.shapes, quad_degree)
    gl, area, _ = space.mesh.geometry_arrays()
    x, y = quadrature_points(space.mesh, quad_degree)
    S = space.shape_coefficients(field.coeffs)

    def sq_error(dirs, exact):
        diff = _derivative(S, gl, tables[len(dirs)], dirs) \
            - _at_points(exact, x).reshape(len(S), -1)
        return float(area @ (diff**2 @ w))

    acc = np.zeros(3)
    acc[0] = sq_error((), u(x, y))
    if grad_u is not None:
        gx, gy = grad_u(x, y)
        acc[1] = sq_error((0,), gx) + sq_error((1,), gy)
    if hess_u is not None:
        hxx, hxy, hyy = hess_u(x, y)
        acc[2] = (sq_error((0, 0), hxx) + 2 * sq_error((0, 1), hxy)
                  + sq_error((1, 1), hyy))
    return tuple(np.sqrt(acc))


# -- edge traces and jumps ----------------------------------------------------

def restrict_edge(p: BaryPoly, i: int) -> list:
    """p on edge e_{i+1} (lam_{i+1} = 0) as 1-D coefficients in t in [0, 1],
    with lam_{i+2} = 1 - t and lam_{i+3} = t."""
    j, k = (i + 1) % 3, (i + 2) % 3
    out = [0] * (p.degree + 1)
    for e, c in p.coeffs.items():
        if e[i] == 0:
            for r in range(e[j] + 1):       # (1 - t)^m t^n, binomially
                out[e[k] + r] += c * comb(e[j], r) * (-1) ** r
    return out


def restricted_edge_average(p: BaryPoly, i: int, weight: BaryPoly | None):
    """The average of weight * p over edge i by 1-D restriction, product and
    term-by-term integration over [0, 1]."""
    q = restrict_edge(p, i)
    if weight is not None:
        w = restrict_edge(weight, i)
        prod = [0] * (len(w) + len(q) - 1)
        for a, x in enumerate(w):
            for b, y in enumerate(q):
                prod[a + b] += x * y
        q = prod
    return sum(c * Fraction(1, n + 1) for n, c in enumerate(q))


def edge_trace(mesh, c: int, e: int, poly: BaryPoly, tpts: np.ndarray,
               deriv: str = "value") -> np.ndarray:
    """Trace of a cell polynomial on edge e at canonical parameters tpts.

    deriv='value' evaluates the trace; 'normal' the derivative along the
    canonical edge normal (same normal for both incident cells).
    """
    geom = mesh.geometry(c)
    va, vb = int(mesh.edges[e, 0]), int(mesh.edges[e, 1])
    loc = {int(mesh.cells[c, i]): i for i in range(3)}
    la, lb = loc[va], loc[vb]
    lam = np.zeros((len(tpts), 3))
    lam[:, la] = 1.0 - tpts
    lam[:, lb] = tpts
    if deriv == "value":
        return poly.eval(lam)
    pa, pb = mesh.vertices[va], mesh.vertices[vb]
    t = (pb - pa) / np.linalg.norm(pb - pa)
    n = np.array([t[1], -t[0]])
    gx, gy = poly_gradient(poly, geom.grad_lambda)
    return gx.eval(lam) * n[0] + gy.eval(lam) * n[1]


def edge_jump_moments(mesh, cellpolys, e: int, weights_deg: int,
                      deriv: str = "value", quad_degree: int = 12) -> float:
    """Max over canonical Legendre weights (deg <= weights_deg) of the jump
    moment |fint_e w * [trace]|; boundary edges use the single trace."""
    rule = edge_rule(quad_degree)
    c0, c1 = (int(x) for x in mesh.edge_cells[e])
    tr = edge_trace(mesh, c0, e, cellpolys(c0), rule.points, deriv)
    if c1 >= 0:
        tr = tr - edge_trace(mesh, c1, e, cellpolys(c1), rule.points, deriv)
    worst = 0.0
    for m in range(weights_deg + 1):
        wv = poly1d_eval([float(x) for x in EDGE_LEGENDRE[m]], rule.points)
        worst = max(worst, abs(float(np.sum(rule.weights * wv * tr))))
    return worst


# -- cartesian <-> barycentric conversion -------------------------------------

def xy_to_bary(coeffs2d: dict, verts) -> BaryPoly:
    """Convert a polynomial in (x, y), {(i, j): c}, to a barycentric
    representative on the triangle verts."""
    X = BaryPoly({(1, 0, 0): float(verts[0][0]), (0, 1, 0): float(verts[1][0]),
                  (0, 0, 1): float(verts[2][0])})
    Y = BaryPoly({(1, 0, 0): float(verts[0][1]), (0, 1, 0): float(verts[1][1]),
                  (0, 0, 1): float(verts[2][1])})
    one = BaryPoly({(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0})
    out = BaryPoly()
    xpow: dict[int, BaryPoly] = {}
    ypow: dict[int, BaryPoly] = {}
    for (i, j), c in coeffs2d.items():
        if c == 0:
            continue
        if i not in xpow:
            xpow[i] = _power(X, i, one)
        if j not in ypow:
            ypow[j] = _power(Y, j, one)
        out = out + (xpow[i] * ypow[j]) * c
    return out


def _power(p: BaryPoly, n: int, one: BaryPoly) -> BaryPoly:
    out = one
    for _ in range(n):
        out = out * p
    return out


def bary_to_xy(p: BaryPoly, verts) -> dict:
    """Convert a BaryPoly to cartesian coefficients {(i, j): c}."""
    v = np.asarray(verts, dtype=float)
    e1 = v[1] - v[0]
    e2 = v[2] - v[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    # lam affine forms: lam_i = a_i + b_i x + c_i y
    gl = np.array([
        [-(e2[1] - e1[1]) / det, (e2[0] - e1[0]) / det],
        [e2[1] / det, -e2[0] / det],
        [-e1[1] / det, e1[0] / det],
    ])
    lam2d = []
    for i in range(3):
        # constant term from lam_i(v_i) = 1
        const = 1.0 - (gl[i, 0] * v[i, 0] + gl[i, 1] * v[i, 1])
        lam2d.append({(0, 0): const, (1, 0): gl[i, 0], (0, 1): gl[i, 1]})
    out: dict = {}
    for (a, b, c), coef in p.coeffs.items():
        term = {(0, 0): float(coef)}
        for i, n in enumerate((a, b, c)):
            for _ in range(n):
                term = poly2d_mul(term, lam2d[i])
        for k, cv in term.items():
            out[k] = out.get(k, 0.0) + cv
    return {k: cv for k, cv in out.items() if cv != 0.0}


def poly2d_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


# -- dense inertia ------------------------------------------------------------

def _negative_pivots(H: np.ndarray) -> int:
    """The number of negative eigenvalues of the symmetric matrix H, by
    Sylvester's law of inertia: those of the block diagonal D of its
    Bunch-Kaufman factorization P U D U^T P^T (LAPACK dsytrf, upper storage,
    default workspace: on rot's Grams the unblocked code was about twice as
    fast as the blocked one).  A 1x1 pivot counts when negative.  A 2x2
    block [[a, b], [b, c]] (ipiv < 0 on both of its rows; its rows pair up
    in order) has a negative eigenvalue when its determinant or its trace
    is negative, and a second one when its determinant is positive and its
    trace negative.  H is overwritten."""
    ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(H.T, overwrite_a=True)
    diag = np.diagonal(ldu)
    i = np.flatnonzero(ipiv < 0)[::2]
    a, b, c = diag[i], ldu[i, i + 1], diag[i + 1]
    det, trace = a * c - b * b, a + c
    return int(np.count_nonzero(diag[ipiv > 0] < 0.0)
               + np.count_nonzero((det < 0.0) | (trace < 0.0))
               + np.count_nonzero((det > 0.0) & (trace < 0.0)))


# -- Schur-complement PCG -----------------------------------------------------

def pcg_saddle_solve(A, B, f, M, mean=None, tol: float = 1e-10):
    """(u, p, iterations) of saddle_solve by preconditioned CG on the
    pressure Schur complement from p = 0, stopping once the recurrence
    residual is at most SCHUR_MARGIN * tol * max(1, |f|) or p^T S p <= 0,
    with the factor and the solves of linalg._schur and no residual checks."""
    solve_a, solve_m, BT, s_mv = linalg._schur(A, B, M, tol)
    scale = max(1.0, np.linalg.norm(f))
    p = np.zeros(B.shape[0])
    r = B @ solve_a(f)
    z = solve_m(r)
    d = z.copy()
    rz = float(r @ z)
    iterations = 0
    for _ in range(linalg.SCHUR_MAXIT):
        if np.linalg.norm(r) <= linalg.SCHUR_MARGIN * tol * scale:
            break
        Sd = s_mv(d)
        dSd = float(d @ Sd)
        if dSd <= 0.0:
            break
        iterations += 1
        alpha = rz / dSd
        p += alpha * d
        r -= alpha * Sd
        z = solve_m(r)
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    u = solve_a(f - BT @ p)
    if mean is not None:
        z = solve_m(mean)
        p -= (mean @ p) / (mean @ z) * z
    return u, p, iterations


# -- cell blocks --------------------------------------------------------------

def coo_cell_blocks(M, width: int):
    """(rows, cells, values) of the nonzero (1, width) blocks of M, in
    (row, cell) order, by (row, cell) keys of the COO entries."""
    M = sp.coo_matrix(M)
    M.sum_duplicates()
    ncells = M.shape[1] // width
    key = M.row.astype(np.int64) * ncells + M.col // width
    keys, inv = np.unique(key, return_inverse=True)
    vals = np.zeros((keys.size, width))
    vals[inv, M.col % width] = M.data
    return keys // ncells, keys % ncells, vals


# -- exact determinants -------------------------------------------------------

def exact_det(M) -> Fraction:
    """Determinant of a small matrix of Fractions by exact elimination."""
    A = [list(row) for row in M]
    n = len(A)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if A[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        inv = Fraction(1) / A[k][k]
        for r in range(k + 1, n):
            if A[r][k] == 0:
                continue
            f = A[r][k] * inv
            for c in range(k, n):
                A[r][c] -= f * A[k][c]
    return det


# -- element nodal bases ------------------------------------------------------

def combination(elem, coefs, geom):
    """sum_s coefs[s] shape_s: a BaryPoly, or a (px, py) pair if vector."""
    comps = [BaryPoly() for _ in range(2 if elem.vector else 1)]
    for c, s in zip(coefs, elem.shapes):
        if c != 0.0:
            comps = [q + float(c) * s.component(k, geom)
                     for k, q in enumerate(comps)]
    return tuple(comps) if elem.vector else comps[0]


def resolved_dofs(elem, geom) -> list[DofFunctional]:
    """The element's DOFs on a cell, FE_vec's interior weights resolved to
    explicit cell_vec functionals."""
    out = [d for d in elem.dofs if d.kind != "cell_vec"]
    if not elem.needs_interior_construction:
        return out
    gl = np.asarray([geom.grad_lambda], dtype=float)
    K = _interior_weights(elem, gl, _affine_rows(elem, gl))[0][0]
    return out + [DofFunctional(kind="cell_vec",
                                vec_weight=combination(elem, k, geom))
                  for k in K]


def nodal_basis(elem, geom):
    """Nodal basis polynomials (scalar: BaryPoly, vector: (px, py))."""
    Minv = nodal_coefficients(elem, [geom.grad_lambda])[0]
    return [combination(elem, Minv[:, j], geom) for j in range(elem.dim)]


# -- cell-to-global operators -------------------------------------------------

def coo_operator(mesh, nloc: int, ndof: int, terms) -> sp.csr_matrix:
    """P from (local DOF, global DOF per cell, weight per cell) terms by a
    COO scatter: terms on global index -1 are left out, terms on the same
    entry add up."""
    nc = mesh.n_cells
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], \
        [np.zeros(0)]
    for l, g, w in terms:
        g = np.broadcast_to(g, (nc,))
        w = np.broadcast_to(np.asarray(w, dtype=float), (nc,))
        keep = g >= 0
        rows.append(np.flatnonzero(keep) * nloc + l)
        cols.append(g[keep])
        vals.append(w[keep])
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(nc * nloc, ndof))


def entity_operator(space, c: int) -> np.ndarray:
    """The geometry-free rows of cell c: each element DOF as its layout
    weights on the global slots of its entity, under the cell's edge
    orientation (eliminated slots left out)."""
    mesh = space.mesh
    incident = {"vertex": mesh.cells[c], "edge": mesh.cell_edges[c],
                "cell": [c]}
    Q = np.zeros((space.nloc, space.ndof))
    for l, (etype, i, fwd, rev) in enumerate(space.meta["layout"].local):
        reverse = etype == "edge" and mesh.cell_edge_signs[c, i] == -1
        for slot, w in rev if reverse else fwd:
            g = space.meta[f"{etype}_dofs"][incident[etype][i], slot]
            if g >= 0:
                Q[l, g] += w
    return Q


def inverse_path_operator(space, elem) -> np.ndarray:
    """Dense P of a space on an element with edge-normal DOFs, by inverting
    every cell's DOF matrix.  V_c = M_ref M_c^-1 (the reference DOF matrix
    times nodal_coefficients on the cell) is I but in the normal rows, where
    the entries on the row's own DOF and on its edge's two vertex values
    replace the cell's geometry-free row by their combination; the other
    entries of V_c are round-off and are left out."""
    gl = space.mesh.geometry_arrays()[0]
    V = dof_matrix(elem, REFERENCE_EXACT) @ nodal_coefficients(elem, gl)
    dofs = elem.dofs
    blocks = []
    for c in range(space.mesh.n_cells):
        Q = entity_operator(space, c)
        for l, d in enumerate(dofs):
            if d.kind == "edge_normal":
                ks = [k for k, v in enumerate(dofs) if k == l or v.kind
                      == "vertex" and v.entity != d.entity]
                Q[l] = V[c, l, ks] @ Q[ks]
        blocks.append(Q)
    return np.vstack(blocks)
