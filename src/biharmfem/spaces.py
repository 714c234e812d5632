"""Global finite element spaces: DOF maps, assembly, and field evaluation.

A Space is a shape set, tabulated once on the reference cell, plus two
arrays built once per mesh:

  A  the reference nodal basis in the shape basis, local_l = sum_s A[l, s]
     shape_s: one (nloc, nshape) matrix shared by every cell;
  P  the sparse cell-to-global operator of shape (ncells * nloc, ndof),
     built directly in CSR: row c * nloc + l expresses DOF l of cell c in
     the global DOFs, with all of its cell geometry: a normal DOF also reads
     its edge's vertex values, by closed-form weights (_normal_rows).

A vector space is its one-component space (Space.component) twice, numbered
component-major, so its Gram is blockdiag(K, K) for the component Gram K.
Shape polynomials are evaluated at float points in one place, tabulate(),
which gives values and lambda-derivatives up to order 2 at any barycentric
points.  The reference tables are tabulate at the tri_rule points, cached
process-wide; field evaluation (eval_field, sample_field_csv) tabulates at
the points as located by locate_cells, in chunks in the caller's order.
Physical derivatives follow by one chain rule through grad_lambda, shared
by evaluation, error norms and the Galerkin residual.
Loads and error norms walk the points in heap-sized blocks (_point_blocks).
Assembly folds A into geometry-free tensors R_k, computed once per process,
M_c = sum_k G[c, k] R_k with per-cell grad_lambda/Gram factors G, and forms
P_test^T blockdiag(M_c) P_trial (a broken space's identity P left out) or
applies it from R and G with no per-cell stack (_form_operator).
Inter-cell identification of edge moments goes through canonical-edge
Legendre moments; orientation flips, normal signs and scales live in P.

Global DOF layouts (deterministic): every space but the pressure spaces is a
row of LAYOUT_KINDS, a catalog element with its component count, G2 bubble
and boundary elimination.  Its layout (see layout()) is read from the
element's DOF functionals, and DOFs are numbered vertex | edge | cell, each
entity's slots together, all of component 0 before component 1.
The pressure spaces DG* are discontinuous, numbered cell by cell: the cell
constant, then the cell's mean-zero modes, L2-orthogonal to each other and
to the constant on every affine cell, so the DG mass matrix is diagonal.
The schemes' mean-zero pressure spaces are DG1/DG2 with the constant
projected out by the solver, so no DOF is pinned and no basis spans the
mean-zero subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elements import (NODAL_SIGMA_TOL, REFERENCE_EXACT, element_catalog,
                       nodal_coefficients)
from .mesh import Mesh
from .polynomials import EDGE_LEGENDRE, BaryPoly, poly1d_eval
from .quadrature import edge_rule, tri_rule

L0 = BaryPoly.lam(0)
L1 = BaryPoly.lam(1)
L2 = BaryPoly.lam(2)
_BUBBLE = (L0 * L0 + L1 * L1 + L2 * L2) - Fraction(2, 3)


@lru_cache(maxsize=None)
def _pressure_modes(k: int) -> tuple[BaryPoly, ...]:
    """The mean-zero cell modes of DG<k>: lam_1, lam_2 and, for k = 2,
    lam_1^2, lam_2^2, lam_1 lam_2, each made L2-orthogonal to the constant
    and to the modes before it by exact Gram-Schmidt on the reference cell.
    Cell averages of products do not depend on the triangle, so the DG
    mass matrix is diagonal on every mesh of affine cells."""
    raw = [L0, L1, L0 * L0, L1 * L1, L0 * L1][:k * (k + 3) // 2]
    basis = [BaryPoly.const(Fraction(1))]
    for p in raw:
        for q in basis:
            p = p - q * ((p * q).cell_average() / (q * q).cell_average())
        basis.append(p)
    return tuple(basis[1:])


@lru_cache(maxsize=None)
def shape_set(name: str) -> tuple[BaryPoly, ...]:
    """Scalar shape polynomials (float coefficients): a catalog element,
    'g2' (fs + bubble), 'pres<k>' (the constant and the mean-zero modes) or
    'ref<k>' (the monomials lam_1^a lam_2^b with a + b <= k, by degree)."""
    if name == "g2":
        return shape_set("fs") + (_BUBBLE.as_float(),)
    if name.startswith("ref"):
        return tuple(BaryPoly.monomial(0, a, d - a, 1.0)
                     for d in range(int(name[3:]) + 1)
                     for a in range(d, -1, -1))
    if name.startswith("pres"):
        polys = [BaryPoly.const(1.0), *_pressure_modes(int(name[4:]))]
    else:
        polys = [s.p for s in element_catalog(name).shapes]
    return tuple(p.as_float() for p in polys)


@lru_cache(maxsize=None)
def _shape_derivatives(shapes: str):
    """A shape set's lambda-derivative polynomials, (nsh, 3) and (nsh, 3, 3)."""
    d1 = tuple(tuple(p.dlam(i) for i in range(3)) for p in shape_set(shapes))
    return d1, tuple(tuple(tuple(q.dlam(j) for j in range(3)) for q in row)
                     for row in d1)


def tabulate(shapes: str, lam):
    """A shape set at barycentric points lam (..., 3): values (nsh, ...) and
    first (nsh, 3, ...) and second (nsh, 3, 3, ...) lambda-derivatives.
    The one place where shape polynomials are evaluated at float points."""
    d1, d2 = _shape_derivatives(shapes)
    val = np.array([p.eval(lam) for p in shape_set(shapes)])
    d1 = np.array([[q.eval(lam) for q in row] for row in d1])
    d2 = np.array([[[q.eval(lam) for q in r] for r in rows] for rows in d2])
    return val, d1, d2


@lru_cache(maxsize=None)
def reference_tables(shapes: str, degree: int):
    """tabulate at the points of tri_rule(degree), cached process-wide and
    read-only: values (nsh, nq), (nsh, 3, nq) and (nsh, 3, 3, nq)."""
    tables = tabulate(shapes, tri_rule(degree).points)
    for arr in tables:
        arr.setflags(write=False)
    return tables


class Space:
    def __init__(self, mesh: Mesh, kind: str, vector: bool, ndof: int,
                 shapes: str, A: np.ndarray, P: sp.csr_matrix,
                 poly_degree: int, meta: dict):
        self.mesh = mesh
        self.kind = kind
        self.vector = vector
        self.ndof = ndof
        self.shapes = shapes
        self.A = A
        self.P = P
        self.poly_degree = poly_degree
        self.meta = meta
        self.component = None  # see _two_components

    def __repr__(self):
        return f"Space({self.kind}, ndof={self.ndof})"

    @property
    def nloc(self) -> int:
        return self.A.shape[0]

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """P @ x, with a broken space's identity P left out."""
        return x if self.meta.get("broken") else self.P @ x

    def gather(self, y: np.ndarray) -> np.ndarray:
        """P^T @ y, with a broken space's identity P left out."""
        return y if self.meta.get("broken") else self.P.T @ y

    def shape_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        """(ncells, nshape) shape-basis coefficients of a global vector."""
        return self.scatter(coeffs).reshape(-1, self.nloc) @ self.A


@dataclass
class FieldFunction:
    space: Space
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof,):
            raise ValueError("coefficient vector length != space dimension")

    def eval(self, x, y, order: int = 0):
        return eval_field(self, (x, y), order)


# ---------------------------------------------------------------------------
# DOF numbering and the cell-to-global operator
# ---------------------------------------------------------------------------

def _numbering(free: np.ndarray, start: int, per: int = 1):
    """`per` consecutive DOF numbers on each free entity, in index order,
    from `start`; -1 on the others.  Returns (table (n, per), next start)."""
    table = np.full((free.size, per), -1, dtype=np.int64)
    k = np.flatnonzero(free)
    table[k] = start + per * np.arange(k.size)[:, None] + np.arange(per)
    return table, start + per * k.size


def _operator(mesh: Mesh, nloc: int, ndof: int, terms) -> sp.csr_matrix:
    """P straight into CSR from (local DOF l, global DOF per cell, weight per
    cell) terms: row c * nloc + l takes cell c's terms of l, on distinct
    DOFs, by increasing DOF (sorted, duplicate-free rows).  Terms on global
    index -1 (eliminated boundary DOFs) are left out."""
    nc, local = mesh.n_cells, [t[0] for t in terms]
    g, w = (np.array([t[j] for t in terms]) for j in (1, 2))  # (nterms, nc)
    k = [local[:i].count(l) for i, l in enumerate(local)]  # slot within l
    cols = np.full((nc, nloc, max(k) + 1), ndof)     # ndof: no term here
    vals = np.zeros(cols.shape)
    cols[:, local, k], vals[:, local, k] = np.where(g < 0, ndof, g).T, w.T
    by_col = np.argsort(cols, axis=2)
    cols, vals = (np.take_along_axis(a, by_col, 2) for a in (cols, vals))
    keep = cols < ndof
    return sp.csr_matrix((vals[keep], cols[keep], np.concatenate(
        [[0], np.cumsum(keep.sum(2))])), shape=(nc * nloc, ndof))


# ---------------------------------------------------------------------------
# DOF layouts: one table, one builder
# ---------------------------------------------------------------------------

#: The spaces built from a catalog element: (kind, element, components,
#: G2 bubble per component, boundary vertex and edge DOFs eliminated).
LAYOUT_KINDS = (
    ("A3_0", "nsc", 1, False, True),
    ("A4_0", "nsq", 1, False, True),
    ("Morley_0", "morley", 1, False, True),
    ("Lagrange1_0", "p1", 1, False, True),
    ("Lagrange2_0", "p2", 1, False, True),
    ("Lagrange3_0", "p3", 1, False, True),
    ("Lagrange4_0", "p4", 1, False, True),
    ("S2_0", "fs", 2, False, True),
    ("G2_0", "fs", 2, True, True),
    ("G2", "fs", 2, True, False),
    ("G3_0", "cf", 2, False, True),
    ("G3", "cf", 2, False, False),
)

ENTITIES = ("vertex", "edge", "cell")

#: fint lam_{i+1}^p v on edge i as a combination of the canonical Legendre
#: moments (G0, G1, G2): lam_{i+1} = 1/2 - (t - 1/2) along the canonical
#: parameter t when the local edge direction is the canonical one; on a
#: reversed edge the odd moments change sign.
_LEGENDRE_ROWS = ((1.0,), (0.5, -1.0), (1.0 / 3.0, -1.0, 1.0))


@dataclass(frozen=True)
class Layout:
    """Where the local DOFs of an element sit on the mesh entities.

    slots[etype] lists the functionals one entity of that type carries, in
    the canonical edge orientation: ("value",) at a vertex; ("legendre", m),
    ("normal",) or ("point", t) on an edge; the element's cell DofFunctional,
    or None for the G2 bubble, on a cell.  local[l] = (etype, local entity,
    forward, reversed) gives local DOF l as (slot, weight) terms of its
    entity, on an edge whose local direction is the canonical one or not.
    """

    slots: dict
    local: tuple


def _edge_power(dof) -> int:
    """p of an edge moment weighted by lam_{i+1}^p (weight None: p = 0)."""
    if dof.weight is None:
        return 0
    (exps,) = dof.weight.coeffs
    return exps[(dof.entity + 1) % 3]


@lru_cache(maxsize=None)
def layout(element: str, bubble: bool = False) -> Layout:
    """The layout of a catalog element, read from its DOF functionals.

    Edge slots are the canonical Legendre moments up to the highest weight
    power, then the normal mean, then the lattice points by canonical
    parameter; cell slots follow the element's cell DOFs, then the bubble.
    """
    dofs = element_catalog(element).dofs

    def on_edge(d):
        return d.kind == "point" and 0 in d.point

    cell = [d for d in dofs if d.kind == "cell"
            or (d.kind == "point" and not on_edge(d))]
    nleg = max((_edge_power(d) + 1 for d in dofs if d.kind == "edge"),
               default=0)
    normal = any(d.kind == "edge_normal" for d in dofs)
    ts = sorted({d.point[(d.point.index(0) + 2) % 3] for d in dofs
                 if on_edge(d)})
    slots = {"vertex": [("value",)] * any(d.kind == "vertex" for d in dofs),
             "edge": [("legendre", m) for m in range(nleg)]
             + [("normal",)] * normal + [("point", t) for t in ts],
             "cell": cell + [None] * bubble}
    local, ncell = [], 0
    for d in dofs:
        if d.kind == "vertex":
            local.append(("vertex", d.entity, [(0, 1.0)], [(0, 1.0)]))
        elif d.kind == "edge":
            row = _LEGENDRE_ROWS[_edge_power(d)]
            local.append(("edge", d.entity, list(enumerate(row)),
                          [(m, w * (-1) ** m) for m, w in enumerate(row)]))
        elif d.kind == "edge_normal":
            local.append(("edge", d.entity, [(nleg, 1.0)], [(nleg, -1.0)]))
        elif on_edge(d):
            i = d.point.index(0)
            t = d.point[(i + 2) % 3]
            first = nleg + normal
            local.append(("edge", i, [(first + ts.index(t), 1.0)],
                          [(first + ts.index(1 - t), 1.0)]))
        else:
            local.append(("cell", 0, [(ncell, 1.0)], [(ncell, 1.0)]))
            ncell += 1
    if bubble:
        local.append(("cell", 0, [(ncell, 1.0)], [(ncell, 1.0)]))
    return Layout(slots, tuple(local))


def build_space(mesh: Mesh, kind: str) -> Space:
    key = kind.lower()
    if key in _LAYOUT_BY_KEY:
        return _build_layout(mesh, *_LAYOUT_BY_KEY[key])
    if key in _DG_KINDS:
        k = _DG_KINDS[key]
        return _broken_space(mesh, f"DG{k}", f"pres{k}", k)
    known = sorted([*_LAYOUT_BY_KEY, *_DG_KINDS])
    raise KeyError(f"unknown space kind '{kind}'; known: {known}")


@lru_cache(maxsize=None)
def _shared_transform(name: str):
    """An element's nodal transform A on the reference cell, shared by every
    cell (normal-DOF geometry is folded into P), and its condition number,
    that of the reference DOF matrix; both computed once."""
    A = nodal_coefficients(element_catalog(name),
                           [REFERENCE_EXACT.grad_lambda])[0].T
    A.setflags(write=False)
    return A, np.linalg.cond(A)


def _normal_rows(elem, gl: np.ndarray, cond_ref: float) -> dict:
    """{normal DOF l: {local DOF k: weight per cell}}: the normal rows of
    W_c^-1 for M_c = W_c M_ref on a grad_lambda stack (Kirby 2018).  As the
    grad lam_j sum to 0, the normal mean on edge e is alpha (the reference
    one + b (value at vertex e+2 - value at e+1)), alpha^2 = g_ee / gref_ee.
    kappa(M_c) <= |W_c|_F |W_c^-1|_F kappa(M_ref): only cells where that
    bound reaches 1 / NODAL_SIGMA_TOL take nodal_coefficients' SVD test."""
    g = np.einsum("cid,cjd->cij", gl, gl)
    gr = np.asarray(REFERENCE_EXACT.gram, dtype=float)
    e, nxt = np.arange(3), (np.arange(3) + 2) % 3
    a2 = g[:, e, e] / gr[e, e]
    b = (gr[nxt, e] - g[:, nxt, e] / a2) / np.sqrt(gr[e, e])
    b2, n = 2 * b ** 2, len(elem.dofs) - 3
    bound = cond_ref * np.sqrt((n + (a2 * (1 + b2)).sum(1))
                               * (n + (1 / a2 + b2).sum(1)))
    flagged = ~(bound < 1 / NODAL_SIGMA_TOL)
    if flagged.any():
        nodal_coefficients(elem, gl[flagged])
    vert = {d.entity: k for k, d in enumerate(elem.dofs) if d.kind == "vertex"}
    return {l: {l: 1 / np.sqrt(a2[:, i]), vert[(i + 2) % 3]: -b[:, i],
                vert[(i + 1) % 3]: b[:, i]}
            for l, d in enumerate(elem.dofs) if d.kind == "edge_normal"
            for i in [d.entity]}


def _build_layout(mesh: Mesh, kind: str, element: str, ncomp: int,
                  bubble: bool, bc: bool) -> Space:
    """A space from its row of LAYOUT_KINDS: DOFs numbered vertex | edge |
    cell, entity by entity.  A two-component row is its one-component space
    twice (_two_components)."""
    elem = element_catalog(element)
    lay = layout(element, bubble)
    free = {"vertex": ~mesh.vertex_is_boundary if bc
            else np.ones(mesh.n_vertices, bool),
            "edge": ~mesh.edge_is_boundary if bc
            else np.ones(mesh.n_edges, bool),
            "cell": np.ones(mesh.n_cells, bool)}
    tables, n = {}, 0
    for etype in ENTITIES:
        tables[etype], n = _numbering(free[etype], n, len(lay.slots[etype]))
    incident = {"vertex": mesh.cells, "edge": mesh.cell_edges,
                "cell": np.arange(mesh.n_cells)[:, None]}
    forward = mesh.cell_edge_signs == 1
    terms = []
    for l, (etype, i, fwd, rev) in enumerate(lay.local):
        ent = incident[etype][:, i]
        orient = forward[:, i] if etype == "edge" else np.ones(len(ent), bool)
        for (fs, fw), (rs, rw) in zip(fwd, rev):
            terms.append((l, tables[etype][ent, np.where(orient, fs, rs)],
                          np.where(orient, fw, rw)))
    A, cond_ref = _shared_transform(element)
    if ("normal",) in lay.slots["edge"]:
        # P <- blockdiag(W_c^-1) P: normal rows also read two vertex values
        rows = _normal_rows(elem, mesh.geometry_arrays()[0], cond_ref)
        terms = [t for t in terms if t[0] not in rows] + [
            (l, g, w * row[k]) for l, row in rows.items()
            for k, g, w in terms if k in row]
    if bubble:
        A = np.block([[A, np.zeros((len(A), 1))], [np.zeros((1, len(A))), 1.0]])
    meta = {f"{etype}_dofs": tables[etype] for etype in ENTITIES}
    meta["layout"] = lay
    space = Space(mesh, kind, False, n, "g2" if bubble else element, A,
                  _operator(mesh, len(lay.local), n, terms), elem.degree, meta)
    return _two_components(space) if ncomp == 2 else space


def _two_components(comp: Space) -> Space:
    """comp twice, component-major: component c of comp's DOF d is DOF
    c n + d (n = comp.ndof), in column c * nslot + s of an entity table.  A
    cell's local DOFs are its component-0 ones, then its component-1 ones,
    so the component-c local rows of P are comp's P, columns shifted by c n."""
    meta = dict(comp.meta)
    for etype in ENTITIES:
        S = comp.meta[f"{etype}_dofs"]
        meta[f"{etype}_dofs"] = np.hstack([S, np.where(S >= 0, S + comp.ndof,
                                                       -1)])
    # each cell's CSR entries of comp twice, the second time shifted by n
    Pc, n = comp.P, comp.ndof
    cell = np.repeat(np.arange(comp.mesh.n_cells),
                     np.diff(Pc.indptr[::comp.nloc]))
    at = np.argsort(np.concatenate([2 * cell, 2 * cell + 1]), kind="stable")
    rows = np.tile(np.diff(Pc.indptr).reshape(-1, comp.nloc), 2)
    P = sp.csr_matrix((np.tile(Pc.data, 2)[at],
                       np.concatenate([Pc.indices, Pc.indices + n])[at],
                       np.concatenate([[0], np.cumsum(rows)])),
                      shape=(2 * Pc.shape[0], 2 * n))
    space = Space(comp.mesh, comp.kind, True, 2 * comp.ndof, comp.shapes,
                  np.kron(np.eye(2), comp.A), P, comp.poly_degree, meta)
    space.component = comp
    return space


_LAYOUT_BY_KEY = {row[0].lower(): row for row in LAYOUT_KINDS}


def _broken_space(mesh: Mesh, kind: str, shapes: str, degree: int) -> Space:
    """A discontinuous space whose DoFs are each cell's coefficients in a
    shape set, numbered cell by cell (A = I, P = I: meta "broken")."""
    nloc = len(shape_set(shapes))
    ndof = mesh.n_cells * nloc
    return Space(mesh, kind, False, ndof, shapes, np.eye(nloc),
                 sp.identity(ndof, format="csr"), degree, {"broken": True})


_DG_KINDS = {f"dg{k}": k for k in range(3)}


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

FORMS = ("mass", "grad_grad", "hess_hess", "rot_pressure", "vecfield_grad")

#: Assembled entries with |a| <= ROUNDOFF_RTOL * max|a| are dropped.
#: Edge-moment and mean-zero-mode cancellation leaves entries of at most about
#: 1e-14 of the largest, and genuine entries are at least about 1e-8 of it on
#: criss, jittered, relabeled and refined meshes; stored, the round-off
#: entries fill the rows of the assembled matrices and their LU factors.  The
#: off-diagonal entries of a DG mass matrix are such round-off (at most about
#: 1e-16 of the largest), so the pressure Gram comes out exactly diagonal.
ROUNDOFF_RTOL = 1e-12


#: The read-only reference tensors of _form_tensor, computed once per process
_REFERENCE_TENSORS: dict = {}


def _form_reference(trial: Space, test: Space, form: str, degree: int):
    """The geometry-free tensor R (k, test nloc, trial nloc) of a form, with
    both nodal transforms A folded in, read-only."""
    w = tri_rule(degree).weights
    vt, d1t, d2t = reference_tables(test.shapes, degree)
    vr, d1r, d2r = reference_tables(trial.shapes, degree)
    na, nb = len(vt), len(vr)
    if form in ("rot_pressure", "vecfield_grad"):
        if not trial.vector or test.vector:
            raise ValueError(f"{form} needs vector trial, scalar test")
        # channel (j, d): area * d(lam_j)/dx_d; trial shapes per component
        R = np.zeros((na, 2, nb, 3, 2))
        if form == "rot_pressure":
            # (q, rot v) with rot v = d(v2)/dx - d(v1)/dy
            R1 = np.einsum("aq,q,bjq->abj", vt, w, d1r)
            R[:, 1, :, :, 0] = R1
            R[:, 0, :, :, 1] = -R1
        else:
            # (v, grad w): trial vector v, test scalar w
            R1 = np.einsum("ajq,q,bq->abj", d1t, w, vr)
            R[:, 0, :, :, 0] = R1
            R[:, 1, :, :, 1] = R1
        R = R.reshape(na, 2 * nb, 6)
    elif trial.vector != test.vector:
        raise ValueError(f"{form} needs trial and test of the same kind")
    elif form == "mass":
        R = np.einsum("aq,q,bq->ab", vt, w, vr)[..., None]
    elif form == "grad_grad":
        R = np.einsum("aiq,q,bjq->abij", d1t, w, d1r).reshape(na, nb, 9)
    elif form == "hess_hess":
        # H(u):H(v) = sum gram[i, k] gram[j, l] u_ij v_kl, u_ij = d2u/dlam_i dlam_j
        R = np.einsum("aijq,q,bklq->abikjl", d2t, w, d2r).reshape(na, nb, 81)
    else:
        raise ValueError(f"unknown form '{form}'")
    if test.vector:
        R = np.einsum("xy,abk->xaybk", np.eye(2), R).reshape(2 * na, 2 * nb, -1)
    R = test.A @ np.moveaxis(R, 2, 0) @ trial.A.T
    R.setflags(write=False)
    return R


def _form_tensor(trial: Space, test: Space, form: str, degree=None):
    """(R, G) of a form: cell c's matrix in the nodal bases is sum_k G[c, k]
    R[k], R cached on what _form_reference computes it from (a space's kind
    fixes its A) and G (ncells, k) the per-cell area-weighted factors."""
    if trial.mesh is not test.mesh:
        raise ValueError("trial and test spaces live on different meshes")
    if degree is None:
        degree = max(trial.poly_degree + test.poly_degree, 2)
    key = (trial.kind, trial.shapes, trial.vector, test.kind, test.shapes,
           test.vector, form, degree)
    if key not in _REFERENCE_TENSORS:
        _REFERENCE_TENSORS[key] = _form_reference(trial, test, form, degree)
    gl, area, _ = trial.mesh.geometry_arrays()
    if form in ("rot_pressure", "vecfield_grad"):
        G = gl
    elif form == "mass":
        G = np.ones(len(area))
    else:
        G = np.einsum("cid,cjd->cij", gl, gl)
        if form == "hess_hess":
            G = np.einsum("cik,cjl->cikjl", G, G)
    return _REFERENCE_TENSORS[key], area[:, None] * G.reshape(len(area), -1)


def block_diagonal(blocks: np.ndarray) -> sp.csr_matrix:
    """The block-diagonal CSR matrix of an (n, r, k) stack of blocks."""
    n, r, k = blocks.shape
    cols = np.arange(n * k).reshape(n, 1, k).repeat(r, axis=1)
    return sp.csr_matrix((blocks.ravel(), cols.ravel(),
                          np.arange(n * r + 1) * k), shape=(n * r, n * k))


def _cell_matrices(trial: Space, test: Space, form: str) -> np.ndarray:
    """The (ncells, test nloc, trial nloc) stack of a form's cell matrices."""
    R, G = _form_tensor(trial, test, form)
    return (G @ R.reshape(len(R), -1)).reshape(len(G), *R.shape[1:])


def assemble_bilinear(trial: Space, test: Space, form: str) -> sp.csr_matrix:
    # no product with the identity P of a _broken_space
    out = block_diagonal(_cell_matrices(trial, test, form))
    out = out if trial.meta.get("broken") else out @ trial.P
    out = out if test.meta.get("broken") else test.P.T.tocsr() @ out
    mag = np.abs(out.data)
    if mag.size:
        out.data[mag <= ROUNDOFF_RTOL * mag.max()] = 0.0
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _form_operator(trial: Space, test: Space, form: str):
    """P_test^T blockdiag(M_c) P_trial as an operator, never assembled: the
    M_c are applied from (R, G), one matmul per block of cells (at most
    BLOCK_POINTS floats) and a G-weighted sum, never stacked."""
    R, G = _form_tensor(trial, test, form)

    def apply(R, x):  # M_c x_c for the rows x_c of x, by channels R_k x_c
        k, nout, nin = R.shape
        R = R.transpose(2, 0, 1).reshape(nin, k * nout)
        x, out = x.reshape(len(G), nin), np.empty((len(G), nout))
        step = max(1, BLOCK_POINTS // (k * nout))
        for start in range(0, len(G), step):
            blk = slice(start, start + step)
            out[blk] = np.einsum("ck,cka->ca", G[blk],
                                 (x[blk] @ R).reshape(-1, k, nout))
        return out.ravel()

    return spla.LinearOperator(
        (test.ndof, trial.ndof), dtype=float,
        matvec=lambda u: test.gather(apply(R, trial.scatter(u))),
        rmatvec=lambda v: trial.gather(apply(R.transpose(0, 2, 1),
                                             test.scatter(v))))


def _at(values, x: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(values, dtype=float), x.shape)


#: Points per block of _point_blocks and floats per block of _form_operator:
#: 64 kB per array, below glibc's 128 kB trim (linalg._pin_mmap_threshold).
BLOCK_POINTS = 8192


def _point_blocks(mesh: Mesh, degree: int):
    """Blocks of whole cells, at most BLOCK_POINTS points of tri_rule(degree)
    (at least one cell): (cell slice, flat x, flat y), cell-major."""
    rule = tri_rule(degree)
    verts = mesh.geometry_arrays()[2]
    step = max(1, BLOCK_POINTS // len(rule.weights))
    for start in range(0, mesh.n_cells, step):
        blk = slice(start, start + step)
        xy = rule.points @ verts[blk]
        yield blk, xy[..., 0].ravel(), xy[..., 1].ravel()


def assemble_load(space: Space, f, quad_degree: int = 12) -> np.ndarray:
    if space.vector:
        raise ValueError("loads are assembled against scalar spaces only")
    w = tri_rule(quad_degree).weights
    val = reference_tables(space.shapes, quad_degree)[0]
    area = space.mesh.geometry_arrays()[1]
    shape_load = np.empty((len(area), len(val)))
    for blk, x, y in _point_blocks(space.mesh, quad_degree):
        fv = _at(f(x, y), x).reshape(-1, len(w))
        shape_load[blk] = area[blk, None] * ((fv * w) @ val.T)
    return space.gather((shape_load @ space.A.T).ravel())


# ---------------------------------------------------------------------------
# field evaluation / error norms
# ---------------------------------------------------------------------------

def locate_cells(mesh: Mesh, points):
    """Deterministic point location: for each point the lowest index of a
    cell containing it (barycentric coordinates >= -1e-12), and its
    barycentric coordinates there.  The points are taken in chunks, in the
    caller's order; only cells whose bounding box, padded far beyond that
    slack, meets a chunk's bounding box are tested."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    gl, _, verts = mesh.geometry_arrays()
    pad = 1e-9 * np.ptp(verts, axis=1).max(axis=1, keepdims=True)
    lo, hi = verts.min(axis=1) - pad, verts.max(axis=1) + pad
    cells = np.empty(len(pts), dtype=np.int64)
    lam = np.empty((len(pts), 3))
    step = max(1, (1 << 16) // mesh.n_cells)     # (step, ncells, 3, 2) chunks
    for k in range(0, len(pts), step):
        p = pts[k:k + step]
        near = np.flatnonzero(((lo <= p.max(axis=0))
                               & (hi >= p.min(axis=0))).all(axis=1))
        chunk = np.einsum("cid,pcid->pci", gl[near],
                          p[:, None, None] - verts[near]) + 1.0
        inside = np.append((chunk >= -1e-12).all(axis=2),
                           np.ones((len(p), 1), bool), axis=1)
        first = np.argmax(inside, axis=1)
        if (first == near.size).any():
            x, y = p[np.argmax(first == near.size)]
            raise ValueError(f"point ({x:.12g}, {y:.12g}) outside the mesh")
        cells[k:k + step] = near[first]
        lam[k:k + step] = chunk[np.arange(len(p)), first]
    return cells, lam


def _chain_rule(S: np.ndarray, gl: np.ndarray, dirs) -> np.ndarray:
    """The cartesian derivative along dirs (one axis per order) of the fields
    with shape coefficients S (ncells, nshape), as (ncells, nshape * 3^k)
    weights of the shapes' lambda-derivatives of order k = len(dirs)."""
    T = S
    for d in dirs:
        T = T[..., None] * gl[:, :, d].reshape(len(S), *(1,) * (T.ndim - 1), 3)
    return T.reshape(len(S), -1)


def _derivative(S: np.ndarray, gl: np.ndarray, table: np.ndarray, dirs):
    """Cartesian derivative along dirs of the fields with shape coefficients
    S (ncells, nshape), at every (cell, point) of a reference table."""
    return _chain_rule(S, gl, dirs) @ table.reshape(-1, table.shape[-1])


def _field_at(field: FieldFunction, points, order: int) -> np.ndarray:
    """The derivatives of the given order of a field at points (npts, 2):
    (npts, ncomp, 2, ..., 2), with one axis of length 2 per order."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    space = field.space
    cells, lam = locate_cells(space.mesh, points)
    gl = space.mesh.geometry_arrays()[0][cells]
    table = tabulate(space.shapes, lam)[order].reshape(-1, len(cells))
    S = space.shape_coefficients(field.coeffs)[cells]
    # the Hessian's off-diagonal entries are one value, so it is symmetric
    dirs = [((),), ((0,), (1,)), ((0, 0), (0, 1), (0, 1), (1, 1))][order]
    out = [[np.einsum("pk,kp->p", _chain_rule(Sk, gl, d), table)
            for d in dirs]
           for Sk in np.split(S, 2 if space.vector else 1, axis=1)]
    return np.moveaxis(out, -1, 0).reshape(len(cells), -1, *(2,) * order)


def eval_field(field: FieldFunction, point, order: int = 0):
    """The value (order 0), gradient (2,) or Hessian (2, 2) of a field at a
    point; a list of both components' for a vector field."""
    (out,) = _field_at(field, [point], order)
    if order == 0:
        out = [float(v) for v in out]
    return list(out) if field.space.vector else out[0]


def error_norms(field: FieldFunction, u, grad_u=None, hess_u=None,
                quad_degree: int = 17):
    """(L2, broken H1 seminorm, broken H2 seminorm) errors against callbacks."""
    space = field.space
    if space.vector:
        raise ValueError("error_norms expects a scalar field")
    w = tri_rule(quad_degree).weights
    tables = reference_tables(space.shapes, quad_degree)
    gl, area, _ = space.mesh.geometry_arrays()
    S = space.shape_coefficients(field.coeffs)
    acc = np.zeros(3)
    for blk, x, y in _point_blocks(space.mesh, quad_degree):
        def sq_error(dirs, exact):
            diff = _derivative(S[blk], gl[blk], tables[len(dirs)], dirs) \
                - _at(exact, x).reshape(-1, len(w))
            return float(area[blk] @ (diff**2 @ w))

        acc[0] += sq_error((), u(x, y))
        if grad_u is not None:
            gx, gy = grad_u(x, y)
            acc[1] += sq_error((0,), gx) + sq_error((1,), gy)
        if hess_u is not None:
            hxx, hxy, hyy = hess_u(x, y)
            acc[2] += (sq_error((0, 0), hxx) + 2 * sq_error((0, 1), hxy)
                       + sq_error((1, 1), hyy))
    return tuple(np.sqrt(acc))


def sample_field_csv(field: FieldFunction, n: int = 50) -> str:
    """CSV text of (x, y, value) on a uniform n x n sample grid."""
    x, y = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, n),
                                           np.linspace(0.0, 1.0, n)))
    vals = _field_at(field, np.column_stack([x, y]), 0)[:, 0]
    lines = ["x,y,value"] + [f"{a:.12g},{b:.12g},{v:.12g}"
                             for a, b, v in zip(x, y, vals)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# interpolation of smooth functions
# ---------------------------------------------------------------------------

def _slot_values(mesh: Mesh, etype: str, slot, ents: np.ndarray, func, grad,
                 degree: int = 12) -> np.ndarray:
    """One slot functional of a layout (see Layout) applied to func on the
    entities ents of type etype, edges in their canonical orientation."""
    if etype == "vertex":
        x, y = mesh.vertices[ents].T
        return _at(func(x, y), x)
    if etype == "cell":
        if slot is None:                     # the G2 bubble
            return np.zeros(ents.size)
        verts = mesh.geometry_arrays()[2][ents]
        if slot.kind == "point":
            x, y = np.einsum("i,cid->dc", [float(t) for t in slot.point], verts)
            return _at(func(x, y), x)
        rule = tri_rule(degree)
        w = rule.weights if slot.weight is None \
            else rule.weights * slot.weight.eval(rule.points)
        x, y = np.einsum("qi,cid->dcq", rule.points, verts).reshape(2, -1)
        return _at(func(x, y), x).reshape(ents.size, -1) @ w
    va = mesh.vertices[mesh.edges[ents, 0]]
    vb = mesh.vertices[mesh.edges[ents, 1]]
    if slot[0] == "point":
        x, y = (va + float(slot[1]) * (vb - va)).T
        return _at(func(x, y), x)
    rule = edge_rule(degree)
    pts = va[:, None, :] + rule.points[None, :, None] * (vb - va)[:, None, :]
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    if slot[0] == "legendre":
        w = rule.weights * poly1d_eval([float(c) for c in
                                        EDGE_LEGENDRE[slot[1]]], rule.points)
        return _at(func(x, y), x).reshape(ents.size, -1) @ w
    # mean normal derivative along the canonical normal (tangent turned
    # clockwise)
    t = (vb - va) / np.linalg.norm(vb - va, axis=1)[:, None]
    gx, gy = (_at(g, x).reshape(ents.size, -1) for g in grad(x, y))
    return (gx * t[:, 1:] - gy * t[:, :1]) @ rule.weights


def _interpolate(space: Space, func, grad) -> np.ndarray:
    """Every global DOF functional of a layout-built scalar space applied to
    func (its gradient grad, for normal DOFs)."""
    lay = space.meta.get("layout")
    if lay is None:
        raise ValueError(f"no interpolation rule for space kind {space.kind}")
    if ("normal",) in lay.slots["edge"] and grad is None:
        raise ValueError(f"{space.kind} interpolation needs grad_u")
    coeffs = np.zeros(space.ndof)
    for etype in ENTITIES:
        table = space.meta[f"{etype}_dofs"]
        ents = np.flatnonzero((table >= 0).any(axis=1))
        for j, slot in enumerate(lay.slots[etype]):
            coeffs[table[ents, j]] = _slot_values(space.mesh, etype, slot,
                                                  ents, func, grad)
    return coeffs


def interpolate(space: Space, u, grad_u=None) -> FieldFunction:
    """Canonical interpolant: the global DOF functionals applied to u
    (normal-derivative DOFs read grad_u)."""
    if space.vector:
        raise ValueError("use interpolate_vector for vector spaces")
    return FieldFunction(space, _interpolate(space, u, grad_u))


def interpolate_vector(space: Space, u1, u2) -> FieldFunction:
    """Canonical interpolant of (u1, u2) onto S2/G2/G3 (bubbles set to 0)."""
    if not space.vector:
        raise ValueError("interpolate_vector needs a vector space")
    return FieldFunction(space, np.concatenate(
        [_interpolate(space.component, u, None) for u in (u1, u2)]))
