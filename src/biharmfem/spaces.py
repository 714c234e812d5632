"""Global finite element spaces: DOF maps, assembly, and field evaluation.

A Space is a shape set, tabulated once on the reference cell, plus two
arrays built once per mesh:

  A  the local basis in the shape basis, local_l = sum_s A[l, s] shape_s: one
     (nloc, nshape) matrix where every cell has the same nodal transform, a
     (ncells, nloc, nshape) stack where normal-derivative DOFs make it depend
     on the cell (A4_0, Morley_0);
  P  the sparse cell-to-global operator of shape (ncells * nloc, ndof): row
     c * nloc + l expresses local DOF l of cell c in the global DOFs.

Vector spaces repeat the scalar shape set once per cartesian component.  The
reference tables hold values and lambda-derivatives up to order 2 at each
tri_rule degree, cached process-wide; physical derivatives follow by the
chain rule through grad_lambda.  Assembly contracts geometry-free reference
tensors with per-cell grad_lambda/Gram arrays and forms
P_test^T blockdiag(M_c) P_trial.  Inter-cell identification of edge moments
goes through canonical-edge Legendre moments; orientation flips and normal
signs live entirely in P.

Global DOF layouts (deterministic): every space but the pressure spaces is a
row of LAYOUT_KINDS, a catalog element with its component count, G2 bubble
and boundary elimination.  Its layout (see layout()) is read from the
element's DOF functionals, and DOFs are numbered vertex | edge | cell, each
entity's slots together, component-major (S2_0 is thus a prefix of G2_0).
The pressure spaces DG* are discontinuous, numbered cell by cell: the cell
constant, then the cell's mean-zero modes.  The schemes' mean-zero pressure
spaces are DG1/DG2 with the constant projected out by the solver, so no DOF
is pinned and no basis spans the mean-zero subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .elements import REFERENCE_EXACT, element_catalog, nodal_coefficients
from .mesh import Mesh
from .polynomials import (EDGE_LEGENDRE, BaryPoly, poly1d_eval, poly_gradient,
                          poly_hessian)
from .quadrature import edge_rule, tri_rule

L0 = BaryPoly.lam(0)
L1 = BaryPoly.lam(1)
L2 = BaryPoly.lam(2)
THIRD = Fraction(1, 3)
_BUBBLE = (L0 * L0 + L1 * L1 + L2 * L2) - Fraction(2, 3)


def _pressure_modes(k: int) -> list[BaryPoly]:
    if k == 0:
        return []
    modes = [L0 - THIRD, L1 - THIRD]
    if k == 2:
        modes += [L0 * L0 - Fraction(1, 6), L1 * L1 - Fraction(1, 6),
                  L0 * L1 - Fraction(1, 12)]
    return modes


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
        polys = [BaryPoly.const(1.0)] + _pressure_modes(int(name[4:]))
    else:
        polys = [s.p for s in element_catalog(name).shapes]
    return tuple(p.as_float() for p in polys)


@lru_cache(maxsize=None)
def reference_tables(shapes: str, degree: int):
    """A shape set at the points of tri_rule(degree): values (nsh, nq) and
    first (nsh, 3, nq) and second (nsh, 3, 3, nq) lambda-derivatives."""
    pts = tri_rule(degree).points
    polys = shape_set(shapes)
    val = np.array([p.eval(pts) for p in polys])
    d1 = np.array([[p.dlam(i).eval(pts) for i in range(3)] for p in polys])
    d2 = np.array([[[p.dlam(i).dlam(j).eval(pts) for j in range(3)]
                    for i in range(3)] for p in polys])
    for arr in (val, d1, d2):
        arr.setflags(write=False)
    return val, d1, d2


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

    def __repr__(self):
        return f"Space({self.kind}, ndof={self.ndof})"

    @property
    def nloc(self) -> int:
        return self.A.shape[-2]

    def shape_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        """(ncells, nshape) shape-basis coefficients of a global vector."""
        local = (self.P @ coeffs).reshape(self.mesh.n_cells, 1, self.nloc)
        return (local @ self.A)[:, 0]

    def cell_poly(self, c: int, coeffs: np.ndarray):
        """Cell-local polynomial(s): BaryPoly, or (BaryPoly, BaryPoly)."""
        local = self.P[c * self.nloc:(c + 1) * self.nloc] @ coeffs
        svec = local @ (self.A if self.A.ndim == 2 else self.A[c])
        polys = []
        for part in svec.reshape(2 if self.vector else 1, -1):
            p = BaryPoly()
            for w, s in zip(part, shape_set(self.shapes)):
                if w != 0.0:
                    p = p + float(w) * s
            polys.append(p)
        return tuple(polys) if self.vector else polys[0]


@dataclass
class FieldFunction:
    space: Space
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.ndof,):
            raise ValueError("coefficient vector length != space dimension")

    def cell_poly(self, c: int):
        return self.space.cell_poly(c, self.coeffs)

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
    """P from (local DOF, global DOF per cell, weight per cell) terms.

    Terms on global index -1 (eliminated boundary DOFs) are left out; terms
    on the same entry add up.
    """
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
        return _build_dg(mesh, _DG_KINDS[key])
    known = sorted([*_LAYOUT_BY_KEY, *_DG_KINDS])
    raise KeyError(f"unknown space kind '{kind}'; known: {known}")


@lru_cache(maxsize=None)
def _shared_transform(name: str) -> np.ndarray:
    """The nodal transform of an element whose DOFs are point values and
    moments only: the same on every cell, so computed once per process."""
    A = nodal_coefficients(element_catalog(name),
                           [REFERENCE_EXACT.grad_lambda])[0].T
    A.setflags(write=False)
    return A


def _build_layout(mesh: Mesh, kind: str, element: str, ncomp: int,
                  bubble: bool, bc: bool) -> Space:
    """A space from its row of LAYOUT_KINDS.

    DOFs are numbered vertex | edge | cell, entity by entity, component-major
    within an entity: entity table column comp * nslot + slot.
    """
    elem = element_catalog(element)
    lay = layout(element, bubble)
    free = {"vertex": ~mesh.vertex_is_boundary if bc
            else np.ones(mesh.n_vertices, bool),
            "edge": ~mesh.edge_is_boundary if bc
            else np.ones(mesh.n_edges, bool),
            "cell": np.ones(mesh.n_cells, bool)}
    tables, n = {}, 0
    for etype in ENTITIES:
        tables[etype], n = _numbering(free[etype], n,
                                      ncomp * len(lay.slots[etype]))
    incident = {"vertex": mesh.cells, "edge": mesh.cell_edges,
                "cell": np.arange(mesh.n_cells)[:, None]}
    forward = mesh.cell_edge_signs == 1
    nloc = len(lay.local)
    terms = []
    for comp in range(ncomp):
        for l, (etype, i, fwd, rev) in enumerate(lay.local):
            ent = incident[etype][:, i]
            first = comp * len(lay.slots[etype])
            orient = forward[:, i] if etype == "edge" else True
            for (fs, fw), (rs, rw) in zip(fwd, rev):
                slot = np.where(orient, fs, rs)
                terms.append((comp * nloc + l,
                              tables[etype][ent, first + slot],
                              np.where(orient, fw, rw)))
    if ("normal",) in lay.slots["edge"]:
        A = nodal_coefficients(elem, mesh.geometry_arrays()[0]
                               ).transpose(0, 2, 1)
    else:
        A = _shared_transform(element)
    if bubble:
        A = np.block([[A, np.zeros((len(A), 1))], [np.zeros((1, len(A))), 1.0]])
    if ncomp == 2:
        A = np.kron(np.eye(2), A)
    meta = {f"{etype}_dofs": tables[etype] for etype in ENTITIES}
    meta["layout"] = lay
    return Space(mesh, kind, ncomp == 2, n, "g2" if bubble else element, A,
                 _operator(mesh, ncomp * nloc, n, terms), elem.degree, meta)


_LAYOUT_BY_KEY = {row[0].lower(): row for row in LAYOUT_KINDS}


def _build_dg(mesh: Mesh, k: int) -> Space:
    per_cell = 1 + len(_pressure_modes(k))
    ndof = mesh.n_cells * per_cell
    meta = {"order": k, "per_cell": per_cell}
    return Space(mesh, f"DG{k}", False, ndof, f"pres{k}", np.eye(per_cell),
                 sp.identity(ndof, format="csr"), k, meta)


_DG_KINDS = {f"dg{k}": k for k in range(3)}


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

FORMS = ("mass", "grad_grad", "hess_hess", "rot_pressure", "vecfield_grad")

#: Assembled entries with |a| <= ROUNDOFF_RTOL * max|a| are dropped.
#: Edge-moment and mean-zero-mode cancellation leaves entries of at most about
#: 1e-14 of the largest, and genuine entries are at least about 1e-8 of it on
#: criss, jittered, relabeled and refined meshes; stored, the round-off
#: entries fill the rows of the assembled matrices and their LU factors.
ROUNDOFF_RTOL = 1e-12


def _form_tensor(form: str, trial: Space, test: Space, degree: int):
    """(R, G) of a form: the cell matrix in the test x trial shape bases is
    sum_k G[c, k] R[:, :, k], with R geometry-free and G per cell."""
    w = tri_rule(degree).weights
    vt, d1t, d2t = reference_tables(test.shapes, degree)
    vr, d1r, d2r = reference_tables(trial.shapes, degree)
    gl, area, _ = trial.mesh.geometry_arrays()
    nc, na, nb = len(area), len(vt), len(vr)
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
        return R.reshape(na, 2 * nb, 6), area[:, None] * gl.reshape(nc, 6)
    if trial.vector != test.vector:
        raise ValueError(f"{form} needs trial and test of the same kind")
    gram = np.einsum("cid,cjd->cij", gl, gl)
    if form == "mass":
        R = np.einsum("aq,q,bq->ab", vt, w, vr)[..., None]
        G = area[:, None]
    elif form == "grad_grad":
        R = np.einsum("aiq,q,bjq->abij", d1t, w, d1r).reshape(na, nb, 9)
        G = area[:, None] * gram.reshape(nc, 9)
    elif form == "hess_hess":
        # H(u):H(v) = sum gram[i, k] gram[j, l] u_ij v_kl, u_ij = d2u/dlam_i dlam_j
        R = np.einsum("aijq,q,bklq->abikjl", d2t, w, d2r).reshape(na, nb, 81)
        G = area[:, None] * np.einsum("cik,cjl->cikjl", gram,
                                      gram).reshape(nc, 81)
    else:
        raise ValueError(f"unknown form '{form}'")
    if test.vector:
        R = np.einsum("xy,abk->xaybk", np.eye(2), R).reshape(2 * na, 2 * nb, -1)
    return R, G


def block_diagonal(blocks: np.ndarray) -> sp.csr_matrix:
    """The block-diagonal CSR matrix of an (n, r, k) stack of blocks."""
    n, r, k = blocks.shape
    cols = np.arange(n * k).reshape(n, 1, k).repeat(r, axis=1)
    return sp.csr_matrix((blocks.ravel(), cols.ravel(),
                          np.arange(n * r + 1) * k), shape=(n * r, n * k))


def assemble_bilinear(trial: Space, test: Space, form: str,
                      quad_degree: int | None = None) -> sp.csr_matrix:
    if trial.mesh is not test.mesh:
        raise ValueError("trial and test spaces live on different meshes")
    if quad_degree is None:
        quad_degree = max(trial.poly_degree + test.poly_degree, 2)
    R, G = _form_tensor(form, trial, test, quad_degree)
    nc = trial.mesh.n_cells
    shape_mats = (G @ R.reshape(-1, R.shape[2]).T).reshape(nc, *R.shape[:2])
    local = test.A @ shape_mats @ np.swapaxes(trial.A, -1, -2)
    out = (test.P.T @ (block_diagonal(local) @ trial.P)).tocsr()
    mag = np.abs(out.data)
    if mag.size:
        out.data[mag <= ROUNDOFF_RTOL * mag.max()] = 0.0
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _quadrature_points(mesh: Mesh, degree: int):
    """Every (cell, point) pair of tri_rule(degree), as flat x and y."""
    verts = mesh.geometry_arrays()[2]
    xy = np.einsum("qi,cid->cqd", tri_rule(degree).points, verts)
    return xy[..., 0].ravel(), xy[..., 1].ravel()


def assemble_load(space: Space, f, quad_degree: int = 12) -> np.ndarray:
    if space.vector:
        raise ValueError("loads are assembled against scalar spaces only")
    rule = tri_rule(quad_degree)
    val = reference_tables(space.shapes, quad_degree)[0]
    area = space.mesh.geometry_arrays()[1]
    x, y = _quadrature_points(space.mesh, quad_degree)
    fv = np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
    shape_load = area[:, None] * ((fv.reshape(len(area), -1) * rule.weights)
                                  @ val.T)
    local = (space.A @ shape_load[:, :, None])[:, :, 0]
    return space.P.T @ local.ravel()


# ---------------------------------------------------------------------------
# field evaluation / error norms
# ---------------------------------------------------------------------------

#: bits per axis of the Morton key that orders points before chunking
MORTON_BITS = 10


def _morton_order(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Order of the points along the Morton (Z) curve on a 2^MORTON_BITS
    grid over the box [lo, hi]."""
    span = np.where(hi > lo, hi - lo, 1.0)
    q = np.clip((pts - lo) / span * (1 << MORTON_BITS), 0,
                (1 << MORTON_BITS) - 1).astype(np.int64)
    key = np.zeros(len(pts), dtype=np.int64)
    for b in range(MORTON_BITS):
        key |= ((q[:, 0] >> b) & 1) << (2 * b)
        key |= ((q[:, 1] >> b) & 1) << (2 * b + 1)
    return np.argsort(key, kind="stable")


def locate_cells(mesh: Mesh, points):
    """Deterministic point location: for each point the lowest index of a
    cell containing it (barycentric coordinates >= -1e-12), and its
    barycentric coordinates there.  The points are taken in Morton order, in
    chunks; only cells whose bounding box, padded far beyond that slack,
    meets a chunk's bounding box are tested."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    gl, _, verts = mesh.geometry_arrays()
    pad = 1e-9 * np.ptp(verts, axis=1).max(axis=1, keepdims=True)
    lo, hi = verts.min(axis=1) - pad, verts.max(axis=1) + pad
    cells = np.empty(len(pts), dtype=np.int64)
    lam = np.empty((len(pts), 3))
    order = _morton_order(pts, lo.min(axis=0), hi.max(axis=0))
    step = max(1, (1 << 16) // mesh.n_cells)     # (step, ncells, 3, 2) chunks
    for k in range(0, len(pts), step):
        idx = order[k:k + step]
        p = pts[idx]
        near = np.flatnonzero(((lo <= p.max(axis=0))
                               & (hi >= p.min(axis=0))).all(axis=1))
        chunk = np.einsum("cid,pcid->pci", gl[near],
                          p[:, None, None] - verts[near]) + 1.0
        inside = np.append((chunk >= -1e-12).all(axis=2),
                           np.ones((len(p), 1), bool), axis=1)
        first = np.argmax(inside, axis=1)
        if (first == near.size).any():
            bad = idx[first == near.size].min()
            raise ValueError(f"point {tuple(pts[bad])} outside the mesh")
        cells[idx] = near[first]
        lam[idx] = chunk[np.arange(len(p)), first]
    return cells, lam


def locate_cell(mesh: Mesh, point) -> int:
    """Deterministic point location: lowest cell index containing the point."""
    return int(locate_cells(mesh, [point])[0][0])


def eval_field(field: FieldFunction, point, order: int = 0):
    (c,), (lam,) = locate_cells(field.space.mesh, [point])
    geom = field.space.mesh.geometry(c)
    polys = field.cell_poly(c)
    if not field.space.vector:
        polys = (polys,)
    out = []
    for p in polys:
        if order == 0:
            out.append(float(p.eval(lam)))
        elif order == 1:
            gx, gy = poly_gradient(p, geom.grad_lambda)
            out.append(np.array([gx.eval(lam), gy.eval(lam)]))
        elif order == 2:
            hxx, hxy, hyy = poly_hessian(p, geom.grad_lambda)
            out.append(np.array([[hxx.eval(lam), hxy.eval(lam)],
                                 [hxy.eval(lam), hyy.eval(lam)]]))
        else:
            raise ValueError("order must be 0, 1 or 2")
    return out[0] if not field.space.vector else out


def _derivative(S: np.ndarray, gl: np.ndarray, table: np.ndarray, dirs):
    """Cartesian derivative along dirs (one axis per order) of the fields
    with shape coefficients S (ncells, nshape), at every (cell, point)."""
    T = S
    for d in dirs:
        T = T[..., None] * gl[:, :, d].reshape(len(S), *(1,) * (T.ndim - 1), 3)
    return T.reshape(len(S), -1) @ table.reshape(-1, table.shape[-1])


def error_norms(field: FieldFunction, u, grad_u=None, hess_u=None,
                quad_degree: int = 17):
    """(L2, broken H1 seminorm, broken H2 seminorm) errors against callbacks."""
    space = field.space
    if space.vector:
        raise ValueError("error_norms expects a scalar field")
    w = tri_rule(quad_degree).weights
    tables = reference_tables(space.shapes, quad_degree)
    gl, area, _ = space.mesh.geometry_arrays()
    x, y = _quadrature_points(space.mesh, quad_degree)
    S = space.shape_coefficients(field.coeffs)

    def sq_error(dirs, exact):
        exact = np.broadcast_to(np.asarray(exact, dtype=float), x.shape)
        diff = _derivative(S, gl, tables[len(dirs)], dirs) \
            - exact.reshape(len(S), -1)
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


def sample_field_csv(field: FieldFunction, n: int = 50) -> str:
    """CSV text of (x, y, value) on a uniform n x n sample grid."""
    x, y = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, n),
                                           np.linspace(0.0, 1.0, n)))
    cells, lam = locate_cells(field.space.mesh, np.column_stack([x, y]))
    S = field.space.shape_coefficients(field.coeffs)[cells]
    shapes = np.array([p.eval(lam) for p in shape_set(field.space.shapes)])
    vals = np.einsum("ps,sp->p", S, shapes)
    lines = ["x,y,value"] + [f"{a:.12g},{b:.12g},{v:.12g}"
                             for a, b, v in zip(x, y, vals)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# interpolation of smooth functions
# ---------------------------------------------------------------------------

def _at(values, x: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(values, dtype=float), x.shape)


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


def _interpolate(space: Space, funcs, grads) -> FieldFunction:
    """Every global DOF functional of a layout-built space applied to the
    component functions funcs (gradients grads, for normal DOFs)."""
    lay = space.meta.get("layout")
    if lay is None:
        raise ValueError(f"no interpolation rule for space kind {space.kind}")
    if ("normal",) in lay.slots["edge"] and None in grads:
        raise ValueError(f"{space.kind} interpolation needs grad_u")
    coeffs = np.zeros(space.ndof)
    for etype in ENTITIES:
        table = space.meta[f"{etype}_dofs"]
        ents = np.flatnonzero((table >= 0).any(axis=1))
        nslot = len(lay.slots[etype])
        for comp, (func, grad) in enumerate(zip(funcs, grads)):
            for j, slot in enumerate(lay.slots[etype]):
                coeffs[table[ents, comp * nslot + j]] = _slot_values(
                    space.mesh, etype, slot, ents, func, grad)
    return FieldFunction(space, coeffs)


def interpolate(space: Space, u, grad_u=None) -> FieldFunction:
    """Canonical interpolant: the global DOF functionals applied to u
    (normal-derivative DOFs read grad_u)."""
    if space.vector:
        raise ValueError("use interpolate_vector for vector spaces")
    return _interpolate(space, (u,), (grad_u,))


def interpolate_vector(space: Space, u1, u2) -> FieldFunction:
    """Canonical interpolant of (u1, u2) onto S2/G2/G3 (bubbles set to 0)."""
    if not space.vector:
        raise ValueError("interpolate_vector needs a vector space")
    return _interpolate(space, (u1, u2), (None, None))


# ---------------------------------------------------------------------------
# edge traces and jumps (testing and membership checks)
# ---------------------------------------------------------------------------

def edge_trace(mesh: Mesh, c: int, e: int, poly: BaryPoly, tpts: np.ndarray,
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


def edge_jump_moments(mesh: Mesh, cellpolys, e: int, weights_deg: int,
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
