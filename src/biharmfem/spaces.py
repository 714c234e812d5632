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

Global DOF layouts (deterministic):
  A3_0      interior-vertex values | interior-edge means | 4 per cell
  A4_0      interior-vertex values | 3 per interior edge (G0, G1, GN) | 3 per cell
  Morley_0  interior-vertex values | interior-edge normal means
  Lagrange  interior-vertex values | edge lattice points | cell lattice points
  S2/G2     2 per (interior) vertex | 2 per (interior) edge | [2 bubbles/cell]
  G3        6 per (interior) edge (G0, G1, G2 per component) | 2 per cell
  P*_0      per-cell mean-zero modes | Haar tree over cell constants
  DG*       per-cell lattice basis
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .elements import (REFERENCE_EXACT, element_catalog, nodal_coefficients,
                       nodal_coefficients_stack)
from .mesh import Mesh
from .polynomials import (EDGE_LEGENDRE, BaryPoly, poly1d_eval, poly_gradient,
                          poly_hessian)
from .quadrature import edge_rule, tri_rule

L0 = BaryPoly.lam(0)
L1 = BaryPoly.lam(1)
L2 = BaryPoly.lam(2)
LAMS = (L0, L1, L2)
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
    'g2' (fs + bubble) or 'pres<k>' (the constant and the mean-zero modes)."""
    if name == "g2":
        return shape_set("fs") + (_BUBBLE.as_float(),)
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


def _legendre_terms(l: int, moments: np.ndarray, power: int, sign):
    """Terms of local DOF l = fint lam_{i+1}^power v from the canonical
    Legendre moments (G0, G1, G2)[:ncols] of the edge, per cell.

    lam_{i+1} = 1/2 - s*(t - 1/2) along the canonical parameter t, with
    s = +1 when the local edge direction agrees with the canonical one.
    """
    row = {0: (1.0, 0.0, 0.0), 1: (0.5, -sign, 0.0),
           2: (1.0 / 3.0, -sign, 1.0)}[power]
    return [(l, moments[:, m], row[m]) for m in range(moments.shape[1])]


def _operator(mesh: Mesh, nloc: int, ndof: int, terms) -> sp.csr_matrix:
    """P from (local DOF, global DOF per cell, weight per cell) terms.

    Terms on global index -1 (eliminated boundary DOFs) or with weight 0 are
    left out; terms on the same entry add up.
    """
    nc = mesh.n_cells
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], \
        [np.zeros(0)]
    for l, g, w in terms:
        g = np.broadcast_to(g, (nc,))
        w = np.broadcast_to(np.asarray(w, dtype=float), (nc,))
        keep = (g >= 0) & (w != 0.0)
        rows.append(np.flatnonzero(keep) * nloc + l)
        cols.append(g[keep])
        vals.append(w[keep])
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(nc * nloc, ndof))


def _vertex_terms(mesh: Mesh, vdof: np.ndarray, l0: int = 0):
    return [(l0 + i, vdof[mesh.cells[:, i]], 1.0) for i in range(3)]


def _cell_terms(cdofs: np.ndarray, l0: int):
    return [(l0 + j, cdofs[:, j], 1.0) for j in range(cdofs.shape[1])]


def _gram(mesh: Mesh) -> np.ndarray:
    gl = mesh.geometry_arrays()[0]
    return np.einsum("cid,cjd->cij", gl, gl)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_space(mesh: Mesh, kind: str) -> Space:
    key = kind.lower()
    builders = {
        "a3_0": lambda: _build_a3(mesh),
        "a4_0": lambda: _build_a4(mesh),
        "morley_0": lambda: _build_morley(mesh),
        "s2_0": lambda: _build_s2g2(mesh, bubbles=False, bc=True),
        "g2_0": lambda: _build_s2g2(mesh, bubbles=True, bc=True),
        "g2": lambda: _build_s2g2(mesh, bubbles=True, bc=False),
        "g3_0": lambda: _build_g3(mesh, bc=True),
        "g3": lambda: _build_g3(mesh, bc=False),
        "p0_0": lambda: _build_pressure(mesh, 0),
        "p1_0": lambda: _build_pressure(mesh, 1),
        "p2_0": lambda: _build_pressure(mesh, 2),
        "dg0": lambda: _build_dg(mesh, 0),
        "dg1": lambda: _build_dg(mesh, 1),
        "dg2": lambda: _build_dg(mesh, 2),
        "lagrange1_0": lambda: _build_lagrange(mesh, 1),
        "lagrange2_0": lambda: _build_lagrange(mesh, 2),
        "lagrange3_0": lambda: _build_lagrange(mesh, 3),
        "lagrange4_0": lambda: _build_lagrange(mesh, 4),
    }
    if key not in builders:
        raise KeyError(f"unknown space kind '{kind}'; known: {sorted(builders)}")
    return builders[key]()


@lru_cache(maxsize=None)
def _shared_transform(name: str) -> np.ndarray:
    """The nodal transform of an element whose DOFs are point values and
    moments only: the same on every cell, so computed once per process."""
    A = nodal_coefficients(element_catalog(name), REFERENCE_EXACT).T
    A.setflags(write=False)
    return A


def _build_a3(mesh: Mesh) -> Space:
    vdof, n = _numbering(~mesh.vertex_is_boundary, 0)
    edof, n = _numbering(~mesh.edge_is_boundary, n)
    cdofs, n = _numbering(np.ones(mesh.n_cells, dtype=bool), n, 4)
    vdof, edof = vdof[:, 0], edof[:, 0]
    terms = (_vertex_terms(mesh, vdof)
             + [(3 + i, edof[mesh.cell_edges[:, i]], 1.0) for i in range(3)]
             + _cell_terms(cdofs, 6))
    meta = {"vertex_dof": vdof, "edge_dof": edof, "cell_dof0": cdofs[:, 0],
            "element": element_catalog("nsc")}
    return Space(mesh, "A3_0", False, n, "nsc", _shared_transform("nsc"),
                 _operator(mesh, 10, n, terms), 3, meta)


def _build_a4(mesh: Mesh) -> Space:
    elem = element_catalog("nsq")
    vdof, n = _numbering(~mesh.vertex_is_boundary, 0)
    edofs, n = _numbering(~mesh.edge_is_boundary, n, 3)   # G0, G1, GN
    cdofs, n = _numbering(np.ones(mesh.n_cells, dtype=bool), n, 3)
    vdof = vdof[:, 0]
    terms = _vertex_terms(mesh, vdof)
    for power in (0, 1):
        for i in range(3):
            terms += _legendre_terms(3 + 3 * power + i,
                                     edofs[mesh.cell_edges[:, i], :2], power,
                                     mesh.cell_edge_signs[:, i])
    terms += [(9 + i, edofs[mesh.cell_edges[:, i], 2],
               mesh.cell_edge_signs[:, i]) for i in range(3)]
    terms += _cell_terms(cdofs, 12)
    A = nodal_coefficients_stack(elem, _gram(mesh)).transpose(0, 2, 1)
    meta = {"vertex_dof": vdof, "edge_dofs": edofs, "cell_dof0": cdofs[:, 0],
            "element": elem}
    return Space(mesh, "A4_0", False, n, "nsq", A,
                 _operator(mesh, 15, n, terms), 4, meta)


def _build_morley(mesh: Mesh) -> Space:
    elem = element_catalog("morley")
    vdof, n = _numbering(~mesh.vertex_is_boundary, 0)
    edof, n = _numbering(~mesh.edge_is_boundary, n)
    vdof, edof = vdof[:, 0], edof[:, 0]
    terms = _vertex_terms(mesh, vdof) + [
        (3 + i, edof[mesh.cell_edges[:, i]], mesh.cell_edge_signs[:, i])
        for i in range(3)]
    A = nodal_coefficients_stack(elem, _gram(mesh)).transpose(0, 2, 1)
    meta = {"vertex_dof": vdof, "edge_dof": edof, "element": elem}
    return Space(mesh, "Morley_0", False, n, "morley", A,
                 _operator(mesh, 6, n, terms), 2, meta)


def _build_lagrange(mesh: Mesh, k: int) -> Space:
    vdof, n = _numbering(~mesh.vertex_is_boundary, 0)
    npts = k - 1
    edofs, n = _numbering(~mesh.edge_is_boundary & (npts > 0), n,
                          max(npts, 1))
    ncell = {1: 0, 2: 0, 3: 1, 4: 3}[k]
    cdofs, n = _numbering(np.full(mesh.n_cells, ncell > 0), n, max(ncell, 1))
    vdof = vdof[:, 0]
    terms = _vertex_terms(mesh, vdof)
    for i in range(3):
        e = mesh.cell_edges[:, i]
        forward = mesh.cell_edge_signs[:, i] == 1
        for step in range(1, k):
            terms.append((3 + i * npts + step - 1,
                          np.where(forward, edofs[e, step - 1],
                                   edofs[e, k - step - 1]), 1.0))
    terms += _cell_terms(cdofs[:, :ncell], 3 + 3 * npts)
    # cell_dof0 is 0 where there are no cell DOFs (k <= 2)
    meta = {"vertex_dof": vdof, "edge_dofs": edofs,
            "cell_dof0": np.maximum(cdofs[:, 0], 0),
            "element": element_catalog(f"p{k}"), "order": k}
    nloc = 3 + 3 * npts + ncell
    return Space(mesh, f"Lagrange{k}_0", False, n, f"p{k}",
                 _shared_transform(f"p{k}"), _operator(mesh, nloc, n, terms),
                 k, meta)


def _build_s2g2(mesh: Mesh, bubbles: bool, bc: bool) -> Space:
    vfree = ~mesh.vertex_is_boundary if bc else np.ones(mesh.n_vertices, bool)
    efree = ~mesh.edge_is_boundary if bc else np.ones(mesh.n_edges, bool)
    vdofs, n = _numbering(vfree, 0, 2)
    edofs, n = _numbering(efree, n, 2)
    bdofs = None
    if bubbles:
        bdofs, n = _numbering(np.ones(mesh.n_cells, dtype=bool), n, 2)
    Acomp = _shared_transform("fs")
    if bubbles:
        Acomp = np.block([[Acomp, np.zeros((6, 1))], [np.zeros((1, 6)), 1.0]])
    ncomp = Acomp.shape[0]
    terms = []
    for comp in range(2):
        l0 = comp * ncomp
        terms += _vertex_terms(mesh, vdofs[:, comp], l0)
        terms += [(l0 + 3 + i, edofs[mesh.cell_edges[:, i], comp], 1.0)
                  for i in range(3)]
        if bubbles:
            terms.append((l0 + 6, bdofs[:, comp], 1.0))
    kind = ("G2_0" if bc else "G2") if bubbles else "S2_0"
    meta = {"vertex_dofs": vdofs, "edge_dofs": edofs, "bubble_dofs": bdofs,
            "bc": bc}
    return Space(mesh, kind, True, n, "g2" if bubbles else "fs",
                 np.kron(np.eye(2), Acomp),
                 _operator(mesh, 2 * ncomp, n, terms), 2, meta)


def _build_g3(mesh: Mesh, bc: bool) -> Space:
    efree = ~mesh.edge_is_boundary if bc else np.ones(mesh.n_edges, bool)
    edofs, n = _numbering(efree, 0, 6)
    edofs = edofs.reshape(-1, 2, 3)            # edge, comp, moment
    cdofs, n = _numbering(np.ones(mesh.n_cells, dtype=bool), n, 2)
    terms = []
    for comp in range(2):
        for power in range(3):
            for i in range(3):
                terms += _legendre_terms(
                    10 * comp + 3 * power + i,
                    edofs[mesh.cell_edges[:, i], comp], power,
                    mesh.cell_edge_signs[:, i])
        terms.append((10 * comp + 9, cdofs[:, comp], 1.0))
    meta = {"edge_dofs": edofs, "cell_dofs": cdofs, "bc": bc}
    return Space(mesh, "G3_0" if bc else "G3", True, n, "cf",
                 np.kron(np.eye(2), _shared_transform("cf")),
                 _operator(mesh, 20, n, terms), 3, meta)


def _haar_tree(areas: np.ndarray):
    """L2-orthonormal mean-zero basis over cell constants.

    Returns (cells, haar index, value on that cell) arrays; the tree is
    numbered in preorder.
    """
    cells, index, value = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], \
        [np.zeros(0)]
    nhaar = 0
    stack = [(0, len(areas))]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        aL = float(areas[lo:mid].sum())
        aR = float(areas[mid:hi].sum())
        norm = np.sqrt(aL * aR * (aL + aR))
        cells.append(np.arange(lo, hi))
        index.append(np.full(hi - lo, nhaar))
        value.append(np.repeat([aR / norm, -aL / norm], [mid - lo, hi - mid]))
        nhaar += 1
        stack += [(mid, hi), (lo, mid)]
    return (np.concatenate(cells), np.concatenate(index),
            np.concatenate(value)), nhaar


def _build_pressure(mesh: Mesh, k: int) -> Space:
    nmodes = len(_pressure_modes(k))
    nT = mesh.n_cells
    (hcells, hindex, hvalue), nhaar = _haar_tree(mesh.geometry_arrays()[1])
    ndof = nT * nmodes + nhaar
    nloc = 1 + nmodes
    modes = np.arange(nT * nmodes).reshape(nT, nmodes)
    P = _operator(mesh, nloc, ndof, _cell_terms(modes, 1)) + sp.csr_matrix(
        (hvalue, (hcells * nloc, nT * nmodes + hindex)), shape=(nT * nloc, ndof))
    meta = {"order": k, "n_modes": nmodes, "n_haar": nhaar}
    return Space(mesh, f"P{k}_0", False, ndof, f"pres{k}", np.eye(nloc),
                 P, k, meta)


def _build_dg(mesh: Mesh, k: int) -> Space:
    per_cell = 1 + len(_pressure_modes(k))
    ndof = mesh.n_cells * per_cell
    meta = {"order": k, "per_cell": per_cell}
    return Space(mesh, f"DG{k}", False, ndof, f"pres{k}", np.eye(per_cell),
                 sp.identity(ndof, format="csr"), k, meta)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

FORMS = ("mass", "grad_grad", "hess_hess", "rot_pressure", "vecfield_grad")

#: Assembled entries with |a| <= ROUNDOFF_RTOL * max|a| are dropped.  Haar-tree
#: and edge-moment cancellation leaves entries of at most about 1e-14 of the
#: largest, and genuine entries are at least about 1e-8 of it on criss,
#: jittered, relabeled and refined meshes; stored, the round-off entries
#: fill the rows of the saddle-point system and its factorizations.
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
    gram = _gram(trial.mesh)
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
    nt, nr = test.nloc, trial.nloc
    cols = np.arange(nc * nr).reshape(nc, 1, nr).repeat(nt, axis=1)
    blocks = sp.csr_matrix((local.ravel(), cols.ravel(),
                            np.arange(nc * nt + 1) * nr),
                           shape=(nc * nt, nc * nr))
    out = (test.P.T @ (blocks @ trial.P)).tocsr()
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

def locate_cell(mesh: Mesh, point) -> int:
    """Deterministic point location: lowest cell index containing the point."""
    pt = np.asarray(point, dtype=float)
    gl, _, verts = mesh.geometry_arrays()
    lam = np.einsum("cid,cid->ci", gl, pt - verts) + 1.0
    inside = (lam >= -1e-12).all(axis=1)
    c = int(np.argmax(inside))
    if not inside[c]:
        raise ValueError(f"point {point} outside the mesh")
    return c


def eval_field(field: FieldFunction, point, order: int = 0):
    c = locate_cell(field.space.mesh, point)
    geom = field.space.mesh.geometry(c)
    pt = np.asarray(point, dtype=float)
    lam = np.array([geom.grad_lambda[i] @ (pt - geom.verts[i]) + 1.0
                    for i in range(3)])
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
    lines = ["x,y,value"]
    for yy in np.linspace(0.0, 1.0, n):
        for xx in np.linspace(0.0, 1.0, n):
            val = eval_field(field, (min(max(xx, 0.0), 1.0), yy))
            lines.append(f"{xx:.12g},{yy:.12g},{val:.12g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# interpolation of smooth functions
# ---------------------------------------------------------------------------

def _edge_quad_moment(mesh: Mesh, e: int, func, weight1d, degree: int = 12):
    rule = edge_rule(degree)
    va, vb = mesh.vertices[mesh.edges[e, 0]], mesh.vertices[mesh.edges[e, 1]]
    pts = va[None, :] + rule.points[:, None] * (vb - va)[None, :]
    vals = np.asarray(func(pts[:, 0], pts[:, 1]), dtype=float)
    wv = poly1d_eval([float(c) for c in weight1d], rule.points)
    return float(np.sum(rule.weights * wv * vals))


def _cell_quad_moment(mesh: Mesh, c: int, func, weight: BaryPoly | None,
                      degree: int = 12):
    rule = tri_rule(degree)
    geom = mesh.geometry(c)
    xy = rule.points @ geom.verts
    vals = np.asarray(func(xy[:, 0], xy[:, 1]), dtype=float)
    if weight is not None:
        vals = vals * weight.eval(rule.points)
    return float(np.sum(rule.weights * vals))


def interpolate(space: Space, u, grad_u=None) -> FieldFunction:
    """Canonical interpolant: global DOF functionals applied to u."""
    mesh = space.mesh
    coeffs = np.zeros(space.ndof)
    kind = space.kind
    meta = space.meta
    if kind in ("A3_0", "A4_0", "Morley_0") or kind.startswith("Lagrange"):
        vdof = meta["vertex_dof"]
        for a in range(mesh.n_vertices):
            if vdof[a] >= 0:
                coeffs[vdof[a]] = float(u(mesh.vertices[a, 0],
                                          mesh.vertices[a, 1]))
    if kind == "A3_0":
        for e in mesh.interior_edges():
            coeffs[meta["edge_dof"][e]] = _edge_quad_moment(
                mesh, e, u, EDGE_LEGENDRE[0])
        elem = meta["element"]
        for c in range(mesh.n_cells):
            for j in range(4):
                dof = elem.dofs[6 + j]
                coeffs[meta["cell_dof0"][c] + j] = _cell_quad_moment(
                    mesh, c, u, dof.weight)
        return FieldFunction(space, coeffs)
    if kind in ("A4_0", "Morley_0"):
        if grad_u is None:
            raise ValueError(f"{kind} interpolation needs grad_u")
        if kind == "Morley_0":
            edof = meta["edge_dof"]
            for e in mesh.interior_edges():
                coeffs[edof[e]] = _edge_normal_mean(mesh, e, grad_u)
            return FieldFunction(space, coeffs)
        edofs = meta["edge_dofs"]
        for e in mesh.interior_edges():
            coeffs[edofs[e, 0]] = _edge_quad_moment(mesh, e, u, EDGE_LEGENDRE[0])
            coeffs[edofs[e, 1]] = _edge_quad_moment(mesh, e, u, EDGE_LEGENDRE[1])
            coeffs[edofs[e, 2]] = _edge_normal_mean(mesh, e, grad_u)
        for c in range(mesh.n_cells):
            for j in range(3):
                coeffs[meta["cell_dof0"][c] + j] = _cell_quad_moment(
                    mesh, c, u, LAMS[j])
        return FieldFunction(space, coeffs)
    if kind.startswith("Lagrange"):
        k = meta["order"]
        edofs = meta["edge_dofs"]
        for e in mesh.interior_edges():
            va, vb = mesh.vertices[mesh.edges[e, 0]], mesh.vertices[mesh.edges[e, 1]]
            for j in range(1, k):
                pt = va + (j / k) * (vb - va)
                coeffs[edofs[e, j - 1]] = float(u(pt[0], pt[1]))
        elem = meta["element"]
        ncell = {1: 0, 2: 0, 3: 1, 4: 3}[k]
        for c in range(mesh.n_cells):
            geom = mesh.geometry(c)
            for j in range(ncell):
                dof = elem.dofs[3 + 3 * (k - 1) + j]
                pt = np.array([float(t) for t in dof.point]) @ geom.verts
                coeffs[meta["cell_dof0"][c] + j] = float(u(pt[0], pt[1]))
        return FieldFunction(space, coeffs)
    if kind in ("S2_0", "G2_0", "G2"):
        raise ValueError("use interpolate_vector for vector spaces")
    raise ValueError(f"no interpolation rule for space kind {kind}")


def interpolate_vector(space: Space, u1, u2) -> FieldFunction:
    """Vertex-value / edge-mean interpolant onto S2/G2 (bubbles set to 0)."""
    mesh = space.mesh
    if space.kind not in ("S2_0", "G2_0", "G2"):
        raise ValueError("interpolate_vector supports S2/G2 spaces")
    coeffs = np.zeros(space.ndof)
    vdofs = space.meta["vertex_dofs"]
    edofs = space.meta["edge_dofs"]
    for a in range(mesh.n_vertices):
        for comp, f in enumerate((u1, u2)):
            if vdofs[a, comp] >= 0:
                coeffs[vdofs[a, comp]] = float(f(mesh.vertices[a, 0],
                                                 mesh.vertices[a, 1]))
    for e in range(mesh.n_edges):
        for comp, f in enumerate((u1, u2)):
            if edofs[e, comp] >= 0:
                coeffs[edofs[e, comp]] = _edge_quad_moment(
                    mesh, e, f, EDGE_LEGENDRE[0])
    return FieldFunction(space, coeffs)


def _edge_normal_mean(mesh: Mesh, e: int, grad_u, degree: int = 12) -> float:
    rule = edge_rule(degree)
    va, vb = mesh.vertices[mesh.edges[e, 0]], mesh.vertices[mesh.edges[e, 1]]
    t = (vb - va) / np.linalg.norm(vb - va)
    n = np.array([t[1], -t[0]])  # canonical normal
    pts = va[None, :] + rule.points[:, None] * (vb - va)[None, :]
    gx, gy = grad_u(pts[:, 0], pts[:, 1])
    return float(np.sum(rule.weights * (np.asarray(gx) * n[0]
                                        + np.asarray(gy) * n[1])))


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
