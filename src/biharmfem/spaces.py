"""Global finite element spaces: DOF maps, assembly, and field evaluation.

A Space stores, per cell, a local basis (the element's nodal basis, or a
generator frame for the bubble-enriched velocity space) together with a
small matrix C mapping global coefficients to local basis coefficients.
Inter-cell identification of edge moments goes through canonical-edge
Legendre moments; orientation flips and normal signs live entirely in C.

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

import numpy as np
import scipy.sparse as sp

from .elements import ShapeFunction, element_catalog, nodal_coefficients
from .mesh import Mesh
from .polynomials import (EDGE_LEGENDRE, BaryPoly, poly1d_eval, poly_gradient,
                          poly_hessian)
from .quadrature import edge_rule, tri_rule

L0 = BaryPoly.lam(0)
L1 = BaryPoly.lam(1)
L2 = BaryPoly.lam(2)
LAMS = (L0, L1, L2)
THIRD = Fraction(1, 3)


@dataclass
class LocalBlock:
    cell: int
    shapes: tuple            # raw shape functions (shared per class)
    A: np.ndarray            # local basis = A @ shapes (shared per class)
    C: np.ndarray            # local coeffs = C @ u[cols]
    cols: np.ndarray
    key: tuple               # tabulation cache key (congruence class)


class Space:
    def __init__(self, mesh: Mesh, kind: str, vector: bool, ndof: int,
                 blocks: list[LocalBlock], poly_degree: int, meta: dict):
        self.mesh = mesh
        self.kind = kind
        self.vector = vector
        self.ndof = ndof
        self.blocks = blocks
        self.poly_degree = poly_degree
        self.meta = meta
        self._tab_cache: dict = {}

    def __repr__(self):
        return f"Space({self.kind}, ndof={self.ndof})"

    # -- local polynomial reconstruction -----------------------------------

    def cell_shape_coeffs(self, c: int, coeffs: np.ndarray) -> np.ndarray:
        blk = self.blocks[c]
        local = blk.C @ coeffs[blk.cols] if blk.cols.size else np.zeros(blk.C.shape[0])
        return blk.A.T @ local

    def cell_poly(self, c: int, coeffs: np.ndarray):
        """Cell-local polynomial(s): BaryPoly, or (BaryPoly, BaryPoly)."""
        blk = self.blocks[c]
        svec = self.cell_shape_coeffs(c, coeffs)
        geom = self.mesh.geometry(c)
        if self.vector:
            px, py = BaryPoly(), BaryPoly()
            for w, s in zip(svec, blk.shapes):
                if w == 0.0:
                    continue
                px = px + float(w) * s.component(0, geom)
                py = py + float(w) * s.component(1, geom)
            return px, py
        p = BaryPoly()
        for w, s in zip(svec, blk.shapes):
            if w != 0.0:
                p = p + float(w) * s.p.as_float()
        return p

    # -- tabulation ---------------------------------------------------------

    def tabulation(self, c: int, degree: int, order: int):
        """Values/derivatives of the local basis at the degree-`degree` rule.

        Returns dict with 'val' (ncomp, nloc, nq), and for order >= 1 'grad'
        (ncomp, nloc, nq, 2), for order >= 2 'hess' (ncomp, nloc, nq, 3).
        """
        blk = self.blocks[c]
        key = (blk.key, degree, order)
        hit = self._tab_cache.get(key)
        if hit is not None:
            return hit
        rule = tri_rule(degree)
        geom = self.mesh.geometry(c)
        ncomp = 2 if self.vector else 1
        nsh = len(blk.shapes)
        nq = rule.points.shape[0]
        val = np.zeros((ncomp, nsh, nq))
        grad = np.zeros((ncomp, nsh, nq, 2)) if order >= 1 else None
        hess = np.zeros((ncomp, nsh, nq, 3)) if order >= 2 else None
        for k, s in enumerate(blk.shapes):
            for comp in range(ncomp):
                p = s.component(comp, geom)
                if not isinstance(p, BaryPoly) or p.is_zero():
                    continue
                val[comp, k] = p.eval(rule.points)
                if order >= 1:
                    gx, gy = poly_gradient(p, geom.grad_lambda)
                    grad[comp, k, :, 0] = gx.eval(rule.points)
                    grad[comp, k, :, 1] = gy.eval(rule.points)
                if order >= 2:
                    hxx, hxy, hyy = poly_hessian(p, geom.grad_lambda)
                    hess[comp, k, :, 0] = hxx.eval(rule.points)
                    hess[comp, k, :, 1] = hxy.eval(rule.points)
                    hess[comp, k, :, 2] = hyy.eval(rule.points)
        A = blk.A
        out = {"val": np.einsum("ls,csq->clq", A, val)}
        if order >= 1:
            out["grad"] = np.einsum("ls,csqd->clqd", A, grad)
        if order >= 2:
            out["hess"] = np.einsum("ls,csqd->clqd", A, hess)
        self._tab_cache[key] = out
        return out


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
# global DOF layout helpers
# ---------------------------------------------------------------------------

class _DofAllocator:
    def __init__(self):
        self.count = 0

    def take(self, n: int = 1) -> int:
        base = self.count
        self.count += n
        return base


def _legendre_row(power: int, sign: int) -> np.ndarray:
    """Coefficients of (G0, G1, G2) reproducing fint lam_{i+1}^power v.

    lam_{i+1} = 1/2 - s*(t - 1/2) along the canonical parameter t, with
    s = +1 when the local edge direction agrees with the canonical one.
    """
    if power == 0:
        return np.array([1.0, 0.0, 0.0])
    if power == 1:
        return np.array([0.5, -float(sign), 0.0])
    if power == 2:
        return np.array([1.0 / 3.0, -float(sign), 1.0])
    raise ValueError(power)


def _rows_to_C(rows: list[list[tuple[int, float]]]):
    """Convert per-local-dof (global index, weight) lists to (C, cols)."""
    cols = sorted({g for row in rows for g, _ in row})
    index = {g: k for k, g in enumerate(cols)}
    C = np.zeros((len(rows), len(cols)))
    for l, row in enumerate(rows):
        for g, w in row:
            C[l, index[g]] += w
    return C, np.array(cols, dtype=np.int64)


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


def _element_classes(mesh: Mesh, elem):
    """Per-congruence-class nodal combination matrices."""
    cache: dict = {}
    out = []
    for c in range(mesh.n_cells):
        geom = mesh.geometry(c)
        sig = geom.signature()
        if sig not in cache:
            cache[sig] = nodal_coefficients(elem, geom).T.copy()
        out.append((sig, cache[sig]))
    return out


def _build_a3(mesh: Mesh) -> Space:
    elem = element_catalog("nsc")
    alloc = _DofAllocator()
    vdof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    for a in mesh.interior_vertices():
        vdof[a] = alloc.take()
    edof = np.full(mesh.n_edges, -1, dtype=np.int64)
    for e in mesh.interior_edges():
        edof[e] = alloc.take()
    cdof = np.array([alloc.take(4) for _ in range(mesh.n_cells)], dtype=np.int64)
    classes = _element_classes(mesh, elem)
    blocks = []
    for c in range(mesh.n_cells):
        rows: list[list] = []
        for i in range(3):
            g = vdof[mesh.cells[c, i]]
            rows.append([(int(g), 1.0)] if g >= 0 else [])
        for i in range(3):
            g = edof[mesh.cell_edges[c, i]]
            rows.append([(int(g), 1.0)] if g >= 0 else [])
        for j in range(4):
            rows.append([(int(cdof[c] + j), 1.0)])
        C, cols = _rows_to_C(rows)
        sig, A = classes[c]
        blocks.append(LocalBlock(c, elem.shapes, A, C, cols, (sig,)))
    meta = {"vertex_dof": vdof, "edge_dof": edof, "cell_dof0": cdof,
            "element": elem}
    return Space(mesh, "A3_0", False, alloc.count, blocks, 3, meta)


def _build_a4(mesh: Mesh) -> Space:
    elem = element_catalog("nsq")
    alloc = _DofAllocator()
    vdof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    for a in mesh.interior_vertices():
        vdof[a] = alloc.take()
    edofs = np.full((mesh.n_edges, 3), -1, dtype=np.int64)  # G0, G1, GN
    for e in mesh.interior_edges():
        edofs[e] = [alloc.take(), alloc.take(), alloc.take()]
    cdofs = np.array([alloc.take(3) for _ in range(mesh.n_cells)],
                     dtype=np.int64)
    classes = _element_classes(mesh, elem)
    blocks = []
    for c in range(mesh.n_cells):
        rows: list[list] = []
        for i in range(3):
            g = vdof[mesh.cells[c, i]]
            rows.append([(int(g), 1.0)] if g >= 0 else [])
        for power in (0, 1):
            for i in range(3):
                e = mesh.cell_edges[c, i]
                if edofs[e, 0] < 0:
                    rows.append([])
                    continue
                lr = _legendre_row(power, int(mesh.cell_edge_signs[c, i]))
                rows.append([(int(edofs[e, m]), lr[m]) for m in range(2)
                             if lr[m] != 0.0])
        for i in range(3):
            e = mesh.cell_edges[c, i]
            if edofs[e, 2] < 0:
                rows.append([])
            else:
                rows.append([(int(edofs[e, 2]),
                              float(mesh.cell_edge_signs[c, i]))])
        for j in range(3):
            rows.append([(int(cdofs[c] + j), 1.0)])
        C, cols = _rows_to_C(rows)
        sig, A = classes[c]
        blocks.append(LocalBlock(c, elem.shapes, A, C, cols, (sig,)))
    meta = {"vertex_dof": vdof, "edge_dofs": edofs, "cell_dof0": cdofs,
            "element": elem}
    return Space(mesh, "A4_0", False, alloc.count, blocks, 4, meta)


def _build_morley(mesh: Mesh) -> Space:
    elem = element_catalog("morley")
    alloc = _DofAllocator()
    vdof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    for a in mesh.interior_vertices():
        vdof[a] = alloc.take()
    edof = np.full(mesh.n_edges, -1, dtype=np.int64)
    for e in mesh.interior_edges():
        edof[e] = alloc.take()
    classes = _element_classes(mesh, elem)
    blocks = []
    for c in range(mesh.n_cells):
        rows: list[list] = []
        for i in range(3):
            g = vdof[mesh.cells[c, i]]
            rows.append([(int(g), 1.0)] if g >= 0 else [])
        for i in range(3):
            g = edof[mesh.cell_edges[c, i]]
            rows.append([(int(g), float(mesh.cell_edge_signs[c, i]))]
                        if g >= 0 else [])
        C, cols = _rows_to_C(rows)
        sig, A = classes[c]
        blocks.append(LocalBlock(c, elem.shapes, A, C, cols, (sig,)))
    meta = {"vertex_dof": vdof, "edge_dof": edof, "element": elem}
    return Space(mesh, "Morley_0", False, alloc.count, blocks, 2, meta)


def _build_lagrange(mesh: Mesh, k: int) -> Space:
    elem = element_catalog(f"p{k}")
    alloc = _DofAllocator()
    vdof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    for a in mesh.interior_vertices():
        vdof[a] = alloc.take()
    npts = k - 1
    edofs = np.full((mesh.n_edges, max(npts, 1)), -1, dtype=np.int64)
    if npts:
        for e in mesh.interior_edges():
            for j in range(npts):
                edofs[e, j] = alloc.take()
    ncell = {1: 0, 2: 0, 3: 1, 4: 3}[k]
    cdofs = np.array([alloc.take(ncell) if ncell else 0
                      for _ in range(mesh.n_cells)], dtype=np.int64)
    classes = _element_classes(mesh, elem)
    blocks = []
    for c in range(mesh.n_cells):
        rows: list[list] = []
        for i in range(3):
            g = vdof[mesh.cells[c, i]]
            rows.append([(int(g), 1.0)] if g >= 0 else [])
        for i in range(3):
            e = mesh.cell_edges[c, i]
            s = int(mesh.cell_edge_signs[c, i])
            for step in range(1, k):
                if edofs[e, 0] < 0:
                    rows.append([])
                    continue
                idx = step - 1 if s == 1 else (k - step) - 1
                rows.append([(int(edofs[e, idx]), 1.0)])
        for j in range(ncell):
            rows.append([(int(cdofs[c] + j), 1.0)])
        C, cols = _rows_to_C(rows)
        sig, A = classes[c]
        blocks.append(LocalBlock(c, elem.shapes, A, C, cols, (sig,)))
    meta = {"vertex_dof": vdof, "edge_dofs": edofs, "cell_dof0": cdofs,
            "element": elem, "order": k}
    return Space(mesh, f"Lagrange{k}_0", False, alloc.count, blocks, k, meta)


_BUBBLE = (L0 * L0 + L1 * L1 + L2 * L2) - Fraction(2, 3)


def _vec_shape(p: BaryPoly, comp: int) -> ShapeFunction:
    z = BaryPoly()
    return ShapeFunction(kind="vector", px=p if comp == 0 else z,
                         py=p if comp == 1 else z)


def _build_s2g2(mesh: Mesh, bubbles: bool, bc: bool) -> Space:
    fs = element_catalog("fs")
    ref_geom = mesh.geometry(0)
    Afs = nodal_coefficients(fs, ref_geom).T  # geometry independent
    alloc = _DofAllocator()
    nv, ne = mesh.n_vertices, mesh.n_edges
    vdofs = np.full((nv, 2), -1, dtype=np.int64)
    for a in (range(nv) if not bc else mesh.interior_vertices()):
        vdofs[a] = [alloc.take(), alloc.take()]
    edofs = np.full((ne, 2), -1, dtype=np.int64)
    for e in (range(ne) if not bc else mesh.interior_edges()):
        edofs[e] = [alloc.take(), alloc.take()]
    bdofs = None
    if bubbles:
        bdofs = np.array([[alloc.take(), alloc.take()]
                          for _ in range(mesh.n_cells)], dtype=np.int64)
    nloc_comp = 7 if bubbles else 6
    shapes = []
    for comp in range(2):
        shapes += [_vec_shape(s.p, comp) for s in fs.shapes]
        if bubbles:
            shapes.append(_vec_shape(_BUBBLE, comp))
    A = np.zeros((2 * nloc_comp, len(shapes)))
    off_sh = len(fs.shapes) + (1 if bubbles else 0)
    for comp in range(2):
        A[comp * nloc_comp: comp * nloc_comp + 6,
          comp * off_sh: comp * off_sh + 6] = Afs
        if bubbles:
            A[comp * nloc_comp + 6, comp * off_sh + 6] = 1.0
    shapes = tuple(shapes)
    blocks = []
    for c in range(mesh.n_cells):
        rows: list[list] = []
        for comp in range(2):
            for i in range(3):
                g = vdofs[mesh.cells[c, i], comp]
                rows.append([(int(g), 1.0)] if g >= 0 else [])
            for i in range(3):
                g = edofs[mesh.cell_edges[c, i], comp]
                rows.append([(int(g), 1.0)] if g >= 0 else [])
            if bubbles:
                rows.append([(int(bdofs[c, comp]), 1.0)])
        C, cols = _rows_to_C(rows)
        sig = mesh.geometry(c).signature()
        blocks.append(LocalBlock(c, shapes, A, C, cols, ("s2g2", bubbles, sig)))
    kind = ("G2_0" if bc else "G2") if bubbles else "S2_0"
    meta = {"vertex_dofs": vdofs, "edge_dofs": edofs, "bubble_dofs": bdofs,
            "bc": bc}
    return Space(mesh, kind, True, alloc.count, blocks, 2, meta)


def _build_g3(mesh: Mesh, bc: bool) -> Space:
    cf = element_catalog("cf")
    classes = _element_classes(mesh, cf)
    alloc = _DofAllocator()
    ne = mesh.n_edges
    edofs = np.full((ne, 2, 3), -1, dtype=np.int64)  # edge, comp, moment
    for e in (range(ne) if not bc else mesh.interior_edges()):
        for comp in range(2):
            for m in range(3):
                edofs[e, comp, m] = alloc.take()
    cdofs = np.array([[alloc.take(), alloc.take()]
                      for _ in range(mesh.n_cells)], dtype=np.int64)
    shapes0 = tuple([_vec_shape(s.p, 0) for s in cf.shapes]
                    + [_vec_shape(s.p, 1) for s in cf.shapes])
    a_cache: dict = {}
    blocks = []
    for c in range(mesh.n_cells):
        sig, Acf = classes[c]
        if sig not in a_cache:
            A2 = np.zeros((20, 20))
            A2[:10, :10] = Acf
            A2[10:, 10:] = Acf
            a_cache[sig] = A2
        A = a_cache[sig]
        rows: list[list] = []
        for comp in range(2):
            for power in range(3):
                for i in range(3):
                    e = mesh.cell_edges[c, i]
                    if edofs[e, comp, 0] < 0:
                        rows.append([])
                        continue
                    lr = _legendre_row(power, int(mesh.cell_edge_signs[c, i]))
                    rows.append([(int(edofs[e, comp, m]), lr[m])
                                 for m in range(3) if lr[m] != 0.0])
            rows.append([(int(cdofs[c, comp]), 1.0)])
        C, cols = _rows_to_C(rows)
        blocks.append(LocalBlock(c, shapes0, A, C, cols, (sig,)))
    meta = {"edge_dofs": edofs, "cell_dofs": cdofs, "bc": bc}
    return Space(mesh, "G3_0" if bc else "G3", True, alloc.count, blocks, 3,
                 meta)


def _pressure_modes(k: int) -> list[BaryPoly]:
    if k == 0:
        return []
    modes = [L0 - THIRD, L1 - THIRD]
    if k == 2:
        modes += [L0 * L0 - Fraction(1, 6), L1 * L1 - Fraction(1, 6),
                  L0 * L1 - Fraction(1, 12)]
    return modes


def _haar_tree(areas: np.ndarray):
    """L2-orthonormal mean-zero basis over cell constants.

    Returns per-cell lists of (haar index, value on that cell).
    """
    n = len(areas)
    per_cell: list[list] = [[] for _ in range(n)]
    counter = [0]

    def rec(lo, hi):
        if hi - lo < 2:
            return
        mid = (lo + hi) // 2
        aL = float(areas[lo:mid].sum())
        aR = float(areas[mid:hi].sum())
        norm = np.sqrt(aL * aR * (aL + aR))
        idx = counter[0]
        counter[0] += 1
        for c in range(lo, mid):
            per_cell[c].append((idx, aR / norm))
        for c in range(mid, hi):
            per_cell[c].append((idx, -aL / norm))
        rec(lo, mid)
        rec(mid, hi)

    rec(0, n)
    assert counter[0] == max(n - 1, 0)
    return per_cell, counter[0]


def _build_pressure(mesh: Mesh, k: int) -> Space:
    modes = _pressure_modes(k)
    nmodes = len(modes)
    areas = np.array([mesh.geometry(c).area for c in range(mesh.n_cells)])
    haar_per_cell, nhaar = _haar_tree(areas)
    nT = mesh.n_cells
    ndof = nT * nmodes + nhaar
    shapes = tuple([ShapeFunction(kind="scalar", p=BaryPoly.const(Fraction(1)))]
                   + [ShapeFunction(kind="scalar", p=m) for m in modes])
    A = np.eye(1 + nmodes)
    blocks = []
    for c in range(nT):
        rows: list[list] = [[(nT * nmodes + h, w) for h, w in haar_per_cell[c]]]
        for j in range(nmodes):
            rows.append([(c * nmodes + j, 1.0)])
        C, cols = _rows_to_C(rows)
        sig = mesh.geometry(c).signature()
        blocks.append(LocalBlock(c, shapes, A, C, cols, ("pres", k, sig)))
    meta = {"order": k, "n_modes": nmodes, "n_haar": nhaar}
    return Space(mesh, f"P{k}_0", False, ndof, blocks, k, meta)


def _build_dg(mesh: Mesh, k: int) -> Space:
    modes = _pressure_modes(k)
    nmodes = len(modes)
    shapes = tuple([ShapeFunction(kind="scalar", p=BaryPoly.const(Fraction(1)))]
                   + [ShapeFunction(kind="scalar", p=m) for m in modes])
    A = np.eye(1 + nmodes)
    per_cell = 1 + nmodes
    blocks = []
    for c in range(mesh.n_cells):
        cols = np.arange(c * per_cell, (c + 1) * per_cell, dtype=np.int64)
        sig = mesh.geometry(c).signature()
        blocks.append(LocalBlock(c, shapes, A, np.eye(per_cell), cols,
                                 ("dg", k, sig)))
    meta = {"order": k, "per_cell": per_cell}
    return Space(mesh, f"DG{k}", False, mesh.n_cells * per_cell, blocks, k,
                 meta)


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


def _local_matrix(form, trial: Space, test: Space, c: int, degree: int):
    rule = tri_rule(degree)
    w = rule.weights
    area = trial.mesh.geometry(c).area
    if form == "mass":
        tt = test.tabulation(c, degree, 0)["val"]
        tr = trial.tabulation(c, degree, 0)["val"]
        M = sum(np.einsum("lq,q,mq->lm", tt[comp], w, tr[comp])
                for comp in range(tt.shape[0]))
        return area * M
    if form == "grad_grad":
        tt = test.tabulation(c, degree, 1)["grad"]
        tr = trial.tabulation(c, degree, 1)["grad"]
        M = sum(np.einsum("lqd,q,mqd->lm", tt[comp], w, tr[comp])
                for comp in range(tt.shape[0]))
        return area * M
    if form == "hess_hess":
        tt = test.tabulation(c, degree, 2)["hess"]
        tr = trial.tabulation(c, degree, 2)["hess"]
        weights = np.array([1.0, 2.0, 1.0])  # xx, xy (twice), yy
        M = sum(np.einsum("lqd,q,d,mqd->lm", tt[comp], w, weights, tr[comp])
                for comp in range(tt.shape[0]))
        return area * M
    if form == "rot_pressure":
        # (q, rot v) with rot v = d(v2)/dx - d(v1)/dy; trial vector, test scalar
        if not trial.vector or test.vector:
            raise ValueError("rot_pressure needs vector trial, scalar test")
        tq = test.tabulation(c, degree, 0)["val"][0]
        gv = trial.tabulation(c, degree, 1)["grad"]
        rot = gv[1, :, :, 0] - gv[0, :, :, 1]
        return area * np.einsum("lq,q,mq->lm", tq, w, rot)
    if form == "vecfield_grad":
        # (v, grad w): trial vector v, test scalar w
        if not trial.vector or test.vector:
            raise ValueError("vecfield_grad needs vector trial, scalar test")
        gw = test.tabulation(c, degree, 1)["grad"]
        tv = trial.tabulation(c, degree, 0)["val"]
        M = area * (np.einsum("lq,q,mq->lm", gw[0, :, :, 0], w, tv[0])
                    + np.einsum("lq,q,mq->lm", gw[0, :, :, 1], w, tv[1]))
        return M
    raise ValueError(f"unknown form '{form}'")


def assemble_bilinear(trial: Space, test: Space, form: str,
                      quad_degree: int | None = None) -> sp.csr_matrix:
    if trial.mesh is not test.mesh:
        raise ValueError("trial and test spaces live on different meshes")
    if quad_degree is None:
        quad_degree = max(trial.poly_degree + test.poly_degree, 2)
    cache: dict = {}
    rows, cols, vals = [], [], []
    for c in range(trial.mesh.n_cells):
        bt = test.blocks[c]
        br = trial.blocks[c]
        key = (bt.key, br.key, trial.mesh.geometry(c).signature())
        Mloc = cache.get(key)
        if Mloc is None:
            Mloc = _local_matrix(form, trial, test, c, quad_degree)
            cache[key] = Mloc
        contrib = bt.C.T @ Mloc @ br.C
        if bt.cols.size == 0 or br.cols.size == 0:
            continue
        r = np.repeat(bt.cols, br.cols.size)
        k = np.tile(br.cols, bt.cols.size)
        rows.append(r)
        cols.append(k)
        vals.append(contrib.ravel())
    if rows:
        M = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(test.ndof, trial.ndof))
    else:
        M = sp.coo_matrix((test.ndof, trial.ndof))
    out = M.tocsr()
    out.sum_duplicates()
    mag = np.abs(out.data)
    if mag.size:
        out.data[mag <= ROUNDOFF_RTOL * mag.max()] = 0.0
    out.eliminate_zeros()
    out.sort_indices()
    return out


def assemble_load(space: Space, f, quad_degree: int = 12) -> np.ndarray:
    if space.vector:
        raise ValueError("loads are assembled against scalar spaces only")
    rule = tri_rule(quad_degree)
    out = np.zeros(space.ndof)
    for c in range(space.mesh.n_cells):
        geom = space.mesh.geometry(c)
        xy = rule.points @ geom.verts
        fv = np.asarray(f(xy[:, 0], xy[:, 1]), dtype=float)
        tab = space.tabulation(c, quad_degree, 0)["val"][0]
        lloc = geom.area * (tab @ (rule.weights * fv))
        blk = space.blocks[c]
        if blk.cols.size:
            np.add.at(out, blk.cols, blk.C.T @ lloc)
    return out


# ---------------------------------------------------------------------------
# field evaluation / error norms
# ---------------------------------------------------------------------------

def _locate_arrays(mesh: Mesh):
    hit = getattr(mesh, "_locate_arrays_cache", None)
    if hit is None:
        gl = np.stack([mesh.geometry(c).grad_lambda
                       for c in range(mesh.n_cells)])
        verts = np.stack([mesh.geometry(c).verts for c in range(mesh.n_cells)])
        offs = 1.0 - np.einsum("cid,cid->ci", gl, verts)
        hit = (gl, offs)
        mesh._locate_arrays_cache = hit
    return hit


def locate_cell(mesh: Mesh, point) -> int:
    """Deterministic point location: lowest cell index containing the point."""
    pt = np.asarray(point, dtype=float)
    gl, offs = _locate_arrays(mesh)
    lam = gl @ pt + offs
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


def error_norms(field: FieldFunction, u, grad_u=None, hess_u=None,
                quad_degree: int = 17):
    """(L2, broken H1 seminorm, broken H2 seminorm) errors against callbacks."""
    space = field.space
    if space.vector:
        raise ValueError("error_norms expects a scalar field")
    rule = tri_rule(quad_degree)
    order = 2 if hess_u is not None else (1 if grad_u is not None else 0)
    acc = np.zeros(3)
    for c in range(space.mesh.n_cells):
        geom = space.mesh.geometry(c)
        xy = rule.points @ geom.verts
        x, y = xy[:, 0], xy[:, 1]
        tab = space.tabulation(c, quad_degree, order)
        blk = space.blocks[c]
        local = blk.C @ field.coeffs[blk.cols] if blk.cols.size else \
            np.zeros(blk.C.shape[0])
        vals = local @ tab["val"][0]
        diff = vals - np.asarray(u(x, y), dtype=float)
        acc[0] += geom.area * np.sum(rule.weights * diff**2)
        if order >= 1:
            g = np.einsum("l,lqd->qd", local, tab["grad"][0])
            gx, gy = grad_u(x, y)
            acc[1] += geom.area * np.sum(
                rule.weights * ((g[:, 0] - gx)**2 + (g[:, 1] - gy)**2))
        if order >= 2:
            h = np.einsum("l,lqd->qd", local, tab["hess"][0])
            hxx, hxy, hyy = hess_u(x, y)
            acc[2] += geom.area * np.sum(
                rule.weights * ((h[:, 0] - hxx)**2 + 2 * (h[:, 1] - hxy)**2
                                + (h[:, 2] - hyy)**2))
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
