"""Local finite elements as Ciarlet triples.

Each element stores its shape functions exactly as spanning sets of
barycentric polynomials and an ordered list of degree-of-freedom functionals.
Vector elements may carry gradient-type shape functions (the field is the
cartesian gradient of a scalar potential); those depend on the cell geometry.

All integral functionals are *averages* over edges and cells.  Normal
derivatives use the outward normal, n_i = -grad(lam_i)/||grad(lam_i)|| on
edge i.  Exact evaluation (Fraction arithmetic) reports normal moments as the
coefficient of ||grad(lam_i)||, which is rational on rational triangles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .mesh import cell_geometry
from .polynomials import (BaryPoly, poly1d_average01, poly1d_mul,
                          poly_directional)
from .quadrature import tri_rule

L = [BaryPoly.lam(0), BaryPoly.lam(1), BaryPoly.lam(2)]
LAM = L[0] * L[1] * L[2]
ONE = BaryPoly.const(Fraction(1))


def edge_weight_poly(i: int, power: int) -> BaryPoly:
    """lam_{i+1}^power as a weight on edge e_i (cell-local convention)."""
    out = ONE
    for _ in range(power):
        out = out * L[(i + 1) % 3]
    return out


@dataclass(frozen=True)
class DofFunctional:
    """One degree of freedom.

    kind: 'vertex' | 'point' | 'edge' | 'edge_normal' | 'cell' | 'cell_vec'
    entity: vertex/edge index 0..2 (ignored for cell kinds)
    weight: barycentric weight polynomial for moment kinds
    component: which field component the functional reads (vector elements)
    point: barycentric coordinates for 'point'
    vec_weight: (wx, wy) for 'cell_vec' (fint wx v1 + wy v2)
    """

    kind: str
    entity: int = 0
    weight: BaryPoly | None = None
    component: int = 0
    point: tuple | None = None
    vec_weight: tuple | None = None


@dataclass(frozen=True)
class ShapeFunction:
    """Tagged shape function: scalar, fixed vector, or gradient of a potential."""

    kind: str                      # 'scalar' | 'vector' | 'gradient'
    p: BaryPoly | None = None      # scalar / potential
    px: BaryPoly | None = None
    py: BaryPoly | None = None

    def component(self, comp: int, geom) -> BaryPoly:
        """The given cartesian component as a BaryPoly (geometry applied)."""
        if self.kind == "scalar":
            if comp != 0:
                raise ValueError("scalar shape has one component")
            return self.p
        if self.kind == "vector":
            return self.px if comp == 0 else self.py
        gl = getattr(geom, "grad_lambda", geom)
        return poly_directional(self.p, [gl[j][comp] for j in range(3)])


@dataclass(frozen=True)
class ElementDef:
    name: str
    vector: bool
    shapes: tuple
    dofs: tuple
    degree: int
    needs_interior_construction: bool = False

    @property
    def dim(self) -> int:
        return len(self.shapes)


@dataclass(frozen=True)
class ExactGeometry:
    """Rational substitute for CellGeometry used by the golden-table paths."""

    verts: tuple
    grad_lambda: tuple   # 3 x 2 Fractions
    gram: tuple          # 3 x 3 Fractions

    @staticmethod
    def from_vertices(verts) -> "ExactGeometry":
        v = [(Fraction(a), Fraction(b)) for a, b in verts]
        e1 = (v[1][0] - v[0][0], v[1][1] - v[0][1])
        e2 = (v[2][0] - v[0][0], v[2][1] - v[0][1])
        det = e1[0] * e2[1] - e1[1] * e2[0]
        if det <= 0:
            raise ValueError("vertices must be counter-clockwise")
        gl = []
        for i in range(3):
            a, b = v[(i + 1) % 3], v[(i + 2) % 3]
            opp = (b[0] - a[0], b[1] - a[1])
            gl.append((-opp[1] / det, opp[0] / det))
        gram = tuple(tuple(gl[i][0] * gl[j][0] + gl[i][1] * gl[j][1]
                           for j in range(3)) for i in range(3))
        return ExactGeometry(verts=tuple(v), grad_lambda=tuple(gl), gram=gram)


REFERENCE_EXACT = ExactGeometry.from_vertices([(0, 0), (1, 0), (0, 1)])


def _edge_average(poly: BaryPoly, i: int, weight: BaryPoly | None):
    restricted = poly.restrict_edge(i)
    if weight is not None:
        restricted = poly1d_mul(weight.restrict_edge(i), restricted)
    return poly1d_average01(restricted)


def eval_dof(dof: DofFunctional, shape: ShapeFunction, geom, exact: bool = False):
    """Apply one DOF functional to one shape function.

    With exact=True, geom must be an ExactGeometry and normal moments return
    the coefficient of ||grad(lam_k)|| (exact rational); otherwise the true
    float value is returned.
    """
    gram = geom.gram
    if dof.kind == "cell_vec":
        wx, wy = dof.vec_weight
        total = (wx * shape.component(0, geom)).cell_average() + \
                (wy * shape.component(1, geom)).cell_average()
        return total if exact else float(total)
    p = shape.component(dof.component, geom)
    if dof.kind == "vertex":
        unit = [Fraction(0)] * 3
        unit[dof.entity] = Fraction(1)
        val = p.eval_exact(tuple(unit))
        return val if exact else float(val)
    if dof.kind == "point":
        val = p.eval_exact(dof.point)
        return val if exact else float(val)
    if dof.kind == "cell":
        val = (dof.weight * p).cell_average() if dof.weight is not None \
            else p.cell_average()
        return val if exact else float(val)
    if dof.kind == "edge":
        val = _edge_average(p, dof.entity, dof.weight)
        return val if exact else float(val)
    if dof.kind == "edge_normal":
        k = dof.entity
        # d_n p = -(grad p . grad lam_k)/||grad lam_k||
        directional = poly_directional(p, [gram[j][k] for j in range(3)])
        raw = -_edge_average(directional, k, dof.weight)
        if exact:
            return raw / gram[k][k]          # coefficient of ||grad lam_k||
        return float(raw) / float(np.sqrt(float(gram[k][k])))
    raise ValueError(f"unknown dof kind {dof.kind}")


@lru_cache(maxsize=None)
def _reference_tensors(name: str):
    """The geometry-free parts (M0, T, sel) of an element's DOF rows.

    On a cell with gradients gl and Gram matrix g, DOF row i (cell_vec rows
    aside) is M0[i] + sum_j F[j, sel[i]] T[i, j] / s[sel[i]], F = [g | gl],
    s = [sqrt(diag g) | 1, 1]: an edge_normal row on edge k has sel = k (see
    eval_dof), a component-c row reading gradient shapes sel = 3 + c.
    """
    elem = element_catalog(name)
    rows = [d for d in elem.dofs if d.kind != "cell_vec"]
    M0 = np.zeros((len(rows), elem.dim))
    T = np.zeros((len(rows), 3, elem.dim))
    sel = np.zeros(len(rows), dtype=np.int64)
    for i, d in enumerate(rows):
        normal = d.kind == "edge_normal"
        sel[i] = d.entity if normal else 3 + d.component
        plain = replace(d, kind="edge" if normal else d.kind, component=0)
        for s, shape in enumerate(elem.shapes):
            if not normal and shape.kind != "gradient":
                M0[i, s] = float(eval_dof(d, shape, REFERENCE_EXACT, exact=True))
                continue
            if normal and shape.kind != "scalar":
                raise ValueError(f"{name}: normal DOFs need scalar shapes")
            for j in range(3):
                val = eval_dof(plain, _scalar(shape.p.dlam(j)),
                               REFERENCE_EXACT, exact=True)
                T[i, j, s] = -float(val) if normal else float(val)
    for arr in (M0, T, sel):
        arr.setflags(write=False)
    return M0, T, sel


def _affine_rows(elem: ElementDef, gl: np.ndarray) -> np.ndarray:
    """All DOF rows but cell_vec on a (ncells, 3, 2) grad_lambda stack."""
    M0, T, sel = _reference_tensors(elem.name)
    g = np.einsum("cid,cjd->cij", gl, gl)
    F = np.concatenate([g, gl], axis=2)
    scale = np.concatenate([np.sqrt(np.diagonal(g, axis1=1, axis2=2)),
                            np.ones((len(gl), 2))], axis=1)
    return M0 + np.einsum("cji,ijs->cis", F[:, :, sel], T) \
        / scale[:, sel, None]


def _interior_weights(elem: ElementDef, gl: np.ndarray, moments: np.ndarray):
    """FE_vec interior dofs: vector weights annihilated by the moment dofs.

    The weights span the kernel of each cell's moment rows inside the shape
    space (SVD) and are made L2-orthonormal by a Cholesky factor of their
    Gram matrix.  Returns their coefficients K (ncells, nint, nshape) in the
    shape basis and the shape mass matrix G, so the dof rows are K @ G.
    """
    rule = tri_rule(2 * elem.degree)     # exact for products of two shapes
    F = np.zeros((len(gl), 2, elem.dim, len(rule.weights)))
    for s, shape in enumerate(elem.shapes):
        if shape.kind == "gradient":
            F[:, :, s] = np.einsum("cjk,jq->ckq", gl, [
                shape.p.dlam(j).eval(rule.points) for j in range(3)])
        else:
            F[:, :, s] = [shape.component(k, None).eval(rule.points)
                          for k in range(2)]
    G = np.einsum("cksq,q,cktq->cst", F, rule.weights, F)
    K = np.linalg.svd(moments)[2][:, moments.shape[1]:]
    return np.linalg.solve(np.linalg.cholesky(
        K @ G @ K.transpose(0, 2, 1)), K), G


def dof_matrices(elem: ElementDef, grad_lambda) -> np.ndarray:
    """M[c, i, s] = D_i(shape_s) on every cell of a (ncells, 3, 2) grad_lambda
    stack, from the element's reference tensors."""
    gl = np.asarray(grad_lambda, dtype=float)
    M = _affine_rows(elem, gl)
    if elem.needs_interior_construction:
        K, G = _interior_weights(elem, gl, M)
        M = np.concatenate([M, K @ G], axis=1)
    return M


def _combination(elem: ElementDef, coefs, geom):
    """sum_s coefs[s] shape_s: a BaryPoly, or a (px, py) pair if vector."""
    comps = [BaryPoly() for _ in range(2 if elem.vector else 1)]
    for c, s in zip(coefs, elem.shapes):
        if c != 0.0:
            comps = [q + float(c) * s.component(k, geom)
                     for k, q in enumerate(comps)]
    return tuple(comps) if elem.vector else comps[0]


def resolved_dofs(elem: ElementDef, geom) -> list[DofFunctional]:
    out = [d for d in elem.dofs if d.kind != "cell_vec"]
    if not elem.needs_interior_construction:
        return out
    gl = np.asarray([geom.grad_lambda], dtype=float)
    K = _interior_weights(elem, gl, _affine_rows(elem, gl))[0][0]
    return out + [DofFunctional(kind="cell_vec",
                                vec_weight=_combination(elem, k, geom))
                  for k in K]


def dof_matrix(elem: ElementDef, geom, exact: bool = False):
    """M[i, j] = D_i(shape_j).  exact=True uses Fractions (see eval_dof)."""
    if exact:
        if elem.needs_interior_construction:
            raise ValueError(f"{elem.name} has no exact dof matrix")
        return [[eval_dof(d, s, geom, exact=True) for s in elem.shapes]
                for d in elem.dofs]
    return dof_matrices(elem, [geom.grad_lambda])[0]


#: a DOF matrix with sigma_min <= NODAL_SIGMA_TOL * sigma_max is not unisolvent
NODAL_SIGMA_TOL = 1e-13


def nodal_coefficients(elem: ElementDef, grad_lambda) -> np.ndarray:
    """Inverse DOF matrices on a (ncells, 3, 2) grad_lambda stack: column j
    of cell c's matrix expresses nodal basis function j in the shape basis."""
    M = dof_matrices(elem, grad_lambda)
    sv = np.linalg.svd(M, compute_uv=False)
    if np.any(sv[:, -1] <= NODAL_SIGMA_TOL * sv[:, 0]):
        raise ValueError(f"unisolvence failure for {elem.name}: sigma_min/"
                         f"sigma_max = {np.min(sv[:, -1] / sv[:, 0]):.3e}")
    return np.linalg.inv(M)


def nodal_basis(elem: ElementDef, geom):
    """Nodal basis polynomials (scalar: BaryPoly, vector: (px, py))."""
    Minv = nodal_coefficients(elem, [geom.grad_lambda])[0]
    return [_combination(elem, Minv[:, j], geom) for j in range(elem.dim)]


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


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def _scalar(p: BaryPoly) -> ShapeFunction:
    return ShapeFunction(kind="scalar", p=p)


def _p2_shapes() -> list[ShapeFunction]:
    return [_scalar(L[i] * L[i]) for i in range(3)] + \
           [_scalar(L[i] * L[(i + 1) % 3]) for i in range(3)]


def _s_poly(i: int) -> BaryPoly:
    j = (i + 1) % 3
    return L[i] * L[i] * L[j] - L[i] * L[j] * L[j]


def _p3_shapes() -> list[ShapeFunction]:
    return _p2_shapes() + [_scalar(_s_poly(i)) for i in range(3)] + [_scalar(LAM)]


def _phi4(i: int) -> BaryPoly:
    j = (i + 1) % 3
    return (L[i] * L[i] * L[i] * L[j] - 3 * (L[i] * L[i]) * (L[j] * L[j])
            + L[i] * (L[j] * L[j] * L[j]))


def _p4_shapes() -> list[ShapeFunction]:
    # P3 basis plus {phi_i} and {lam_i Lam, i = 1, 2}; sum_i lam_i Lam = Lam
    out = _p3_shapes()
    out += [_scalar(_phi4(i)) for i in range(3)]
    out += [_scalar(L[i] * LAM) for i in range(2)]
    return out


def _vertex_dofs() -> list[DofFunctional]:
    return [DofFunctional(kind="vertex", entity=i) for i in range(3)]


def _edge_mean_dofs(component: int = 0) -> list[DofFunctional]:
    return [DofFunctional(kind="edge", entity=i, component=component)
            for i in range(3)]


def _make_nsc() -> ElementDef:
    dofs = _vertex_dofs() + _edge_mean_dofs() + \
        [DofFunctional(kind="cell", weight=_s_poly(i)) for i in range(3)] + \
        [DofFunctional(kind="cell")]
    return ElementDef("nsc", False, tuple(_p3_shapes()), tuple(dofs), 3)


def _make_nsq() -> ElementDef:
    dofs = (_vertex_dofs() + _edge_mean_dofs()
            + [DofFunctional(kind="edge", entity=i, weight=edge_weight_poly(i, 1))
               for i in range(3)]
            + [DofFunctional(kind="edge_normal", entity=i) for i in range(3)]
            + [DofFunctional(kind="cell", weight=L[i]) for i in range(3)])
    return ElementDef("nsq", False, tuple(_p4_shapes()), tuple(dofs), 4)


def _make_ec() -> ElementDef:
    shapes = [_scalar(3 * (L[i] * L[i]) - 2 * L[i]) for i in range(3)]
    shapes += [_scalar(L[i] * L[(i + 1) % 3]) for i in range(3)]
    shapes += [_scalar(_s_poly(i)) for i in range(3)]
    shapes += [_scalar(L[i] * LAM) for i in range(3)]
    dofs = (_vertex_dofs() + _edge_mean_dofs()
            + [DofFunctional(kind="edge_normal", entity=i) for i in range(3)]
            + [DofFunctional(kind="edge_normal", entity=i,
                             weight=edge_weight_poly(i, 1)) for i in range(3)])
    return ElementDef("ec", False, tuple(shapes), tuple(dofs), 4)


def _make_eq() -> ElementDef:
    shapes = _p4_shapes() + [_scalar(_s_poly(i) * LAM) for i in range(3)]
    dofs = (_vertex_dofs() + _edge_mean_dofs()
            + [DofFunctional(kind="edge", entity=i, weight=edge_weight_poly(i, 1))
               for i in range(3)]
            + [DofFunctional(kind="edge_normal", entity=i) for i in range(3)]
            + [DofFunctional(kind="edge_normal", entity=i,
                             weight=edge_weight_poly(i, 1)) for i in range(3)]
            + [DofFunctional(kind="edge_normal", entity=i,
                             weight=edge_weight_poly(i, 2)) for i in range(3)])
    return ElementDef("eq", False, tuple(shapes), tuple(dofs), 6)


def _vec(p: BaryPoly, comp: int) -> ShapeFunction:
    z = BaryPoly()
    return ShapeFunction(kind="vector", px=p if comp == 0 else z,
                         py=p if comp == 1 else z)


def _make_veq() -> ElementDef:
    eta = [L[i] * L[i] for i in range(3)] + \
          [L[i] * L[(i + 1) % 3] for i in range(3)]
    shapes = [_vec(e, 0) for e in eta] + [_vec(e, 1) for e in eta]
    shapes += [ShapeFunction(kind="gradient", p=L[0] * LAM),
               ShapeFunction(kind="gradient", p=L[1] * LAM)]
    dofs = []
    for comp in range(2):
        dofs += [DofFunctional(kind="edge", entity=i, component=comp)
                 for i in range(3)]
        dofs += [DofFunctional(kind="edge", entity=i, component=comp,
                               weight=edge_weight_poly(i, 1)) for i in range(3)]
        dofs += [DofFunctional(kind="cell", component=comp)]
    return ElementDef("veq", True, tuple(shapes), tuple(dofs), 3)


def _make_vec() -> ElementDef:
    p3 = [s.p for s in _p3_shapes()]
    shapes = [_vec(p, 0) for p in p3] + [_vec(p, 1) for p in p3]
    shapes += [ShapeFunction(kind="gradient", p=_s_poly(i) * LAM)
               for i in range(3)]
    dofs = []
    for comp in range(2):
        for power in range(3):
            dofs += [DofFunctional(kind="edge", entity=i, component=comp,
                                   weight=edge_weight_poly(i, power) if power
                                   else None) for i in range(3)]
        dofs += [DofFunctional(kind="cell", component=comp)]
    dofs += [DofFunctional(kind="cell_vec")] * 3
    return ElementDef("vec", True, tuple(shapes), tuple(dofs), 5,
                      needs_interior_construction=True)


def _make_morley() -> ElementDef:
    dofs = _vertex_dofs() + [DofFunctional(kind="edge_normal", entity=i)
                             for i in range(3)]
    return ElementDef("morley", False, tuple(_p2_shapes()), tuple(dofs), 2)


def _make_cr() -> ElementDef:
    return ElementDef("cr", False, tuple(_scalar(L[i]) for i in range(3)),
                      tuple(_edge_mean_dofs()), 1)


def _make_fs() -> ElementDef:
    return ElementDef("fs", False, tuple(_p2_shapes()),
                      tuple(_vertex_dofs() + _edge_mean_dofs()), 2)


def _make_cf() -> ElementDef:
    dofs = []
    for power in range(3):
        dofs += [DofFunctional(kind="edge", entity=i,
                               weight=edge_weight_poly(i, power) if power else None)
                 for i in range(3)]
    dofs += [DofFunctional(kind="cell")]
    return ElementDef("cf", False, tuple(_p3_shapes()), tuple(dofs), 3)


def _lattice_points(k: int):
    """Principal-lattice point dofs: vertices, edge points, interior points."""
    dofs = _vertex_dofs()
    for i in range(3):
        j, l = (i + 1) % 3, (i + 2) % 3
        for step in range(1, k):
            t = Fraction(step, k)
            pt = [Fraction(0)] * 3
            pt[j] = 1 - t
            pt[l] = t
            dofs.append(DofFunctional(kind="point", point=tuple(pt)))
    interior = []
    if k == 3:
        interior = [(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))]
    elif k == 4:
        interior = [(Fraction(2, 4), Fraction(1, 4), Fraction(1, 4)),
                    (Fraction(1, 4), Fraction(2, 4), Fraction(1, 4)),
                    (Fraction(1, 4), Fraction(1, 4), Fraction(2, 4))]
    for pt in interior:
        dofs.append(DofFunctional(kind="point", point=pt))
    return dofs


def _make_lagrange(k: int) -> ElementDef:
    shapes = {1: [_scalar(L[i]) for i in range(3)], 2: _p2_shapes(),
              3: _p3_shapes(), 4: _p4_shapes()}[k]
    return ElementDef(f"p{k}", False, tuple(shapes), tuple(_lattice_points(k)), k)


def _make_dg(k: int) -> ElementDef:
    base = _make_lagrange(max(k, 1))
    if k == 0:
        return ElementDef("dg0", False, (_scalar(ONE),),
                          (DofFunctional(kind="cell"),), 0)
    return ElementDef(f"dg{k}", False, base.shapes, base.dofs, k)


_CATALOG_BUILDERS = {
    "nsc": _make_nsc, "nsq": _make_nsq, "ec": _make_ec, "eq": _make_eq,
    "veq": _make_veq, "vec": _make_vec, "morley": _make_morley,
    "cr": _make_cr, "fs": _make_fs, "cf": _make_cf,
    "p1": lambda: _make_lagrange(1), "p2": lambda: _make_lagrange(2),
    "p3": lambda: _make_lagrange(3), "p4": lambda: _make_lagrange(4),
    "dg0": lambda: _make_dg(0), "dg1": lambda: _make_dg(1),
    "dg2": lambda: _make_dg(2),
}

_CATALOG_CACHE: dict[str, ElementDef] = {}

#: the named elements whose well-definedness the verification report covers
VERIFIED_ELEMENTS = ("nsc", "nsq", "ec", "eq", "veq", "vec",
                     "morley", "cr", "fs", "cf")

#: expected dimensions
ELEMENT_DIMS = {"nsc": 10, "nsq": 15, "ec": 12, "eq": 18, "veq": 14, "vec": 23,
                "morley": 6, "cr": 3, "fs": 6, "cf": 10,
                "p1": 3, "p2": 6, "p3": 10, "p4": 15,
                "dg0": 1, "dg1": 3, "dg2": 6}


def element_catalog(name: str) -> ElementDef:
    try:
        builder = _CATALOG_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown element '{name}'; known: "
                       f"{sorted(_CATALOG_BUILDERS)}") from None
    if name not in _CATALOG_CACHE:
        elem = builder()
        assert elem.dim == ELEMENT_DIMS[name], (name, elem.dim)
        _CATALOG_CACHE[name] = elem
    return _CATALOG_CACHE[name]


# The determinant of the FE_veq dof matrix, derived in closed form from the
# element definition (see tests): det(M) = VEQ_DET_CONSTANT * (grad lam_1 .
# curl lam_2) with curl q = (dq/dy, -dq/dx).
VEQ_DET_CONSTANT = Fraction(27, 501530650214400)

#: erratum: the determinant constant quoted in the reference tables for this
#: element.  It is exactly the determinant obtained when the enrichment row
#: f_k(grad(lam_i Lam)) carries the quoted 1/90, 1/60 instead of the Beta
#: integrals 1/30, 1/20 of the element as defined; kept only as a record
VEQ_DET_CONSTANT_CLAIMED = Fraction(103, 501530650214400)


def grad_curl_pairing(grad_lambda):
    """grad(lam_1) . curl(lam_2) with curl q = (dq/dy, -dq/dx)."""
    g1, g2 = grad_lambda[0], grad_lambda[1]
    return g1[0] * g2[1] - g1[1] * g2[0]


# --------------------------------------------------------------------------
# unisolvence trials
# --------------------------------------------------------------------------

@dataclass
class UnisolvenceReport:
    name: str
    trials: int
    min_abs_det: float
    min_sigma_ratio: float     # min over trials of sigma_min/sigma_max
    max_condition: float
    failures: int
    det_formula_max_rel_err: float | None = None

    def passed(self) -> bool:
        return self.failures == 0


#: trial triangles have all angles >= MIN_ANGLE_DEG
MIN_ANGLE_DEG = 20.0

#: a trial with sigma_min/sigma_max < UNISOLVENCE_SIGMA_TOL is a failure
UNISOLVENCE_SIGMA_TOL = 1e-12


def random_shape_regular_triangle(rng):
    """Random CCW triangle with all angles >= MIN_ANGLE_DEG."""
    while True:
        verts = rng.uniform(-1.0, 1.0, size=(3, 2))
        u, v, w = verts[1] - verts[0], verts[2] - verts[1], verts[0] - verts[2]
        cross = u[0] * v[1] - u[1] * v[0]
        if cross <= 1e-3:
            continue
        angles = []
        for a, b in ((u, -w), (v, -u), (w, -v)):
            ca = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            angles.append(np.degrees(np.arccos(np.clip(ca, -1, 1))))
        if min(angles) >= MIN_ANGLE_DEG:
            return verts


def random_grad_lambdas(trials: int, seed: int) -> np.ndarray:
    """(trials, 3, 2) grad_lambda stack of seeded shape-regular triangles."""
    rng = np.random.default_rng(seed)
    return np.reshape([cell_geometry(random_shape_regular_triangle(rng))
                       .grad_lambda for _ in range(trials)], (trials, 3, 2))


def unisolvence_check(elem: ElementDef, trials: int = 100,
                      seed: int = 1234) -> UnisolvenceReport:
    gl = random_grad_lambdas(trials, seed)
    M = dof_matrices(elem, gl)
    det = np.linalg.det(M)
    sv = np.linalg.svd(M, compute_uv=False)
    ratio = sv[:, -1] / sv[:, 0]
    cond = np.full(trials, np.inf)
    np.divide(sv[:, 0], sv[:, -1], out=cond, where=sv[:, -1] > 0)
    det_err = None
    if elem.name == "veq" and trials:
        want = float(VEQ_DET_CONSTANT) * \
            grad_curl_pairing(gl.transpose(1, 2, 0))
        det_err = float(np.max(np.abs(det - want) / np.abs(want)))
    return UnisolvenceReport(elem.name, trials,
                             float(np.min(np.abs(det), initial=np.inf)),
                             float(np.min(ratio, initial=np.inf)),
                             float(np.max(cond, initial=0.0)),
                             int(np.sum(ratio < UNISOLVENCE_SIGMA_TOL)),
                             det_err)
