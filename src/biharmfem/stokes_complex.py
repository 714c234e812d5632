"""Constructive discrete Stokes-complex machinery.

Builds the weakly rot-free basis of the continuous quadratic velocity space,
corrects it cell by cell with quadratic bubbles to make the broken rot vanish
pointwise, inverts the broken gradient cell by cell, and verifies exactness
of the discrete complexes by rank computations.

The piecewise-cubic functions produced this way span the nonconforming
biharmonic space; each is supported in one vertex or edge patch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import kernel_dimension, matrix_rank
from .mesh import Mesh
from .polynomials import (BaryPoly, bary_to_xy, poly2d_antider_x,
                          poly2d_antider_y, poly2d_partial, poly_gradient,
                          xy_to_bary)
from .spaces import (_BUBBLE, Space, assemble_bilinear, build_space,
                     edge_jump_moments)


class ComplexError(RuntimeError):
    pass


@dataclass
class WeakRotFreeBasis:
    """Basis of the weakly rot-free subspace of the S2 velocity space."""

    space: Space                    # S2_0
    vectors: list[np.ndarray]
    labels: list[tuple]             # ("vx"|"vy"|"patch", vertex) or ("edge", e)
    supports: list[frozenset]       # cell indices

    def __len__(self):
        return len(self.vectors)


def weak_rotfree_basis(mesh: Mesh) -> WeakRotFreeBasis:
    if mesh.n_interior_vertices < 1:
        raise ComplexError("mesh must have at least one interior vertex")
    s2 = build_space(mesh, "S2_0")
    vdofs = s2.meta["vertex_dofs"]
    edofs = s2.meta["edge_dofs"]
    vertex_cells = mesh.vertex_cells()
    vectors, labels, supports = [], [], []

    def finish(vec, label, support):
        vectors.append(vec)
        labels.append(label)
        supports.append(frozenset(int(c) for c in support))

    interior = [int(a) for a in mesh.interior_vertices()]
    for a in interior:
        for comp, tag in ((0, "vx"), (1, "vy")):
            vec = np.zeros(s2.ndof)
            vec[vdofs[a, comp]] = 1.0
            finish(vec, (tag, a), vertex_cells[a])
    for e in mesh.interior_edges():
        e = int(e)
        va, vb = (int(x) for x in mesh.edges[e])
        pa, pb = mesh.vertices[va], mesh.vertices[vb]
        t = (pb - pa) / np.linalg.norm(pb - pa)
        n = np.array([t[1], -t[0]])
        vec = np.zeros(s2.ndof)
        vec[edofs[e, 0]] = n[0]
        vec[edofs[e, 1]] = n[1]
        finish(vec, ("edge", e), [c for c in mesh.edge_cells[e] if c >= 0])
    vertex_edges = mesh.vertex_edges()
    for a in interior:
        # unit tangential edge integrals away from a: fint gets 1/|e|
        vec = np.zeros(s2.ndof)
        for e in vertex_edges[a]:
            other = int(mesh.edges[e, 1] if int(mesh.edges[e, 0]) == a
                        else mesh.edges[e, 0])
            pa, pb = mesh.vertices[a], mesh.vertices[other]
            length = float(np.linalg.norm(pb - pa))
            t_away = (pb - pa) / length
            vec[edofs[e, 0]] += t_away[0] / length
            vec[edofs[e, 1]] += t_away[1] / length
        finish(vec, ("patch", a), vertex_cells[a])
    expected = 3 * mesh.n_interior_vertices + mesh.n_interior_edges
    if len(vectors) != expected:
        raise ComplexError("basis count mismatch")
    M = np.column_stack(vectors)
    if matrix_rank(M, tol=1e-10) != len(vectors):
        raise ComplexError("weak rot-free candidate functions are dependent")
    return WeakRotFreeBasis(s2, vectors, labels, supports)


def embed_s2_in_g2(s2: Space, g2: Space, vec: np.ndarray) -> np.ndarray:
    """S2_0 coefficients extend by zero bubbles; dof layouts are aligned."""
    out = np.zeros(g2.ndof)
    out[: s2.ndof] = vec
    return out


def _meanzero_coords(p: BaryPoly) -> tuple[float, float]:
    """Coordinates of a mean-zero linear polynomial in (lam1-1/3, lam2-1/3)."""
    a = [float(p.coeffs.get(e, 0.0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return a[0] - a[2], a[1] - a[2]


def _cell_rot(space: Space, c: int, coeffs: np.ndarray) -> BaryPoly:
    px, py = space.cell_poly(c, coeffs)
    geom = space.mesh.geometry(c)
    gx_py, _ = poly_gradient(py, geom.grad_lambda)
    _, gy_px = poly_gradient(px, geom.grad_lambda)
    return gx_py - gy_px


def bubble_correct(g2: Space, coeffs: np.ndarray,
                   mean_tol: float = 1e-10) -> np.ndarray:
    """Add cell bubbles so the broken rot vanishes pointwise on each cell."""
    if g2.kind not in ("G2_0", "G2"):
        raise ValueError("bubble_correct expects a G2 space")
    mesh = g2.mesh
    bdofs = g2.meta["bubble_dofs"]
    out = coeffs.copy()
    scale = max(1.0, float(np.abs(coeffs).max()))
    local = (g2.P @ coeffs).reshape(mesh.n_cells, g2.nloc)
    active = np.flatnonzero((np.abs(local) > 1e-15 * scale).any(axis=1))
    for c in active.tolist():
        rot = _cell_rot(g2, c, coeffs)
        if rot.is_zero():
            continue
        geom = mesh.geometry(c)
        mean = float(rot.cell_average())
        if abs(mean) > mean_tol * scale:
            raise ComplexError(f"cell {c}: rot has nonzero mean {mean:.3e}")
        bx, by = poly_gradient(_BUBBLE.as_float(), geom.grad_lambda)
        bx1, bx2 = _meanzero_coords(bx)
        by1, by2 = _meanzero_coords(by)
        r1, r2 = _meanzero_coords(rot)
        # rot(c1*b, c2*b) = c2*bx - c1*by must equal -rot
        A = np.array([[-by1, bx1], [-by2, bx2]])
        try:
            c1, c2 = np.linalg.solve(A, [-r1, -r2])
        except np.linalg.LinAlgError as exc:
            raise ComplexError(f"singular bubble system on cell {c}") from exc
        out[bdofs[c, 0]] += c1
        out[bdofs[c, 1]] += c2
    return out


@dataclass
class CellwiseField:
    """Scalar field given as one polynomial per cell."""

    mesh: Mesh
    polys: list[BaryPoly]
    support: frozenset = field(default_factory=frozenset)

    def poly(self, c: int) -> BaryPoly:
        return self.polys[c]


def grad_inverse(mesh: Mesh, cellvec, rot_tol: float = 1e-10,
                 consistency_tol: float = 1e-9,
                 snap_tol: float = 1e-12) -> CellwiseField:
    """Cell-wise antiderivative of a pointwise rot-free piecewise field.

    cellvec(c) returns the (px, py) BaryPoly pair on cell c.  Integration
    constants are matched breadth-first over edge-adjacent cells through
    shared vertex values; the global constant is fixed by zero boundary
    vertex values.  Inconsistencies beyond tolerance abort.
    """
    nc = mesh.n_cells
    raw = []
    scale = 1.0
    for c in range(nc):
        px, py = cellvec(c)
        scale = max(scale, *(abs(float(v)) for v in px.coeffs.values()), 1.0) \
            if px.coeffs else scale
        scale = max(scale, *(abs(float(v)) for v in py.coeffs.values()), 1.0) \
            if py.coeffs else scale
        raw.append((px, py))
    polys = []
    for c in range(nc):
        px, py = raw[c]
        geom = mesh.geometry(c)
        gx_py, _ = poly_gradient(py, geom.grad_lambda)
        _, gy_px = poly_gradient(px, geom.grad_lambda)
        rot = gx_py - gy_px
        if rot.coeffs and max(abs(float(v)) for v in rot.coeffs.values()) > \
                rot_tol * scale:
            raise ComplexError(f"cell {c}: field is not pointwise rot-free")
        if not px.coeffs and not py.coeffs:
            polys.append(BaryPoly())
            continue
        # antidifferentiate in cell-local coordinates (first vertex at the
        # origin) to avoid cancellation from global offsets
        verts = geom.verts - geom.verts[0]
        cx = bary_to_xy(px, verts)
        cy = bary_to_xy(py, verts)
        W = poly2d_antider_x(cx)
        res = dict(cy)
        for k, v in poly2d_partial(W, 1).items():
            res[k] = res.get(k, 0.0) - v
        bad = max((abs(v) for (i, _), v in res.items() if i > 0), default=0.0)
        if bad > rot_tol * scale:
            raise ComplexError(f"cell {c}: antiderivative residual {bad:.2e}")
        g = {(0, j): v for (i, j), v in res.items() if i == 0}
        w2d = dict(W)
        for k, v in poly2d_antider_y(g).items():
            w2d[k] = w2d.get(k, 0.0) + v
        polys.append(xy_to_bary(w2d, verts))
    # vertex values per cell (corner evaluations, before constants)
    corner = np.zeros((nc, 3))
    eye = np.eye(3)
    for c in range(nc):
        if polys[c].coeffs:
            corner[c] = polys[c].eval(eye)
    # BFS over edge adjacency from the lowest-index boundary cell
    start = next(c for c in range(nc)
                 if any(mesh.edge_is_boundary[e] for e in mesh.cell_edges[c]))
    const = np.full(nc, np.nan)
    const[start] = 0.0
    queue = [start]
    neighbors = [[] for _ in range(nc)]
    for e in mesh.interior_edges():
        c0, c1 = (int(x) for x in mesh.edge_cells[e])
        neighbors[c0].append((c1, int(e)))
        neighbors[c1].append((c0, int(e)))
    while queue:
        c = queue.pop(0)
        for cn, e in neighbors[c]:
            if not np.isnan(const[cn]):
                continue
            va, vb = (int(x) for x in mesh.edges[e])
            la = {int(mesh.cells[c, i]): i for i in range(3)}
            ln = {int(mesh.cells[cn, i]): i for i in range(3)}
            cand = const[c] + corner[c, la[va]] - corner[cn, ln[va]]
            mismatch = abs(const[c] + corner[c, la[vb]]
                           - (cand + corner[cn, ln[vb]]))
            if mismatch > consistency_tol * scale:
                raise ComplexError(
                    f"constant mismatch {mismatch:.2e} across edge {e}; "
                    "input is not a broken gradient")
            const[cn] = cand
            queue.append(cn)
    if np.isnan(const).any():
        raise ComplexError("mesh cells are not edge-connected")
    # fix the global constant by zero boundary vertex values
    shift = None
    worst = 0.0
    for c in range(nc):
        for i in range(3):
            a = int(mesh.cells[c, i])
            if mesh.vertex_is_boundary[a]:
                val = const[c] + corner[c, i]
                if shift is None:
                    shift = val
                worst = max(worst, abs(val - shift))
    if worst > consistency_tol * scale:
        raise ComplexError(f"boundary vertex values spread {worst:.2e}; "
                           "input is not in the discrete gradient space")
    out = []
    support = set()
    for c in range(nc):
        p = polys[c] + (const[c] - shift)
        if p.coeffs and max(abs(float(v)) for v in p.coeffs.values()) <= \
                snap_tol * scale:
            p = BaryPoly()
        if p.coeffs:
            support.add(c)
        out.append(p)
    return CellwiseField(mesh, out, frozenset(support))


@dataclass
class B3Function:
    """One locally supported member of the piecewise-cubic biharmonic space."""

    field: CellwiseField
    gradient_coeffs: np.ndarray     # G2_0 coefficients of its broken gradient
    label: tuple
    input_support: frozenset


@dataclass
class B3Basis:
    mesh: Mesh
    g2: Space
    functions: list[B3Function]

    def __len__(self):
        return len(self.functions)


def b3_basis(mesh: Mesh) -> B3Basis:
    base = weak_rotfree_basis(mesh)
    g2 = build_space(mesh, "G2_0")
    funcs = []
    for vec, label, support in zip(base.vectors, base.labels, base.supports):
        emb = embed_s2_in_g2(base.space, g2, vec)
        corrected = bubble_correct(g2, emb)
        cache: dict = {}

        def cellvec(c, _co=corrected, _ca=cache):
            if c not in _ca:
                _ca[c] = g2.cell_poly(c, _co)
            return _ca[c]

        w = grad_inverse(mesh, cellvec)
        if not w.support <= support:
            raise ComplexError(f"support of {label} grew: "
                               f"{sorted(w.support - support)}")
        funcs.append(B3Function(w, corrected, label, support))
    return B3Basis(mesh, g2, funcs)


def b3_membership_violation(mesh: Mesh, w: CellwiseField,
                            quad_degree: int = 10) -> float:
    """Worst violation of the piecewise-cubic space's continuity clauses.

    Checks vertex continuity (zero values on the boundary), mean value
    continuity across edges, and first-order normal-derivative moment
    continuity, including the homogeneous boundary clauses.
    """
    worst = 0.0
    touched = set()
    for c in w.support:
        touched.update(int(e) for e in mesh.cell_edges[c])
    for e in touched:
        worst = max(worst, edge_jump_moments(mesh, w.poly, e, 0, "value",
                                             quad_degree))
        worst = max(worst, edge_jump_moments(mesh, w.poly, e, 1, "normal",
                                             quad_degree))
    vertex_vals: dict[int, list[float]] = {}
    eye = np.eye(3)
    for c in range(mesh.n_cells):
        p = w.poly(c)
        vals = p.eval(eye) if p.coeffs else np.zeros(3)
        for i in range(3):
            vertex_vals.setdefault(int(mesh.cells[c, i]), []).append(
                float(vals[i]))
    for a, vals in vertex_vals.items():
        if mesh.vertex_is_boundary[a]:
            worst = max(worst, max(abs(v) for v in vals))
        else:
            worst = max(worst, max(vals) - min(vals))
    return worst


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
        # dim(B3+) + dim(P1_0) == dim(G2+): (xi + 3 ei) + (3 nt - 1)
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
        bnorm = np.abs(B).max()
        res = 0.0
        viol = 0.0
        for fn in basis.functions:
            v = fn.gradient_coeffs
            res = max(res, float(np.abs(B @ v).max())
                      / (bnorm * max(1.0, float(np.abs(v).max()))))
            viol = max(viol, b3_membership_violation(mesh, fn.field))
        rep.basis_kernel_residual = res
        rep.basis_membership_violation = viol
        rep.basis_count = len(basis)
    return rep
