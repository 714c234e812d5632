"""Decomposed solvers for the clamped biharmonic problem and rate studies.

The cubic and quartic schemes are run as three stages: a Poisson solve in the
nonconforming potential space, a rotated Stokes solve in the matching
velocity/pressure pair, and a second Poisson solve recovering the deflection.
The Morley scheme is the direct piecewise-quadratic Galerkin baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# unused here; bench/layers.py traces splu through this module attribute
import scipy.sparse.linalg as spla  # noqa: F401

from .linalg import (SolverError, _per_component, infsup_constant,
                     saddle_solve, spd_solver)
from .mesh import Mesh, generate_structured
from .quadrature import tri_rule
from .spaces import (FieldFunction, _at, _derivative, _form_operator,
                     _point_blocks, assemble_bilinear, assemble_load,
                     build_space, error_norms, reference_tables)
from .stokes_complex import CUBIC_SHAPES, B3Basis

#: quadrature degrees of the load vectors, of galerkin_residual and of the
#: error norms in convergence_study
LOAD_DEGREE, RESIDUAL_QUAD_DEGREE, STUDY_QUAD_DEGREE = 12, 12, 17


# ---------------------------------------------------------------------------
# manufactured problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedProblem:
    name: str
    regularity: str
    u: callable
    grad_u: callable    # returns (ux, uy)
    hess_u: callable    # returns (uxx, uxy, uyy)
    f: callable         # biharmonic of u


def _poly8():
    def g(t):
        return t * t * (1 - t) ** 2

    def g1(t):
        return 2 * t - 6 * t**2 + 4 * t**3

    def g2(t):
        return 2 - 12 * t + 12 * t**2

    def g4(t):
        return 24.0 * np.ones_like(t)

    u = lambda x, y: g(x) * g(y)
    grad = lambda x, y: (g1(x) * g(y), g(x) * g1(y))
    hess = lambda x, y: (g2(x) * g(y), g1(x) * g1(y), g(x) * g2(y))
    f = lambda x, y: g4(x) * g(y) + 2 * g2(x) * g2(y) + g(x) * g4(y)
    return ManufacturedProblem("poly8", "H5", u, grad, hess, f)


def _sin2():
    # s(t) = sin^2(pi t) = (1 - cos 2 pi t) / 2: u = s(x) s(y) and every
    # derivative in closed form from one cos (and sin) of 2 pi t per axis
    pi = math.pi

    def cos_sin(t):
        return np.cos(2 * pi * t), np.sin(2 * pi * t)

    def grad(x, y):
        (cx, sx), (cy, sy) = cos_sin(x), cos_sin(y)
        return pi / 2 * sx * (1 - cy), pi / 2 * (1 - cx) * sy

    def hess(x, y):
        (cx, sx), (cy, sy) = cos_sin(x), cos_sin(y)
        return pi**2 * cx * (1 - cy), pi**2 * sx * sy, pi**2 * (1 - cx) * cy

    def f(x, y):
        cx, cy = np.cos(2 * pi * x), np.cos(2 * pi * y)
        return 4 * pi**4 * (4 * cx * cy - cx - cy)

    u = lambda x, y: (1 - np.cos(2 * pi * x)) * (1 - np.cos(2 * pi * y)) / 4
    return ManufacturedProblem("sin2", "H5", u, grad, hess, f)


def _zero():
    z = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return ManufacturedProblem("zero", "H5", z,
                               lambda x, y: (z(x, y), z(x, y)),
                               lambda x, y: (z(x, y), z(x, y), z(x, y)), z)


_PROBLEMS = {"poly8": _poly8, "sin2": _sin2, "zero": _zero}


def manufactured(name: str) -> ManufacturedProblem:
    try:
        return _PROBLEMS[name]()
    except KeyError:
        raise KeyError(f"unknown problem '{name}'; known: "
                       f"{sorted(_PROBLEMS)}") from None


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

@dataclass
class SolveResult:
    scheme: str
    r_h: FieldFunction
    phi_h: FieldFunction
    p_h: FieldFunction
    u_h: FieldFunction
    diagnostics: dict = field(default_factory=dict)


def _constant(pres, Mp):
    """The mean functional m = Mp 1_h, with m @ q the integral of the
    pressure q; 1_h, the DG vector of the constant 1, is 1 in each cell's
    first (constant) slot."""
    one = np.zeros(pres.ndof)
    one[::pres.meta["per_cell"]] = 1.0
    return Mp @ one


def _decomposed_solve(mesh: Mesh, f, scheme: str, tol: float) -> SolveResult:
    pot_kind, vel_kind, pres_kind = {
        "cubic": ("A3_0", "G2_0", "DG1"),
        "quartic": ("A4_0", "G3_0", "DG2"),
    }[scheme]
    pot = build_space(mesh, pot_kind)
    vel = build_space(mesh, vel_kind)
    pres = build_space(mesh, pres_kind)
    A1 = assemble_bilinear(pot, pot, "grad_grad")
    b1 = assemble_load(pot, f, quad_degree=LOAD_DEGREE)
    solve_a1 = spd_solver(A1, tol)
    r = solve_a1(b1)
    # the velocity Gram is I_2 (x) K in component order: one factor of K
    K = assemble_bilinear(vel.component, vel.component, "grad_grad")
    perm = vel.component_dofs.ravel()
    B = assemble_bilinear(vel, pres, "rot_pressure")[:, perm]
    D = _form_operator(vel, pot, "vecfield_grad")
    Mp = assemble_bilinear(pres, pres, "mass")
    rhs2 = (D.T @ r)[perm]
    try:
        u2, p, iterations = saddle_solve(K, B, rhs2, Mp,
                                         mean=_constant(pres, Mp), tol=tol)
    except SolverError as exc:
        raise SolverError(
            f"{scheme} stage-2 Stokes solve failed ({exc})") from exc
    phi = np.empty(vel.ndof)
    phi[perm] = u2
    rhs3 = D @ phi
    u = solve_a1(rhs3)
    diag = {
        "dofs_potential": pot.ndof,
        "dofs_velocity": vel.ndof,
        "dofs_pressure": pres.ndof - 1,
        "stage1_residual": float(np.linalg.norm(A1 @ r - b1)),
        "stage2_residual": float(np.linalg.norm(
            _per_component(K.dot, K.shape[0], u2) + B.T @ p - rhs2)),
        "stage2_constraint": float(np.linalg.norm(B @ u2)),
        "stage2_iterations": iterations,
        "stage3_residual": float(np.linalg.norm(A1 @ u - rhs3)),
    }
    return SolveResult(scheme, FieldFunction(pot, r), FieldFunction(vel, phi),
                       FieldFunction(pres, p), FieldFunction(pot, u), diag)


def solve_cubic(mesh: Mesh, f, tol: float = 1e-10) -> SolveResult:
    return _decomposed_solve(mesh, f, "cubic", tol)


def solve_quartic(mesh: Mesh, f, tol: float = 1e-10) -> SolveResult:
    return _decomposed_solve(mesh, f, "quartic", tol)


def solve_morley(mesh: Mesh, f, tol: float = 1e-10) -> FieldFunction:
    space = build_space(mesh, "Morley_0")
    A = assemble_bilinear(space, space, "hess_hess")
    b = assemble_load(space, f, quad_degree=LOAD_DEGREE)
    u = spd_solver(A, tol)(b)
    return FieldFunction(space, u)


# ---------------------------------------------------------------------------
# Galerkin residual against the locally supported basis
# ---------------------------------------------------------------------------

def galerkin_residual(result: SolveResult, f, basis: B3Basis) -> float:
    """max_w |(hess u_h, hess w) - (f, w)| / (||hess w|| max(1, ||f||)).

    Both forms are linear in the cubic coefficients of w, so each is one
    vector per cell and shape, and the residuals of all basis functions are
    one product with their coefficient matrix."""
    mesh = result.u_h.space.mesh
    if basis.mesh is not mesh:
        raise ValueError("basis built on a different mesh")
    w = tri_rule(RESIDUAL_QUAD_DEGREE).weights
    gl, area, _ = mesh.geometry_arrays()
    val, _, d2 = reference_tables(CUBIC_SHAPES, RESIDUAL_QUAD_DEGREE)
    load = np.empty((len(area), len(val)))
    fnorm2 = 0.0
    for blk, x, y in _point_blocks(mesh, RESIDUAL_QUAD_DEGREE):
        fv = _at(f(x, y), x).reshape(-1, len(w))
        fnorm2 += float(area[blk] @ (fv**2 @ w))
        load[blk] = (fv * w) @ val.T
    u_h = result.u_h
    S = u_h.space.shape_coefficients(u_h.coeffs)
    d2u = reference_tables(u_h.space.shapes, RESIDUAL_QUAD_DEGREE)[2]
    # Hessian entries xx, xy, yy; the Frobenius product counts xy twice
    dirs = ((0, 0), (0, 1), (1, 1))
    hu = np.stack([_derivative(S, gl, d2u, d) for d in dirs])
    hw = np.stack([np.einsum("sijq,ci,cj->csq", d2, gl[:, :, a], gl[:, :, b])
                   for a, b in dirs])
    wq = np.array([1.0, 2.0, 1.0])[:, None, None] * w
    stiff = np.einsum("kcq,kcsq->cs", hu * wq, hw)
    residual = basis.field.coeffs @ (area[:, None] * (stiff - load)).ravel()
    gram = area[:, None, None] * np.einsum("kcsq,kctq->cst",
                                           hw * wq[:, :, None], hw)
    rows, cells, W = basis.field.blocks()
    norm2 = np.bincount(rows, np.einsum("bs,bst,bt->b", W, gram[cells], W),
                        minlength=len(basis))
    scale = np.sqrt(norm2) * max(1.0, math.sqrt(fnorm2))
    return float(np.max(np.abs(residual) / scale, initial=0.0))


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass
class RateRow:
    n: int
    h: float
    dofs: int
    err_h2: float
    rate_h2: float | None
    err_h1: float
    rate_h1: float | None
    err_l2: float
    rate_l2: float | None


@dataclass
class RateTable:
    scheme: str
    problem: str
    rows: list[RateRow]

    CSV_HEADER = "n,h,dofs,errH2,rateH2,errH1,rateH1,errL2,rateL2"

    def to_csv(self) -> str:
        def fmt(x):
            return "" if x is None else f"{x:.12g}"

        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([str(r.n), f"{r.h:.12g}", str(r.dofs),
                                   fmt(r.err_h2), fmt(r.rate_h2),
                                   fmt(r.err_h1), fmt(r.rate_h1),
                                   fmt(r.err_l2), fmt(r.rate_l2)]))
        return "\n".join(lines) + "\n"

    def observed_rates(self, which: str = "h2") -> list[float]:
        key = {"h2": "rate_h2", "h1": "rate_h1", "l2": "rate_l2"}[which]
        return [getattr(r, key) for r in self.rows if getattr(r, key) is not None]


def solve_scheme(mesh: Mesh, scheme: str, f,
                 tol: float = 1e-10) -> FieldFunction:
    if scheme == "morley":
        return solve_morley(mesh, f, tol=tol)
    if scheme == "cubic":
        return solve_cubic(mesh, f, tol=tol).u_h
    if scheme == "quartic":
        return solve_quartic(mesh, f, tol=tol).u_h
    raise KeyError(f"unknown scheme '{scheme}'")


def convergence_study(problem: ManufacturedProblem, scheme: str,
                      n_list, tol: float = 1e-10) -> RateTable:
    n_list = list(n_list)
    for a, b in zip(n_list, n_list[1:]):
        if b != 2 * a:
            raise ValueError("n_list must refine by factors of 2")
    rows: list[RateRow] = []
    prev = None
    for n in n_list:
        mesh = generate_structured(n)
        u_h = solve_scheme(mesh, scheme, problem.f, tol=tol)
        e0, e1, e2 = error_norms(u_h, problem.u, problem.grad_u,
                                 problem.hess_u, quad_degree=STUDY_QUAD_DEGREE)
        rates = (None, None, None)
        if prev is not None:
            rates = tuple(
                math.log2(p / e) if p > 0 and e > 0 else None
                for p, e in zip(prev, (e2, e1, e0)))
        rows.append(RateRow(n, 1.0 / n, u_h.space.ndof, e2, rates[0],
                            e1, rates[1], e0, rates[2]))
        prev = (e2, e1, e0)
    return RateTable(scheme, problem.name, rows)


# ---------------------------------------------------------------------------
# inf-sup studies
# ---------------------------------------------------------------------------

PAIRS = {
    "g2p0": ("G2_0", "DG0"),
    "g2p1": ("G2_0", "DG1"),
    "g3p2": ("G3_0", "DG2"),
}


def infsup_study(pair: str, n_list, tol: float = 1e-10):
    """Inf-sup constants of a velocity/pressure pair on structured meshes."""
    vel_kind, pres_kind = PAIRS[pair]
    out = []
    for n in n_list:
        mesh = generate_structured(n)
        vel = build_space(mesh, vel_kind)
        pres = build_space(mesh, pres_kind)
        K = assemble_bilinear(vel.component, vel.component, "grad_grad")
        B = assemble_bilinear(vel, pres, "rot_pressure")
        Mp = assemble_bilinear(pres, pres, "mass")
        out.append((n, infsup_constant(B[:, vel.component_dofs.ravel()], K,
                                       Mp, tol=tol, mean=_constant(pres, Mp))))
    return out
