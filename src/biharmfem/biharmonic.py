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
from .schemes import PAIRS, SCHEMES, lookup
from .spaces import (FieldFunction, _broken_space, _form_operator,
                     assemble_bilinear, assemble_load, build_space,
                     error_norms)
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
    return lookup(_PROBLEMS, name, "problem")()


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


def _stokes_pair(mesh: Mesh, vel_kind: str, pres_kind: str):
    """A Stokes pair (a PAIRS row) on a mesh, as the solve and the inf-sup
    study use it: (velocity space, pressure space, K, B, Mp, m).  The
    velocity Gram is I_2 (x) K, K the Gram of one component, as B is
    assembled: component-major.  m = Mp 1_h is the mean functional, with
    m @ q the integral of the pressure q."""
    vel = build_space(mesh, vel_kind)
    pres = build_space(mesh, pres_kind)
    K = assemble_bilinear(vel.component, vel.component, "grad_grad")
    B = assemble_bilinear(vel, pres, "rot_pressure")
    Mp = assemble_bilinear(pres, pres, "mass")
    # 1_h, the DG vector of the constant 1: 1 in each cell's constant slot
    one = np.zeros(pres.ndof)
    one[::pres.nloc] = 1.0
    return vel, pres, K, B, Mp, Mp @ one


def _decomposed_solve(mesh: Mesh, f, scheme: str, tol: float) -> SolveResult:
    # each hole adds a discrete harmonic field, rot-free but no gradient, to
    # the stage-2 kernel, and the stages have no constraint against it
    chi = mesh.euler_characteristic()
    if chi != 1:
        raise SolverError(f"the {scheme} scheme needs a simply connected mesh; "
                          f"Euler characteristic {chi}, b1 = {1 - chi} hole(s)")
    pot_kind, pair = SCHEMES[scheme]
    pot = build_space(mesh, pot_kind)
    A1 = assemble_bilinear(pot, pot, "grad_grad")
    b1 = assemble_load(pot, f, quad_degree=LOAD_DEGREE)
    solve_a1 = spd_solver(A1, tol)
    r = solve_a1(b1)
    vel, pres, K, B, Mp, mean = _stokes_pair(mesh, *PAIRS[pair])
    D = _form_operator(vel, pot, "vecfield_grad")
    rhs2 = D.T @ r
    try:
        phi, p, iterations = saddle_solve(K, B, rhs2, Mp, mean=mean, tol=tol)
    except SolverError as exc:
        raise SolverError(
            f"{scheme} stage-2 Stokes solve failed ({exc})") from exc
    rhs3 = D @ phi
    u = solve_a1(rhs3)
    diag = {
        "dofs_potential": pot.ndof,
        "dofs_velocity": vel.ndof,
        "dofs_pressure": pres.ndof - 1,
        "stage1_residual": float(np.linalg.norm(A1 @ r - b1)),
        "stage2_residual": float(np.linalg.norm(
            _per_component(K.dot, K.shape[0], phi) + B.T @ p - rhs2)),
        "stage2_constraint": float(np.linalg.norm(B @ phi)),
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

    The basis functions are cellwise cubics, so they live in the broken
    cubic space W whose DoFs are the CUBIC_SHAPES coefficients of each cell
    (A = I, P = I).  Both forms are vectors on W, and the residuals of all
    basis functions are one product with their coefficient matrix C; the
    squared norms are the diagonal of C H C^T, H the Hessian Gram of W."""
    mesh = result.u_h.space.mesh
    if basis.g2.mesh is not mesh:
        raise ValueError("basis built on a different mesh")
    W = _broken_space(mesh, CUBIC_SHAPES, CUBIC_SHAPES, 3)
    u_h = result.u_h
    stiff = _form_operator(u_h.space, W, "hess_hess") @ u_h.coeffs
    load = assemble_load(W, f, RESIDUAL_QUAD_DEGREE)
    C = basis.coeffs
    residual = C @ (stiff - load)
    H = assemble_bilinear(W, W, "hess_hess")
    norm2 = np.asarray((C @ H).multiply(C).sum(axis=1)).ravel()
    fnorm = error_norms(FieldFunction(W, np.zeros(W.ndof)), f,
                        quad_degree=RESIDUAL_QUAD_DEGREE)[0]
    scale = np.sqrt(norm2) * max(1.0, fnorm)
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
    if lookup(SCHEMES, scheme, "scheme") is None:
        return solve_morley(mesh, f, tol=tol)
    return _decomposed_solve(mesh, f, scheme, tol).u_h


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

def infsup_study(pair: str, n_list, tol: float = 1e-10):
    """Inf-sup constants of a Stokes pair (PAIRS) on structured meshes."""
    kinds = lookup(PAIRS, pair, "pair")
    out = []
    for n in n_list:
        _, _, K, B, Mp, mean = _stokes_pair(generate_structured(n), *kinds)
        out.append((n, infsup_constant(B, K, Mp, tol=tol, mean=mean)))
    return out
