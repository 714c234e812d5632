"""Sparse linear algebra: CG, SPD and Schur-complement saddle-point solves,
inf-sup and rank queries.

Matrices are scipy CSR/CSC; everything here is deterministic for fixed
inputs (fixed start vectors, no randomized pivoting options).  On glibc,
importing this module fixes the process's malloc mmap threshold, so that the
large buffers of a solve go back to the system when freed (see
_pin_mmap_threshold).
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


#: Allocations of at least this many bytes get a mapping of their own.
MMAP_THRESHOLD = 4 << 20
_M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h


def _pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at MMAP_THRESHOLD; return whether it took.

    Left dynamic, glibc raises the threshold to the size of every mapping
    that is freed (up to 32 MB) and its heap trim threshold to twice that.
    A solve frees factorizations and assembly buffers of several MB, so up
    to 64 MB of freed heap then stays resident, by an amount that depends on
    the order of earlier allocations: over 40 cubic n=32 solves with error
    norms, the peak RSS ranged over 137-163 MB between processes.  With the
    threshold fixed, large buffers are unmapped when freed and the heap top is
    trimmed at glibc's default 128 kB; the same peak read 106 MB in each.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        return ctypes.CDLL(None).mallopt(_M_MMAP_THRESHOLD,
                                         MMAP_THRESHOLD) == 1
    except (AttributeError, OSError, ValueError):
        return False


_pin_mmap_threshold()


class SolverError(RuntimeError):
    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def is_symmetric(A, rel: float = 1e-12) -> bool:
    A = sp.csr_matrix(A)
    d = abs(A - A.T)
    if d.nnz == 0:
        return True
    amax = abs(A).max() if A.nnz else 0.0
    return d.max() <= rel * max(amax, 1e-300)


def cg_solve(A, b, tol: float = 1e-10, maxit: int | None = None) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients (scipy's cg) from x = 0.

    Raises SolverError unless the true residual ||A x - b|| <= tol ||b||.
    """
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(b.shape[0])
    if maxit is None:
        maxit = max(1000, 20 * b.shape[0])
    jacobi = sp.diags(1.0 / A.diagonal())
    x, info = spla.cg(A, b, rtol=tol, atol=0.0, maxiter=maxit, M=jacobi)
    res = np.linalg.norm(A @ x - b) / bnorm
    if not res <= tol:
        raise SolverError(f"cg_solve: relative residual {res:.3e} > tol "
                          f"(scipy cg info {info})", residual=res)
    return x


def _splu(A):
    """LU of an SPD matrix in SuperLU's symmetric mode: a minimum-degree
    ordering of A + A^T and diagonal pivots (off-diagonal only where a pivot
    is exactly zero), so the ordering, the pivots and the structure of the
    factors depend on the sparsity pattern alone, not on round-off."""
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc


def spd_solver(A, tol: float = 1e-10, solver: str = "direct"):
    """Return ``solve(b)`` for the SPD matrix A, factoring A at most once.

    ``"direct"`` factors A with one splu and checks the residual of every
    solve against tol; ``"cg"`` runs :func:`cg_solve` for each right-hand side.
    """
    if solver == "cg":
        return lambda b: cg_solve(A, b, tol=tol)
    A = sp.csc_matrix(A)
    lu = _splu(A)

    def solve(b):
        b = np.asarray(b, dtype=float)
        x = lu.solve(b)
        bnorm = np.linalg.norm(b)
        res = np.linalg.norm(A @ x - b)
        if bnorm > 0 and res > tol * bnorm:
            raise SolverError(f"direct solve residual {res / bnorm:.3e} > tol",
                              residual=res / bnorm)
        return x

    return solve


@dataclass
class SaddleSystem:
    """Blocks of [[A, B^T], [B, 0]] [u; p] = [f; g], with M the pressure Gram."""

    A: sp.spmatrix
    B: sp.spmatrix
    f: np.ndarray
    g: np.ndarray
    M: sp.spmatrix

    def __post_init__(self):
        nu = self.A.shape[0]
        npres = self.B.shape[0]
        if self.A.shape != (nu, nu) or self.B.shape[1] != nu:
            raise ValueError("inconsistent saddle system blocks")
        if self.M.shape != (npres, npres):
            raise ValueError("pressure Gram does not match the pressure block")
        if self.f.shape != (nu,) or self.g.shape != (npres,):
            raise ValueError("inconsistent saddle system right-hand sides")


#: Iteration cap of the Schur-complement PCG.  For an inf-sup stable pair the
#: preconditioned count does not grow under refinement (17-23 for the cubic
#: pair and 25-37 for the quartic one on meshes with n = 4 to 32).
SCHUR_MAXIT = 500
#: The PCG stops once its recurrence residual is this share of tol * scale:
#: the final check on the true residual keeps room for rounding, and the
#: pressure, whose error the weaker quartic pair amplifies, keeps a relative
#: error near 1e-10 or below.
SCHUR_MARGIN = 1e-3


def saddle_solve(system: SaddleSystem, tol: float = 1e-10):
    """Solve the block system by PCG on the pressure Schur complement.

    S = B A^-1 B^T is applied through one factorization of the SPD block A
    and preconditioned by the pressure Gram M, which is spectrally equivalent
    to S for an inf-sup stable pair (Benzi, Golub and Liesen, Acta Numerica
    2005).  PCG runs from p = 0 on S p = B A^-1 f - g, then u = A^-1 (f - B^T p);
    both block residuals are checked at the end.  Returns (u, p, the number
    of PCG iterations).
    """
    A, B, f, g = system.A, system.B, system.f, system.g
    solve_a = spd_solver(A, tol)
    npres = B.shape[0]
    if npres == 0:
        return solve_a(f), np.zeros(0), 0
    solve_m = _splu(sp.csc_matrix(system.M)).solve
    scale = max(1.0, np.linalg.norm(f), np.linalg.norm(g))
    p = np.zeros(npres)
    r = B @ solve_a(f) - g
    z = solve_m(r)
    d = z.copy()
    rz = float(r @ z)
    iterations = 0
    for _ in range(SCHUR_MAXIT):
        if np.linalg.norm(r) <= SCHUR_MARGIN * tol * scale:
            break
        Sd = B @ solve_a(B.T @ d)
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
    u = solve_a(f - B.T @ p)
    r1 = np.linalg.norm(A @ u + B.T @ p - f)
    r2 = np.linalg.norm(B @ u - g)
    if not (np.isfinite(u).all() and np.isfinite(p).all()) \
            or r1 > tol * scale or r2 > tol * scale:
        raise SolverError("saddle point solve did not reach tolerance "
                          f"(residuals {r1:.3e}, {r2:.3e})",
                          residual=max(r1, r2) / scale)
    return u, p, iterations


def infsup_constant(B, A, Mp, tol: float = 1e-10) -> float:
    """sqrt of the smallest eigenvalue of B A^-1 B^T q = lam Mp q.

    A is the velocity Gram (SPD), Mp the pressure Gram (SPD); B pairs the
    mean-zero pressure basis with the velocity basis.  Nonpositive smallest
    eigenvalues (beyond roundoff) report 0: the pair is unstable.
    """
    B = sp.csr_matrix(B)
    A = sp.csc_matrix(A)
    Mp = sp.csr_matrix(Mp)
    npres = B.shape[0]
    if npres == 0:
        raise ValueError("empty pressure space")
    alu = _splu(A)

    def s_mv(q):
        return B @ alu.solve(B.T @ q)

    if npres <= 40:
        S = np.column_stack([s_mv(e) for e in np.eye(npres)])
        lams = scipy.linalg.eigh(S, np.asarray(Mp.todense()), eigvals_only=True)
        lam = float(lams[0])
        return float(np.sqrt(max(lam, 0.0)))

    K = sp.bmat([[A, B.T], [B, None]], format="csc")
    try:
        klu = spla.splu(K)
    except RuntimeError as exc:
        raise SolverError(f"inf-sup saddle factorization failed: {exc}") from exc
    nu = A.shape[0]

    def s_inv(y):
        rhs = np.concatenate([np.zeros(nu), -np.asarray(y, dtype=float)])
        return klu.solve(rhs)[nu:]

    Sop = spla.LinearOperator((npres, npres), matvec=s_mv)
    OPinv = spla.LinearOperator((npres, npres), matvec=s_inv)
    v0 = np.full(npres, 1.0 / np.sqrt(npres))
    try:
        lams = spla.eigsh(Sop, k=1, M=Mp, sigma=0.0, which="LM",
                          OPinv=OPinv, v0=v0, tol=max(tol, 1e-12))
    except spla.ArpackError as exc:
        raise SolverError(f"inf-sup eigensolve failed: {exc}") from exc
    lam = float(lams[0][0])
    return float(np.sqrt(max(lam, 0.0)))


def kernel_dimension(A, tol: float = 1e-8) -> int:
    """Number of singular values below tol * sigma_max (columns = domain)."""
    if sp.issparse(A):
        A = np.asarray(A.todense())
    else:
        A = np.asarray(A, dtype=float)
    ncols = A.shape[1]
    if A.size == 0:
        return ncols
    sv = scipy.linalg.svdvals(A)
    smax = sv[0] if sv.size else 0.0
    if smax == 0.0:
        return ncols
    rank = int(np.count_nonzero(sv >= tol * smax))
    return ncols - rank


def matrix_rank(A, tol: float = 1e-8) -> int:
    if sp.issparse(A):
        ncols = A.shape[1]
    else:
        ncols = np.asarray(A).shape[1]
    return ncols - kernel_dimension(A, tol)


def dump_matrix_market(A, path):
    from scipy.io import mmwrite

    mmwrite(str(path), sp.coo_matrix(A))
