"""Sparse linear algebra: factor-once SPD solves, the Schur-complement
Stokes solve, inf-sup and rank queries.

saddle_solve and infsup_constant share one set-up (_schur) that factors the
velocity Gram and the pressure Gram once each; saddle_solve projects the
pressure mean out and, when it fails, names the inf-sup constant of the pair
computed from those same factors.  Matrices are scipy CSR/CSC; everything
here is deterministic for fixed inputs (a fixed eigensolver start vector, no
randomized pivoting options).  On glibc, importing this module fixes the
process's malloc mmap threshold, so that the large buffers of a solve go back
to the system when freed (see _pin_mmap_threshold).
"""

from __future__ import annotations

import ctypes
import os

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


def _checked(A, lu_solve, tol):
    """lu_solve with the residual of every solve checked against tol."""
    def solve(b):
        b = np.asarray(b, dtype=float)
        x = lu_solve(b)
        bnorm = np.linalg.norm(b)
        res = np.linalg.norm(A @ x - b)
        if bnorm > 0 and res > tol * bnorm:
            raise SolverError(f"direct solve residual {res / bnorm:.3e} > tol",
                              residual=res / bnorm)
        return x

    return solve


def spd_solver(A, tol: float = 1e-10):
    """Return ``solve(b)`` for the SPD matrix A, factored once by splu; the
    residual of every solve is checked against tol."""
    A = sp.csc_matrix(A)
    return _checked(A, _splu(A).solve, tol)


#: Iteration cap of the Schur-complement PCG.  For an inf-sup stable pair the
#: preconditioned count does not grow under refinement (17-23 for the cubic
#: pair and 25-37 for the quartic one on meshes with n = 4 to 32).
SCHUR_MAXIT = 500
#: The PCG stops once its recurrence residual is this share of tol * scale:
#: the final check on the true residual keeps room for rounding, and the
#: pressure, whose error the weaker quartic pair amplifies, keeps a relative
#: error near 1e-10 or below.
SCHUR_MARGIN = 1e-3


def _schur(A, B, M, mean, tol):
    """Factor A and M (_splu) once each for the pressure Schur complement
    S = B A^-1 B^T.  Returns (solve_a, solve_m, s_mv): solve_a checks its
    residual as spd_solver's does, and s_mv applies S and, when the mean
    functional m is given (m @ q the integral of the pressure q, in a space
    holding the constants), the rank-one shift m m^T / (m^T M^-1 m).  S
    vanishes on the constant; the shift moves it to eigenvalue 1 of
    S q = lam M q and leaves the eigenpairs M-orthogonal to it, the mean-zero
    ones, as they are.  s_mv solves with A unchecked: an eigensolve calls it
    about 90 times (g3p2, n=8), and residual checks there added about 5 ms
    to the 50 ms of infsup_study("g3p2", [2, 4, 8]) on a 2-vCPU VM."""
    A = sp.csc_matrix(A)
    lu_solve = _splu(A).solve
    solve_a = _checked(A, lu_solve, tol)
    solve_m = _splu(sp.csc_matrix(M)).solve
    if mean is not None:
        mean = np.asarray(mean, dtype=float)
        mMm = float(mean @ solve_m(mean))

    def s_mv(q):
        out = B @ lu_solve(B.T @ q)
        if mean is not None:
            out += mean * ((mean @ q) / mMm)
        return out

    return solve_a, solve_m, s_mv


def _smallest_eig(s_mv, solve_m, M, tol) -> float:
    """sqrt of the smallest eigenvalue of s_mv(q) = lam M q, 0 if it is not
    positive.  Up to 40 pressure DoFs from the dense matrices; above, from
    Lanczos (ARPACK) from a fixed random start vector: a symmetric one can
    miss the smallest mode on the symmetric criss mesh."""
    npres = M.shape[0]
    if npres <= 40:
        S = np.column_stack([s_mv(e) for e in np.eye(npres)])
        lam = scipy.linalg.eigh(S, M.toarray(), eigvals_only=True)[0]
    else:
        shape = (npres, npres)
        v0 = np.random.default_rng(0).standard_normal(npres)
        try:
            lams, _ = spla.eigsh(
                spla.LinearOperator(shape, matvec=s_mv), k=1, M=M,
                Minv=spla.LinearOperator(shape, matvec=solve_m), which="SA",
                v0=v0, tol=max(tol, 1e-12))
        except spla.ArpackError as exc:
            raise SolverError(f"inf-sup eigensolve failed: {exc}") from exc
        lam = lams[0]
    return float(np.sqrt(max(float(lam), 0.0)))


def saddle_solve(A, B, f, M, mean=None, tol: float = 1e-10):
    """Solve [[A, B^T], [B, 0]] [u; p] = [f; 0] by PCG on the pressure Schur
    complement.

    S = B A^-1 B^T is applied through one factorization of the SPD block A
    and preconditioned by the pressure Gram M, which is spectrally equivalent
    to S for an inf-sup stable pair (Benzi, Golub and Liesen, Acta Numerica
    2005).  PCG runs from p = 0 on S p = B A^-1 f, then u = A^-1 (f - B^T p);
    both block residuals are checked at the end.  The PCG applies S without
    the shift of _schur: B^T vanishes on the constant, so its residuals are
    orthogonal to the constant up to round-off.  With the mean functional m
    the returned p is M-orthogonal to the constant: p -= (m @ p) / (m @ z) z
    with z = M^-1 m.  If the check fails, the SolverError names the inf-sup
    constant of the pair (shift included), computed from the same two
    factorizations.  Returns (u, p, the number of PCG iterations).
    """
    npres = B.shape[0]
    if npres == 0:
        return spd_solver(A, tol)(f), np.zeros(0), 0
    solve_a, solve_m, s_mv = _schur(A, B, M, mean, tol)
    scale = max(1.0, np.linalg.norm(f))
    p = np.zeros(npres)
    r = B @ solve_a(f)
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
    r2 = np.linalg.norm(B @ u)
    if not (np.isfinite(u).all() and np.isfinite(p).all()) \
            or r1 > tol * scale or r2 > tol * scale:
        try:
            c_h = _smallest_eig(s_mv, solve_m, M, tol)
            diagnosis = f"inf-sup constant of the pair: {c_h:.6g}"
        except SolverError:
            diagnosis = "inf-sup constant could not be computed"
        raise SolverError("saddle point solve did not reach tolerance "
                          f"(residuals {r1:.3e}, {r2:.3e}); {diagnosis}",
                          residual=max(r1, r2) / scale)
    if mean is not None:
        z = solve_m(mean)
        p -= (mean @ p) / (mean @ z) * z
    return u, p, iterations


def infsup_constant(B, A, Mp, tol: float = 1e-10, mean=None) -> float:
    """sqrt of the smallest eigenvalue of B A^-1 B^T q = lam Mp q.

    A is the velocity Gram (SPD), Mp the pressure Gram (SPD); B pairs the
    pressure basis with the velocity basis.  When the pressures are the
    mean-zero subspace of a space holding the constants, mean is the mean
    functional m and the constant mode is deflated (see _schur).
    Nonpositive smallest eigenvalues (beyond roundoff) report 0: the pair is
    unstable.
    """
    B = sp.csr_matrix(B)
    Mp = sp.csc_matrix(Mp)
    if B.shape[0] == 0:
        raise ValueError("empty pressure space")
    _, solve_m, s_mv = _schur(A, B, Mp, mean, tol)
    return _smallest_eig(s_mv, solve_m, Mp, tol)


def kernel_dimension(A, tol: float = 1e-8) -> int:
    """Dimension of the kernel of A (columns = domain).

    Counts the eigenvalues of the smaller Gram matrix, A A^T or A^T A, below
    tol * lambda_max, and the columns beyond the rows.  A tolerance tol on
    the Gram eigenvalues is one of sqrt(tol) * sigma_max on the singular
    values of A.
    """
    A = sp.csr_matrix(A, dtype=float) if sp.issparse(A) \
        else np.asarray(A, dtype=float)
    ncols = A.shape[1]
    if min(A.shape) == 0:
        return ncols
    G = A @ A.T if A.shape[0] <= ncols else A.T @ A
    lam = scipy.linalg.eigvalsh(G.toarray() if sp.issparse(G) else G)
    if lam[-1] <= 0.0:
        return ncols
    return ncols - int(np.count_nonzero(lam >= tol * lam[-1]))


def matrix_rank(A, tol: float = 1e-8) -> int:
    """Number of columns less the kernel dimension (see kernel_dimension)."""
    return np.shape(A)[1] - kernel_dimension(A, tol)

