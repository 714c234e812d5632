"""Sparse linear algebra: factor-once SPD solves, the Schur-complement
Stokes solve, inf-sup and rank queries.

saddle_solve and infsup_constant share one set-up (_schur) that factors the
Gram A of one velocity component once and solves every component with it
(the velocity Gram is I_k (x) A, as spaces numbers a vector space
component-major); the pressure Gram must be diagonal (the DG pressure modes
are L2-orthogonal), so its inverse is a division.  saddle_solve runs SciPy's
cg on the Schur complement and checks its ends, not its iterations, projects
the pressure mean out and, when it fails, names the inf-sup constant of the
pair computed from that same factor, by ARPACK's Lanczos on M^-1/2 S M^-1/2.
kernel_dimension counts small Gram eigenvalues by inertia: the negative
pivots of one sparse symmetric-mode LU of the Gram shifted by tol times its
largest absolute row sum, with no dense matrix.  Matrices are scipy CSR and
are not copied: SuperLU factors the CSC view A^T and solves A by trans="T",
and B^T is a view.  Everything is deterministic for fixed inputs (a fixed
eigensolver start vector, no randomized pivoting options).  On glibc,
importing this module fixes the process's malloc mmap threshold, so that a
solve's large buffers go back to the system when freed (_pin_mmap_threshold).
"""

from __future__ import annotations

import ctypes
import os
from functools import partial

import numpy as np
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
    threshold fixed, large buffers are unmapped when freed; the same peak read
    106 MB in each.  The heap top is still trimmed at glibc's default 128 kB,
    so spaces.BLOCK_POINTS keeps the quadrature blocks below that.
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


def _splu(A):
    """LU of a symmetric matrix in SuperLU's symmetric mode: a minimum-degree
    ordering of A + A^T and diagonal pivots (off-diagonal only where a pivot
    is exactly zero), so the ordering, the pivots and the structure of the
    factors depend on the sparsity pattern alone, not on round-off.  The
    solves factor SPD matrices, kernel_dimension an indefinite one.  Panels
    of one column factor a third faster than the default, at the same fill.
    Given the CSC view A^T of a CSR A, the factor solves A by trans="T"."""
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         panel_size=1, relax=1, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc


def _checked(apply, lu_solve, tol):
    """lu_solve with every b checked finite and its residual (by apply)."""
    def solve(b):
        b = np.asarray(b, dtype=float)
        if not np.isfinite(b).all():
            raise SolverError("direct solve right-hand side is not finite")
        x = lu_solve(b)
        bnorm = np.linalg.norm(b)
        res = np.linalg.norm(apply(x) - b)
        if bnorm > 0 and not res <= tol * bnorm:
            raise SolverError(f"direct solve residual {res / bnorm:.3e} > tol",
                              residual=res / bnorm)
        return x

    return solve


def spd_solver(A, tol: float = 1e-10):
    """Return ``solve(b)`` for the SPD matrix A, factored once by _splu
    through its transpose view; every solve's residual is checked (tol)."""
    A = sp.csr_matrix(A)
    return _checked(A.dot, partial(_splu(A.T).solve, trans="T"), tol)


def _per_component(op, n: int, x: np.ndarray) -> np.ndarray:
    """op on the k length-n components of x as the columns of one (n, k)
    array: with op = A.dot it applies I_k (x) A, with lu.solve solves it."""
    return op(x.reshape(-1, n).T).T.ravel()


#: Iteration cap of the Schur-complement cg.  For an inf-sup stable pair the
#: preconditioned count does not grow under refinement (17-23 for the cubic
#: pair and 25-37 for the quartic one on meshes with n = 4 to 32).
SCHUR_MAXIT = 500
#: cg stops once its recurrence residual is this share of tol * scale:
#: the final check on the true residual keeps room for rounding, and the
#: pressure, whose error the weaker quartic pair amplifies, keeps a relative
#: error near 1e-10 or below.
SCHUR_MARGIN = 1e-3


def _schur(A, B, M, tol):
    """Factor A once, as spd_solver does, for the pressure Schur complement
    S = B (I_k (x) A)^-1 B^T (see saddle_solve for k); the pressure Gram M
    must be diagonal.  Returns (solve_a, solve_m, BT, s_mv): solve_a solves
    with I_k (x) A by one multi-column solve and checks its residual as
    spd_solver's does, solve_m divides by the diagonal of M, BT is the view
    B^T, and s_mv applies S with the factor solve unchecked: cg and the
    eigensolver call it once per iteration (saddle_solve checks what cg
    returns)."""
    M = sp.csr_matrix(M)
    d = M.diagonal()
    # with d > 0, M is diagonal when its only nonzeros are those of d
    if not (d > 0).all() or M.count_nonzero() != d.size:
        raise ValueError("the pressure Gram must be diagonal with a positive "
                         "diagonal (L2-orthogonal pressure modes)")
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if n == 0 or B.shape[1] % n:
        raise ValueError(f"B's {B.shape[1]} columns: not a multiple of {n}")
    lu_solve = partial(_per_component, partial(_splu(A.T).solve, trans="T"), n)
    solve_a = _checked(partial(_per_component, A.dot, n), lu_solve, tol)
    BT = B.T

    def solve_m(q):
        return q / d

    def s_mv(q):
        return B @ lu_solve(BT @ q)

    return solve_a, solve_m, BT, s_mv


def _smallest_eig(s_mv, solve_m, npres, tol, mean=None) -> float:
    """sqrt of the smallest eigenvalue of s_mv(q) = lam M q for the diagonal
    M that solve_m inverts, from the standard form M^-1/2 S M^-1/2.  Given
    the mean functional m (m @ q the integral of the pressure q, in a space
    holding the constants), S gets the shift m m^T / (m^T M^-1 m): S
    vanishes on the constant, the shift moves it to eigenvalue 1 and leaves
    the mean-zero eigenpairs as they are.  From Lanczos (ARPACK), or for
    one pressure DoF its Rayleigh quotient.  An eigenvalue at or below tol
    reads 0: it is the round-off of a singular S (2e-16 for g3p2 at n=1),
    as the mean shift puts the top of the spectrum at 1 or above."""
    if mean is not None:
        mean = np.asarray(mean, dtype=float)
        mMm = float(mean @ solve_m(mean))
        unshifted = s_mv

        def s_mv(q):
            return unshifted(q) + mean * ((mean @ q) / mMm)

    scale = np.sqrt(solve_m(np.ones(npres)))
    if npres == 1:      # ARPACK needs k < n: the Rayleigh quotient
        lam = (scale * s_mv(scale))[0]
    else:
        op = spla.LinearOperator((npres, npres), dtype=float,
                                 matvec=lambda x: scale * s_mv(scale * x))
        # a fixed start vector: a symmetric one can miss the extreme mode
        # on the symmetric criss mesh
        v0 = np.random.default_rng(0).standard_normal(npres)
        try:
            lam = spla.eigsh(op, k=1, which="SA", v0=v0,
                             tol=max(tol, 1e-12), return_eigenvectors=False)[0]
        except spla.ArpackError as exc:
            raise SolverError(f"inf-sup eigensolve failed: {exc}") from exc
    return float(np.sqrt(lam)) if lam > tol else 0.0


def saddle_solve(A, B, f, M, mean=None, tol: float = 1e-10):
    """Solve [[I_k (x) A, B^T], [B, 0]] [u; p] = [f; 0] by SciPy's cg on
    the pressure Schur complement.

    A is the SPD Gram of one velocity component, factored once for all
    k = B.shape[1] / A.shape[0] components of u and f, component-major as
    assembled (ValueError if k is not whole).  S = B A^-1 B^T is
    preconditioned by the pressure Gram M, which is spectrally equivalent
    to S for an inf-sup stable pair (Benzi, Golub and Liesen, Acta Numerica
    2005); M must be diagonal, and its inverse is a division.  cg runs from
    p = 0 on S p = B A^-1 f, then u = A^-1 (f - B^T p).  These two solves
    are checked (spd_solver); cg applies S unchecked (s_mv), as p only
    feeds the last solve, and both block residuals of the returned (u, p)
    are checked with A itself, so a bad factor or a breakdown
    (p^T S p <= 0) fails a check instead of returning a wrong pair.  S has
    no mean shift here: B^T vanishes on the constant, so cg's residuals are
    orthogonal to it up to round-off.
    With the mean functional m the returned p is M-orthogonal to the constant:
    p -= (m @ p) / (m @ z) z with z = M^-1 m.  If the check fails, the
    SolverError names the inf-sup constant of the pair (shift included),
    computed from the same factorization.  Returns (u, p, cg's iterations).
    """
    npres = B.shape[0]
    solve_a, solve_m, BT, s_mv = _schur(A, B, M, tol)
    if npres == 0:
        return solve_a(f), np.zeros(0), 0
    scale = max(1.0, np.linalg.norm(f))
    steps = []
    S, Minv = (spla.LinearOperator((npres, npres), matvec=mv, dtype=float)
               for mv in (s_mv, solve_m))

    def step(p):    # cg goes on after a breakdown, on NaN: stop it there
        if not np.isfinite(p).all():
            raise FloatingPointError
        steps.append(None)

    # a breakdown turns p non-finite or wrong: the checks below catch it
    with np.errstate(all="ignore"):
        try:
            p = spla.cg(S, B @ solve_a(f), rtol=0.0,
                        atol=SCHUR_MARGIN * tol * scale, maxiter=SCHUR_MAXIT,
                        M=Minv, callback=step)[0]
        except FloatingPointError:
            p = np.full(npres, np.nan)
    r1 = r2 = np.inf
    if np.isfinite(p).all():
        u = solve_a(f - BT @ p)
        r1 = np.linalg.norm(_per_component(A.dot, A.shape[0], u) + BT @ p - f)
        r2 = np.linalg.norm(B @ u)
    if not (r1 <= tol * scale and r2 <= tol * scale):
        try:
            c_h = _smallest_eig(s_mv, solve_m, npres, tol, mean)
            diagnosis = f"inf-sup constant of the pair: {c_h:.6g}"
        except SolverError:
            diagnosis = "inf-sup constant could not be computed"
        raise SolverError("saddle point solve did not reach tolerance "
                          f"(residuals {r1:.3e}, {r2:.3e}); {diagnosis}",
                          residual=max(r1, r2) / scale)
    if mean is not None:
        z = solve_m(mean)
        p -= (mean @ p) / (mean @ z) * z
    return u, p, len(steps)


def infsup_constant(B, A, Mp, tol: float = 1e-10, mean=None) -> float:
    """sqrt of the smallest eigenvalue of B (I_k (x) A)^-1 B^T q = lam Mp q.

    A is the Gram of one velocity component, as in saddle_solve, Mp the
    pressure Gram (diagonal, positive); B pairs the pressure basis with the
    component-major velocity basis, as assembled.  When the pressures are
    the mean-zero subspace of a space holding the constants, mean is the
    mean functional m and the constant mode is deflated (_smallest_eig).
    A smallest eigenvalue at or below tol reports 0: the pair is unstable.
    """
    B = sp.csr_matrix(B)
    if B.shape[0] == 0:
        raise ValueError("empty pressure space")
    _, solve_m, _, s_mv = _schur(A, B, Mp, tol)
    return _smallest_eig(s_mv, solve_m, B.shape[0], tol, mean)


def kernel_dimension(A, tol: float = 1e-8) -> int:
    """Dimension of the kernel of A (columns = domain).

    Counts the eigenvalues of the smaller Gram matrix G, A A^T or A^T A,
    below tol * ||G||_inf, and the columns beyond the rows: about the
    singular values below sqrt(tol) * sigma_max.  ||G||_inf, the largest
    absolute row sum, bounds lambda_max from above (1.12-1.55 lambda_max on
    rot's Grams on criss meshes, n = 2 to 32, whose kernel eigenvalues sit
    near 1e-16 lambda_max and the others at 1e-4 lambda_max or above).
    The count is that of negative diagonal entries of U in the _splu factor
    of G - tol * ||G||_inf I: with diagonal pivots (perm_r == perm_c) the
    factor is a congruence, so Sylvester's law of inertia makes the count
    exact; an off-diagonal pivot raises SolverError.
    """
    A = sp.csr_matrix(A, dtype=float)
    ncols = A.shape[1]
    if min(A.shape) == 0:
        return ncols
    G = A @ A.T if A.shape[0] <= ncols else A.T @ A
    norm = spla.norm(G, np.inf)
    if norm == 0.0:
        return ncols
    lu = _splu(sp.csc_matrix(G - tol * norm * sp.identity(G.shape[0])))
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("shifted Gram factor pivoted off the diagonal; its "
                          "pivots give no inertia count")
    return ncols - G.shape[0] + int(np.count_nonzero(lu.U.diagonal() < 0.0))


def matrix_rank(A, tol: float = 1e-8) -> int:
    """Number of columns less the kernel dimension: the Gram eigenvalues at
    or above tol * ||G||_inf (see kernel_dimension)."""
    return np.shape(A)[1] - kernel_dimension(A, tol)
