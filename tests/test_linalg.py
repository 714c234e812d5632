import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, strategies as st

import biharmfem.linalg as la
from biharmfem.linalg import (SolverError, _pin_mmap_threshold, _splu,
                              infsup_constant, kernel_dimension, matrix_rank,
                              saddle_solve)
from biharmfem.mesh import generate_structured, refine_uniform
from biharmfem.schemes import DECOMPOSED, PAIRS, SCHEMES
from biharmfem.spaces import assemble_bilinear, build_space
from biharmfem.stokes_complex import weak_rotfree_basis
from conftest import count_calls
from oracles import _negative_pivots, is_symmetric, pcg_saddle_solve


def test_saddle_empty_pressure_reduces_to_spd_solve():
    A = sp.diags([2.0, 3.0], format="csr")
    B = sp.csr_matrix((0, 2))
    u, p, _ = saddle_solve(A, B, np.array([2.0, 6.0]), sp.identity(0))
    assert np.allclose(u, [1.0, 2.0])
    assert p.size == 0


def test_saddle_hand_system():
    # A = diag(2, 4), B = [1, 1], f = (1, 2), B u = 0
    # u = ((1-p)/2, (2-p)/4); u1 + u2 = 0  =>  4 - 3p = 0  =>  p = 4/3,
    # u = (-1/6, 1/6)
    A = sp.diags([2.0, 4.0], format="csc")
    B = sp.csr_matrix(np.array([[1.0, 1.0]]))
    u, p, _ = saddle_solve(A, B, np.array([1.0, 2.0]), sp.identity(1),
                           tol=1e-12)
    assert p[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert np.allclose(u, [-1.0 / 6.0, 1.0 / 6.0], atol=1e-12)


def _stokes(mesh, pair):
    """(A, B, M, m) of a velocity/pressure pair: the velocity Gram, rot, the
    pressure Gram and the mean functional."""
    vel, pres = (build_space(mesh, kind) for kind in pair)
    M = assemble_bilinear(pres, pres, "mass")
    one = np.zeros(pres.ndof)
    one[::pres.nloc] = 1.0      # the constant 1: each cell's first DG mode
    return (assemble_bilinear(vel, vel, "grad_grad"),
            assemble_bilinear(vel, pres, "rot_pressure"), M, M @ one)


@pytest.mark.parametrize("pair,jittered", [(("G2_0", "DG1"), False),
                                           (("G3_0", "DG2"), True)],
                         ids=["cubic-criss", "quartic-jittered"])
def test_saddle_schur_pcg_matches_monolithic_lu(request, pair, jittered):
    mesh = (request.getfixturevalue("jittered4") if jittered
            else generate_structured(4))
    A, B, M, m = _stokes(mesh, pair)
    nvel, npres = B.shape[1], B.shape[0]
    f = np.random.default_rng(11).standard_normal(nvel)
    u, p, _ = saddle_solve(A, B, f, M, mean=m)
    # reference: the monolithic system bordered by the mean constraint m p = 0
    # through one Lagrange multiplier
    K = sp.bmat([[A, B.T, None], [B, None, m[:, None]],
                 [None, m[None, :], None]], format="csc")
    ref = spla.spsolve(K, np.concatenate([f, np.zeros(npres + 1)]))
    u_ref, p_ref = ref[:nvel], ref[nvel:-1]
    assert abs(m @ p) <= 1e-14 * np.linalg.norm(m) * np.linalg.norm(p)
    assert np.linalg.norm(u - u_ref) <= 1e-8 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-8 * np.linalg.norm(p_ref)


@pytest.mark.parametrize("mesh_name", ["criss8", "jittered4", "relabeled4"])
@pytest.mark.parametrize("pair", ["g2p1", "g3p2"])
def test_saddle_cg_matches_hand_written_pcg(request, mesh_name, pair):
    # SciPy's cg is the same recurrence in the same floating-point order
    mesh = _oracle_mesh(request, mesh_name)
    vel = build_space(mesh, PAIRS[pair][0])
    A, B, M, m = _stokes(mesh, PAIRS[pair])
    K = assemble_bilinear(vel.component, vel.component, "grad_grad")
    f = np.random.default_rng(13).standard_normal(B.shape[1])
    u, p, iterations = saddle_solve(K, B, f, M, mean=m)
    u_ref, p_ref, it_ref = pcg_saddle_solve(K, B, f, M, mean=m)
    assert iterations == it_ref > 0
    assert np.array_equal(u, u_ref) and np.array_equal(p, p_ref)


def test_saddle_breakdown_is_a_solver_error(monkeypatch):
    # p^T S p = 0 at the first step: cg divides by zero, stops at its first
    # non-finite iterate instead of going on for SCHUR_MAXIT steps, and the
    # checks at the ends reject it without letting a warning out
    A, B, M, m = _stokes(generate_structured(4), ("G2_0", "DG1"))
    schur = la._schur
    calls = []

    def broken(*args):
        solve_a, solve_m, BT, s_mv = schur(*args)

        def zero(q):
            calls.append(None)
            return np.zeros_like(q)

        return solve_a, solve_m, BT, zero

    monkeypatch.setattr(la, "_schur", broken)
    f = np.random.default_rng(11).standard_normal(B.shape[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="did not reach tolerance"):
            saddle_solve(A, B, f, M, mean=m)
    assert len(calls) < 50


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_infsup_matches_dense_shifted_schur(pair, n):
    # the generalized eigenproblem of the explicitly formed S, shifted by
    # m m^T / (m^T Mp^-1 m), against Lanczos (and the Rayleigh quotient of
    # a one-DoF pressure space)
    A, B, M, m = _stokes(generate_structured(n), PAIRS[pair])
    Bd, Md = B.toarray(), M.toarray()
    k = B.shape[1] // A.shape[0]
    S = Bd @ np.linalg.solve(np.kron(np.eye(k), A.toarray()), Bd.T)
    S += np.outer(m, m) / (m @ np.linalg.solve(Md, m))
    lam = sla.eigh(S, Md, eigvals_only=True)[0]
    got = infsup_constant(B, A, M, mean=m)
    if pair == "g3p2" and n == 1:
        assert got == 0.0 and abs(lam) <= 1e-10
    else:
        assert got == pytest.approx(np.sqrt(lam), rel=1e-12)


@pytest.mark.parametrize("pair,jittered", [(("G2_0", "DG1"), False),
                                           (("G3_0", "DG2"), True)],
                         ids=["cubic-criss", "quartic-jittered"])
def test_component_gram_matches_vector_gram(request, pair, jittered):
    # one factor of the component Gram K, with B and f as assembled (the
    # velocity DOFs are component-major), solves the same system as the
    # vector Gram I_2 (x) K
    mesh = (request.getfixturevalue("jittered4") if jittered
            else generate_structured(4))
    A, B, M, m = _stokes(mesh, pair)
    vel = build_space(mesh, pair[0])
    K = assemble_bilinear(vel.component, vel.component, "grad_grad")
    f = np.random.default_rng(11).standard_normal(B.shape[1])
    u_ref, p_ref, it_ref = saddle_solve(A, B, f, M, mean=m)
    u, p, iterations = saddle_solve(K, B, f, M, mean=m)
    assert iterations == it_ref
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
    assert infsup_constant(B, K, M, mean=m) == pytest.approx(
        infsup_constant(B, A, M, mean=m), rel=1e-12)


def test_velocity_columns_must_be_whole_components():
    A = sp.diags([2.0, 4.0], format="csc")
    B = sp.csr_matrix(np.ones((1, 3)))
    with pytest.raises(ValueError, match="not a multiple"):
        saddle_solve(A, B, np.ones(3), sp.identity(1))
    with pytest.raises(ValueError, match="not a multiple"):
        infsup_constant(B, A, sp.identity(1))


def test_saddle_empty_pressure_solves_each_component():
    A = sp.diags([2.0, 3.0], format="csr")
    u, p, iterations = saddle_solve(A, sp.csr_matrix((0, 4)),
                                    np.array([2.0, 6.0, 4.0, 3.0]),
                                    sp.identity(0))
    assert np.allclose(u, [1.0, 2.0, 2.0, 1.0]) and p.size == 0
    assert iterations == 0


def test_saddle_projects_the_mean(monkeypatch):
    # PCG from p = 0 keeps m @ p at round-off by itself.  A preconditioner
    # that also adds a multiple of 1_h, which S annihilates, converges in the
    # same iterations but moves the mean; only the projection brings m @ p
    # back to round-off.
    A, B, M, m = _stokes(generate_structured(4), ("G2_0", "DG1"))
    one = m / M.diagonal()
    f = np.random.default_rng(11).standard_normal(B.shape[1])
    u_ref, p_ref, iterations = saddle_solve(A, B, f, M, mean=m)
    schur = la._schur

    def drifting(*args):
        solve_a, solve_m, BT, s_mv = schur(*args)
        return (solve_a, lambda q: solve_m(q) + np.linalg.norm(q) * one, BT,
                s_mv)

    monkeypatch.setattr(la, "_schur", drifting)
    u, p, drifted = saddle_solve(A, B, f, M, mean=m)
    assert drifted == iterations
    assert abs(m @ p) <= 1e-14 * np.linalg.norm(m) * np.linalg.norm(p)
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)


def test_saddle_rejects_a_bad_factor(monkeypatch):
    # the PCG loop solves with the factor unchecked; a factor of a perturbed
    # Gram still ends in a SolverError, from the checked solves at its ends
    A, B, M, m = _stokes(generate_structured(4), ("G2_0", "DG1"))
    splu = la._splu
    monkeypatch.setattr(la, "_splu", lambda K: splu(
        (K + 1e-3 * abs(K).max() * sp.identity(K.shape[0])).tocsc()))
    f = np.random.default_rng(11).standard_normal(B.shape[1])
    with pytest.raises(SolverError):
        saddle_solve(A, B, f, M, mean=m)


def test_saddle_checks_a_fixed_number_of_products(monkeypatch):
    # residual checks apply A at the ends of the solve only, so their count
    # does not grow with the PCG iterations
    A, B, M, m = _stokes(generate_structured(4), ("G3_0", "DG2"))
    f = np.random.default_rng(11).standard_normal(B.shape[1])
    products = count_calls(monkeypatch, sp.csr_matrix, "dot")
    counts = {}
    for tol in (1e-2, 1e-10):
        products.clear()
        iterations = saddle_solve(A, B, f, M, mean=m, tol=tol)[2]
        counts[iterations] = len(products)
    few, many = sorted(counts)
    assert few >= 5 and many >= 25
    assert counts[few] == counts[many]


def test_eigensolver_failure_is_a_solver_error(monkeypatch):
    A, B, M, m = _stokes(generate_structured(4), ("G2_0", "DG1"))

    def failing(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(la.spla, "eigsh", failing)
    with pytest.raises(SolverError, match="inf-sup eigensolve failed"):
        infsup_constant(B, A, M, mean=m)
    # a failed Stokes solve reports that the diagnosis failed too
    monkeypatch.setattr(la, "SCHUR_MAXIT", 1)
    f = np.random.default_rng(11).standard_normal(B.shape[1])
    with pytest.raises(SolverError, match="inf-sup constant could not be "
                                          "computed"):
        saddle_solve(A, B, f, M, mean=m)


def test_off_diagonal_pivot_is_a_solver_error(monkeypatch):
    # the negative pivots of an LU with perm_r != perm_c are no inertia
    B = _stokes(generate_structured(4), ("G2_0", "DG1"))[1]
    splu = la._splu

    def pivoting(H):
        lu = splu(H)
        return SimpleNamespace(perm_r=np.roll(lu.perm_r, 1),
                               perm_c=lu.perm_c, U=lu.U)

    monkeypatch.setattr(la, "_splu", pivoting)
    with pytest.raises(SolverError, match="pivoted off the diagonal"):
        kernel_dimension(B)


def test_nondiagonal_pressure_gram_rejected():
    A = sp.diags([2.0, 4.0, 3.0], format="csc")
    B = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    Mp = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="must be diagonal"):
        infsup_constant(B, A, Mp)
    with pytest.raises(ValueError, match="must be diagonal"):
        saddle_solve(A, B, np.ones(3), Mp)


def test_saddle_singular_velocity_block_rejected():
    A = sp.csr_matrix((2, 2))
    B = sp.csr_matrix(np.array([[1.0, 1.0]]))
    with pytest.raises(SolverError, match="factorization failed"):
        saddle_solve(A, B, np.ones(2), sp.identity(1))


@pytest.mark.parametrize("kind", ["A3_0", "G2_0"])
def test_spd_factorization_pivots_depend_on_pattern_only(kind):
    # The criss mesh is full of pivot ties: with partial pivoting a change
    # of 4e-16 relative in the values changed the row permutation.
    space = build_space(generate_structured(4), kind)
    A = assemble_bilinear(space, space, "grad_grad").tocsc()
    E = sp.triu(A, format="coo")
    E.data *= np.random.default_rng(3).uniform(-4e-16, 4e-16, E.nnz)
    lu, lu_perturbed = _splu(A), _splu((A + E + sp.triu(E, 1).T).tocsc())
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert np.array_equal(lu_perturbed.perm_r, lu.perm_r)
    assert np.array_equal(lu_perturbed.perm_c, lu.perm_c)
    # the solvers factor the CSC view A^T of the CSR A: the same permutations
    lu_view = _splu(A.tocsr().T)
    assert np.array_equal(lu_view.perm_r, lu.perm_r)
    assert np.array_equal(lu_view.perm_c, lu.perm_c)


def test_transposed_factor_solves_a_not_its_transpose():
    # the assembled Grams are symmetric to 3e-16 relative, so on them a
    # solve with A^T would pass every residual check.  A is positive definite
    # and not symmetric: a Gram plus the skew part 1e-2 (E - E^T).
    space = build_space(generate_structured(4), "A3_0")
    A = assemble_bilinear(space, space, "grad_grad")
    E = sp.triu(A, 1, format="csr")
    E.data = np.random.default_rng(5).uniform(-1, 1, E.nnz) * abs(A).max()
    A = (A + 1e-2 * (E - E.T)).tocsr()
    n = A.shape[0]
    b = np.random.default_rng(6).standard_normal(2 * n)
    bnorm = np.linalg.norm(b[:n])
    wrong = _splu(A.T).solve(b[:n])  # A^T x = b
    assert np.linalg.norm(A @ wrong - b[:n]) > 1e-4 * bnorm
    x = la.spd_solver(A)(b[:n])
    assert np.linalg.norm(A @ x - b[:n]) <= 1e-10 * bnorm
    solve_a = la._schur(A, sp.csr_matrix((1, 2 * n)), sp.identity(1),
                        1e-10)[0]
    u = solve_a(b).reshape(2, n)
    assert np.linalg.norm(A @ u.T - b.reshape(2, n).T) <= \
        1e-10 * np.linalg.norm(b)


def test_non_finite_right_hand_side_is_a_solver_error():
    # checked before the solve: no NaN residual, no warning
    solve = la.spd_solver(sp.identity(3, format="csr"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in ([np.inf, 1.0, 1.0], [np.nan, 0.0, 0.0]):
            with pytest.raises(SolverError, match="not finite"):
                solve(np.array(b))


def test_non_finite_residual_is_a_solver_error():
    def solve_to_nan(b):
        return np.full_like(b, np.nan)

    solve = la._checked(lambda x: x, solve_to_nan, 1e-10)
    with pytest.raises(SolverError, match="residual nan"):
        solve(np.ones(3))


def test_solves_factor_the_callers_csr_without_a_copy(monkeypatch):
    A, B, M, m = _stokes(generate_structured(4), ("G2_0", "DG1"))
    factored, splu = [], la._splu

    def recording(matrix):
        factored.append(matrix)
        return splu(matrix)

    monkeypatch.setattr(la, "_splu", recording)
    la.spd_solver(A)(np.ones(A.shape[0]))
    saddle_solve(A, B, np.ones(B.shape[1]), M, mean=m)
    infsup_constant(B, A, M, mean=m)
    assert len(factored) == 3
    assert all(np.shares_memory(F.data, A.data) for F in factored)
    BT = la._schur(A, B, M, 1e-10)[2]
    assert np.shares_memory(BT.data, B.data)


def test_freed_large_buffers_leave_no_resident_heap():
    # Once an mmapped 20 MB buffer is freed, glibc's dynamic threshold puts
    # the next 8 MB buffer on the heap and keeps it resident after it is
    # freed (about 8 MB in a process that does not import biharmfem).
    if not os.path.exists("/proc/self/statm") or not _pin_mmap_threshold():
        pytest.skip("needs glibc and /proc")
    code = textwrap.dedent("""
        import os
        import numpy as np
        import biharmfem

        def rss():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        a = np.ones(20 << 17)
        del a
        base = rss()
        b = np.ones(8 << 17)
        del b
        print(rss() - base)
        """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                         "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    assert int(out) < 1 << 20


#: a matrix size of the kernel-dimension tests
DENSE_MAX = 40


def test_kernel_dimension_zero_and_identity():
    assert kernel_dimension(sp.csr_matrix((4, 4))) == 4
    assert kernel_dimension(sp.csr_matrix((2 * DENSE_MAX, 50))) == 50
    assert kernel_dimension(sp.identity(4, format="csr")) == 0
    A = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    assert kernel_dimension(A) == 2
    assert matrix_rank(A) == 1


def _rank_r(rows, cols, r, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))


@pytest.mark.parametrize("shape", [(40, 25), (25, 40)], ids=["tall", "wide"])
def test_kernel_dimension_known_rank(shape):
    A = _rank_r(*shape, 10, seed=41)
    assert kernel_dimension(sp.csr_matrix(A)) == shape[1] - 10
    assert matrix_rank(sp.csr_matrix(A)) == 10


def test_kernel_dimension_dense_input():
    A = _rank_r(30, 18, 7, seed=42)
    assert kernel_dimension(A) == 11
    assert kernel_dimension(A.tolist()) == 11
    assert matrix_rank(A) == 7
    assert kernel_dimension(np.zeros((0, 5))) == 5


@given(st.sampled_from(["tall", "wide"]), st.booleans(), st.booleans(),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=2**16))
def test_kernel_dimension_matches_svd_count(orientation, above_cutoff, sparse,
                                            extra, rank, seed):
    # the Gram eigenvalue test lambda >= tol lambda_max is the singular value
    # test sigma >= sqrt(tol) sigma_max, on either side of the dense cutoff
    rng = np.random.default_rng(seed)
    short = int(rng.integers(DENSE_MAX + 1, 2 * DENSE_MAX)) if above_cutoff \
        else int(rng.integers(1, DENSE_MAX + 1))
    shape = (short + extra, short) if orientation == "tall" \
        else (short, short + extra)
    rank = min(rank, short)
    U = rng.standard_normal((shape[0], rank))
    V = rng.standard_normal((rank, shape[1]))
    if sparse:
        U[rng.random(U.shape) < 0.5] = 0.0
        V[rng.random(V.shape) < 0.5] = 0.0
    A = U @ V
    sigma = np.linalg.svd(A, compute_uv=False)
    cut = np.sqrt(1e-8) * sigma[0]
    assume(not np.any((sigma > 1e-3 * cut) & (sigma < 1e3 * cut)))
    want = shape[1] - (int(np.count_nonzero(sigma >= cut)) if sigma[0] > 0
                       else 0)
    assert kernel_dimension(sp.csr_matrix(A) if sparse else A, tol=1e-8) \
        == want


@given(st.sampled_from(["random", "zero block", "zero diagonal",
                        "2x2 blocks"]),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=2**16))
def test_negative_pivots_match_eigenvalue_count(kind, n, seed):
    # zero diagonals force Bunch-Kaufman's 2x2 pivots, often several in a row
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    H = X + X.T
    if kind == "zero block":
        H[:n // 2, :n // 2] = 0.0
    elif kind == "zero diagonal":
        H[np.diag_indices(n)] = 0.0
    elif kind == "2x2 blocks":
        # [[0, b], [b, c]] blocks, one negative eigenvalue each, in a random
        # order of rows
        H = np.diag(rng.standard_normal(n))
        for k in range(0, n - 1, 2):
            H[k, k] = 0.0
            H[k, k + 1] = H[k + 1, k] = rng.uniform(0.5, 2.0)
        perm = rng.permutation(n)
        H = H[np.ix_(perm, perm)]
    lam = sla.eigvalsh(H)
    assume(np.abs(lam).min() > 1e-8 * np.abs(lam).max())
    assert _negative_pivots(H.copy()) == np.count_nonzero(lam < 0.0)


def test_negative_pivots_reads_runs_of_2x2_blocks():
    # a zero-diagonal matrix whose factorization has consecutive 2x2 pivots,
    # two of them with the same interchange index
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 20))
    H = X + X.T
    H[np.diag_indices(20)] = 0.0
    ipiv = sla.lapack.dsytrf(H)[1]
    neg = ipiv[ipiv < 0]
    assert len(neg) >= 8 and len(set(neg)) < len(neg) // 2
    assert _negative_pivots(H.copy()) == np.count_nonzero(sla.eigvalsh(H) < 0)


def test_kernel_dimension_quartic_n16():
    # the smallest nonzero Gram eigenvalue is about 1e-4 of the largest: a
    # threshold of 1e-16 (the square of the singular-value one) miscounts.
    # One sparse factor of the shifted Gram peaks at 3.7 MiB; the dense Gram
    # and its Bunch-Kaufman factor peaked at 73.8 MiB
    mesh = generate_structured(16)
    B = assemble_bilinear(build_space(mesh, "G3_0"), build_space(mesh, "DG2"),
                          "rot_pressure")
    tracemalloc.start()
    try:
        kernel = kernel_dimension(B, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel == 4 * mesh.n_interior_vertices \
        + 2 * mesh.n_interior_edges - 3
    assert peak <= 12 * 2**20


def _dense_kernel(A, tol: float) -> int:
    """kernel_dimension's count from the dense Bunch-Kaufman inertia of the
    same shifted Gram."""
    A = sp.csr_matrix(A)
    G = (A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A).toarray()
    shift = tol * np.abs(G).sum(axis=1).max()
    return A.shape[1] - len(G) + _negative_pivots(G - shift * np.eye(len(G)))


def _oracle_mesh(request, name):
    if name.startswith("criss"):
        return generate_structured(int(name[5:]))
    if name == "refined2":
        return refine_uniform(generate_structured(2))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("order", DECOMPOSED)
@pytest.mark.parametrize("mesh_name", ["criss2", "criss4", "criss8",
                                       "jittered4", "relabeled4", "refined2",
                                       "lshape8", "holed8"])
def test_sparse_inertia_matches_dense_oracle(request, mesh_name, order):
    # rot's Gram: the sparse count is the dense one and the derived kernel,
    # which on the holed mesh holds the discrete harmonic field too
    mesh = _oracle_mesh(request, mesh_name)
    vel, pres = (build_space(mesh, kind) for kind in PAIRS[SCHEMES[order][1]])
    B = assemble_bilinear(vel, pres, "rot_pressure")
    kernel = kernel_dimension(B, tol=1e-8)
    assert kernel == _dense_kernel(B, 1e-8) == vel.ndof - pres.ndof + 1
    if mesh_name == "holed8":
        assert kernel == {"cubic": 193, "quartic": 337}[order]


@pytest.mark.parametrize("mesh_name", ["criss8", "jittered4", "relabeled4"])
def test_sparse_inertia_matches_dense_oracle_on_candidates(request,
                                                           mesh_name):
    # weak_rotfree_basis checks its candidate functions by this rank
    M = weak_rotfree_basis(_oracle_mesh(request, mesh_name)).matrix
    assert kernel_dimension(M, tol=1e-10) == _dense_kernel(M, 1e-10) == 0


def test_infsup_one_dimensional_case():
    # dim(pressure) = 1: value is ||A^{-1/2} B^T q|| / ||q||_Mp
    A = sp.diags([2.0, 8.0], format="csc")
    B = sp.csr_matrix(np.array([[2.0, 4.0]]))
    Mp = sp.csr_matrix(np.array([[4.0]]))
    got = infsup_constant(B, A, Mp)
    want = np.sqrt((2.0**2 / 2.0 + 4.0**2 / 8.0) / 4.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_infsup_singular_velocity_block_rejected():
    # rank-2 velocity Gram: the factorization fails with an actionable error
    A = sp.csc_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                [0.0, 0.0, 1.0]]))
    B = sp.csr_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(SolverError, match="factorization failed"):
        infsup_constant(B, A, sp.identity(2, format="csr"))


def test_infsup_small_dense_path():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((8, 8))
    A = sp.csc_matrix(M @ M.T + 8 * np.eye(8))
    B = sp.csr_matrix(rng.standard_normal((3, 8)))
    Mp = sp.csr_matrix(np.eye(3))
    c = infsup_constant(B, A, Mp)
    # brute-force reference via dense eigenvalues
    S = B.toarray() @ np.linalg.solve(A.toarray(), B.toarray().T)
    lam = sla.eigh(S, np.eye(3), eigvals_only=True)[0]
    assert c == pytest.approx(np.sqrt(max(lam, 0.0)), rel=1e-10)


def test_is_symmetric():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert is_symmetric(A)
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.1, 3.0]]))
    assert not is_symmetric(A)


def test_infsup_invariant_under_pressure_permutation():
    rng = np.random.default_rng(11)
    nu, npres = 40, 12
    M = rng.standard_normal((nu, nu))
    A = sp.csc_matrix(M @ M.T + nu * np.eye(nu))
    B = sp.csr_matrix(rng.standard_normal((npres, nu)))
    # a diagonal pressure Gram stays diagonal under a permutation
    Mp = sp.diags(rng.uniform(0.5, 2.0, npres), format="csr")
    base = infsup_constant(B, A, Mp)
    perm = rng.permutation(npres)
    P = sp.csr_matrix((np.ones(npres), (np.arange(npres), perm)),
                      shape=(npres, npres))
    permuted = infsup_constant(P @ B, A, P @ Mp @ P.T)
    assert permuted == pytest.approx(base, rel=1e-10)


def test_saddle_deterministic():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((20, 20))
    A = sp.csc_matrix(M @ M.T + 20 * np.eye(20))
    B = sp.csr_matrix(rng.standard_normal((5, 20)))
    f = rng.standard_normal(20)
    u1, p1, _ = saddle_solve(A, B, f, sp.identity(5))
    u2, p2, _ = saddle_solve(A, B, f, sp.identity(5))
    assert u1.tobytes() == u2.tobytes() and p1.tobytes() == p2.tobytes()


def test_cubic_solve_high_water_mark():
    # A fresh process, warmed up by an n=4 solve.  The high water of a cubic
    # criss n=32 solve over its starting RSS read 16.6-17.3 MiB while the
    # solve held CSC copies of A1 and K, a CSR copy of B^T and the stack of
    # D's cell matrices, and 12.7-13.6 MiB without them.
    if not os.path.exists("/proc/self/status") or not _pin_mmap_threshold():
        pytest.skip("needs glibc and /proc")
    code = textwrap.dedent("""
        import biharmfem as bf

        def status(key):
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh
                            if line.startswith(key))

        f = bf.manufactured("sin2").f
        bf.solve_cubic(bf.generate_structured(4), f)
        before = status("VmRSS:")
        bf.solve_cubic(bf.generate_structured(32), f)
        print(status("VmHWM:") - before)
        """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                         "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    assert int(out) <= 14.5 * 1024      # kB
