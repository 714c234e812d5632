import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from biharmfem.biharmonic import _constant
from biharmfem.linalg import (SaddleSystem, SolverError, _pin_mmap_threshold,
                              _splu, cg_solve, infsup_constant, is_symmetric,
                              kernel_dimension, matrix_rank, saddle_solve)
from biharmfem.mesh import generate_structured
from biharmfem.spaces import assemble_bilinear, build_space


def test_cg_identity():
    A = sp.identity(5, format="csr")
    b = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    assert np.allclose(cg_solve(A, b), b, atol=1e-12)


def test_cg_1d_laplacian():
    # tridiag(-1, 2, -1), b = ones, n = 4  ->  x = (2, 3, 3, 2)
    A = sp.diags([[-1.0] * 3, [2.0] * 4, [-1.0] * 3], [-1, 0, 1], format="csr")
    x = cg_solve(A, np.ones(4), tol=1e-14)
    assert np.allclose(x, [2.0, 3.0, 3.0, 2.0], atol=1e-10)


def test_cg_zero_rhs():
    A = sp.identity(3, format="csr")
    assert np.array_equal(cg_solve(A, np.zeros(3)), np.zeros(3))


def test_cg_nonconvergence_error():
    n = 50
    A = sp.diags([[-1.0] * (n - 1), [2.0] * n, [-1.0] * (n - 1)], [-1, 0, 1],
                 format="csr")
    with pytest.raises(SolverError) as err:
        cg_solve(A, np.ones(n), tol=1e-14, maxit=3)
    assert err.value.residual is not None


def test_cg_deterministic():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((30, 30))
    A = sp.csr_matrix(M @ M.T + 30 * np.eye(30))
    b = rng.standard_normal(30)
    x1 = cg_solve(A, b)
    x2 = cg_solve(A, b)
    assert x1.tobytes() == x2.tobytes()


def test_saddle_empty_pressure_reduces_to_spd_solve():
    A = sp.diags([2.0, 3.0], format="csr")
    B = sp.csr_matrix((0, 2))
    u, p, _ = saddle_solve(SaddleSystem(A, B, np.array([2.0, 6.0]), np.zeros(0),
                                     M=sp.identity(0)))
    assert np.allclose(u, [1.0, 2.0])
    assert p.size == 0


def test_saddle_hand_system():
    # A = diag(2, 4), B = [1, 1], f = (1, 2), g = (3,)
    # u = ((1-p)/2, (2-p)/4); u1 + u2 = 3  =>  4 - 3p = 12  =>  p = -8/3,
    # u = (11/6, 7/6)
    A = sp.diags([2.0, 4.0], format="csc")
    B = sp.csr_matrix(np.array([[1.0, 1.0]]))
    u, p, _ = saddle_solve(SaddleSystem(A, B, np.array([1.0, 2.0]),
                                     np.array([3.0]), M=sp.identity(1)),
                        tol=1e-12)
    assert p[0] == pytest.approx(-8.0 / 3.0, abs=1e-12)
    assert np.allclose(u, [11.0 / 6.0, 7.0 / 6.0], atol=1e-12)


def test_saddle_rank_deficient_rejected():
    A = sp.identity(2, format="csr")
    B = sp.csr_matrix(np.zeros((1, 2)))
    with pytest.raises(SolverError):
        saddle_solve(SaddleSystem(A, B, np.zeros(2), np.array([1.0]),
                                  M=sp.identity(1)))


@pytest.mark.parametrize("pair,jittered", [(("G2_0", "DG1"), False),
                                           (("G3_0", "DG2"), True)],
                         ids=["cubic-criss", "quartic-jittered"])
def test_saddle_schur_pcg_matches_monolithic_lu(request, pair, jittered):
    mesh = (request.getfixturevalue("jittered4") if jittered
            else generate_structured(4))
    vel, pres = (build_space(mesh, kind) for kind in pair)
    A = assemble_bilinear(vel, vel, "grad_grad")
    B = assemble_bilinear(vel, pres, "rot_pressure")
    M = assemble_bilinear(pres, pres, "mass")
    # B^T vanishes on the DG constant 1_h, so B u = g needs g orthogonal to it
    one, m = _constant(pres, M)
    rng = np.random.default_rng(11)
    f, g = rng.standard_normal(vel.ndof), rng.standard_normal(pres.ndof)
    g -= (one @ g) / (one @ one) * one
    u, p, _ = saddle_solve(SaddleSystem(A, B, f, g, M))
    # reference: the monolithic system bordered by the mean constraint m p = 0
    # through one Lagrange multiplier
    K = sp.bmat([[A, B.T, None], [B, None, m[:, None]],
                 [None, m[None, :], None]], format="csc")
    ref = spla.spsolve(K, np.concatenate([f, g, [0.0]]))
    u_ref, p_ref = ref[:vel.ndof], ref[vel.ndof:-1]
    p -= (m @ p) / (m @ one) * one
    assert np.linalg.norm(u - u_ref) <= 1e-8 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-8 * np.linalg.norm(p_ref)


def test_saddle_singular_velocity_block_rejected():
    A = sp.csr_matrix((2, 2))
    B = sp.csr_matrix(np.array([[1.0, 1.0]]))
    with pytest.raises(SolverError, match="factorization failed"):
        saddle_solve(SaddleSystem(A, B, np.ones(2), np.zeros(1),
                                  M=sp.identity(1)))


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


def test_kernel_dimension_zero_and_identity():
    assert kernel_dimension(sp.csr_matrix((4, 4))) == 4
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


def test_kernel_dimension_quartic_n16():
    # the smallest nonzero Gram eigenvalue is about 1e-4 of the largest: a
    # threshold of 1e-16 (the square of the singular-value one) miscounts
    mesh = generate_structured(16)
    B = assemble_bilinear(build_space(mesh, "G3_0"), build_space(mesh, "DG2"),
                          "rot_pressure")
    assert kernel_dimension(B, tol=1e-8) == 4 * mesh.n_interior_vertices \
        + 2 * mesh.n_interior_edges - 3


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
    import scipy.linalg as sla
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
    Mp_half = rng.standard_normal((npres, npres))
    Mp = sp.csr_matrix(Mp_half @ Mp_half.T + npres * np.eye(npres))
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
    f, g = rng.standard_normal(20), rng.standard_normal(5)
    u1, p1, _ = saddle_solve(SaddleSystem(A, B, f, g, M=sp.identity(5)))
    u2, p2, _ = saddle_solve(SaddleSystem(A, B, f, g, M=sp.identity(5)))
    assert u1.tobytes() == u2.tobytes() and p1.tobytes() == p2.tobytes()


def test_matrix_market_dump(tmp_path):
    from biharmfem.linalg import dump_matrix_market
    from scipy.io import mmread
    A = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
    path = tmp_path / "a.mtx"
    dump_matrix_market(A, path)
    B = mmread(str(path)).tocsr()
    assert (abs(A - B)).max() == 0.0
