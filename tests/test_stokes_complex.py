import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import biharmfem.stokes_complex as sc
from biharmfem.mesh import Mesh, generate_structured, refine_uniform
from biharmfem.polynomials import BaryPoly
from biharmfem.quadrature import tri_rule
from biharmfem.spaces import assemble_bilinear, build_space
from biharmfem.stokes_complex import (NCUBIC, ComplexError, b3_basis,
                                      b3_membership_violation, bubble_correct,
                                      exactness_report,
                                      grad_inverse, weak_rotfree_basis,
                                      _cell_blocks, _edge_jump_violation,
                                      _vertex_violation)
from oracles import (cell_poly, coo_cell_blocks, cubic_poly,
                     edge_jump_moments, poly_gradient, poly_hessian)


@pytest.fixture(scope="module")
def mesh2():
    return generate_structured(2)


@pytest.fixture(scope="module")
def basis2(mesh2):
    return weak_rotfree_basis(mesh2)


def test_weak_rotfree_count_and_independence(mesh2, basis2):
    assert len(basis2) == 3 * 1 + 8 == 11


def test_phi_e_zero_tangential_mean(mesh2, basis2):
    edofs = basis2.space.meta["edge_dofs"]
    for vec, label in zip(basis2.matrix.toarray().T, basis2.labels):
        if label[0] != "edge":
            continue
        e = label[1]
        va, vb = (int(x) for x in mesh2.edges[e])
        t = mesh2.vertices[vb] - mesh2.vertices[va]
        t = t / np.linalg.norm(t)
        mean = np.array([vec[edofs[e, 0]], vec[edofs[e, 1]]])
        assert abs(mean @ t) < 1e-14
        n = np.array([t[1], -t[0]])
        assert mean @ n == pytest.approx(1.0, abs=1e-14)


def cell_rot_mean(space, c, coeffs):
    px, py = cell_poly(space, coeffs, c)
    geom = space.mesh.geometry(c)
    gx_py, _ = poly_gradient(py, geom.grad_lambda)
    _, gy_px = poly_gradient(px, geom.grad_lambda)
    return float((gx_py - gy_px).cell_average())


def test_weak_rotfree_basis_is_g2_with_zero_bubbles(mesh2, basis2):
    g2 = basis2.space
    assert g2.kind == "G2_0" and basis2.matrix.shape[0] == g2.ndof
    assert not basis2.matrix[g2.meta["cell_dofs"].ravel()].count_nonzero()


def test_weak_rotfree_cell_means_vanish(mesh2, basis2):
    for vec in basis2.matrix.toarray().T:
        for c in range(mesh2.n_cells):
            assert abs(cell_rot_mean(basis2.space, c, vec)) < 1e-12


def test_bubble_correct_makes_rot_pointwise_zero(mesh2, basis2):
    g2 = basis2.space
    dg1 = build_space(mesh2, "DG1")
    B = assemble_bilinear(g2, dg1, "rot_pressure")
    for vec in basis2.matrix.toarray().T:
        fixed = bubble_correct(g2, vec)
        assert np.abs(B @ fixed).max() < 1e-12


def test_bubble_correct_identity_on_rotfree_input(mesh2):
    g2 = build_space(mesh2, "G2_0")
    fixed = bubble_correct(g2, np.zeros(g2.ndof))
    assert np.array_equal(fixed, np.zeros(g2.ndof))


def test_bubble_correction_preserves_cell_means(mesh2, basis2):
    # the added bubble contributes zero cell-average rot itself
    g2 = basis2.space
    vec = basis2.matrix[:, 0].toarray().ravel()
    fixed = bubble_correct(g2, vec)
    delta = fixed - vec
    for c in range(mesh2.n_cells):
        assert abs(cell_rot_mean(g2, c, delta)) < 1e-13


def test_grad_inverse_zero(mesh2, grad_array):
    z = BaryPoly()
    w = grad_inverse(mesh2, grad_array(mesh2, lambda c: (z, z)))
    assert w.shape == (1, 10 * mesh2.n_cells) and w.nnz == 0
    assert all(cubic_poly(w, c).is_zero() for c in range(mesh2.n_cells))


def test_grad_inverse_roundtrip_on_b3(mesh2, grad_array):
    basis = b3_basis(mesh2)
    assert len(basis) == 11
    rng = np.random.default_rng(2024)
    for _ in range(5):
        total = basis.coeffs.T @ rng.standard_normal(len(basis))
        polys = [cubic_poly(total, c) for c in range(mesh2.n_cells)]

        def grad_of(c):
            geom = mesh2.geometry(c)
            return poly_gradient(polys[c], geom.grad_lambda)

        w2 = grad_inverse(mesh2, grad_array(mesh2, grad_of))
        err = 0.0
        pts = np.array([[1 / 3, 1 / 3, 1 / 3], [0.6, 0.2, 0.2],
                        [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
        for c in range(mesh2.n_cells):
            diff = polys[c] - cubic_poly(w2, c)
            if diff.coeffs:
                err = max(err, float(np.abs(diff.eval(pts)).max()))
        assert err < 1e-10


def test_grad_inverse_rejects_non_gradient(mesh2, grad_array):
    # a rot-free-per-cell field that is NOT globally a gradient: pick the
    # gradient of discontinuous per-cell polynomials with mismatched values
    rng = np.random.default_rng(5)
    consts = rng.standard_normal(mesh2.n_cells)

    def cellvec(c):
        geom = mesh2.geometry(c)
        p = BaryPoly({(1, 0, 0): consts[c], (2, 0, 0): 1.0})
        return poly_gradient(p, geom.grad_lambda)

    with pytest.raises(ComplexError):
        grad_inverse(mesh2, grad_array(mesh2, cellvec))


def test_b3_support_preservation(mesh2, basis2):
    # every nonzero (function, cell) block lies in the weak rot-free support
    basis = b3_basis(mesh2)
    f, cells, _ = _cell_blocks(basis.coeffs, NCUBIC)
    assert set(zip(f, cells)) <= set(zip(*basis2.cells.nonzero()))


def test_b3_basis_rejects_grown_support(mesh2, basis2, monkeypatch):
    # the first candidate's recorded support loses its first cell, where its
    # cubic is nonzero
    cells = basis2.cells.copy()
    lost = cells.indices[0]
    cells.data[0] = 0
    cells.eliminate_zeros()
    monkeypatch.setattr(sc, "weak_rotfree_basis",
                        lambda mesh: replace(basis2, cells=cells))
    with pytest.raises(ComplexError, match=rf"support of \('vx', \d+\) grew: "
                                           rf"\[{lost}\]"):
        b3_basis(mesh2)


def test_b3_membership(mesh2):
    basis = b3_basis(mesh2)
    for k in range(len(basis)):
        assert b3_membership_violation(mesh2, basis.coeffs[[k]]) < 1e-10


def test_b3_gram_nonsingular(mesh2):
    basis = b3_basis(mesh2)
    rule = tri_rule(4)
    n = len(basis)
    G = np.zeros((n, n))
    hess = []
    for row in basis.coeffs.toarray():
        rows = []
        for c in range(mesh2.n_cells):
            geom = mesh2.geometry(c)
            p = cubic_poly(row, c)
            if p.coeffs:
                hxx, hxy, hyy = poly_hessian(p, geom.grad_lambda)
                rows.append((hxx.eval(rule.points), hxy.eval(rule.points),
                             hyy.eval(rule.points)))
            else:
                z = np.zeros(len(rule.weights))
                rows.append((z, z, z))
        hess.append(rows)
    for i in range(n):
        for j in range(i, n):
            acc = 0.0
            for c in range(mesh2.n_cells):
                a, b = hess[i][c], hess[j][c]
                geom = mesh2.geometry(c)
                acc += geom.area * float(np.sum(
                    rule.weights * (a[0] * b[0] + 2 * a[1] * b[1]
                                    + a[2] * b[2])))
            G[i, j] = G[j, i] = acc
    assert np.linalg.cond(G) < 1e8


def test_patch_alpha_edge_detection(mesh2, basis2):
    # the level-peeling independence argument in executable form: for
    # psi = sum_a alpha_a phi_{P_a}, the tangential edge integral over any
    # interior edge equals +-(alpha_L - alpha_R) (boundary alphas are 0),
    # so perturbing any single alpha_a changes some edge moment
    edofs = basis2.space.meta["edge_dofs"]
    patches = {lab[1]: v for v, lab in zip(basis2.matrix.toarray().T,
                                           basis2.labels)
               if lab[0] == "patch"}
    rng = np.random.default_rng(17)
    alpha = {a: rng.standard_normal() for a in patches}
    psi = sum(alpha[a] * v for a, v in patches.items())
    for e in mesh2.interior_edges():
        va, vb = (int(x) for x in mesh2.edges[e])
        t = mesh2.vertices[vb] - mesh2.vertices[va]
        length = np.linalg.norm(t)
        t = t / length
        mean = np.array([psi[edofs[e, 0]], psi[edofs[e, 1]]])
        got = (mean @ t) * length
        want = alpha.get(va, 0.0) - alpha.get(vb, 0.0)
        assert got == pytest.approx(want, abs=1e-12)
    # perturbing one alpha changes the integral on each incident edge by 1
    a0 = next(iter(patches))
    psi2 = psi + patches[a0]
    changed = 0
    for e in mesh2.interior_edges():
        if a0 in (int(mesh2.edges[e, 0]), int(mesh2.edges[e, 1])):
            va, vb = (int(x) for x in mesh2.edges[e])
            t = mesh2.vertices[vb] - mesh2.vertices[va]
            length = np.linalg.norm(t)
            d = np.array([psi2[edofs[e, 0]] - psi[edofs[e, 0]],
                          psi2[edofs[e, 1]] - psi[edofs[e, 1]]])
            assert abs((d @ (t / length)) * length) == pytest.approx(1.0,
                                                                     abs=1e-12)
            changed += 1
    assert changed > 0


def test_exactness_cubic_n2(mesh2):
    rep = exactness_report(mesh2, "cubic")
    assert rep.rank == 23
    assert rep.kernel == 11
    assert rep.kernel == rep.kernel_dim_formula == rep.kernel_dim_derived
    assert rep.dim_velocity == 34
    assert rep.rank + rep.kernel == rep.dim_velocity
    assert rep.exact
    assert rep.aux_identity_ok
    assert rep.basis_kernel_residual < 1e-12
    assert rep.basis_membership_violation < 1e-10
    assert "rank 23, kernel 11, exact: PASS" in rep.to_text()


@pytest.mark.parametrize("cells,count", [(2, 1), (1, 0)],
                         ids=["criss1", "one-cell"])
def test_cubic_complex_without_interior_vertex(cells, count):
    # criss n=1 has one interior edge and its one basis function; a single
    # cell has no interior edge, so the breadth-first search has no
    # parent-child pair and the basis is empty
    mesh = generate_structured(1)
    if cells == 1:
        mesh = Mesh(mesh.vertices[:3], [[0, 1, 2]])
    rep = exactness_report(mesh, "cubic")
    assert rep.exact and rep.kernel == rep.kernel_dim_formula == count
    assert rep.basis_count == count and rep.basis_kernel_residual < 1e-12
    assert rep.basis_membership_violation < 1e-10
    w = grad_inverse(mesh, np.zeros((1, cells * sc.NGRAD)))
    assert w.shape == (1, cells * NCUBIC) and w.nnz == 0


def test_exactness_cubic_n4():
    rep = exactness_report(generate_structured(4), "cubic", with_basis=False)
    assert rep.exact
    assert rep.kernel == rep.kernel_dim_formula


@pytest.mark.parametrize("order", ["morley", "nope"])
def test_exactness_report_names_the_known_orders(mesh2, order):
    # morley is a scheme but has no Stokes pair, so no complex to verify
    with pytest.raises(ValueError,
                       match=rf"unknown order '{order}'; known: \['cubic', "
                             r"'quartic'\]"):
        exactness_report(mesh2, order)


def test_exactness_quartic_n2(mesh2):
    rep = exactness_report(mesh2, "quartic")
    # surjectivity of the broken rot; the kernel matches the closed form
    # 4 Xi + 2 Ei - 3 and dim(G3_0) - dim(P2_0)
    assert rep.surjective
    assert rep.rank == 6 * 8 - 1 == 47
    assert rep.dim_velocity == 64
    assert rep.kernel == rep.kernel_dim_formula == rep.kernel_dim_derived == 17
    assert rep.aux_identity_ok


@pytest.mark.parametrize("order,kernel", [("cubic", 193), ("quartic", 337)])
def test_holed_mesh_report_is_not_exact(holed8, order, kernel):
    # rot stays onto and its kernel is the derived one, but the hole's
    # discrete harmonic field is in that kernel: the cubic basis misses it
    # (192 functions, 3 Xi + Ei) and the quartic closed form reads 333
    rep = exactness_report(holed8, order)
    assert rep.surjective and rep.kernel == rep.kernel_dim_derived == kernel
    assert not rep.aux_identity_ok and not rep.exact
    assert f"rank {rep.rank}, kernel {kernel}, exact: FAIL" in rep.to_text()
    assert rep.to_csv().endswith(",0\n")
    if order == "cubic":
        assert rep.basis_count == kernel - 1
    else:
        assert rep.kernel_dim_formula == kernel - 4


def test_lshape_report_is_exact(lshape8):
    rep = exactness_report(lshape8, "cubic")
    assert rep.exact and rep.aux_identity_ok
    assert rep.kernel == rep.basis_count == 227


@pytest.mark.parametrize("mesh_name", ["refined", "jittered4"],
                         ids=["refined", "jittered"])
def test_exactness_quartic_kernel_formula_off_criss(mesh_name, request):
    mesh = (refine_uniform(generate_structured(2)) if mesh_name == "refined"
            else request.getfixturevalue(mesh_name))
    rep = exactness_report(mesh, "quartic")
    assert rep.surjective
    assert rep.kernel == rep.kernel_dim_formula == rep.kernel_dim_derived \
        == 4 * mesh.n_interior_vertices + 2 * mesh.n_interior_edges - 3 \
        == 113
    assert rep.aux_identity_ok


def test_rot_grad_composition_is_zero(mesh2):
    # complex property: assembled rot annihilates every b3 gradient image
    g2 = build_space(mesh2, "G2_0")
    dg1 = build_space(mesh2, "DG1")
    B = assemble_bilinear(g2, dg1, "rot_pressure")
    C = b3_basis(mesh2).gradient_coeffs
    assert abs(B @ C).max() < 1e-12


# -- the batched layer against BaryPoly oracles --------------------------------

@pytest.mark.parametrize("mesh_name", ["jittered4", "relabeled4"])
def test_b3_gradient_matches_g2_oracle(mesh_name, request):
    # the gradient of every cubic equals its G2 coefficients, both read
    # through the cell-polynomial oracle, at the tri_rule(6) points of every
    # cell
    mesh = request.getfixturevalue(mesh_name)
    basis = b3_basis(mesh)
    pts = tri_rule(6).points
    grad_lambda = [mesh.geometry(c).grad_lambda for c in range(mesh.n_cells)]
    worst = 0.0
    for row, col in zip(basis.coeffs.toarray(),
                        basis.gradient_coeffs.toarray().T):
        got = np.array([[p.eval(pts) for p in
                         poly_gradient(cubic_poly(row, c), grad_lambda[c])]
                        for c in range(mesh.n_cells)])
        want = np.array([[p.eval(pts) for p in cell_poly(basis.g2, col, c)]
                         for c in range(mesh.n_cells)])
        worst = max(worst, float(np.abs(got - want).max()
                                 / np.abs(want).max()))
    assert worst < 1e-12


def _membership_oracle(mesh, row):
    """Edge and vertex clauses of one field, cell by cell with BaryPoly."""
    def poly(c):
        return cubic_poly(row, c)

    edge = max(max(edge_jump_moments(mesh, poly, e, 0, "value", 10),
                   edge_jump_moments(mesh, poly, e, 1, "normal", 10))
               for e in range(mesh.n_edges))
    values = {}
    for c in range(mesh.n_cells):
        for a, v in zip(mesh.cells[c], poly(c).eval(np.eye(3))):
            values.setdefault(int(a), []).append(float(v))
    vertex = max(max(map(abs, vals)) if mesh.vertex_is_boundary[a]
                 else max(vals) - min(vals) for a, vals in values.items())
    return edge, vertex


def test_membership_clauses_match_barypoly_oracle(relabeled4):
    # field 0 combines all basis functions and perturbs one cell's cubic;
    # fields 1 and 2 are the basis function of the middle vertex plus and
    # minus a constant on its patch, which breaks continuity only where the
    # patch ends
    mesh = relabeled4
    basis = b3_basis(mesh)
    rng = np.random.default_rng(23)
    k = basis.labels.index(("vx", int(np.flatnonzero(
        (mesh.vertices == 0.5).all(axis=1))[0])))
    coeffs = np.vstack([basis.coeffs.T @ rng.standard_normal(len(basis)),
                        basis.coeffs[[k, k]].toarray()])
    coeffs[0, 50:60] += 1e-3 * rng.standard_normal(10)
    for c in _cell_blocks(basis.coeffs[[k]], NCUBIC)[1]:
        coeffs[1:, 10 * c] += [1e-3, -1e-3]     # shape 0 is the constant
    fields = sp.csr_matrix(coeffs)
    for r in range(3):
        edge, vertex = _membership_oracle(mesh, coeffs[r])
        assert min(edge, vertex) > 1e-6
        assert _edge_jump_violation(mesh, fields[[r]], 10) == \
            pytest.approx(edge, rel=1e-12)
        assert _vertex_violation(mesh, fields[[r]]) == \
            pytest.approx(vertex, rel=1e-12)
    assert b3_membership_violation(mesh, fields) == pytest.approx(
        max(max(_membership_oracle(mesh, coeffs[r])) for r in range(3)),
        rel=1e-12)


@pytest.mark.parametrize("extra", [5, -10])
def test_membership_violation_checks_the_column_count(mesh2, extra):
    # ncells * 10 - 10 columns would read as a perfect member, + 5 as a
    # SciPy blocksize error
    ncols = mesh2.n_cells * NCUBIC + extra
    with pytest.raises(ValueError, match=f"coeffs has {ncols} columns, "
                                         f"expected {mesh2.n_cells * NCUBIC}"):
        b3_membership_violation(mesh2, sp.csr_matrix((2, ncols)))


@pytest.fixture(scope="module")
def jittered16(jitter):
    return jitter(16, seed=7)


@pytest.mark.parametrize("mesh_name", ["relabeled4", "jittered16"])
def test_cubic_report_with_basis_off_criss(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    rep = exactness_report(mesh, "cubic", with_basis=True)
    assert rep.exact
    assert rep.basis_count == 3 * mesh.n_interior_vertices \
        + mesh.n_interior_edges
    assert rep.basis_kernel_residual <= 1e-10
    assert rep.basis_membership_violation <= 1e-10


def test_quartic_report_jittered16(jittered16):
    rep = exactness_report(jittered16, "quartic")
    assert rep.exact
    assert rep.kernel == rep.kernel_dim_formula


# -- the three failure paths of grad_inverse -----------------------------------

def test_grad_inverse_rejects_rot(mesh2, grad_array):
    # (lam_1, 0) has rot -d(lam_1)/dy, nonzero on some cell
    def cellvec(c):
        return BaryPoly.lam(1, exact=False), BaryPoly()

    with pytest.raises(ComplexError, match="not pointwise rot-free"):
        grad_inverse(mesh2, grad_array(mesh2, cellvec))


def test_grad_inverse_rejects_constant_mismatch(mesh2, grad_array):
    # cell-wise gradients of c_k lam_1 with different c_k: rot-free on each
    # cell, but the antiderivatives disagree at shared vertices
    consts = np.random.default_rng(8).uniform(1.0, 2.0, mesh2.n_cells)

    def cellvec(c):
        p = BaryPoly({(1, 0, 0): consts[c]})
        return poly_gradient(p, mesh2.geometry(c).grad_lambda)

    with pytest.raises(ComplexError, match="constant mismatch .* across edge"):
        grad_inverse(mesh2, grad_array(mesh2, cellvec))


def test_grad_inverse_rejects_boundary_spread(mesh2, grad_array):
    # grad x is a broken gradient, but x is not constant on the boundary
    def cellvec(c):
        return BaryPoly.const(1.0), BaryPoly()

    with pytest.raises(ComplexError, match="boundary vertex values spread"):
        grad_inverse(mesh2, grad_array(mesh2, cellvec))


# -- support-local inversion ---------------------------------------------------

def _b3_gradients(mesh):
    """grad_inverse's input for the B3 basis of mesh, as b3_basis forms it."""
    base = weak_rotfree_basis(mesh)
    C = bubble_correct(base.space, base.matrix)
    return (sc._gradient_operator(base.space) @ C).T


def test_grad_inverse_peak_memory():
    # criss n=16, 1411 fields: the work stays on their support blocks, and
    # one call peaked at 5.1 MiB; (corner x field) arrays over the whole
    # mesh would hold 53.1 MiB for all fields at once
    mesh = generate_structured(16)
    grad = _b3_gradients(mesh)
    tracemalloc.start()
    try:
        grad_inverse(mesh, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20


def _failure_fields(mesh, grad_array):
    """The inputs of the three failure tests above (rot, constant mismatch,
    boundary spread), and hat(c, i, s), the field s grad(lam_i) on cell c
    and zero elsewhere, whose antiderivative jumps at the edges around
    vertex i of c."""
    consts = np.random.default_rng(8).uniform(1.0, 2.0, mesh.n_cells)

    def hat(c, i, s):
        return grad_array(mesh, lambda k: poly_gradient(
            BaryPoly.lam(i, exact=False) * (s * (k == c)),
            mesh.geometry(k).grad_lambda))

    fields = [grad_array(mesh, v) for v in (
        lambda c: (BaryPoly.lam(1, exact=False), BaryPoly()),
        lambda c: poly_gradient(BaryPoly({(1, 0, 0): consts[c]}),
                                mesh.geometry(c).grad_lambda),
        lambda c: (BaryPoly.const(1.0), BaryPoly()))]
    return (*fields, hat)


def test_stacked_failures_name_the_first_edge_then_field(mesh2, grad_array):
    # in stacks of failing fields, the first error is the lowest edge over
    # all fields (hat(6, 0, 2) fails first at edge 10, hat(0, 0, 3) at edge
    # 2), and a mismatch in a later field comes before a spread in an
    # earlier one
    rot, mismatch, spread, hat = _failure_fields(mesh2, grad_array)
    zero = np.zeros_like(spread)
    stacks = [[rot], [mismatch], [spread], [hat(6, 0, 2), hat(0, 0, 3)],
              [spread, zero, hat(6, 0, 2)], [zero, spread, spread]]
    messages = []
    for stack in stacks:
        with pytest.raises(ComplexError) as err:
            grad_inverse(mesh2, np.vstack(stack))
        messages.append(str(err.value))
    assert "not pointwise rot-free" in messages[0]
    assert "across edge 2;" in messages[1]
    assert "3.00e+00 across edge 2;" in messages[3]
    assert "across edge 10;" in messages[4]
    for k in (2, 5):     # the largest |value| of the field at the boundary
        assert messages[k].startswith("boundary vertex values spread "
                                      "1.00e+00;")


def test_support_in_two_parts_inverts_to_the_sum():
    # two B3 basis functions with disjoint supports: the support of their
    # sum has two edge-connected parts, each seeded on its own
    mesh = generate_structured(8)
    basis = b3_basis(mesh)
    grad = _b3_gradients(mesh)
    vertex = {tuple(mesh.vertices[a]): a for a in range(mesh.n_vertices)}
    k1, k2 = (basis.labels.index(("vx", vertex[x])) for x in
              ((0.25, 0.25), (0.75, 0.75)))
    cells = _cell_blocks(basis.coeffs[[k1, k2]], NCUBIC)[1]
    assert np.unique(cells).size == cells.size     # disjoint supports
    w = grad_inverse(mesh, grad[[k1]] + grad[[k2]])
    expected = basis.coeffs[[k1]] + basis.coeffs[[k2]]
    assert abs(w - expected).max() <= 1e-14 * abs(expected).max()


def test_round_off_part_of_a_support_is_dropped():
    # a round-off gradient on a cell off the support adds a part of its own,
    # whose cubic is below SNAP_TOL: no block of it is stored
    mesh = generate_structured(4)
    grad = _b3_gradients(mesh)[[0]]
    cells = _cell_blocks(grad, sc.NGRAD)[1]
    c = min(set(range(mesh.n_cells)) - set(cells.tolist()))
    noisy = grad.toarray()
    noisy[0, c * sc.NGRAD] = 1e-20
    w, expected = grad_inverse(mesh, noisy), grad_inverse(mesh, grad)
    assert np.array_equal(w.indices, expected.indices)
    assert np.array_equal(w.data, expected.data)


def test_grad_inverse_rejects_an_enclosed_constant(grad_array):
    # the P1 hats at the vertices in [1/4, 3/4]^2 sum to 1 on the 32 cells
    # inside, where their gradient is 0: off its support the antiderivative
    # is a nonzero constant there, not the 0 that grad_inverse assumes
    mesh = generate_structured(8)
    inside = (np.abs(mesh.vertices - 0.5) <= 0.25).all(axis=1)
    assert inside[mesh.cells].all(axis=1).sum() == 32

    def cellvec(c):
        corners = [i for i in range(3) if inside[mesh.cells[c, i]]]
        if len(corners) == 3:
            return BaryPoly(), BaryPoly()
        hats = sum((BaryPoly.lam(i, exact=False) for i in corners),
                   BaryPoly())
        return poly_gradient(hats, mesh.geometry(c).grad_lambda)

    with pytest.raises(ComplexError, match=(
            "constant mismatch .* across edge .*; input is not a broken "
            "gradient, or its antiderivative is a nonzero constant on cells "
            "that its support encloses")):
        grad_inverse(mesh, grad_array(mesh, cellvec))


def _unsorted_csr(rows, cols, vals, shape):
    """A CSR matrix with the entries in the given order within each row,
    neither sorted nor summed."""
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(shape[0] + 1))
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=shape)


def _block_inputs():
    rng = np.random.default_rng(28)
    dense = rng.standard_normal((5, 12))
    dense[rng.random((5, 12)) < 0.6] = 0.0
    # every duplicate is a pair, so its sum does not depend on the order
    rows, cols = np.divmod(rng.choice(60, 9, replace=False), 12)
    rows, cols = np.append(rows, rows[:4]), np.append(cols, cols[:4])
    perm = rng.permutation(rows.size)
    dup = _unsorted_csr(rows[perm], cols[perm],
                        rng.standard_normal(rows.size), (5, 12))
    assert not dup.has_canonical_format
    # explicit zeros beside a value in cell 1, and alone in cell 3
    zeros = sp.csr_matrix((np.array([0.0, 2.5, 0.0, 0.0]),
                           np.array([3, 4, 9, 11]), np.array([0, 0, 4])),
                          shape=(2, 12))
    return {"dense": dense, "unsorted-duplicates": dup,
            "csc": sp.csc_matrix(dense), "explicit-zeros": zeros,
            "no-rows": sp.csr_matrix((0, 12))}


@pytest.mark.parametrize("name", list(_block_inputs()))
def test_cell_blocks_match_the_coo_oracle(name):
    M = _block_inputs()[name]
    before = (M.indices.copy(), M.data.copy()) if sp.issparse(M) else None
    got, want = _cell_blocks(M, 3), coo_cell_blocks(M, 3)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if name == "explicit-zeros":
        assert got[1].tolist() == [1, 3] and not got[2][1].any()
    if before is not None:     # the caller's matrix is left alone
        assert np.array_equal(M.indices, before[0])
        assert np.array_equal(M.data, before[1])
