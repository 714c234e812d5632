"""Golden-value tests for the element catalog.

All table constants are checked in exact rational arithmetic on the reference
triangle and on a second rational triangle; normal moments are compared as
coefficients of ||grad lam_k||, which keeps everything in Q.
"""

from fractions import Fraction

import numpy as np
import pytest

from biharmfem.elements import (ELEMENT_DIMS, VEQ_DET_CONSTANT,
                                VEQ_DET_CONSTANT_CLAIMED, REFERENCE_EXACT,
                                DofFunctional, ExactGeometry, dof_matrices,
                                dof_matrix, edge_weight_poly, element_catalog,
                                eval_dof, exact_det, grad_curl_pairing,
                                nodal_basis, random_shape_regular_triangle,
                                resolved_dofs, unisolvence_check,
                                VERIFIED_ELEMENTS, ShapeFunction, _s_poly,
                                _phi4, L, LAM)
from biharmfem.mesh import cell_geometry

F = Fraction
GEOMS = [REFERENCE_EXACT, ExactGeometry.from_vertices([(0, 0), (3, F(1, 2)), (1, 2)])]


def scalar(p):
    return ShapeFunction(kind="scalar", p=p)


def edge_normal(k, power=0):
    w = edge_weight_poly(k, power) if power else None
    return DofFunctional(kind="edge_normal", entity=k, weight=w)


def mod_pattern(k, i, at_i, at_i1, at_i2):
    if k % 3 == i % 3:
        return at_i
    if k % 3 == (i + 1) % 3:
        return at_i1
    return at_i2


# -- dimensions ------------------------------------------------------------

@pytest.mark.parametrize("name,dim", sorted(ELEMENT_DIMS.items()))
def test_catalog_dimensions(name, dim):
    elem = element_catalog(name)
    assert elem.dim == dim
    assert len(elem.dofs) == dim


def test_unknown_element_rejected():
    with pytest.raises(KeyError):
        element_catalog("nope")


# -- FE_nsc golden table -----------------------------------------------------

@pytest.mark.parametrize("geom", GEOMS)
def test_nsc_cell_moment_table(geom):
    for k in range(3):
        dof = DofFunctional(kind="cell", weight=_s_poly(k))
        for i in range(3):
            got = eval_dof(dof, scalar(_s_poly(i)), geom, exact=True)
            assert got == mod_pattern(k, i, F(6, 5040), F(-2, 5040), F(-2, 5040))
        assert eval_dof(dof, scalar(LAM), geom, exact=True) == 0
    assert eval_dof(DofFunctional(kind="cell"), scalar(LAM), geom,
                    exact=True) == F(1, 60)
    for i in range(3):
        assert eval_dof(DofFunctional(kind="cell"), scalar(_s_poly(i)),
                        geom, exact=True) == 0


# -- FE_nsq golden table -----------------------------------------------------

@pytest.mark.parametrize("geom", GEOMS)
def test_nsq_normal_moment_table(geom):
    for k in range(3):
        for i in range(3):
            got = eval_dof(edge_normal(k), scalar(_phi4(i)), geom, exact=True)
            assert got == mod_pattern(k, i, F(-1, 4), F(-1, 4), 0)
            got = eval_dof(edge_normal(k), scalar(L[i] * LAM), geom, exact=True)
            assert got == mod_pattern(k, i, 0, F(-1, 12), F(-1, 12))


@pytest.mark.parametrize("geom", GEOMS)
def test_nsq_cell_moment_table(geom):
    for k in range(3):
        dof = DofFunctional(kind="cell", weight=L[k])
        for i in range(3):
            assert eval_dof(dof, scalar(_phi4(i)), geom, exact=True) == 0
            got = eval_dof(dof, scalar(L[i] * LAM), geom, exact=True)
            assert got == mod_pattern(k, i, F(12, 5040), F(8, 5040), F(8, 5040))


def test_nsq_vanishing_under_value_dofs():
    elem = element_catalog("nsq")
    geom = REFERENCE_EXACT
    value_dofs = [d for d in elem.dofs if d.kind in ("vertex",)] + \
                 [d for d in elem.dofs if d.kind == "edge"]
    for i in range(3):
        for d in value_dofs:
            assert eval_dof(d, scalar(_phi4(i)), geom, exact=True) == 0
            assert eval_dof(d, scalar(L[i] * LAM), geom, exact=True) == 0


# -- FE_ec golden table ------------------------------------------------------

def g_dof(k):
    # g_k(v) = fint_{e_k} (1/2 - lam_{k+1}) d_n v
    w = F(1, 2) * edge_weight_poly(k, 0) - edge_weight_poly(k, 1)
    return DofFunctional(kind="edge_normal", entity=k, weight=w)


@pytest.mark.parametrize("geom", GEOMS)
def test_ec_normal_moment_table(geom):
    for k in range(3):
        for i in range(3):
            got = eval_dof(edge_normal(k), scalar(_s_poly(i)), geom, exact=True)
            assert got == mod_pattern(k, i, F(1, 3), F(-1, 3), 0)
            got = eval_dof(edge_normal(k), scalar(L[i] * LAM), geom, exact=True)
            assert got == mod_pattern(k, i, 0, F(-1, 12), F(-1, 12))
            got = eval_dof(g_dof(k), scalar(_s_poly(i)), geom, exact=True)
            assert got == F(-1, 12)
            got = eval_dof(g_dof(k), scalar(L[i] * LAM), geom, exact=True)
            assert got == mod_pattern(k, i, 0, F(-1, 120), F(1, 120))


@pytest.mark.parametrize("geom", GEOMS)
def test_ec_explicit_dual_functions(geom):
    # phi_i = (-1/||grad lam_i||) lam_i (2 lam_i - 1)(lam_i - 1) and the
    # printed psi_i satisfy f_i(phi_j) = delta, g_k(psi_l) = delta,
    # f_i(psi_j) = g_k(phi_l) = 0.  Exact check with the norm factored out:
    # the scaled duals phihat_i = ||grad lam_i|| phi_i are rational, and
    # D(phihat_j) = delta * g_jj for D in the scaled normal moments.
    def phihat(i):
        return -1 * (L[i] * (2 * L[i] - 1) * (L[i] - 1))

    def psihat(i):
        j, k = (i + 1) % 3, (i + 2) % 3
        return (2 * _s_poly(i) - 8 * _s_poly(j) + 2 * _s_poly(k)
                + 40 * ((L[j] - L[k]) * LAM))

    # eval_dof(exact=True) returns the coefficient of ||grad lam_k||, so on
    # the scaled duals the expected exact values are plain deltas
    for k in range(3):
        for i in range(3):
            f_val = eval_dof(edge_normal(k), scalar(phihat(i)), geom, exact=True)
            assert f_val == (1 if k == i else 0)
            g_val = eval_dof(g_dof(k), scalar(phihat(i)), geom, exact=True)
            assert g_val == 0
            f_psi = eval_dof(edge_normal(k), scalar(psihat(i)), geom, exact=True)
            assert f_psi == 0
            g_psi = eval_dof(g_dof(k), scalar(psihat(i)), geom, exact=True)
            assert g_psi == (1 if k == i else 0)


# -- FE_eq golden table ------------------------------------------------------

def eta6(i):
    return _s_poly(i) * LAM


@pytest.mark.parametrize("geom", GEOMS)
def test_eq_normal_moment_tables(geom):
    for k in range(3):
        f_k = edge_normal(k)
        gq_k = edge_normal(k, power=1)
        h_k = edge_normal(k, power=2)
        for i in range(3):
            phi, psi, eta = scalar(_phi4(i)), scalar(L[i] * LAM), scalar(eta6(i))
            assert eval_dof(f_k, phi, geom, exact=True) == \
                mod_pattern(k, i, F(-1, 4), F(-1, 4), 0)
            assert eval_dof(gq_k, phi, geom, exact=True) == \
                mod_pattern(k, i, F(-1, 5), F(-1, 20), 0)
            assert eval_dof(h_k, phi, geom, exact=True) == \
                mod_pattern(k, i, F(-1, 6), F(-1, 60), F(1, 60))
            assert eval_dof(f_k, psi, geom, exact=True) == \
                mod_pattern(k, i, 0, F(-1, 12), F(-1, 12))
            assert eval_dof(gq_k, psi, geom, exact=True) == \
                mod_pattern(k, i, 0, F(-1, 30), F(-1, 20))
            assert eval_dof(h_k, psi, geom, exact=True) == \
                mod_pattern(k, i, 0, F(-1, 60), F(-1, 30))
            assert eval_dof(f_k, eta, geom, exact=True) == 0
            assert eval_dof(gq_k, eta, geom, exact=True) == \
                mod_pattern(k, i, 0, 0, F(-1, 420))
            assert eval_dof(h_k, eta, geom, exact=True) == \
                mod_pattern(k, i, 0, 0, F(-1, 420))


@pytest.mark.parametrize("geom", GEOMS)
def test_eq_explicit_dual_functions(geom):
    # scaled duals bhat_i^l = ||grad lam_i|| b_i^l; in exact mode the norm
    # factors cancel and the expected values are plain deltas.  The eta_{i+2}
    # coefficient of b_i^0 is -210: a quoted +210 fails the delta property
    # (exact inversion of the verified tables).
    def bhat(i, l):
        j, k = (i + 1) % 3, (i + 2) % 3
        phi = [_phi4(m) for m in range(3)]
        psi = [L[m] * LAM for m in range(3)]
        eta = [eta6(m) for m in range(3)]
        if l == 0:
            return (-6 * (phi[i] + phi[k]) + 6 * (psi[i] + 2 * psi[j] + 2 * psi[k])
                    + 210 * (eta[i] + eta[j] - eta[k]))
        if l == 1:
            return (30 * (phi[i] + phi[k]) - 90 * (psi[j] + psi[k])
                    + 420 * (-3 * eta[i] - eta[j] + 3 * eta[k]))
        return (-30 * (phi[i] + phi[k]) + 90 * (psi[j] + psi[k])
                + 1260 * (eta[i] - eta[k]))

    for i in range(3):
        for ll in range(3):
            b = scalar(bhat(i, ll))
            for k in range(3):
                for m in range(3):
                    dof = edge_normal(k, power=m)
                    got = eval_dof(dof, b, geom, exact=True)
                    want = 1 if (k == i and m == ll) else 0
                    assert got == want, (i, ll, k, m, got, want)


# -- FE_veq golden table and determinant --------------------------------------

@pytest.mark.parametrize("geom", GEOMS)
def test_veq_value_tables(geom):
    for k in range(3):
        d_k = DofFunctional(kind="edge", entity=k)
        f_k = DofFunctional(kind="edge", entity=k, weight=edge_weight_poly(k, 1))
        g_c = DofFunctional(kind="cell")
        for i in range(3):
            sq = scalar(L[i] * L[i])
            mix = scalar(L[i] * L[(i + 1) % 3])
            assert eval_dof(d_k, sq, geom, exact=True) == \
                (0 if k == i else F(1, 3))
            assert eval_dof(f_k, sq, geom, exact=True) == \
                mod_pattern(k, i, 0, F(1, 12), F(1, 4))
            assert eval_dof(g_c, sq, geom, exact=True) == F(1, 6)
            assert eval_dof(d_k, mix, geom, exact=True) == \
                mod_pattern(k, i, 0, 0, F(1, 6))
            assert eval_dof(f_k, mix, geom, exact=True) == \
                mod_pattern(k, i, 0, 0, F(1, 12))
            assert eval_dof(g_c, mix, geom, exact=True) == F(1, 12)


@pytest.mark.parametrize("geom", GEOMS)
def test_veq_gradient_enrichment_table(geom):
    # entries are multiples of the component of grad(lam_k); the commonly
    # quoted f-row constants (1/90, 1/60) disagree with the element as
    # defined, whose true values are 1/30 and 1/20
    for comp in range(2):
        for k in range(3):
            d_k = DofFunctional(kind="edge", entity=k, component=comp)
            f_k = DofFunctional(kind="edge", entity=k, component=comp,
                                weight=edge_weight_poly(k, 1))
            g_c = DofFunctional(kind="cell", component=comp)
            for i in range(3):
                shape = ShapeFunction(kind="gradient", p=L[i] * LAM)
                dlk = geom.grad_lambda[k][comp]
                assert eval_dof(d_k, shape, geom, exact=True) == \
                    (0 if k == i else F(1, 12) * dlk)
                assert eval_dof(f_k, shape, geom, exact=True) == \
                    mod_pattern(k, i, 0, F(1, 30) * dlk, F(1, 20) * dlk)
                assert eval_dof(g_c, shape, geom, exact=True) == 0


@pytest.mark.parametrize("geom", GEOMS)
def test_veq_determinant_closed_form_exact(geom):
    elem = element_catalog("veq")
    M = dof_matrix(elem, geom, exact=True)
    det = exact_det(M)
    assert det == VEQ_DET_CONSTANT * grad_curl_pairing(geom.grad_lambda)


def _sympy_veq_dof_matrix(sympy):
    """veq DOF matrix on the reference cell from plain sympy integrals.

    Rows and columns follow the catalog order: per component, the edge
    means d_k, the lam_{k+1}-weighted edge means f_k and the cell mean g;
    the six P2 shapes per component, then grad(lam_0 Lam), grad(lam_1 Lam).
    """
    x, y, t = sympy.symbols("x y t")
    verts = [(0, 0), (1, 0), (0, 1)]
    lam = [1 - x - y, x, y]
    bubble = lam[0] * lam[1] * lam[2]

    def edge_avg(f, k):
        # edge e_k runs from vertex k+1 to vertex k+2
        a, b = verts[(k + 1) % 3], verts[(k + 2) % 3]
        on_edge = {x: (1 - t) * a[0] + t * b[0], y: (1 - t) * a[1] + t * b[1]}
        return sympy.integrate(sympy.expand(sympy.sympify(f).subs(
            on_edge, simultaneous=True)), (t, 0, 1))

    def cell_avg(f):
        return 2 * sympy.integrate(f, (y, 0, 1 - x), (x, 0, 1))

    p2 = [lam[i] ** 2 for i in range(3)] + \
        [lam[i] * lam[(i + 1) % 3] for i in range(3)]
    shapes = [(p, 0) for p in p2] + [(0, p) for p in p2]
    shapes += [(sympy.diff(lam[i] * bubble, x), sympy.diff(lam[i] * bubble, y))
               for i in range(2)]
    rows = []
    for comp in range(2):
        rows += [[edge_avg(v[comp], k) for v in shapes] for k in range(3)]
        rows += [[edge_avg(lam[(k + 1) % 3] * v[comp], k) for v in shapes]
                 for k in range(3)]
        rows += [[cell_avg(v[comp]) for v in shapes]]
    dlam = [[sympy.diff(lam[k], z) for z in (x, y)] for k in range(3)]
    return sympy.Matrix(rows), dlam


def test_veq_symbolic_oracle():
    # independent of biharmfem.polynomials: the f-row of the gradient
    # enrichment is the Beta integral 1/20 (i = k+1) or 1/30 (i = k+2), the
    # determinant is VEQ_DET_CONSTANT, and the quoted row (1/60, 1/90)
    # yields exactly the quoted VEQ_DET_CONSTANT_CLAIMED
    sympy = pytest.importorskip("sympy")
    M, dlam = _sympy_veq_dof_matrix(sympy)
    true_row = {1: sympy.Rational(1, 20), 2: sympy.Rational(1, 30)}
    quoted_row = {1: sympy.Rational(1, 60), 2: sympy.Rational(1, 90)}
    quoted = M.copy()
    for comp in range(2):
        for k in range(3):
            for i in range(2):
                row, col = 7 * comp + 3 + k, 12 + i
                c = (i - k) % 3
                want = true_row[c] * dlam[k][comp] if c else 0
                assert M[row, col] == want
                quoted[row, col] = quoted_row[c] * dlam[k][comp] if c else 0
    # the catalog's exact matrix agrees entry by entry
    elem = element_catalog("veq")
    ours = dof_matrix(elem, REFERENCE_EXACT, exact=True)
    assert M == sympy.Matrix([[sympy.Rational(F(v)) for v in r] for r in ours])
    # det = constant * (grad lam_1 . curl lam_2), and the pairing is 1 here
    assert grad_curl_pairing(REFERENCE_EXACT.grad_lambda) == 1
    assert M.det() == sympy.Rational(VEQ_DET_CONSTANT)
    assert quoted.det() == sympy.Rational(VEQ_DET_CONSTANT_CLAIMED)


def test_veq_determinant_closed_form_float_trials():
    elem = element_catalog("veq")
    rep = unisolvence_check(elem, trials=100, seed=42)
    assert rep.failures == 0
    assert rep.det_formula_max_rel_err < 1e-10


def test_veq_contains_full_gradient_bubble_span():
    # grad(lam_3 Lam) = grad(Lam) - grad(lam_1 Lam) - grad(lam_2 Lam) and
    # grad(Lam) is in (P2)^2: represent grad(lam_3 Lam) in the shape basis.
    geom = cell_geometry(np.array([[0.1, 0.0], [1.2, 0.3], [0.3, 1.1]]))
    elem = element_catalog("veq")
    target = ShapeFunction(kind="gradient", p=L[2] * LAM)
    rule_pts = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6],
                         [1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2],
                         [0.1, 0.45, 0.45], [0.05, 0.15, 0.8],
                         [0.25, 0.7, 0.05], [0.15, 0.2, 0.65], [0.4, 0.15, 0.45],
                         [0.33, 0.47, 0.2], [0.21, 0.09, 0.7],
                         [0.55, 0.05, 0.4], [0.62, 0.3, 0.08], [0.09, 0.81, 0.1]])
    A = []
    for s in elem.shapes:
        A.append(np.concatenate([s.component(0, geom).eval(rule_pts),
                                 s.component(1, geom).eval(rule_pts)]))
    A = np.array(A).T
    b = np.concatenate([target.component(0, geom).eval(rule_pts),
                        target.component(1, geom).eval(rule_pts)])
    coef, res, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert np.linalg.norm(A @ coef - b) < 1e-10


# -- FE_vec: numerically verified only ----------------------------------------

def test_vec_interior_dofs_annihilated():
    rng = np.random.default_rng(5)
    elem = element_catalog("vec")
    for _ in range(3):
        geom = cell_geometry(random_shape_regular_triangle(rng))
        dofs = resolved_dofs(elem, geom)
        assert len(dofs) == 23
        moments, interior = dofs[:20], dofs[20:]
        assert all(d.kind == "cell_vec" for d in interior)
        weights = [d.vec_weight for d in interior]
        # each interior weight lies in the kernel of the 20 moment dofs ...
        for wx, wy in weights:
            field = ShapeFunction(kind="vector", px=wx, py=wy)
            for d in moments:
                assert abs(eval_dof(d, field, geom)) <= 1e-12
        # ... and the three weights are L2-orthonormal on the cell
        for i, (ax, ay) in enumerate(weights):
            for j, (bx, by) in enumerate(weights):
                inner = (ax * bx).cell_average() + (ay * by).cell_average()
                assert float(inner) == pytest.approx(float(i == j), abs=1e-12)


@pytest.mark.parametrize("name", sorted(ELEMENT_DIMS))
def test_batched_dof_matrices_match_eval_dof(name):
    # the reference-tensor matrices against per-entry float eval_dof; vec's
    # three interior rows are checked by the test above
    elem = element_catalog(name)
    rng = np.random.default_rng(17)
    geoms = [cell_geometry(random_shape_regular_triangle(rng))
             for _ in range(3)]
    batched = dof_matrices(elem, [g.grad_lambda for g in geoms])
    assert batched.shape == (3, elem.dim, elem.dim)
    rows = [d for d in elem.dofs if d.kind != "cell_vec"]
    for c, geom in enumerate(geoms):
        want = np.array([[eval_dof(d, s, geom) for s in elem.shapes]
                         for d in rows])
        err = np.abs(batched[c, :len(rows)] - want).max()
        assert err <= 1e-12 * np.abs(want).max(), (name, c, err)


# -- Morley on the reference triangle -----------------------------------------

def test_morley_reference_nodal_delta():
    geom = cell_geometry(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    elem = element_catalog("morley")
    basis = nodal_basis(elem, geom)
    dofs = resolved_dofs(elem, geom)
    for i, d in enumerate(dofs):
        for j, p in enumerate(basis):
            val = eval_dof(d, ShapeFunction(kind="scalar", p=p), geom)
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


# -- generic unisolvence / duality --------------------------------------------

@pytest.mark.parametrize("name", VERIFIED_ELEMENTS)
def test_unisolvence_100_random_triangles(name):
    rep = unisolvence_check(element_catalog(name), trials=100, seed=1234)
    assert rep.failures == 0, rep
    assert rep.min_abs_det > 0
    assert rep.min_sigma_ratio > 1e-9


@pytest.mark.parametrize("name", sorted(ELEMENT_DIMS))
def test_nodal_duality_random_triangle(name):
    rng = np.random.default_rng(99)
    geom = cell_geometry(random_shape_regular_triangle(rng))
    elem = element_catalog(name)
    dofs = resolved_dofs(elem, geom)
    basis = nodal_basis(elem, geom)
    for i, d in enumerate(dofs):
        for j, b in enumerate(basis):
            if elem.vector:
                sf = ShapeFunction(kind="vector", px=b[0], py=b[1])
            else:
                sf = ShapeFunction(kind="scalar", p=b)
            val = eval_dof(d, sf, geom)
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10), \
                (name, i, j)


def test_near_degenerate_triangle_conditioning():
    # 1-degree sliver: conditioning grows (geometry enters through the normal
    # moments) but there is no false unisolvence failure at tolerance
    import math
    ang = math.radians(1.0)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [math.cos(ang), math.sin(ang)]])
    geom = cell_geometry(verts)
    elem = element_catalog("ec")
    M = dof_matrix(elem, geom)
    healthy = dof_matrix(elem, cell_geometry(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])))
    assert np.linalg.cond(M) > 10 * np.linalg.cond(healthy)
    sv = np.linalg.svd(M, compute_uv=False)
    assert sv[-1] > 1e-12 * sv[0]
