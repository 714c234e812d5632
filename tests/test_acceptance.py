"""Acceptance criteria, one test per criterion (split where a criterion has
independent clauses).  Each test prints one PASS/FAIL line.

Criteria 1, 2b and 4b assert the values that follow from the elements and the
complex as defined.  Three constants quoted in the reference tables are errata
and are not asserted:

* the veq gradient-enrichment row f_k(grad(lam_i Lam)), quoted as 1/90 and
  1/60 (times d lam_k).  On edge e_k, grad(lam_i Lam) = lam_i lam_{k+1}
  lam_{k+2} grad lam_k, so the lam_{k+1}-weighted edge average is a Beta
  integral: int t^3 (1-t) = 1/20 for i = k+1 and int t^2 (1-t)^2 = 1/30 for
  i = k+2;
* the veq determinant constant, quoted as 103/501530650214400.  The element
  gives 27/501530650214400; putting the quoted row into the same 14 x 14 DOF
  matrix gives exactly the quoted constant, so it is a consequence of the
  wrong row, not a second error (see the sympy oracle in test_elements.py);
* the quartic kernel dimension, quoted as 3 Xi + 2 Ei - 3.  dim(G3_0) =
  6 Ei + 2 T and rank = 6 T - 1 (criterion 4a) give 6 Ei - 4 T + 1, which is
  4 Xi + 2 Ei - 3 by Euler's formula Xi - Ei + T = 1 on the square.

The quoted values still appear in the printed details as a record.
"""

from fractions import Fraction

import numpy as np
import pytest

from biharmfem.elements import (REFERENCE_EXACT, VEQ_DET_CONSTANT,
                                VEQ_DET_CONSTANT_CLAIMED, VERIFIED_ELEMENTS,
                                DofFunctional, ShapeFunction,
                                dof_matrices, dof_matrix, edge_weight_poly,
                                element_catalog, eval_dof, grad_curl_pairing,
                                random_grad_lambdas, unisolvence_check,
                                _phi4, _s_poly, L, LAM)
from biharmfem.mesh import generate_structured
from biharmfem.biharmonic import (convergence_study, galerkin_residual,
                                  infsup_study, manufactured, solve_cubic)
from biharmfem.quadrature import tri_rule
from biharmfem.stokes_complex import (NCUBIC, b3_basis, exactness_report,
                                      grad_inverse)
from oracles import cubic_poly, exact_det, poly_gradient

F = Fraction


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")


def scalar(p):
    return ShapeFunction(kind="scalar", p=p)


def edge_normal(k, power=0):
    w = edge_weight_poly(k, power) if power else None
    return DofFunctional(kind="edge_normal", entity=k, weight=w)


def pattern(k, i, at_i, at_i1, at_i2):
    if k % 3 == i % 3:
        return at_i
    if k % 3 == (i + 1) % 3:
        return at_i1
    return at_i2


def _criterion1_items():
    """(label, got, want) triples for every golden constant, reference cell."""
    g = REFERENCE_EXACT
    psi = [L[i] * LAM for i in range(3)]
    eta = [_s_poly(i) * LAM for i in range(3)]
    items = []

    def add(label, got, want):
        items.append((label, got, want))

    for k in range(3):
        sdof = DofFunctional(kind="cell", weight=_s_poly(k))
        for i in range(3):
            add(f"nsc fint s_{k} s_{i}",
                eval_dof(sdof, scalar(_s_poly(i)), g, exact=True),
                pattern(k, i, F(6, 5040), F(-2, 5040), F(-2, 5040)))
    add("nsc fint Lam", eval_dof(DofFunctional(kind="cell"), scalar(LAM), g,
                                 exact=True), F(1, 60))
    for k in range(3):
        for i in range(3):
            add(f"nsq f_{k}(phi_{i})",
                eval_dof(edge_normal(k), scalar(_phi4(i)), g, exact=True),
                pattern(k, i, F(-1, 4), F(-1, 4), 0))
            add(f"nsq f_{k}(psi_{i})",
                eval_dof(edge_normal(k), scalar(psi[i]), g, exact=True),
                pattern(k, i, 0, F(-1, 12), F(-1, 12)))
            add(f"nsq fint lam_{k} psi_{i}",
                eval_dof(DofFunctional(kind="cell", weight=L[k]),
                         scalar(psi[i]), g, exact=True),
                pattern(k, i, F(12, 5040), F(8, 5040), F(8, 5040)))
    for k in range(3):
        gd = DofFunctional(kind="edge_normal", entity=k,
                           weight=F(1, 2) * edge_weight_poly(k, 0)
                           - edge_weight_poly(k, 1))
        for i in range(3):
            add(f"ec f_{k}(s_{i})",
                eval_dof(edge_normal(k), scalar(_s_poly(i)), g, exact=True),
                pattern(k, i, F(1, 3), F(-1, 3), 0))
            add(f"ec g_{k}(s_{i})", eval_dof(gd, scalar(_s_poly(i)), g,
                                             exact=True), F(-1, 12))
            add(f"ec g_{k}(psi_{i})", eval_dof(gd, scalar(psi[i]), g,
                                               exact=True),
                pattern(k, i, 0, F(-1, 120), F(1, 120)))
    for k in range(3):
        gq = edge_normal(k, 1)
        hq = edge_normal(k, 2)
        for i in range(3):
            add(f"eq g_{k}(phi_{i})", eval_dof(gq, scalar(_phi4(i)), g,
                                               exact=True),
                pattern(k, i, F(-1, 5), F(-1, 20), 0))
            add(f"eq h_{k}(phi_{i})", eval_dof(hq, scalar(_phi4(i)), g,
                                               exact=True),
                pattern(k, i, F(-1, 6), F(-1, 60), F(1, 60)))
            add(f"eq g_{k}(psi_{i})", eval_dof(gq, scalar(psi[i]), g,
                                               exact=True),
                pattern(k, i, 0, F(-1, 30), F(-1, 20)))
            add(f"eq h_{k}(psi_{i})", eval_dof(hq, scalar(psi[i]), g,
                                               exact=True),
                pattern(k, i, 0, F(-1, 60), F(-1, 30)))
            add(f"eq g_{k}(eta_{i})", eval_dof(gq, scalar(eta[i]), g,
                                               exact=True),
                pattern(k, i, 0, 0, F(-1, 420)))
            add(f"eq h_{k}(eta_{i})", eval_dof(hq, scalar(eta[i]), g,
                                               exact=True),
                pattern(k, i, 0, 0, F(-1, 420)))
    # FE_veq value tables
    for k in range(3):
        dk = DofFunctional(kind="edge", entity=k)
        fk = DofFunctional(kind="edge", entity=k,
                           weight=edge_weight_poly(k, 1))
        gc = DofFunctional(kind="cell")
        for i in range(3):
            sq = scalar(L[i] * L[i])
            mix = scalar(L[i] * L[(i + 1) % 3])
            add(f"veq d_{k}(lam_{i}^2)", eval_dof(dk, sq, g, exact=True),
                0 if k == i else F(1, 3))
            add(f"veq f_{k}(lam_{i}^2)", eval_dof(fk, sq, g, exact=True),
                pattern(k, i, 0, F(1, 12), F(1, 4)))
            add(f"veq g(lam_{i}^2)", eval_dof(gc, sq, g, exact=True), F(1, 6))
            add(f"veq d_{k}(lam lam)", eval_dof(dk, mix, g, exact=True),
                pattern(k, i, 0, 0, F(1, 6)))
            add(f"veq f_{k}(lam lam)", eval_dof(fk, mix, g, exact=True),
                pattern(k, i, 0, 0, F(1, 12)))
            add(f"veq g(lam lam)", eval_dof(gc, mix, g, exact=True), F(1, 12))
    # FE_veq gradient-enrichment table; the reference tables quote the f-row
    # as 1/90, 1/60 (erratum), the element gives the Beta integrals 1/30, 1/20
    for comp in range(2):
        for k in range(3):
            dk = DofFunctional(kind="edge", entity=k, component=comp)
            fk = DofFunctional(kind="edge", entity=k, component=comp,
                               weight=edge_weight_poly(k, 1))
            gc = DofFunctional(kind="cell", component=comp)
            for i in range(3):
                shape = ShapeFunction(kind="gradient", p=L[i] * LAM)
                dlk = g.grad_lambda[k][comp]
                add(f"veq d_{k}(grad(lam_{i} Lam))[{comp}]",
                    eval_dof(dk, shape, g, exact=True),
                    0 if k == i else F(1, 12) * dlk)
                add(f"veq f_{k}(grad(lam_{i} Lam))[{comp}]",
                    eval_dof(fk, shape, g, exact=True),
                    pattern(k, i, 0, F(1, 30) * dlk, F(1, 20) * dlk))
                add(f"veq g(grad(lam_{i} Lam))[{comp}]",
                    eval_dof(gc, shape, g, exact=True), 0)
    M = dof_matrix(element_catalog("veq"), g, exact=True)
    add("veq det(M)", exact_det(M),
        VEQ_DET_CONSTANT * grad_curl_pairing(g.grad_lambda))
    return items


def test_criterion1_golden_element_tables():
    items = _criterion1_items()
    failures = [(label, got, want) for label, got, want in items
                if got != want]
    for label, got, want in failures:
        print(f"  golden value mismatch: {label}: computed {got}, "
              f"table says {want}")
    ok = not failures
    report("1 (golden element tables, exact rational)", ok,
           f"{len(items) - len(failures)}/{len(items)} constants reproduced; "
           "veq det constant 27/501530650214400 (the quoted "
           "103/501530650214400 is an erratum)")
    assert len(items) == 227
    assert ok, (f"{len(failures)} golden constants are not reproduced by "
                "the element definitions")


def test_criterion2a_unisolvence_random_triangles():
    worst = {}
    ok = True
    for name in VERIFIED_ELEMENTS:
        rep = unisolvence_check(element_catalog(name), trials=100, seed=1234)
        worst[name] = rep.min_sigma_ratio
        ok = ok and rep.failures == 0
    report("2a (unisolvence, 100 seeded shape-regular triangles)", ok,
           "min sigma ratio " + ", ".join(f"{k}={v:.2e}"
                                          for k, v in worst.items()))
    assert ok


def test_criterion2b_veq_determinant_closed_form():
    rep = unisolvence_check(element_catalog("veq"), trials=100, seed=1234)
    ok = rep.det_formula_max_rel_err < 1e-10
    # the quoted constant's error, recorded in the printed detail only
    # the same 100 triangles, one batched determinant call
    gl = random_grad_lambdas(100, 1234)
    det = np.linalg.det(dof_matrices(element_catalog("veq"), gl))
    want = float(VEQ_DET_CONSTANT_CLAIMED) * \
        grad_curl_pairing(gl.transpose(1, 2, 0))
    claimed_err = float(np.max(np.abs(det - want) / np.abs(want)))
    report("2b (veq determinant matches the closed form)", ok,
           "27/501530650214400 max rel err "
           f"{rep.det_formula_max_rel_err:.3e} "
           f"({'<' if ok else '>='} 1e-10); quoted 103/501530650214400 "
           f"(erratum) max rel err {claimed_err:.3e}")
    assert ok, ("determinant does not match 27/501530650214400 * "
                "(grad l1 . curl l2)")


@pytest.mark.parametrize("n", [2, 4, 8])
def test_criterion3_cubic_complex_exactness(n):
    mesh = generate_structured(n)
    rep = exactness_report(mesh, "cubic", with_basis=True)
    rank_ok = rep.rank == 3 * mesh.n_cells - 1
    kernel_ok = rep.kernel == 3 * mesh.n_interior_vertices + \
        mesh.n_interior_edges
    jumps_ok = rep.basis_membership_violation < 1e-10
    ok = rank_ok and kernel_ok and jumps_ok
    report(f"3 (cubic complex exactness, n={n})", ok,
           f"rank {rep.rank}, kernel {rep.kernel}, basis jump violation "
           f"{rep.basis_membership_violation:.2e}")
    assert ok


@pytest.mark.parametrize("n", [2, 4, 8])
def test_criterion4a_quartic_surjectivity(n):
    mesh = generate_structured(n)
    rep = exactness_report(mesh, "quartic")
    ok = rep.rank == 6 * mesh.n_cells - 1
    report(f"4a (quartic surjectivity onto mean-zero P2, n={n})", ok,
           f"rank {rep.rank} == {6 * mesh.n_cells - 1}")
    assert ok


@pytest.mark.parametrize("n", [2, 4, 8])
def test_criterion4b_quartic_kernel_dimension_formula(n):
    mesh = generate_structured(n)
    rep = exactness_report(mesh, "quartic")
    formula = 4 * mesh.n_interior_vertices + 2 * mesh.n_interior_edges - 3
    ok = (rep.kernel == formula == rep.kernel_dim_formula
          == rep.kernel_dim_derived == {2: 17, 4: 113, 8: 545}[n])
    report(f"4b (quartic kernel dim = 4Xi + 2Ei - 3, n={n})", ok,
           f"measured {rep.kernel}, formula {formula}, derived "
           f"dim(G3)-dim(P2_0) = {rep.kernel_dim_derived}")
    assert ok, (rep.kernel, formula, rep.kernel_dim_formula,
                rep.kernel_dim_derived)


@pytest.mark.parametrize("n", [2, 4])
def test_criterion5_decomposition_primal_equivalence(n):
    mesh = generate_structured(n)
    problem = manufactured("poly8")
    res = solve_cubic(mesh, problem.f)
    basis = b3_basis(mesh)
    resid = galerkin_residual(res, problem.f, basis)
    ok = resid < 1e-8
    report(f"5 (decomposed solution solves the primal scheme, n={n})", ok,
           f"galerkin residual {resid:.3e}")
    assert ok


RATE_GATES = [
    ("morley", [8, 16, 32], "h2", 0.9),
    ("cubic", [8, 16, 32], "h2", 1.8),
    ("cubic", [8, 16, 32], "h1", 2.7),
    ("quartic", [4, 8, 16], "h2", 2.7),
]


@pytest.mark.parametrize("problem_name", ["poly8", "sin2"])
@pytest.mark.parametrize("scheme,levels,norm,gate",
                         RATE_GATES, ids=lambda v: str(v))
def test_criterion6_convergence_rates(problem_name, scheme, levels, norm,
                                      gate):
    problem = manufactured(problem_name)
    table = convergence_study(problem, scheme, levels)
    rates = table.observed_rates(norm)
    ok = all(r >= gate for r in rates)
    report(f"6 ({scheme} {norm} rates on {problem_name}, "
           f"n={levels[0]}..{levels[-1]})", ok,
           "rates " + ", ".join(f"{r:.3f}" for r in rates) + f" >= {gate}")
    assert ok, (scheme, norm, rates)


@pytest.mark.parametrize("pair", ["g2p1", "g3p2"])
def test_criterion7_infsup_no_decay(pair):
    values = infsup_study(pair, [2, 4, 8, 16])
    base = values[0][1]
    ok = base > 0 and all(c >= 0.5 * base for _, c in values)
    report(f"7 (inf-sup stability trend, {pair})", ok,
           "C_h " + ", ".join(f"n={n}: {c:.4f}" for n, c in values))
    assert ok


def test_criterion8_gradient_inverse_roundtrip(grad_array):
    mesh = generate_structured(4)
    basis = b3_basis(mesh)
    rng = np.random.default_rng(777)
    rule = tri_rule(6)
    worst = 0.0
    for _ in range(20):
        total = basis.coeffs.T @ rng.standard_normal(len(basis))
        polys = {c: cubic_poly(total, c) for c in np.flatnonzero(
            total.reshape(-1, NCUBIC).any(axis=1))}
        # normalize to unit broken-H1 so the absolute gate is meaningful
        norm2 = 0.0
        for c, p in polys.items():
            geom = mesh.geometry(c)
            gx, gy = poly_gradient(p, geom.grad_lambda)
            norm2 += geom.area * float(np.sum(
                rule.weights * (gx.eval(rule.points)**2
                                + gy.eval(rule.points)**2)))
        scale = 1.0 / np.sqrt(norm2)
        polys = {c: scale * p for c, p in polys.items()}

        def cellvec(c):
            if c not in polys:
                from biharmfem.polynomials import BaryPoly
                return BaryPoly(), BaryPoly()
            return poly_gradient(polys[c], mesh.geometry(c).grad_lambda)

        w2 = grad_inverse(mesh, grad_array(mesh, cellvec)).toarray().ravel()
        err2 = 0.0
        for c in range(mesh.n_cells):
            geom = mesh.geometry(c)
            target = polys.get(c)
            gx_t, gy_t = (poly_gradient(target, geom.grad_lambda)
                          if target is not None else (None, None))
            gx_w, gy_w = poly_gradient(cubic_poly(w2, c), geom.grad_lambda)
            dx = gx_w - gx_t if gx_t is not None else gx_w
            dy = gy_w - gy_t if gy_t is not None else gy_w
            err2 += geom.area * float(np.sum(
                rule.weights * (dx.eval(rule.points)**2
                                + dy.eval(rule.points)**2)))
        worst = max(worst, float(np.sqrt(err2)))
    ok = worst < 1e-10
    report("8 (gradient-inverse round trip, 20 seeded vectors)", ok,
           f"max broken-H1 error {worst:.3e}")
    assert ok
