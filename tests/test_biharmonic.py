import numpy as np
import pytest

import biharmfem.linalg as la
from biharmfem.linalg import SolverError
from biharmfem.mesh import generate_structured
from biharmfem.biharmonic import (convergence_study, galerkin_residual,
                                  infsup_study, manufactured, solve_cubic,
                                  solve_morley, solve_quartic)
from biharmfem.spaces import build_space, error_norms, assemble_bilinear
from biharmfem.stokes_complex import b3_basis


@pytest.fixture(scope="module")
def mesh2():
    return generate_structured(2)


@pytest.fixture(scope="module")
def mesh4():
    return generate_structured(4)


@pytest.fixture(scope="module")
def poly8():
    return manufactured("poly8")


def test_manufactured_names():
    for name in ("poly8", "sin2", "zero"):
        p = manufactured(name)
        assert p.name == name
    with pytest.raises(KeyError):
        manufactured("nope")


def test_poly8_point_value(poly8):
    assert poly8.u(0.5, 0.5) == pytest.approx(1.0 / 256.0, rel=1e-14)


@pytest.mark.parametrize("name", ["poly8", "sin2"])
def test_manufactured_boundary_traces_vanish(name):
    p = manufactured(name)
    t = np.linspace(0.0, 1.0, 100)
    zero = np.zeros_like(t)
    one = np.ones_like(t)
    for xs, ys, normal in ((t, zero, (0, -1)), (t, one, (0, 1)),
                           (zero, t, (-1, 0)), (one, t, (1, 0))):
        assert np.abs(p.u(xs, ys)).max() < 1e-12
        gx, gy = p.grad_u(xs, ys)
        assert np.abs(gx * normal[0] + gy * normal[1]).max() < 1e-12


@pytest.mark.parametrize("name", ["poly8", "sin2"])
def test_manufactured_fd_oracle(name):
    # 13-point finite-difference biharmonic as an independent check of f
    p = manufactured(name)
    h = 1e-3
    x0, y0 = 0.5, 0.5

    def u(i, j):
        return float(p.u(np.array([x0 + i * h]), np.array([y0 + j * h]))[0])

    lap = {}
    for i in (-2, -1, 0, 1, 2):
        for j in (-2, -1, 0, 1, 2):
            lap[(i, j)] = u(i, j)
    uxxxx = (lap[(2, 0)] - 4 * lap[(1, 0)] + 6 * lap[(0, 0)]
             - 4 * lap[(-1, 0)] + lap[(-2, 0)]) / h**4
    uyyyy = (lap[(0, 2)] - 4 * lap[(0, 1)] + 6 * lap[(0, 0)]
             - 4 * lap[(0, -1)] + lap[(0, -2)]) / h**4
    uxxyy = (lap[(1, 1)] + lap[(-1, 1)] + lap[(1, -1)] + lap[(-1, -1)]
             - 2 * (lap[(1, 0)] + lap[(-1, 0)] + lap[(0, 1)] + lap[(0, -1)])
             + 4 * lap[(0, 0)]) / h**4
    fd = uxxxx + 2 * uxxyy + uyyyy
    exact = float(p.f(np.array([x0]), np.array([y0]))[0])
    assert fd == pytest.approx(exact, rel=1e-5)


def test_manufactured_hessian_fd(poly8):
    h = 1e-5
    x0, y0 = np.array([0.37]), np.array([0.61])
    hxx, hxy, hyy = poly8.hess_u(x0, y0)
    gxp, _ = poly8.grad_u(x0 + h, y0)
    gxm, _ = poly8.grad_u(x0 - h, y0)
    assert (gxp - gxm) / (2 * h) == pytest.approx(hxx, rel=1e-8)


# -- solvers -------------------------------------------------------------------

def test_cubic_zero_source(mesh2):
    res = solve_cubic(mesh2, manufactured("zero").f)
    assert np.linalg.norm(res.u_h.coeffs) < 1e-12
    assert np.linalg.norm(res.phi_h.coeffs) < 1e-12


def test_quartic_zero_source(mesh2):
    res = solve_quartic(mesh2, manufactured("zero").f)
    assert np.linalg.norm(res.u_h.coeffs) < 1e-12


def test_morley_zero_source(mesh2):
    u = solve_morley(mesh2, manufactured("zero").f)
    assert np.linalg.norm(u.coeffs) < 1e-12
    assert u.space.ndof == 9


def test_cubic_stage2_constraint(mesh2, poly8):
    res = solve_cubic(mesh2, poly8.f)
    # rot of the stage-2 velocity vanishes weakly and pointwise
    assert res.diagnostics["stage2_constraint"] < 1e-10
    g2 = res.phi_h.space
    dg1 = build_space(mesh2, "DG1")
    B = assemble_bilinear(g2, dg1, "rot_pressure")
    scale = max(1.0, float(np.abs(res.phi_h.coeffs).max()))
    assert np.abs(B @ res.phi_h.coeffs).max() < 1e-10 * scale


def test_stage2_iterations_reach_diagnostics():
    # mass-preconditioned Schur PCG on the inf-sup stable cubic pair: 15
    # iterations at criss n=8; a band, since round-off may shift it by one
    res = solve_cubic(generate_structured(8), manufactured("sin2").f)
    assert 10 <= res.diagnostics["stage2_iterations"] <= 25


def test_stage2_failure_reports_infsup_constant(monkeypatch, mesh2, poly8):
    # one PCG iteration cannot reach the tolerance; the diagnosis reuses the
    # factors of the failed solve, so A1, A2 and Mp are each factored once
    calls, splu = [], la._splu

    def counting_splu(A):
        calls.append(A.shape)
        return splu(A)

    monkeypatch.setattr(la, "SCHUR_MAXIT", 1)
    monkeypatch.setattr(la, "_splu", counting_splu)
    with pytest.raises(SolverError) as err:
        solve_cubic(mesh2, poly8.f)
    assert "cubic stage-2 Stokes solve failed" in str(err.value)
    assert "inf-sup constant of the pair" in str(err.value)
    assert len(calls) == 3


@pytest.mark.parametrize("mesh_name", ["mesh2", "jittered4", "relabeled4"])
@pytest.mark.parametrize("solve", [solve_cubic, solve_quartic],
                         ids=["cubic", "quartic"])
def test_quartic_pressure_mean_zero(request, solve, mesh_name, poly8):
    mesh = request.getfixturevalue(mesh_name)
    res = solve(mesh, poly8.f)
    # mean-zero by projection of the DG pressure: check via DG0 pairing
    pres = res.p_h.space
    ones = assemble_bilinear(pres, build_space(mesh, "DG0"), "mass")
    total = np.asarray(ones @ res.p_h.coeffs).sum()
    assert abs(total) < 1e-12 * max(1.0, np.abs(res.p_h.coeffs).max())


def test_solver_determinism(mesh2, poly8):
    a = solve_cubic(mesh2, poly8.f)
    b = solve_cubic(mesh2, poly8.f)
    assert a.u_h.coeffs.tobytes() == b.u_h.coeffs.tobytes()


# -- decomposition <-> primal equivalence --------------------------------------

def test_galerkin_residual_small(mesh2, poly8):
    res = solve_cubic(mesh2, poly8.f)
    basis = b3_basis(mesh2)
    assert galerkin_residual(res, poly8.f, basis) < 1e-8


def test_galerkin_residual_detects_perturbation(mesh2, poly8):
    res = solve_cubic(mesh2, poly8.f)
    basis = b3_basis(mesh2)
    base = galerkin_residual(res, poly8.f, basis)
    # add one basis function scaled to the solution size
    fn = basis.functions[0]
    scale = 0.5 * max(np.abs(res.u_h.coeffs).max(), 1e-3)
    pot = res.u_h.space
    pert = res.u_h.coeffs.copy()
    from biharmfem.spaces import interpolate
    w_interp = interpolate(pot, lambda x, y: _eval_cellwise(fn.field, x, y))
    pert += scale * w_interp.coeffs
    res.u_h.coeffs = pert
    bumped = galerkin_residual(res, poly8.f, basis)
    res.u_h.coeffs = pert - scale * w_interp.coeffs
    assert bumped > max(1e-4, 10 * base)


def test_galerkin_residual_matches_cell_loop(mesh2, poly8):
    # a u_h far from the Galerkin solution: each residual is O(1) and equals
    # the one summed cell by cell over BaryPoly Hessians
    from biharmfem.polynomials import poly_hessian
    from biharmfem.quadrature import tri_rule
    res = solve_cubic(mesh2, poly8.f)
    res.u_h.coeffs = np.random.default_rng(19).standard_normal(
        res.u_h.space.ndof)
    basis = b3_basis(mesh2)
    rule = tri_rule(12)
    geoms = [mesh2.geometry(c) for c in range(mesh2.n_cells)]
    xy = [rule.points @ g.verts for g in geoms]
    fnorm = np.sqrt(sum(g.area * np.sum(rule.weights * poly8.f(*p.T)**2)
                        for g, p in zip(geoms, xy)))
    want = 0.0
    for fn in basis.functions:
        a = l = w2 = 0.0
        for c in fn.field.support:
            hw = [h.eval(rule.points) for h in
                  poly_hessian(fn.field.poly(c), geoms[c].grad_lambda)]
            hu = [h.eval(rule.points) for h in
                  poly_hessian(res.u_h.cell_poly(c), geoms[c].grad_lambda)]
            area = geoms[c].area
            a += area * np.sum(rule.weights * (hu[0] * hw[0] + 2 * hu[1] * hw[1]
                                               + hu[2] * hw[2]))
            w2 += area * np.sum(rule.weights * (hw[0]**2 + 2 * hw[1]**2
                                                + hw[2]**2))
            l += area * np.sum(rule.weights * poly8.f(*xy[c].T)
                               * fn.field.poly(c).eval(rule.points))
        want = max(want, abs(a - l) / (np.sqrt(w2) * max(1.0, fnorm)))
    got = galerkin_residual(res, poly8.f, basis)
    assert want > 1e-3
    assert got == pytest.approx(want, rel=1e-12)


def _eval_cellwise(fieldw, x, y):
    from biharmfem.spaces import locate_cell
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros_like(xs)
    mesh = fieldw.mesh
    for k, (a, b) in enumerate(zip(xs, ys)):
        c = locate_cell(mesh, (a, b))
        geom = mesh.geometry(c)
        lam = np.array([geom.grad_lambda[i] @ (np.array([a, b]) - geom.verts[i])
                        + 1.0 for i in range(3)])
        p = fieldw.poly(c)
        out[k] = p.eval(lam) if p.coeffs else 0.0
    return out if np.ndim(x) else float(out[0])


# -- energy stability and smoke-level convergence ------------------------------

def test_energy_bounded_by_source(poly8):
    ratios = []
    for n in (2, 4, 8):
        mesh = generate_structured(n)
        res = solve_cubic(mesh, poly8.f)
        z = lambda x, y: np.zeros_like(x)
        gz = lambda x, y: (z(x, y), z(x, y))
        hz = lambda x, y: (z(x, y), z(x, y), z(x, y))
        _, _, h2 = error_norms(res.u_h, z, gz, hz, quad_degree=10)
        ratios.append(h2)
    # energy norms stay bounded under refinement (discrete stability)
    assert max(ratios) < 10 * min(ratios) + 1.0


def test_smoke_convergence_cubic(poly8):
    tab = convergence_study(poly8, "cubic", [2, 4])
    assert tab.rows[1].err_h2 < tab.rows[0].err_h2
    assert tab.rows[0].rate_h2 is None
    assert tab.rows[1].rate_h2 is not None


def test_study_requires_doubling(poly8):
    with pytest.raises(ValueError):
        convergence_study(poly8, "cubic", [2, 3])


def test_infsup_study_small():
    vals = infsup_study("g2p1", [2, 4])
    assert all(c > 0.01 for _, c in vals)
    vals0 = infsup_study("g2p0", [2])
    assert vals0[0][1] > 0.05
    # criss n=16; Lanczos from a symmetric start vector misses the smallest
    # g2p1 mode there and reads 0.46978
    for pair, want in (("g2p0", 0.49724359936925), ("g2p1", 0.46864870618641),
                       ("g3p2", 0.22366683244355)):
        assert infsup_study(pair, [16])[0][1] == pytest.approx(want, rel=1e-9)


def test_csv_header_exact(poly8):
    tab = convergence_study(poly8, "morley", [2, 4])
    text = tab.to_csv()
    assert text.splitlines()[0] == "n,h,dofs,errH2,rateH2,errH1,rateH1,errL2,rateL2"
    assert len(text.splitlines()) == 3


def test_load_vector_regression_pin(mesh2, poly8):
    from biharmfem.spaces import assemble_load
    a3 = build_space(mesh2, "A3_0")
    lv = assemble_load(a3, poly8.f)
    assert np.isfinite(lv).all()
    assert np.linalg.norm(lv) == pytest.approx(12.283054878396, rel=1e-11)


def test_cubic_point_value_regression_pin(mesh4, poly8):
    from biharmfem.spaces import eval_field
    res = solve_cubic(mesh4, poly8.f)
    assert eval_field(res.u_h, (0.5, 0.5)) == pytest.approx(
        0.0037777280595897, rel=1e-10)


@pytest.mark.parametrize("n", [2, 4])
def test_galerkin_residual_sin2(n):
    mesh = generate_structured(n)
    p = manufactured("sin2")
    res = solve_cubic(mesh, p.f)
    basis = b3_basis(mesh)
    assert galerkin_residual(res, p.f, basis) < 1e-8


def test_hessian_consistency_global_quadratic(mesh2):
    # a DG2 field reproducing x^2 + x*y - y^2 has the exact constant hessian
    from biharmfem.polynomials import poly2d_mul, xy_to_bary
    from biharmfem.spaces import FieldFunction, eval_field
    dg2 = build_space(mesh2, "DG2")
    coeffs = np.zeros(dg2.ndof)
    q2d = {(2, 0): 1.0, (1, 1): 1.0, (0, 2): -1.0}
    for c in range(mesh2.n_cells):
        geom = mesh2.geometry(c)
        p = xy_to_bary(q2d, geom.verts)
        # canonical representative in {1, l1, l2, l1^2, l2^2, l1 l2}
        flat = {}
        for (a, b, cc), v in p.coeffs.items():
            # substitute l3 = 1 - l1 - l2
            term = {(0, 0): float(v)}
            for _ in range(a):
                term = poly2d_mul(term, {(1, 0): 1.0})
            for _ in range(b):
                term = poly2d_mul(term, {(0, 1): 1.0})
            for _ in range(cc):
                term = poly2d_mul(term, {(0, 0): 1.0, (1, 0): -1.0,
                                         (0, 1): -1.0})
            for k, v2 in term.items():
                flat[k] = flat.get(k, 0.0) + v2
        base0 = c * dg2.meta["per_cell"]
        mode = {(1, 0): 1, (0, 1): 2, (2, 0): 3, (0, 2): 4, (1, 1): 5}
        const = flat.get((0, 0), 0.0)
        shift = {(1, 0): 1 / 3, (0, 1): 1 / 3, (2, 0): 1 / 6, (0, 2): 1 / 6,
                 (1, 1): 1 / 12}
        for key, j in mode.items():
            v = flat.get(key, 0.0)
            coeffs[base0 + j] = v
            const += v * shift[key]
        coeffs[base0] = const
    fld = FieldFunction(dg2, coeffs)
    for pt in ((0.3, 0.4), (0.7, 0.2), (0.5, 0.5)):
        assert eval_field(fld, pt) == pytest.approx(
            pt[0]**2 + pt[0] * pt[1] - pt[1]**2, abs=1e-12)
        H = eval_field(fld, pt, order=2)
        assert np.allclose(H, [[2.0, 1.0], [1.0, -2.0]], atol=1e-10)


def test_galerkin_residual_zero_source(mesh2):
    z = manufactured("zero")
    res = solve_cubic(mesh2, z.f)
    basis = b3_basis(mesh2)
    assert galerkin_residual(res, z.f, basis) == 0.0
