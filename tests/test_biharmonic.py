import tracemalloc

import numpy as np
import pytest
from scipy.sparse._base import _spbase

import biharmfem.biharmonic as bh
import biharmfem.linalg as la
import biharmfem.spaces as spaces
from biharmfem.linalg import SolverError
from biharmfem.mesh import generate_structured, refine_uniform
from biharmfem.biharmonic import (RESIDUAL_QUAD_DEGREE, convergence_study,
                                  galerkin_residual, infsup_study,
                                  manufactured, solve_cubic, solve_morley,
                                  solve_quartic, solve_scheme)
from biharmfem.schemes import DECOMPOSED, PAIRS, SCHEMES
from biharmfem.spaces import (FORMS, _broken_space, _form_operator,
                              assemble_bilinear, build_space, error_norms,
                              locate_cells)
from biharmfem.stokes_complex import (CUBIC_SHAPES, NCUBIC, b3_basis,
                                      exactness_report)
from conftest import count_calls
from oracles import cell_poly, cubic_poly, poly_hessian, xy_to_bary


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


def test_sin2_closed_forms_match_products_of_sines():
    # the reference: s(t) = sin^2(pi t) and its derivatives, multiplied out
    pi = np.pi

    def s(t):
        return np.sin(pi * t) ** 2

    def s1(t):
        return pi * np.sin(2 * pi * t)

    def s2(t):
        return 2 * pi**2 * np.cos(2 * pi * t)

    def s4(t):
        return -8 * pi**4 * np.cos(2 * pi * t)

    p = manufactured("sin2")
    x, y = np.random.default_rng(31).uniform(0.0, 1.0, size=(2, 10**4))
    pairs = [(p.u(x, y), s(x) * s(y)),
             (p.f(x, y), s4(x) * s(y) + 2 * s2(x) * s2(y) + s(x) * s4(y)),
             *zip(p.grad_u(x, y), (s1(x) * s(y), s(x) * s1(y))),
             *zip(p.hess_u(x, y), (s2(x) * s(y), s1(x) * s1(y),
                                   s(x) * s2(y)))]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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


@pytest.mark.parametrize("vel_kind,pot_kind", [("G2_0", "A3_0"),
                                               ("G3_0", "A4_0")])
def test_applied_coupling_matches_assembled(monkeypatch, jittered4, relabeled4,
                                            vel_kind, pot_kind):
    # applied channel by channel, in blocks of a few cells and a partial
    # last one, without the stack of cell matrices
    calls = count_calls(monkeypatch, spaces, "_cell_matrices")
    monkeypatch.setattr(spaces, "BLOCK_POINTS", 1000)
    rng = np.random.default_rng(12)
    for mesh in (generate_structured(4), jittered4, relabeled4,
                 refine_uniform(generate_structured(2))):
        vel = build_space(mesh, vel_kind)
        pot = build_space(mesh, pot_kind)
        D = assemble_bilinear(vel, pot, "vecfield_grad")
        calls.clear()
        applied = _form_operator(vel, pot, "vecfield_grad")
        phi, r = rng.standard_normal(vel.ndof), rng.standard_normal(pot.ndof)
        for got, want in ((applied @ phi, D @ phi), (applied.T @ r, D.T @ r)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert not calls


def test_cached_reference_tensors_match_fresh(monkeypatch):
    # every (trial, test, form, degree) the library assembles, W's
    # hess_hess at RESIDUAL_QUAD_DEGREE and a vector space beside its
    # component, of the same shape set: the cached R is the fresh one, so
    # no two of them share a key
    calls = count_calls(monkeypatch, spaces, "_form_tensor")
    mesh, f = generate_structured(2), manufactured("sin2").f
    galerkin_residual(solve_cubic(mesh, f), f, b3_basis(mesh))
    solve_quartic(mesh, f)
    solve_morley(mesh, f)
    for order in DECOMPOSED:
        exactness_report(mesh, order)
    for pair in PAIRS:
        infsup_study(pair, [2])
    W = _broken_space(mesh, CUBIC_SHAPES, CUBIC_SHAPES, 3)
    spaces._form_tensor(W, W, "hess_hess", RESIDUAL_QUAD_DEGREE)
    vel = build_space(mesh, "G2")
    for space in (vel, vel.component):
        assemble_bilinear(space, space, "grad_grad")
    monkeypatch.undo()
    for args, kwargs in calls:
        cached = spaces._form_tensor(*args, **kwargs)[0]
        monkeypatch.setattr(spaces, "_REFERENCE_TENSORS", {})
        fresh = spaces._form_tensor(*args, **kwargs)[0]
        monkeypatch.undo()
        assert fresh is not cached and np.array_equal(cached, fresh)
    assert {args[2] for args, _ in calls} == set(FORMS)


def _is_identity(M) -> bool:
    return (hasattr(M, "nnz") and M.shape[0] == M.shape[1] == M.nnz
            and bool((M.diagonal() == 1.0).all()))


def test_second_solve_pays_no_fixed_cost_again(monkeypatch, relabeled4):
    # a solve on a new mesh computes no reference tensor, and the identity P
    # of its DG pressure space enters no sparse product: Mp is the block
    # diagonal of the cell matrices, B one product.  Nor does the identity P
    # of galerkin_residual's broken space W, in its applied operator, load
    # and norm.
    f = manufactured("sin2").f
    mesh = generate_structured(2)
    solve_quartic(mesh, f)
    galerkin_residual(solve_cubic(mesh, f), f, b3_basis(mesh))
    result, basis = solve_cubic(relabeled4, f), b3_basis(relabeled4)
    computed = count_calls(monkeypatch, spaces, "_form_reference")
    products = [count_calls(monkeypatch, _spbase, name)
                for name in ("_matmul_dispatch", "_rmatmul_dispatch")]
    solve_quartic(relabeled4, f)
    galerkin_residual(result, f, basis)
    monkeypatch.undo()
    assert computed == []
    operands = [M for calls in products for args, _ in calls for M in args]
    assert len(operands) >= 100
    assert not any(_is_identity(M) for M in operands)


def test_solve_assembles_no_coupling(monkeypatch, mesh2):
    forms = []
    assemble = bh.assemble_bilinear

    def counting(trial, test, form, *args, **kwargs):
        forms.append(form)
        return assemble(trial, test, form, *args, **kwargs)

    monkeypatch.setattr(bh, "assemble_bilinear", counting)
    for solve in (solve_cubic, solve_quartic):
        solve(mesh2, manufactured("sin2").f)
    assert len(forms) == 8 and "vecfield_grad" not in forms


def test_stage2_failure_reports_infsup_constant(monkeypatch, mesh2, poly8):
    # one PCG iteration cannot reach the tolerance; the diagnosis reuses the
    # factor of the failed solve, so A1 and the one-component velocity Gram
    # are each factored once and the diagonal pressure Gram not at all
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
    assert len(calls) == 2
    assert calls[1][0] == build_space(mesh2, "G2_0").ndof // 2


@pytest.mark.parametrize("solve", [solve_morley, solve_cubic],
                         ids=["morley", "cubic"])
def test_non_finite_load_fails_the_first_solve(solve):
    # a NaN load fails the first checked solve, not the Stokes stage
    def f(x, y):
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(SolverError, match="right-hand side is not finite") \
            as err:
        solve(generate_structured(4), f)
    assert "Stokes" not in str(err.value)


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

@pytest.mark.parametrize("mesh_name", ["mesh2", "jittered4", "relabeled4"])
def test_galerkin_residual_small(request, mesh_name, poly8):
    mesh = request.getfixturevalue(mesh_name)
    res = solve_cubic(mesh, poly8.f)
    basis = b3_basis(mesh)
    assert galerkin_residual(res, poly8.f, basis) < 1e-8


@pytest.mark.parametrize("solve", [solve_cubic, solve_quartic],
                         ids=["cubic", "quartic"])
def test_decomposed_solve_rejects_holed_mesh(holed8, solve, monkeypatch):
    # a hole adds a discrete harmonic field to the stage-2 kernel: refused
    # before anything is assembled
    assert holed8.n_cells == 96 and holed8.euler_characteristic() == 0
    monkeypatch.setattr(bh, "build_space", None)
    with pytest.raises(SolverError, match=r"simply connected mesh; Euler "
                       r"characteristic 0, b1 = 1 hole\(s\)"):
        solve(holed8, lambda x, y: np.ones_like(x))


def test_morley_solves_holed_mesh(holed8):
    u = solve_morley(holed8, lambda x, y: np.ones_like(x))
    assert np.isfinite(u.coeffs).all() and np.abs(u.coeffs).max() > 0


def test_lshape_galerkin_residual(lshape8):
    assert lshape8.n_cells == 96 and lshape8.euler_characteristic() == 1
    one = lambda x, y: np.ones_like(x)
    res = solve_cubic(lshape8, one)
    assert galerkin_residual(res, one, b3_basis(lshape8)) <= 1e-12


def test_galerkin_residual_peak_memory():
    # criss n=16: the basis norms from one assembled Hessian Gram peak at
    # 2.3 MiB; gathering a 10 x 10 cell matrix per (function, cell) block
    # peaked at 5.4 MiB
    mesh = generate_structured(16)
    f = manufactured("sin2").f
    basis, res = b3_basis(mesh), solve_cubic(mesh, f)
    tracemalloc.start()
    try:
        galerkin_residual(res, f, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


def test_galerkin_residual_detects_perturbation(mesh2, poly8):
    res = solve_cubic(mesh2, poly8.f)
    basis = b3_basis(mesh2)
    base = galerkin_residual(res, poly8.f, basis)
    # add one basis function scaled to the solution size
    row = basis.coeffs[0].toarray().ravel()
    scale = 0.5 * max(np.abs(res.u_h.coeffs).max(), 1e-3)
    pot = res.u_h.space
    pert = res.u_h.coeffs.copy()
    from biharmfem.spaces import interpolate
    w_interp = interpolate(pot, lambda x, y: _eval_cellwise(mesh2, row, x, y))
    pert += scale * w_interp.coeffs
    res.u_h.coeffs = pert
    bumped = galerkin_residual(res, poly8.f, basis)
    res.u_h.coeffs = pert - scale * w_interp.coeffs
    assert bumped > max(1e-4, 10 * base)


@pytest.mark.parametrize("mesh_name", ["mesh2", "jittered4", "relabeled4"])
def test_galerkin_residual_matches_cell_loop(request, mesh_name, poly8):
    # a u_h far from the Galerkin solution: each residual is O(1) and equals
    # the one summed cell by cell over BaryPoly Hessians
    from biharmfem.quadrature import tri_rule
    mesh = request.getfixturevalue(mesh_name)
    res = solve_cubic(mesh, poly8.f)
    res.u_h.coeffs = np.random.default_rng(19).standard_normal(
        res.u_h.space.ndof)
    basis = b3_basis(mesh)
    rule = tri_rule(12)
    geoms = [mesh.geometry(c) for c in range(mesh.n_cells)]
    xy = [rule.points @ g.verts for g in geoms]
    fnorm = np.sqrt(sum(g.area * np.sum(rule.weights * poly8.f(*p.T)**2)
                        for g, p in zip(geoms, xy)))
    want = 0.0
    for row in basis.coeffs.toarray():
        a = l = w2 = 0.0
        for c in np.flatnonzero(row.reshape(-1, NCUBIC).any(axis=1)):
            hw = [h.eval(rule.points) for h in
                  poly_hessian(cubic_poly(row, c), geoms[c].grad_lambda)]
            hu = [h.eval(rule.points) for h in
                  poly_hessian(cell_poly(res.u_h.space, res.u_h.coeffs, c),
                               geoms[c].grad_lambda)]
            area = geoms[c].area
            a += area * np.sum(rule.weights * (hu[0] * hw[0] + 2 * hu[1] * hw[1]
                                               + hu[2] * hw[2]))
            w2 += area * np.sum(rule.weights * (hw[0]**2 + 2 * hw[1]**2
                                                + hw[2]**2))
            l += area * np.sum(rule.weights * poly8.f(*xy[c].T)
                               * cubic_poly(row, c).eval(rule.points))
        want = max(want, abs(a - l) / (np.sqrt(w2) * max(1.0, fnorm)))
    got = galerkin_residual(res, poly8.f, basis)
    assert want > 1e-3
    assert got == pytest.approx(want, rel=1e-12)


def _eval_cellwise(mesh, row, x, y):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros_like(xs)
    cells = locate_cells(mesh, np.column_stack([xs, ys]))[0]
    for k, (a, b, c) in enumerate(zip(xs, ys, cells)):
        geom = mesh.geometry(c)
        lam = np.array([geom.grad_lambda[i] @ (np.array([a, b]) - geom.verts[i])
                        + 1.0 for i in range(3)])
        p = cubic_poly(row, c)
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


def test_singular_pair_reads_zero():
    # criss n=1: G3_0 has 10 velocity DoFs against 11 mean-zero pressures,
    # so S is singular, and its smallest eigenvalue is round-off (2e-16)
    assert infsup_study("g3p2", [1]) == [(1, 0.0)]


def test_unknown_names_list_the_known_ones(mesh2, poly8):
    with pytest.raises(KeyError, match=r"unknown pair 'nope'; known: "
                                       r"\['g2p0', 'g2p1', 'g3p2'\]"):
        infsup_study("nope", [])
    with pytest.raises(KeyError, match=r"unknown scheme 'x'; known: "
                                       r"\['cubic', 'morley', 'quartic'\]"):
        solve_scheme(mesh2, "x", poly8.f)


def test_scheme_rows_name_known_pairs():
    assert bh.PAIRS is PAIRS    # the pair table stays importable here
    assert all(row is None or row[1] in PAIRS for row in SCHEMES.values())


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
    # a DG2 field reproducing x^2 + x*y - y^2 has the exact constant hessian;
    # the DG2 modes are L2-orthogonal, so each coefficient is the cell
    # average of q times the mode over the mode's mean square
    from biharmfem.spaces import FieldFunction, eval_field, shape_set
    dg2 = build_space(mesh2, "DG2")
    modes = shape_set(dg2.shapes)
    coeffs = np.zeros(dg2.ndof)
    q2d = {(2, 0): 1.0, (1, 1): 1.0, (0, 2): -1.0}
    for c in range(mesh2.n_cells):
        q = xy_to_bary(q2d, mesh2.geometry(c).verts)
        coeffs[c * len(modes):(c + 1) * len(modes)] = [
            (q * s).cell_average() / (s * s).cell_average() for s in modes]
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
