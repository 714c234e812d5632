import resource
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import biharmfem.spaces as spaces
from biharmfem.biharmonic import manufactured
from biharmfem.elements import (dof_matrices, element_catalog, eval_dof,
                                nodal_coefficients)
from biharmfem.linalg import _pin_mmap_threshold, saddle_solve
from biharmfem.mesh import Mesh, generate_structured, refine_uniform
from biharmfem.polynomials import EDGE_LEGENDRE, BaryPoly, poly1d_eval
from biharmfem.quadrature import edge_rule, tri_rule
from biharmfem.spaces import (LAYOUT_KINDS, ROUNDOFF_RTOL, FieldFunction,
                              assemble_bilinear, assemble_load, build_space,
                              error_norms, eval_field, interpolate,
                              _pressure_modes, interpolate_vector,
                              locate_cells)
from conftest import count_calls
from oracles import (cell_poly, coo_operator, edge_jump_moments,
                     entity_operator, field_at, inverse_path_operator,
                     is_symmetric, poly_gradient, poly_hessian,
                     quadrature_points, whole_mesh_error_norms,
                     whole_mesh_load)


def counts(mesh):
    return mesh.n_interior_vertices, mesh.n_interior_edges, mesh.n_cells


MESHES = [generate_structured(2), generate_structured(3),
          refine_uniform(generate_structured(2))]


# -- dimension formulas -------------------------------------------------------

@pytest.mark.parametrize("mesh", MESHES)
def test_dimension_closed_forms(mesh):
    xi, ei, nt = counts(mesh)
    assert build_space(mesh, "A3_0").ndof == xi + ei + 4 * nt
    assert build_space(mesh, "A4_0").ndof == xi + 3 * ei + 3 * nt
    assert build_space(mesh, "G2_0").ndof == 2 * (xi + ei) + 2 * nt
    assert build_space(mesh, "G3_0").ndof == 2 * (3 * ei + nt)
    # mean-zero DG pressures: one constraint on the discontinuous space
    assert build_space(mesh, "DG1").ndof - 1 == 3 * nt - 1
    assert build_space(mesh, "DG2").ndof - 1 == 6 * nt - 1
    assert build_space(mesh, "DG0").ndof - 1 == nt - 1
    assert build_space(mesh, "Morley_0").ndof == xi + ei
    assert build_space(mesh, "S2_0").ndof == 2 * (xi + ei)
    nv, ne = mesh.n_vertices, mesh.n_edges
    assert build_space(mesh, "G2").ndof == 2 * (nv + ne) + 2 * nt
    assert build_space(mesh, "G3").ndof == 2 * (3 * ne + nt)
    for k in range(1, 5):
        ndof = xi + (k - 1) * ei + (k - 1) * (k - 2) // 2 * nt
        assert build_space(mesh, f"Lagrange{k}_0").ndof == ndof, k


def test_dimension_examples_n2():
    mesh = generate_structured(2)
    assert build_space(mesh, "DG1").ndof - 1 == 23
    assert build_space(mesh, "G2_0").ndof == 34
    assert build_space(mesh, "A3_0").ndof == 41
    assert build_space(mesh, "Morley_0").ndof == 9


def test_unknown_kind_rejected():
    with pytest.raises(KeyError):
        build_space(generate_structured(1), "nope")


# -- assembly sanity ----------------------------------------------------------

def test_p1_interior_stiffness_value():
    # criss mesh n=2: single interior vertex; grad-grad diagonal entry is 4
    mesh = generate_structured(2)
    sp_ = build_space(mesh, "Lagrange1_0")
    assert sp_.ndof == 1
    A = assemble_bilinear(sp_, sp_, "grad_grad")
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(4.0, rel=1e-12)


def test_dg0_mass_row_sums_are_areas():
    mesh = generate_structured(3)
    dg0 = build_space(mesh, "DG0")
    M = assemble_bilinear(dg0, dg0, "mass")
    areas = np.array([mesh.geometry(c).area for c in range(mesh.n_cells)])
    assert np.allclose(np.asarray(M.sum(axis=1)).ravel(), areas, atol=1e-14)


def test_rot_of_constant_field_is_zero():
    mesh = generate_structured(2)
    g2 = build_space(mesh, "G2")  # no boundary elimination
    dg1 = build_space(mesh, "DG1")
    B = assemble_bilinear(g2, dg1, "rot_pressure")
    u = np.zeros(g2.ndof)
    vd = g2.meta["vertex_dofs"]
    ed = g2.meta["edge_dofs"]
    u[vd[:, 0]] = 1.0   # constant (1, 0) field
    u[ed[:, 0]] = 1.0
    assert np.linalg.norm(B @ u) < 1e-12


def test_symmetric_forms_are_symmetric():
    mesh = generate_structured(2)
    for kind, form in (("A3_0", "grad_grad"), ("A4_0", "grad_grad"),
                       ("Morley_0", "hess_hess"), ("G2_0", "grad_grad"),
                       ("G3_0", "grad_grad"), ("DG1", "mass")):
        s = build_space(mesh, kind)
        A = assemble_bilinear(s, s, form)
        assert is_symmetric(A, rel=1e-12), (kind, form)


@pytest.mark.parametrize("jittered", [False, True], ids=["criss", "jittered"])
def test_assembly_stores_no_roundoff(request, jittered):
    mesh = (request.getfixturevalue("jittered4") if jittered
            else generate_structured(4))
    for trial, test, form in (("A3_0", "A3_0", "grad_grad"),
                              ("G2_0", "G2_0", "grad_grad"),
                              ("G2_0", "DG1", "rot_pressure"),
                              ("G2_0", "A3_0", "vecfield_grad"),
                              ("DG1", "DG1", "mass"),
                              ("G3_0", "DG2", "rot_pressure"),
                              ("DG2", "DG2", "mass"),
                              ("Morley_0", "Morley_0", "hess_hess")):
        M = assemble_bilinear(build_space(mesh, trial), build_space(mesh, test),
                              form)
        mag = np.abs(M.data)
        assert mag.min() > ROUNDOFF_RTOL * mag.max(), (trial, test, form)


def test_load_zero_and_constant():
    mesh = generate_structured(2)
    a3 = build_space(mesh, "A3_0")
    assert np.linalg.norm(assemble_load(a3, lambda x, y: 0.0 * x)) == 0.0
    dg0 = build_space(mesh, "DG0")
    lv = assemble_load(dg0, lambda x, y: np.ones_like(x))
    areas = np.array([mesh.geometry(c).area for c in range(mesh.n_cells)])
    assert np.allclose(lv, areas, atol=1e-14)


# -- interpolation reproduces member polynomials ------------------------------

def cubic_u(x, y):
    return x**3 - 2 * x * y**2 + 3 * y - 1 + x * y


def test_a3_reproduces_global_cubic():
    # interpolation of a smooth cubic on the ring of interior dofs: jumps of
    # the interpolant vanish and the field agrees with u where dofs are free
    mesh = generate_structured(2)
    a3 = build_space(mesh, "A3_0")
    f = interpolate(a3, cubic_u)
    for e in mesh.interior_edges():
        jump = edge_jump_moments(
            mesh, lambda c: cell_poly(a3, f.coeffs, c), int(e), 0)
        assert jump < 1e-12
    # interior consistency: at the interior vertex the field equals u
    mid = eval_field(f, (0.5, 0.5))
    assert mid == pytest.approx(cubic_u(0.5, 0.5), abs=1e-10)


def boundary_flat_u(x, y):
    # in H2_0-like shape so all homogeneous dofs really vanish
    return (x * (1 - x) * y * (1 - y))**2


def boundary_flat_grad(x, y):
    g = x * (1 - x) * y * (1 - y)
    gx = (1 - 2 * x) * y * (1 - y)
    gy = x * (1 - x) * (1 - 2 * y)
    return 2 * g * gx, 2 * g * gy


@pytest.mark.parametrize("kind,jump_deg,deriv", [
    ("A3_0", 0, "value"),
    ("A4_0", 1, "value"),
    ("A4_0", 0, "normal"),
    ("Morley_0", 0, "normal"),
])
def test_interpolant_jumps_vanish(kind, jump_deg, deriv):
    mesh = generate_structured(2)
    space = build_space(mesh, kind)
    needs_grad = kind in ("A4_0", "Morley_0")
    f = interpolate(space, boundary_flat_u,
                    grad_u=boundary_flat_grad if needs_grad else None)
    assert np.abs(f.coeffs).max() > 0
    for e in range(mesh.n_edges):
        jump = edge_jump_moments(mesh, lambda c: cell_poly(space, f.coeffs, c),
                                 int(e), jump_deg, deriv=deriv)
        assert jump < 1e-12, (kind, e, deriv, jump)


def test_g3_interpolant_jumps_vanish():
    mesh = generate_structured(2)
    g3 = build_space(mesh, "G3_0")
    u1 = lambda x, y: boundary_flat_grad(x, y)[0]
    u2 = lambda x, y: boundary_flat_grad(x, y)[1]
    # hand-built oracle: canonical Legendre edge moments and cell means
    coeffs = np.zeros(g3.ndof)
    erule, trule = edge_rule(12), tri_rule(12)
    for e in mesh.interior_edges():
        va, vb = mesh.vertices[mesh.edges[e]]
        pts = va + erule.points[:, None] * (vb - va)
        for comp, f in enumerate((u1, u2)):
            vals = f(pts[:, 0], pts[:, 1])
            for m in range(3):
                wv = poly1d_eval([float(c) for c in EDGE_LEGENDRE[m]],
                                 erule.points)
                coeffs[g3.meta["edge_dofs"][e, 3 * comp + m]] = np.sum(
                    erule.weights * wv * vals)
    for c in range(mesh.n_cells):
        xy = trule.points @ mesh.geometry(c).verts
        for comp, f in enumerate((u1, u2)):
            coeffs[g3.meta["cell_dofs"][c, comp]] = np.sum(
                trule.weights * f(xy[:, 0], xy[:, 1]))
    got = interpolate_vector(g3, u1, u2).coeffs
    assert np.abs(got - coeffs).max() <= 1e-14 * np.abs(coeffs).max()
    for e in range(mesh.n_edges):
        for comp in range(2):
            jump = edge_jump_moments(
                mesh, lambda c: cell_poly(g3, coeffs, c)[comp], int(e), 2)
            assert jump < 1e-11, (e, comp)


def test_g2_interpolant_jumps_vanish():
    mesh = generate_structured(2)
    g2 = build_space(mesh, "G2_0")
    u1 = lambda x, y: boundary_flat_grad(x, y)[0]
    u2 = lambda x, y: boundary_flat_grad(x, y)[1]
    f = interpolate_vector(g2, u1, u2)
    for e in range(mesh.n_edges):
        for comp in range(2):
            jump = edge_jump_moments(
                mesh, lambda c: cell_poly(g2, f.coeffs, c)[comp], int(e), 0)
            assert jump < 1e-12


def _poly(d, shift):
    """A degree-d polynomial and its gradient, as callbacks."""
    a = lambda x, y: shift + x - 0.7 * y
    b = lambda x, y: 0.5 * x + y
    u = lambda x, y: a(x, y)**d + b(x, y)**(d - 1) - x**d
    grad = lambda x, y: (
        d * a(x, y)**(d - 1) + 0.5 * (d - 1) * b(x, y)**max(d - 2, 0)
        - d * x**(d - 1),
        -0.7 * d * a(x, y)**(d - 1) + (d - 1) * b(x, y)**max(d - 2, 0))
    return u, grad


@pytest.mark.parametrize("kind,degree", [
    ("A3_0", 3), ("A4_0", 4), ("Morley_0", 2), ("Lagrange1_0", 1),
    ("Lagrange2_0", 2), ("Lagrange3_0", 3), ("Lagrange4_0", 4),
    ("S2_0", 2), ("G2", 2), ("G3_0", 3)])
def test_interpolant_reproduces_shape_polynomials(relabeled4, kind, degree):
    # on a cell with no boundary entity, the canonical interpolant of a
    # polynomial of the element's degree is that polynomial: every slot's
    # functional, orientation and sign must match the element's DOFs
    mesh = relabeled4
    space = build_space(mesh, kind)
    (u1, g1), (u2, _) = _poly(degree, 0.3), _poly(degree, -0.4)
    if space.vector:
        f, exact = interpolate_vector(space, u1, u2), (u1, u2)
    else:
        f, exact = interpolate(space, u1, grad_u=g1), (u1,)
    inner = np.flatnonzero(~mesh.vertex_is_boundary[mesh.cells].any(axis=1))
    assert inner.size == 8
    pts = tri_rule(6).points
    for c in inner:
        xy = pts @ mesh.geometry(c).verts
        polys = cell_poly(space, f.coeffs, c)
        polys = polys if space.vector else (polys,)
        for p, u in zip(polys, exact):
            want = u(xy[:, 0], xy[:, 1])
            assert np.allclose(p.eval(pts), want, rtol=0,
                               atol=1e-11 * np.abs(want).max()), (kind, c)


@pytest.mark.parametrize("kind", ["A4_0", "Morley_0"])
def test_normal_dof_interpolation_needs_gradient(jittered4, kind):
    with pytest.raises(ValueError, match=f"{kind} interpolation needs grad_u"):
        interpolate(build_space(jittered4, kind), lambda x, y: x * y)


def test_dg_has_no_interpolation_rule(jittered4):
    with pytest.raises(ValueError, match="no interpolation rule for space "
                                         "kind DG1"):
        interpolate(build_space(jittered4, "DG1"), lambda x, y: x * y)


# -- evaluation and error norms ----------------------------------------------

def test_eval_constant_field():
    mesh = generate_structured(2)
    a3 = build_space(mesh, "A3_0")
    # constant 1 is not in A3_0 (boundary conditions), use Lagrange without..
    # evaluate an interpolated smooth function instead
    f = interpolate(a3, boundary_flat_u)
    val = eval_field(f, (0.5, 0.5))
    assert val == pytest.approx(boundary_flat_u(0.5, 0.5), abs=1e-10)
    # the gradient of the interpolant only approximates the (degree-8) target
    g = eval_field(f, (0.5, 0.5), order=1)
    assert np.allclose(g, boundary_flat_grad(0.5, 0.5), atol=0.05)


def test_eval_outside_domain_rejected():
    mesh = generate_structured(1)
    a3 = build_space(mesh, "A3_0")
    f = FieldFunction(a3, np.zeros(a3.ndof))
    with pytest.raises(ValueError):
        eval_field(f, (2.0, 2.0))


def test_hessian_of_quadratic_interpolant(relabeled4):
    # Morley reproduces quadratics on the cells that touch no boundary
    # entity, so there the Hessian of the interpolant of xy is exact
    mesh = relabeled4
    f = interpolate(build_space(mesh, "Morley_0"), lambda x, y: x * y,
                    grad_u=lambda x, y: (y, x))
    inner = np.flatnonzero(~mesh.vertex_is_boundary[mesh.cells].any(axis=1))
    assert inner.size == 8
    for c in inner:
        for lam in ([1 / 3, 1 / 3, 1 / 3], [0.6, 0.3, 0.1], [0.1, 0.2, 0.7]):
            H = eval_field(f, np.array(lam) @ mesh.geometry(c).verts, order=2)
            assert H.shape == (2, 2)
            assert np.allclose(H, [[0.0, 1.0], [1.0, 0.0]], rtol=0,
                               atol=1e-11), (c, lam, H)


def test_error_norms_reproduction():
    mesh = generate_structured(2)
    a3 = build_space(mesh, "A3_0")
    f = interpolate(a3, boundary_flat_u)
    # compare the field against callbacks built from the cell-polynomial
    # oracle of the same field
    e0, e1, e2 = error_norms(
        f, lambda x, y: _field_vals(f, x, y, 0),
        lambda x, y: _field_vals(f, x, y, 1),
        lambda x, y: _field_vals(f, x, y, 2), quad_degree=8)
    assert e0 < 1e-12 and e1 < 1e-11 and e2 < 1e-10


def _field_vals(f, x, y, order):
    pts = np.column_stack([np.ravel(x), np.ravel(y)])
    vals = field_at(f.space, f.coeffs, pts, order)[:, 0]
    if order == 0:
        return vals
    if order == 1:
        return vals[:, 0], vals[:, 1]
    return vals[:, 0, 0], vals[:, 0, 1], vals[:, 1, 1]


@pytest.mark.parametrize("mesh_name", ["jittered4", "relabeled4"])
def test_eval_field_matches_cell_oracle(request, mesh_name):
    # every layout kind, the per-cell transforms of A4_0 and Morley_0 and the
    # vector spaces among them, and the DG pressures, at seeded random points
    mesh = request.getfixturevalue(mesh_name)
    rng = np.random.default_rng(41)
    pts = rng.uniform(0.0, 1.0, size=(12, 2))
    for kind in [row[0] for row in LAYOUT_KINDS] + ["DG0", "DG1", "DG2"]:
        space = build_space(mesh, kind)
        f = FieldFunction(space, rng.standard_normal(space.ndof))
        for order in (0, 1, 2):
            got = np.array([eval_field(f, p, order) for p in pts])
            want = field_at(space, f.coeffs, pts, order)
            want = want if space.vector else want[:, 0]
            assert got.shape == want.shape, (kind, order)
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(got - want).max() <= 1e-13 * scale, (kind, order)
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            eval_field(f, pts[0], order=3)


def test_error_norms_zero_field():
    mesh = generate_structured(2)
    a3 = build_space(mesh, "A3_0")
    f = FieldFunction(a3, np.zeros(a3.ndof))
    z = lambda x, y: np.zeros_like(x)
    gz = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
    hz = lambda x, y: (np.zeros_like(x), np.zeros_like(x), np.zeros_like(x))
    assert error_norms(f, z, gz, hz, quad_degree=4) == (0.0, 0.0, 0.0)


# -- batched assembly against a per-cell polynomial oracle ---------------------

#: every (trial, test, form) the library assembles: the cubic and quartic
#: solvers, the Morley baseline, the inf-sup study and the exactness reports
LIBRARY_FORMS = (
    ("A3_0", "A3_0", "grad_grad"), ("A4_0", "A4_0", "grad_grad"),
    ("G2_0", "G2_0", "grad_grad"), ("G3_0", "G3_0", "grad_grad"),
    ("G2_0", "DG0", "rot_pressure"), ("G2_0", "DG1", "rot_pressure"),
    ("G3_0", "DG2", "rot_pressure"), ("G2_0", "A3_0", "vecfield_grad"),
    ("G3_0", "A4_0", "vecfield_grad"), ("DG0", "DG0", "mass"),
    ("DG1", "DG1", "mass"), ("DG2", "DG2", "mass"),
    ("Morley_0", "Morley_0", "hess_hess"),
)

ORACLE_MESHES = ("jittered4", "relabeled4", "refined2")


def _oracle_mesh(request, name):
    if name == "refined2":
        return refine_uniform(generate_structured(2))
    return request.getfixturevalue(name)


def _cell_fields(space, coeffs, c, pts, order):
    """Components of a field on cell c at barycentric pts, from the cell
    polynomial oracle: per component (value, grad, hessian)."""
    gl = space.mesh.geometry(c).grad_lambda
    polys = cell_poly(space, coeffs, c)
    out = []
    for p in (polys if space.vector else (polys,)):
        grad = [g.eval(pts) for g in poly_gradient(p, gl)] if order >= 1 else None
        hess = [h.eval(pts) for h in poly_hessian(p, gl)] if order >= 2 else None
        out.append((p.eval(pts), grad, hess))
    return out


def _oracle_form(form, trial, test, u, v, degree=10):
    rule = tri_rule(degree)
    order = {"mass": 0, "grad_grad": 1, "hess_hess": 2, "rot_pressure": 1,
             "vecfield_grad": 1}[form]
    total = 0.0
    for c in range(trial.mesh.n_cells):
        fu = _cell_fields(trial, u, c, rule.points, order)
        fv = _cell_fields(test, v, c, rule.points, order)
        if form == "mass":
            vals = sum(a[0] * b[0] for a, b in zip(fu, fv))
        elif form == "grad_grad":
            vals = sum(a[1][0] * b[1][0] + a[1][1] * b[1][1]
                       for a, b in zip(fu, fv))
        elif form == "hess_hess":
            (_, _, hu), (_, _, hv) = fu[0], fv[0]
            vals = hu[0] * hv[0] + 2 * hu[1] * hv[1] + hu[2] * hv[2]
        elif form == "rot_pressure":
            vals = fv[0][0] * (fu[1][1][0] - fu[0][1][1])
        else:
            vals = fu[0][0] * fv[0][1][0] + fu[1][0] * fv[0][1][1]
        total += trial.mesh.geometry(c).area * float(rule.weights @ vals)
    return total


@pytest.mark.parametrize("mesh_name", ORACLE_MESHES)
def test_assembly_matches_cellwise_oracle(request, mesh_name):
    mesh = _oracle_mesh(request, mesh_name)
    rng = np.random.default_rng(5)
    spaces = {}
    for trial_kind, test_kind, form in LIBRARY_FORMS:
        for kind in (trial_kind, test_kind):
            spaces.setdefault(kind, build_space(mesh, kind))
        trial, test = spaces[trial_kind], spaces[test_kind]
        u = rng.standard_normal(trial.ndof)
        v = rng.standard_normal(test.ndof)
        got = v @ (assemble_bilinear(trial, test, form) @ u)
        want = _oracle_form(form, trial, test, u, v)
        assert abs(got - want) <= 1e-12 * abs(want), \
            (trial_kind, test_kind, form, got, want)


@pytest.mark.parametrize("mesh_name", ORACLE_MESHES)
def test_load_and_error_norms_match_cellwise_oracle(request, mesh_name):
    mesh = _oracle_mesh(request, mesh_name)
    prob = manufactured("sin2")
    rng = np.random.default_rng(6)
    for kind in ("A3_0", "A4_0", "Morley_0", "DG1"):
        space = build_space(mesh, kind)
        v = rng.standard_normal(space.ndof)
        for degree in (12, 17):
            rule = tri_rule(degree)
            load = 0.0
            acc = np.zeros(3)
            for c in range(mesh.n_cells):
                geom = mesh.geometry(c)
                xy = rule.points @ geom.verts
                x, y = xy[:, 0], xy[:, 1]
                val, grad, hess = _cell_fields(space, v, c, rule.points, 2)[0]
                load += geom.area * float(rule.weights @ (prob.f(x, y) * val))
                ex_g, ex_h = prob.grad_u(x, y), prob.hess_u(x, y)
                acc += geom.area * np.array([
                    rule.weights @ (val - prob.u(x, y))**2,
                    rule.weights @ sum((g - e)**2 for g, e in zip(grad, ex_g)),
                    rule.weights @ ((hess[0] - ex_h[0])**2
                                    + 2 * (hess[1] - ex_h[1])**2
                                    + (hess[2] - ex_h[2])**2)])
            got = v @ assemble_load(space, prob.f, quad_degree=degree)
            assert abs(got - load) <= 1e-12 * abs(load), (kind, degree)
            norms = error_norms(FieldFunction(space, v), prob.u, prob.grad_u,
                                prob.hess_u, quad_degree=degree)
            assert np.allclose(norms, np.sqrt(acc), rtol=1e-12, atol=0), \
                (kind, degree, norms, np.sqrt(acc))


# -- blocked quadrature walk against the whole-mesh evaluation ----------------

BLOCK_MESHES = ("criss8", "jittered4", "relabeled4", "refined2")


def _block_mesh(request, name):
    return generate_structured(8) if name == "criss8" \
        else _oracle_mesh(request, name)


def _ragged_blocks(monkeypatch, mesh, degree):
    """Blocks of three cells, the last one shorter."""
    assert mesh.n_cells % 3
    monkeypatch.setattr(spaces, "BLOCK_POINTS",
                        3 * len(tri_rule(degree).weights) + 1)


@pytest.mark.parametrize("mesh_name", BLOCK_MESHES)
def test_blocked_load_and_error_norms_match_whole_mesh(request, monkeypatch,
                                                       mesh_name):
    mesh = _block_mesh(request, mesh_name)
    prob = manufactured("sin2")
    rng = np.random.default_rng(8)
    for kind in ("A3_0", "A4_0", "Morley_0", "DG1"):
        space = build_space(mesh, kind)
        field = FieldFunction(space, rng.standard_normal(space.ndof))
        for degree in (12, 17):
            _ragged_blocks(monkeypatch, mesh, degree)
            want = whole_mesh_load(space, prob.f, quad_degree=degree)
            got = assemble_load(space, prob.f, quad_degree=degree)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            want = whole_mesh_error_norms(field, prob.u, prob.grad_u,
                                          prob.hess_u, quad_degree=degree)
            got = error_norms(field, prob.u, prob.grad_u, prob.hess_u,
                              quad_degree=degree)
            assert np.allclose(got, want, rtol=1e-13, atol=0), (kind, degree)


@pytest.mark.parametrize("mesh_name", BLOCK_MESHES)
def test_blocks_visit_every_point_once(request, monkeypatch, mesh_name):
    mesh = _block_mesh(request, mesh_name)
    _ragged_blocks(monkeypatch, mesh, 12)
    seen = []

    def record(x, y):
        seen.append((x.copy(), y.copy()))
        return x

    assemble_load(build_space(mesh, "A3_0"), record, quad_degree=12)
    assert len(seen) == -(-mesh.n_cells // 3)
    x, y = quadrature_points(mesh, 12)
    assert np.array_equal(np.concatenate([s[0] for s in seen]), x)
    assert np.array_equal(np.concatenate([s[1] for s in seen]), y)


def test_scalar_callbacks_broadcast(jittered4, monkeypatch):
    _ragged_blocks(monkeypatch, jittered4, 12)
    space = build_space(jittered4, "A4_0")
    ones = whole_mesh_load(space, lambda x, y: np.ones_like(x))
    assert np.abs(assemble_load(space, lambda x, y: 2.0)
                  - 2 * ones).max() <= 1e-13 * np.abs(ones).max()
    field = FieldFunction(space, np.random.default_rng(9).standard_normal(
        space.ndof))
    want = whole_mesh_error_norms(field, lambda x, y: 1.0,
                                  lambda x, y: (0.5, -1.0),
                                  lambda x, y: (0.0, 2.0, 0.0), quad_degree=12)
    got = error_norms(field, lambda x, y: 1.0, lambda x, y: (0.5, -1.0),
                      lambda x, y: (0.0, 2.0, 0.0), quad_degree=12)
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_warm_error_norms_fault_in_no_fresh_pages():
    # Blocks keep every temporary below glibc's 128 kB trim threshold, so a
    # warm call reuses the heap; whole-mesh arrays of 1.3 MB at criss n=32
    # are returned to the OS and faulted in again, 5000-7000 minor faults
    # per call.
    if not _pin_mmap_threshold():
        pytest.skip("needs glibc")
    prob = manufactured("sin2")
    field = interpolate(build_space(generate_structured(32), "A3_0"), prob.u)
    args = (field, prob.u, prob.grad_u, prob.hess_u)
    error_norms(*args)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    error_norms(*args)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


# -- nodal transforms --------------------------------------------------------

@pytest.mark.parametrize("kind", [row[0] for row in LAYOUT_KINDS]
                         + ["DG0", "DG1", "DG2"])
def test_transform_is_shared_by_every_mesh(jittered4, kind):
    # every cell's geometry lives in P, so A is one (nloc, nshape) matrix
    space = build_space(generate_structured(4), kind)
    nshape = len(spaces.shape_set(space.shapes)) * (2 if space.vector else 1)
    assert space.A.shape == (space.nloc, nshape)
    assert np.array_equal(build_space(jittered4, kind).A, space.A)


@pytest.mark.parametrize("mesh_name", ORACLE_MESHES)
@pytest.mark.parametrize("kind,name", [("A4_0", "nsq"),
                                       ("Morley_0", "morley")])
def test_batched_transform_matches_per_cell(request, mesh_name, kind, name):
    # per-cell oracle: on cell c the global basis in the shape basis,
    # A^T P_c, is the inverse of the DOF matrix built entry by entry applied
    # to the geometry-free rows of the cell (entity_operator)
    mesh = _oracle_mesh(request, mesh_name)
    space = build_space(mesh, kind)
    elem = element_catalog(name)
    P = space.P.toarray()
    for c in range(mesh.n_cells):
        geom = mesh.geometry(c)
        M = np.array([[eval_dof(d, s, geom) for s in elem.shapes]
                      for d in elem.dofs])
        want = np.linalg.solve(M, entity_operator(space, c))
        got = space.A.T @ P[c * space.nloc:(c + 1) * space.nloc]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind,height", [("A4_0", 1e-11),
                                         ("Morley_0", 1e-13)])
def test_batched_transform_rejects_near_degenerate_cell(kind, height):
    sliver = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, height]]),
                  np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="unisolvence failure .* "
                                         "sigma_min/sigma_max = "):
        build_space(sliver, kind)


@pytest.mark.parametrize("mesh_name", ("criss8",) + ORACLE_MESHES)
@pytest.mark.parametrize("kind,name", [("A4_0", "nsq"),
                                       ("Morley_0", "morley")])
def test_closed_form_normal_rows_match_inverse_path(request, monkeypatch,
                                                    mesh_name, kind, name):
    # the closed-form normal rows give the P of the per-cell inverse path,
    # with no SVD or inverse on a shape-regular mesh once the reference
    # transform is cached
    mesh = (generate_structured(8) if mesh_name == "criss8"
            else _oracle_mesh(request, mesh_name))
    build_space(generate_structured(1), kind)
    calls = [count_calls(monkeypatch, np.linalg, fn) for fn in ("svd", "inv")]
    space = build_space(mesh, kind)
    monkeypatch.undo()
    assert calls == [[], []]
    want = inverse_path_operator(space, element_catalog(name))
    assert np.abs(space.P.toarray() - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kind,name,height", [("A4_0", "nsq", 1e-11),
                                              ("Morley_0", "morley", 1e-13)])
def test_normal_row_guard_flags_only_the_sliver(monkeypatch, kind, name,
                                                height):
    # a healthy cell below a sliver: the SVD test sees the sliver alone and
    # fails with the message of the whole-mesh test
    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, height],
                          [0.5, -1.0]]), np.array([[0, 1, 2], [0, 3, 1]]))
    with pytest.raises(ValueError, match="unisolvence failure") as full:
        nodal_coefficients(element_catalog(name), mesh.geometry_arrays()[0])
    build_space(generate_structured(1), kind)
    seen = []
    svd = np.linalg.svd

    def recording(M, *args, **kwargs):
        seen.append(np.shape(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    with pytest.raises(ValueError) as got:
        build_space(mesh, kind)
    assert str(got.value) == str(full.value)
    nloc = len(element_catalog(name).dofs)
    assert seen == [(1, nloc, nloc)]


@pytest.mark.parametrize("kind,name", [("A4_0", "nsq"),
                                       ("Morley_0", "morley")])
def test_normal_row_guard_bound_holds(monkeypatch, kind, name):
    # the guard's bound never falls below the condition number of a cell's
    # DOF matrix: with the threshold at that number, every cell is flagged,
    # from shape-regular ones to slivers, small and large, in any rotation
    rng = np.random.default_rng(17)
    build_space(generate_structured(1), kind)
    flagged = []
    monkeypatch.setattr(spaces, "nodal_coefficients",
                        lambda elem, gl: flagged.append(len(gl)))
    for height in np.logspace(-7, 0, 36):
        turn = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(turn), -np.sin(turn)],
                        [np.sin(turn), np.cos(turn)]])
        verts = 10 ** rng.uniform(-3, 1) * np.array(
            [[0.0, 0.0], [1.0, 0.0], [rng.uniform(-1, 2), height]]) @ rot.T
        mesh = Mesh(verts, np.array([[0, 1, 2]]))
        M = dof_matrices(element_catalog(name), mesh.geometry_arrays()[0])
        monkeypatch.setattr(spaces, "NODAL_SIGMA_TOL", 1 / np.linalg.cond(M))
        flagged.clear()
        build_space(mesh, kind)
        assert flagged == [1]


def test_locate_cells_independent_of_point_order():
    # the sample_field_csv grid, in grid order and in a seeded shuffle
    mesh = generate_structured(8)
    x, y = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, 50),
                                           np.linspace(0.0, 1.0, 50)))
    pts = np.column_stack([x, y])
    perm = np.random.default_rng(61).permutation(len(pts))
    cells, lam = locate_cells(mesh, pts)
    cells_s, lam_s = locate_cells(mesh, pts[perm])
    assert np.array_equal(cells_s, cells[perm])
    assert np.array_equal(lam_s, lam[perm])
    with pytest.raises(ValueError, match=r"point \(1\.5, 0\.5\) outside "):
        locate_cells(mesh, np.vstack([pts[perm], [[1.5, 0.5]]]))


def test_locate_cells_names_the_first_outside_point():
    # the first outside point in the order given, though (-0.5, 0.5) lies
    # nearer the origin; after the grid, or beside it in one chunk
    mesh = generate_structured(8)
    x, y = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, 50),
                                           np.linspace(0.0, 1.0, 50)))
    grid = np.column_stack([x, y])
    for pts in (np.vstack([[1.5, 0.5], grid, [-0.5, 0.5]]),
                np.vstack([[1.5, 0.5], [-0.5, 0.5], grid])):
        with pytest.raises(ValueError) as info:
            locate_cells(mesh, pts)
        assert str(info.value) == "point (1.5, 0.5) outside the mesh"


@pytest.mark.parametrize("k", [1, 2])
def test_dg_modes_are_orthogonal_and_mean_zero(k):
    # exact rational cell averages: a property of the modes, not of round-off
    modes = (BaryPoly.const(Fraction(1)), *_pressure_modes(k))
    assert len(modes) == (k + 1) * (k + 2) // 2
    for i, p in enumerate(modes):
        assert (p * p).cell_average() > 0
        for q in modes[:i]:
            assert (p * q).cell_average() == 0


@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_dg_mass_is_diagonal(request, name):
    # affine cells keep the reference orthogonality, so the pressure Gram the
    # Stokes solver inverts by division is diagonal on any mesh
    mesh = _oracle_mesh(request, name)
    for kind in ("DG0", "DG1", "DG2"):
        dg = build_space(mesh, kind)
        M = assemble_bilinear(dg, dg, "mass")
        assert (M - sp.diags(M.diagonal())).count_nonzero() == 0, kind
        assert (M.diagonal() > 0).all(), kind


@pytest.mark.parametrize("name", ORACLE_MESHES)
@pytest.mark.parametrize("kind", ["G2_0", "G3_0", "G2", "G3"])
def test_vector_space_is_its_component_twice(request, name, kind):
    # the Stokes solver factors the component Gram K once for both
    # components, so in the space's own (component-major) DOF order the
    # vector grad_grad must be blockdiag(K, K)
    vel = build_space(_oracle_mesh(request, name), kind)
    comp = vel.component
    n = comp.ndof
    assert not comp.vector and vel.ndof == 2 * n
    K = assemble_bilinear(comp, comp, "grad_grad")
    A = assemble_bilinear(vel, vel, "grad_grad")
    assert abs(A - sp.block_diag([K, K])).max() <= 1e-15 * abs(A).max()
    # each component's local rows of P: the component's P, columns shifted
    nloc, nc = comp.nloc, vel.mesh.n_cells
    for c in range(2):
        rows = (np.arange(nc)[:, None] * 2 * nloc + c * nloc
                + np.arange(nloc)).ravel()
        shifted = sp.hstack([sp.csr_matrix((len(rows), c * n)), comp.P,
                             sp.csr_matrix((len(rows), (1 - c) * n))])
        assert (vel.P[rows] - shifted).count_nonzero() == 0
    if not kind.endswith("_0"):
        return      # without boundary conditions K is singular (constants)
    # one factor of K solves the system of the vector Gram, with B and f as
    # assembled
    pres = build_space(vel.mesh, "DG1" if kind == "G2_0" else "DG2")
    B = assemble_bilinear(vel, pres, "rot_pressure")
    M = assemble_bilinear(pres, pres, "mass")
    m = M.diagonal() * (np.arange(pres.ndof) % pres.nloc == 0)
    f = np.random.default_rng(11).standard_normal(vel.ndof)
    u_ref, p_ref, it_ref = saddle_solve(A, B, f, M, mean=m)
    u, p, iterations = saddle_solve(K, B, f, M, mean=m)
    assert iterations == it_ref
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)


@pytest.mark.parametrize("mesh_name", ("criss4", "holed8") + ORACLE_MESHES)
@pytest.mark.parametrize("kind", [row[0] for row in LAYOUT_KINDS])
def test_direct_csr_operator_matches_coo_oracle(request, monkeypatch,
                                                mesh_name, kind):
    # P, built straight into CSR, is the COO scatter of its layout terms
    # entry for entry (a vector space's: its component's terms twice), in
    # canonical format: cell_poly, bubble_correct and the oracles read its
    # rows directly
    mesh = (generate_structured(4) if mesh_name == "criss4"
            else _oracle_mesh(request, mesh_name))
    calls = count_calls(monkeypatch, spaces, "_operator")
    space = build_space(mesh, kind)
    (args, _), = calls
    _, nloc, ndof, terms = args
    if space.vector:
        terms = terms + [(l + nloc, np.where(g >= 0, g + ndof, -1), w)
                         for l, g, w in terms]
        nloc, ndof = 2 * nloc, 2 * ndof
    want = coo_operator(mesh, nloc, ndof, terms)
    assert space.P.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(space.P, attr), getattr(want, attr))


def test_reference_tensor_is_cached_read_only(jittered4):
    # one geometry-free R per key for the process: the same read-only
    # object on two meshes
    got = []
    for mesh in (generate_structured(4), jittered4):
        pot, vel = build_space(mesh, "A4_0"), build_space(mesh, "G3_0")
        got.append([spaces._form_tensor(pot, pot, "grad_grad")[0],
                    spaces._form_tensor(vel, pot, "vecfield_grad")[0]])
    for first, second in zip(*got):
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0
