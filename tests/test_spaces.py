import numpy as np
import pytest

from biharmfem.biharmonic import manufactured
from biharmfem.elements import element_catalog, eval_dof
from biharmfem.linalg import is_symmetric
from biharmfem.mesh import Mesh, generate_structured, refine_uniform
from biharmfem.polynomials import (EDGE_LEGENDRE, poly1d_eval, poly_gradient,
                                  poly_hessian)
from biharmfem.quadrature import edge_rule, tri_rule
from biharmfem.spaces import (ROUNDOFF_RTOL, FieldFunction, assemble_bilinear,
                              assemble_load, build_space, edge_jump_moments,
                              error_norms, eval_field, interpolate,
                              interpolate_vector, locate_cells)


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
        jump = edge_jump_moments(mesh, lambda c: f.cell_poly(c), int(e), 0)
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
        jump = edge_jump_moments(mesh, lambda c: f.cell_poly(c), int(e),
                                 jump_deg, deriv=deriv)
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
    fld = FieldFunction(g3, coeffs)
    for e in range(mesh.n_edges):
        for comp in range(2):
            jump = edge_jump_moments(
                mesh, lambda c: fld.cell_poly(c)[comp], int(e), 2)
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
                mesh, lambda c: f.cell_poly(c)[comp], int(e), 0)
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
        polys = f.cell_poly(c) if space.vector else (f.cell_poly(c),)
        for p, u in zip(polys, exact):
            want = u(xy[:, 0], xy[:, 1])
            assert np.allclose(p.eval(pts), want, rtol=0,
                               atol=1e-11 * np.abs(want).max()), (kind, c)


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


def test_hessian_of_quadratic_interpolant():
    # Morley reproduces quadratics; hessian must be the exact constant
    mesh = generate_structured(2)
    mo = build_space(mesh, "Morley_0")
    u = lambda x, y: x * y
    gu = lambda x, y: (y, x)
    f = interpolate(mo, u, grad_u=gu)
    # the interpolant of xy is exact only modulo boundary conditions; check
    # the hessian evaluation path on the raw cell polynomial instead
    c = 0
    from biharmfem.polynomials import poly_hessian
    p = f.cell_poly(c)
    geom = mesh.geometry(c)
    hxx, hxy, hyy = poly_hessian(p, geom.grad_lambda)
    pts = np.array([[0.4, 0.3, 0.3]])
    assert np.isfinite(hxx.eval(pts)).all()


def test_error_norms_reproduction():
    mesh = generate_structured(2)
    a3 = build_space(mesh, "A3_0")
    f = interpolate(a3, boundary_flat_u)
    # compare the field against callbacks built from the field itself
    e0, e1, e2 = error_norms(
        f, lambda x, y: _field_vals(f, x, y, 0),
        lambda x, y: _field_vals(f, x, y, 1),
        lambda x, y: _field_vals(f, x, y, 2), quad_degree=8)
    assert e0 < 1e-12 and e1 < 1e-11 and e2 < 1e-10


def _field_vals(f, x, y, order):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if order == 0:
        return np.array([eval_field(f, (a, b)) for a, b in zip(xs, ys)])
    if order == 1:
        g = np.array([eval_field(f, (a, b), 1) for a, b in zip(xs, ys)])
        return g[:, 0], g[:, 1]
    h = np.array([eval_field(f, (a, b), 2) for a, b in zip(xs, ys)])
    return h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]


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
    """Components of a field on cell c at barycentric pts, from cell_poly and
    the BaryPoly chain rule: per component (value, grad, hessian)."""
    gl = space.mesh.geometry(c).grad_lambda
    polys = space.cell_poly(c, coeffs)
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


# -- batched nodal transforms -------------------------------------------------

@pytest.mark.parametrize("kind,name", [("A4_0", "nsq"),
                                       ("Morley_0", "morley")])
def test_batched_transform_matches_per_cell(jittered4, kind, name):
    space = build_space(jittered4, kind)
    elem = element_catalog(name)
    assert space.A.shape == (jittered4.n_cells, elem.dim, elem.dim)
    # per-cell oracle: the inverse of the matrix built entry by entry
    for c in range(jittered4.n_cells):
        geom = jittered4.geometry(c)
        M = np.array([[eval_dof(d, s, geom) for s in elem.shapes]
                      for d in elem.dofs])
        want = np.linalg.inv(M).T
        assert np.abs(space.A[c] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind,height", [("A4_0", 1e-11),
                                         ("Morley_0", 1e-13)])
def test_batched_transform_rejects_near_degenerate_cell(kind, height):
    sliver = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, height]]),
                  np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="unisolvence failure .* "
                                         "sigma_min/sigma_max = "):
        build_space(sliver, kind)


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
    with pytest.raises(ValueError, match="outside the mesh"):
        locate_cells(mesh, np.vstack([pts[perm], [[1.5, 0.5]]]))
