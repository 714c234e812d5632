from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biharmfem.polynomials import barycentric_moment
from biharmfem.quadrature import (MAX_DEGREE, _gauss_jacobi10, edge_rule,
                                  tri_rule)


def quad_monomial_average(rule, a, b, c):
    l1, l2, l3 = rule.points[:, 0], rule.points[:, 1], rule.points[:, 2]
    return float(np.sum(rule.weights * l1**a * l2**b * l3**c))


def test_gauss_jacobi_matches_scipy_and_the_closed_form():
    # the nodes match scipy.special.roots_jacobi; the weights match the closed
    # form 4 / ((1 - z^2) P_m'(z)^2) (alpha = 1, beta = 0) at 40 digits,
    # which roots_jacobi's own weights miss by up to 1.7e-13 relative (m = 16)
    mpmath = pytest.importorskip("mpmath")
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    mp = mpmath.mp

    def jacobi(m, x):
        return mp.jacobi(m, 1, 0, x)

    with mpmath.workdps(40):
        for m in range(1, (MAX_DEGREE + 2) // 2 + 1):   # every m of tri_rule
            z, w = _gauss_jacobi10(m)
            assert np.abs(z - roots_jacobi(m, 1, 0)[0]).max() <= 1e-15
            exact = [mp.findroot(lambda x: jacobi(m, x), x0) for x0 in z]
            assert len(set(exact)) == m
            w_exact = np.array([float(4 / ((1 - x**2) * mp.diff(
                lambda t: jacobi(m, t), x)**2)) for x in exact])
            assert np.abs(w / w_exact - 1).max() <= 1e-13, m


def test_weights_sum_to_one():
    for d in range(0, 18):
        assert tri_rule(d).weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert edge_rule(d).weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_centroid_rule_linear():
    r = tri_rule(1)
    assert quad_monomial_average(r, 1, 0, 0) == pytest.approx(1 / 3, abs=1e-15)


def test_bubble_average():
    # fint lam1 lam2 lam3 = 1/60 with any rule of degree >= 3
    for d in (3, 4, 7):
        assert quad_monomial_average(tri_rule(d), 1, 1, 1) == pytest.approx(
            1 / 60, abs=1e-15)


def test_nsc_weight_square():
    # fint (lam1^2 lam2 - lam1 lam2^2)^2 = 6/7! = 1/840
    r = tri_rule(6)
    val = (quad_monomial_average(r, 4, 2, 0)
           - 2 * quad_monomial_average(r, 3, 3, 0)
           + quad_monomial_average(r, 2, 4, 0))
    assert val == pytest.approx(1 / 840, rel=1e-13)
    assert barycentric_moment(4, 2, 0) == Fraction(1, 420)
    assert (barycentric_moment(4, 2, 0) - 2 * barycentric_moment(3, 3, 0)
            + barycentric_moment(2, 4, 0)) == Fraction(6, 5040)


def test_closed_form_moments():
    assert barycentric_moment(1, 1, 1) == Fraction(1, 60)
    assert barycentric_moment(0, 0, 0) == Fraction(1)
    assert barycentric_moment(2, 0, 0) == Fraction(1, 6)
    assert barycentric_moment(1, 1, 0) == Fraction(1, 12)


@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       st.integers(min_value=0, max_value=16))
def test_rules_match_closed_form(exps, degree):
    a, b, c = exps
    rule = tri_rule(degree)
    if a + b + c > rule.degree:
        return
    exact = float(barycentric_moment(a, b, c))
    assert quad_monomial_average(rule, a, b, c) == pytest.approx(
        exact, rel=1e-13, abs=1e-15)


def test_edge_rule_exactness():
    for d in range(0, 14):
        r = edge_rule(d)
        for p in range(0, r.degree + 1):
            exact = 1.0 / (p + 1)
            got = float(np.sum(r.weights * r.points**p))
            assert got == pytest.approx(exact, rel=1e-13)


def test_unsupported_degree_rejected():
    with pytest.raises(ValueError):
        tri_rule(-1)
    with pytest.raises(ValueError):
        tri_rule(99)
    with pytest.raises(ValueError):
        edge_rule(99)
