"""Polynomial algebra in barycentric coordinates.

Polynomials are stored as sparse maps from exponent triples (a, b, c) of
(lam1, lam2, lam3) to coefficients.  Coefficients are ``fractions.Fraction``
in the exact algebra (element definitions, DOF functionals, golden tables)
and floats in the shape sets that spaces.tabulate evaluates at points; the
two never mix inside one polynomial.  Representations are not canonicalized
modulo lam1 + lam2 + lam3 = 1; evaluation, moments and lambda-derivatives are
representative-independent on the simplex.  Edge and cell averages both come
from one closed-form simplex moment per monomial (barycentric_moment): on an
edge the monomial is a Beta integral in the two coordinates that do not
vanish there.  Cartesian derivatives are formed from the tabulated
lambda-derivatives by the chain rule, not here.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

Exp = tuple[int, int, int]


def barycentric_moment(*exps: int) -> Fraction:
    """Average of prod lam_i^a_i over any d-simplex, d = len(exps) - 1:
    d! prod a_i! / (sum a_i + d)!; for a triangle 2 a! b! c! / (a+b+c+2)!,
    for an edge the Beta integral m! n! / (m+n+1)!."""
    if min(exps) < 0:
        raise ValueError("exponents must be nonnegative")
    d = len(exps) - 1
    num = factorial(d)
    for a in exps:
        num *= factorial(a)
    return Fraction(num, factorial(sum(exps) + d))


class BaryPoly:
    """Sparse polynomial in (lam1, lam2, lam3)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[Exp, object] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c != 0:
                    self.coeffs[e] = c

    @staticmethod
    def const(c) -> "BaryPoly":
        return BaryPoly({(0, 0, 0): c})

    @staticmethod
    def lam(i: int, exact: bool = True) -> "BaryPoly":
        """The barycentric coordinate lam_{i+1} (i = 0, 1, 2)."""
        e = [0, 0, 0]
        e[i % 3] = 1
        return BaryPoly({tuple(e): Fraction(1) if exact else 1.0})

    @staticmethod
    def monomial(a: int, b: int, c: int, coeff=Fraction(1)) -> "BaryPoly":
        return BaryPoly({(a, b, c): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(e) for e in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, BaryPoly):
            other = BaryPoly.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return BaryPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BaryPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, BaryPoly):
            other = BaryPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return BaryPoly.const(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, BaryPoly):
            out: dict[Exp, object] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    s = out.get(e, 0) + c1 * c2
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
            return BaryPoly(out)
        if other == 0:
            return BaryPoly()
        return BaryPoly({e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def dlam(self, i: int) -> "BaryPoly":
        """Formal partial derivative with respect to lam_{i+1}."""
        out: dict[Exp, object] = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            en = list(e)
            en[i] -= 1
            en = tuple(en)
            s = out.get(en, 0) + c * e[i]
            if s == 0:
                out.pop(en, None)
            else:
                out[en] = s
        return BaryPoly(out)

    def as_float(self) -> "BaryPoly":
        return BaryPoly({e: float(c) for e, c in self.coeffs.items()})

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at barycentric points, shape (..., 3)."""
        pts = np.asarray(pts, dtype=float)
        l1, l2, l3 = pts[..., 0], pts[..., 1], pts[..., 2]
        out = np.zeros(pts.shape[:-1])
        for (a, b, c), coef in self.coeffs.items():
            out += float(coef) * l1**a * l2**b * l3**c
        return out

    def eval_exact(self, pt):
        """Evaluate at one barycentric point with exact arithmetic."""
        total = Fraction(0)
        for (a, b, c), coef in self.coeffs.items():
            total += coef * pt[0]**a * pt[1]**b * pt[2]**c
        return total

    def cell_average(self):
        """Average over any triangle (geometry independent)."""
        total = 0
        for e, c in self.coeffs.items():
            total += c * barycentric_moment(*e)
        return total

    def edge_average(self, i: int):
        """Average over edge e_{i+1} (lam_{i+1} = 0) of any triangle."""
        j, k = (i + 1) % 3, (i + 2) % 3
        total = 0
        for e, c in self.coeffs.items():
            if e[i] == 0:
                total += c * barycentric_moment(e[j], e[k])
        return total

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        return "BaryPoly(" + " + ".join(f"{c}*l^{e}" for e, c in terms) + ")"


def poly1d_eval(p: list, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for c in reversed(p):
        out = out * t + float(c)
    return out


# Legendre-style canonical edge weights in the parameter t in [0, 1].
EDGE_LEGENDRE = (
    [Fraction(1)],                                     # L0 = 1
    [Fraction(-1, 2), Fraction(1)],                    # L1 = t - 1/2
    [Fraction(1, 6), Fraction(-1), Fraction(1)],       # L2 = (t - 1/2)^2 - 1/12
)


def poly_directional(p: BaryPoly, weights) -> BaryPoly:
    """Sum_i (d p / d lam_i) * weights[i]; used for grad(p) . v contractions."""
    out = BaryPoly()
    for i in range(3):
        d = p.dlam(i)
        if not d.is_zero() and weights[i] != 0:
            out = out + d * weights[i]
    return out
