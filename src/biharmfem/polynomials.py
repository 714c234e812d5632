"""Polynomial algebra in barycentric coordinates.

Polynomials are stored as sparse maps from exponent triples (a, b, c) of
(lam1, lam2, lam3) to coefficients.  Coefficients are ``fractions.Fraction``
in the exact algebra (element definitions, DOF functionals, golden tables)
and floats in the shape sets that spaces.tabulate evaluates at points; the
two never mix inside one polynomial.  Representations are not canonicalized
modulo lam1 + lam2 + lam3 = 1; evaluation, moments and lambda-derivatives are
representative-independent on the simplex.  Cartesian derivatives are formed
from the tabulated lambda-derivatives by the chain rule, not here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np

Exp = tuple[int, int, int]


def barycentric_moment(a: int, b: int, c: int) -> Fraction:
    """Average of lam1^a lam2^b lam3^c over any triangle: 2 a! b! c! / (a+b+c+2)!."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("exponents must be nonnegative")
    return Fraction(2 * factorial(a) * factorial(b) * factorial(c),
                    factorial(a + b + c + 2))


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
    def zero() -> "BaryPoly":
        return BaryPoly()

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

    def restrict_edge(self, i: int) -> list:
        """Restriction to edge e_{i+1} (opposite vertex i) as a 1D polynomial.

        The edge runs from a_{i+1} to a_{i+2} with parameter t in [0, 1],
        so lam_i = 0, lam_{i+1} = 1 - t, lam_{i+2} = t.
        """
        j, k = (i + 1) % 3, (i + 2) % 3
        out: list = []
        for e, c in self.coeffs.items():
            if e[i] > 0:
                continue
            m, n = e[j], e[k]  # (1-t)^m * t^n
            for r in range(m + 1):
                p = n + r  # power of t
                coef = c * comb(m, r) * (-1) ** r
                while len(out) <= p:
                    out.append(0)
                out[p] = out[p] + coef
        while out and out[-1] == 0:
            out.pop()
        return out

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        return "BaryPoly(" + " + ".join(f"{c}*l^{e}" for e, c in terms) + ")"


def poly1d_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def poly1d_average01(p: list):
    """Average of a 1D polynomial over [0, 1]."""
    total = 0
    for k, c in enumerate(p):
        total += c * Fraction(1, k + 1)
    return total


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
