"""Quadrature rules on triangles and edges.

All rules integrate *averages*: weights sum to one, so ``sum(w * f)`` equals
the mean of f over the cell or edge.  Triangle rules are conical (collapsed)
Gauss-Legendre x Gauss-Jacobi products, exact for total degree 2m - 1 with
m points per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DEGREE = 40


@dataclass(frozen=True)
class TriQuadRule:
    points: np.ndarray   # (nq, 3) barycentric
    weights: np.ndarray  # (nq,), sums to 1
    degree: int


@dataclass(frozen=True)
class EdgeQuadRule:
    points: np.ndarray   # (nq,) parameters in [0, 1]
    weights: np.ndarray  # (nq,), sums to 1
    degree: int


def _gauss_jacobi10(m: int):
    """The m-point Gauss rule for the weight 1 - z on [-1, 1] by Golub-Welsch:
    the nodes are the eigenvalues of the Jacobi matrix, and each weight is
    2 v_0^2 for its unit eigenvector v (2 is the integral of the weight)."""
    k = np.arange(m)
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2 * k[1:] + 1)
    J = np.diag(off, 1) + np.diag(off, -1)
    z, V = np.linalg.eigh(J - np.diag(1.0 / ((2 * k + 1) * (2 * k + 3))))
    return z, 2.0 * V[0] ** 2


@lru_cache(maxsize=None)
def tri_rule(degree: int) -> TriQuadRule:
    if degree < 0 or degree > MAX_DEGREE:
        raise ValueError(f"unsupported triangle rule degree {degree}")
    m = max(1, (degree + 2) // 2)
    xu, wu = np.polynomial.legendre.leggauss(m)
    u = (xu + 1.0) / 2.0
    wu = wu / 2.0                      # sum 1 on [0, 1]
    zv, wj = _gauss_jacobi10(m)        # weight (1 - z) on [-1, 1]
    v = (zv + 1.0) / 2.0
    wv = wj / 4.0                      # integrates (1 - v) f on [0, 1]
    U, V = np.meshgrid(u, v, indexing="ij")
    xi = (U * (1.0 - V)).ravel()
    eta = V.ravel()
    w = 2.0 * np.outer(wu, wv).ravel()  # average over the reference triangle
    pts = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    pts.setflags(write=False)
    w.setflags(write=False)
    return TriQuadRule(points=pts, weights=w, degree=2 * m - 1)


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> EdgeQuadRule:
    if degree < 0 or degree > MAX_DEGREE:
        raise ValueError(f"unsupported edge rule degree {degree}")
    m = max(1, (degree + 2) // 2)
    x, w = np.polynomial.legendre.leggauss(m)
    pts = (x + 1.0) / 2.0
    w = w / 2.0
    pts.setflags(write=False)
    w.setflags(write=False)
    return EdgeQuadRule(points=pts, weights=w, degree=2 * m - 1)
