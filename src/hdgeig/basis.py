"""Polynomial bases and quadrature rules on the reference triangle and edge.

The reference triangle is {(x, y) : x >= 0, y >= 0, x + y <= 1}; the
reference edge is the unit interval [0, 1].  All scalar bases are
monomials orthonormalized against the exact reference Gram matrix, so
mass matrices of affinely mapped bases are (scaled) identities and local
solves stay well conditioned up to the highest supported degree.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_QUAD_ORDER = 20

#: Maximum trace degree k of a ``SpaceConfig``.
MAX_SCALAR_DEGREE = 4
#: One above MAX_SCALAR_DEGREE, used internally for local postprocessing.
_MAX_INTERNAL_DEGREE = 5
MAX_RT_DEGREE = 3


def _monomial_integral_exact(a, b):
    """Integral of x^a y^b over the reference triangle, as a fraction."""
    return Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 2))


class QuadratureRule:
    """Positive-weight quadrature rule with read-only points and weights."""

    def __init__(self, points, weights):
        self.points = np.ascontiguousarray(points, dtype=float)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return self.weights.size


def _check_order(order):
    order = int(order)
    if not 0 <= order <= MAX_QUAD_ORDER:
        raise ValueError(
            "quadrature order %d unsupported (must be in [0, %d])"
            % (order, MAX_QUAD_ORDER)
        )
    return order


@lru_cache(maxsize=None)
def edge_quadrature(order):
    """Gauss rule on [0, 1], exact for univariate degree <= ``order``."""
    order = _check_order(order)
    n = order // 2 + 1
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=None)
def triangle_quadrature(order):
    """Collapsed Gauss rule on the reference triangle.

    Exact for all bivariate polynomials of total degree <= ``order``.  The
    Duffy map x = u(1-v), y = v turns a degree-d integrand into a degree-d
    polynomial in u and degree-(d+1) polynomial in v (the extra power comes
    from the Jacobian 1-v), which fixes the point counts below.
    """
    order = _check_order(order)
    nu = order // 2 + 1
    nv = (order + 3) // 2
    xu, wu = np.polynomial.legendre.leggauss(nu)
    xv, wv = np.polynomial.legendre.leggauss(nv)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    wu = 0.5 * wu
    wv = 0.5 * wv
    U, V = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
    wts = (np.outer(wu, wv) * (1.0 - V)).ravel()
    return QuadratureRule(pts, wts)


def _tri_exponents(k):
    return [(d - j, j) for d in range(k + 1) for j in range(d + 1)]


def _eval_monomials(exps, pts):
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    vals = np.empty((pts.shape[0], len(exps)))
    grads = np.empty((pts.shape[0], len(exps), 2))
    for j, (a, b) in enumerate(exps):
        xa = x**a
        yb = y**b
        vals[:, j] = xa * yb
        grads[:, j, 0] = a * x ** (a - 1) * yb if a > 0 else 0.0
        grads[:, j, 1] = b * xa * y ** (b - 1) if b > 0 else 0.0
    return vals, grads


def _orthonormal_coeffs(gram):
    """Rows of C such that C gram C^T = I, for an exact rational Gram.

    The monomial Gram matrices here are rational but badly conditioned, so
    a floating-point Cholesky loses several digits at higher degree.  An
    exact LDL^T factorization in rational arithmetic keeps the basis
    orthonormal to machine precision; the only floating-point step is the
    final diagonal square root.
    """
    n = len(gram)
    low = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for j in range(n):
        diag[j] = gram[j][j] - sum(low[j][r] ** 2 * diag[r] for r in range(j))
        low[j][j] = Fraction(1)
        for i in range(j + 1, n):
            s = gram[i][j] - sum(low[i][r] * low[j][r] * diag[r] for r in range(j))
            low[i][j] = s / diag[j]
    # invert the unit lower triangle exactly
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = Fraction(1)
        for j in range(i - 1, -1, -1):
            inv[i][j] = -sum(low[i][r] * inv[r][j] for r in range(j, i))
    coeffs = np.array([[float(inv[i][j]) for j in range(n)] for i in range(n)])
    scale = np.array([1.0 / math.sqrt(float(d)) for d in diag])
    return scale[:, None] * coeffs


class ScalarBasis:
    """Orthonormal basis of P_k on the reference triangle."""

    def __init__(self, k):
        if not 0 <= k <= _MAX_INTERNAL_DEGREE:
            raise ValueError("scalar basis degree %r unsupported" % (k,))
        self.k = int(k)
        self.exponents = _tri_exponents(self.k)
        self.dim = (self.k + 1) * (self.k + 2) // 2
        assert self.dim == len(self.exponents)
        gram = [
            [_monomial_integral_exact(a1 + a2, b1 + b2) for (a2, b2) in self.exponents]
            for (a1, b1) in self.exponents
        ]
        self._coeffs = _orthonormal_coeffs(gram)

    def tabulate(self, pts):
        """Values (n, dim) and gradients (n, dim, 2) at reference points."""
        mono, dmono = _eval_monomials(self.exponents, pts)
        vals = mono @ self._coeffs.T
        grads = np.einsum("qjd,ij->qid", dmono, self._coeffs)
        return vals, grads


class EdgeBasis:
    """Orthonormal basis of P_k on the reference edge [0, 1].

    These are normalized shifted Legendre polynomials, so member m has
    parity (-1)^m about the midpoint; global assembly relies on that to
    relate the two parametrizations of a shared edge.
    """

    def __init__(self, k):
        if not 0 <= k <= _MAX_INTERNAL_DEGREE:
            raise ValueError("edge basis degree %r unsupported" % (k,))
        self.k = int(k)
        self.dim = self.k + 1
        gram = [
            [Fraction(1, i + j + 1) for j in range(self.dim)]
            for i in range(self.dim)
        ]
        self._coeffs = _orthonormal_coeffs(gram)
        # parity about s = 1/2, used when flipping edge parametrizations
        s = np.linspace(0.11, 0.83, 7)
        vals = self.tabulate(s)
        flipped = self.tabulate(1.0 - s)
        parity = (-1.0) ** np.arange(self.dim)
        if not np.allclose(flipped, vals * parity, atol=1e-12):
            raise AssertionError("edge basis lost midpoint parity")

    def tabulate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        mono = np.vander(s, self.dim, increasing=True)
        return mono @ self._coeffs.T


@lru_cache(maxsize=None)
def scalar_basis(k):
    return ScalarBasis(k)


@lru_cache(maxsize=None)
def edge_basis(k):
    return EdgeBasis(k)
