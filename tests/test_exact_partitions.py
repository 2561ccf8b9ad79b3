"""The partition identities decided exactly, and the float kernels against them.

On integer matrices l_pi0 and e_sc are rational identities, so
``fractions.Fraction`` decides them with no tolerance:

- l_pi0: for C = [C1 C2] of full column rank, [(P2 C1)^+; (P1 C2)^+] = C^+,
  Pi the complement projector of Ci, and both Schur complements
  Si = Ci^T Pj Ci are positive definite;
- e_sc: det(C^T C) = det(H^T H) ||P_H c||^2, H the first n-1 columns of C,
  c its last and P_H H's complement projector.

The float ``partitioned_pinv(...).stacked()`` and ``pseudo_inverse`` must
then lie within ``ROUNDING`` K(C) max|X| of the exact X, entrywise, where
K(C) = ||C^T C||_F ||(C^T C)^-1||_F >= kappa_2(C)^2 is computed exactly.
A pseudo-inverse computed in float64 from an SVD, or through projectors, is
off by about eps kappa_2(C)^2 of its largest entry at most, and ``ROUNDING``
leaves a factor of 64 over eps for the entrywise norms at these sizes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from colsel.matrixkit import DenseMatrix, partitioned_pinv, pseudo_inverse

ROUNDING = 64 * np.finfo(np.float64).eps


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    cols = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def gram(a):
    return matmul(transpose(a), a)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def pivots(a):
    """The pivots of Gaussian elimination on the square ``a`` without row
    exchanges, or None once a pivot is 0."""
    a = [row[:] for row in a]
    out = []
    for i in range(len(a)):
        if a[i][i] == 0:
            return None
        out.append(a[i][i])
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return out


def det(a):
    """The determinant of a symmetric positive semidefinite ``a``, for which
    elimination without row exchanges meets a zero pivot only when it is 0."""
    p = pivots(a)
    return Fraction(0) if p is None else math.prod(p)


def positive_definite(s):
    """Whether the symmetric ``s`` is positive definite: every pivot of its
    elimination without row exchanges is positive."""
    p = pivots(s)
    return p is not None and all(x > 0 for x in p)


def inverse(a):
    """The inverse of the nonsingular ``a``, by Gauss-Jordan elimination."""
    n = len(a)
    aug = [row[:] + e for row, e in zip(a, identity(n))]
    for i in range(n):
        pivot = next(r for r in range(i, n) if aug[r][i] != 0)
        aug[i], aug[pivot] = aug[pivot], aug[i]
        aug[i] = [x / aug[i][i] for x in aug[i]]
        for r in range(n):
            if r != i and aug[r][i] != 0:
                f = aug[r][i]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[i])]
    return [row[n:] for row in aug]


def pinv(x):
    """(X^T X)^-1 X^T, the pseudo-inverse of X of full column rank."""
    return matmul(inverse(gram(x)), transpose(x))


def complement_projector(x):
    """I - X X^+ for X of full column rank."""
    xx = matmul(x, pinv(x))
    return [[e - p for e, p in zip(erow, prow)] for erow, prow in zip(identity(len(x)), xx)]


def columns(a, cols):
    return [[row[j] for j in cols] for row in a]


def frobenius(a):
    return float(sum(x * x for row in a for x in row)) ** 0.5


def integer_matrices(count=60):
    """Seeded m x n matrices with entries in -3..3, m in 3..8, n in 2..min(m, 6),
    of full column rank (det C^T C != 0, decided exactly), as Fraction rows."""
    rng = np.random.default_rng(20)
    out = []
    while len(out) < count:
        m = int(rng.integers(3, 9))
        n = int(rng.integers(2, min(m, 6) + 1))
        c = [[Fraction(int(x)) for x in row] for row in rng.integers(-3, 4, size=(m, n))]
        if det(gram(c)) != 0:
            out.append(c)
    return out


MATRICES = integer_matrices()


def test_the_matrices_cover_every_shape():
    assert {(len(c), len(c[0])) for c in MATRICES} >= {(3, 2), (4, 3), (6, 6), (8, 6)}
    assert len({(len(c), len(c[0])) for c in MATRICES}) >= 15


def partitions():
    """Every split of every matrix: (C, C1 columns, C2 columns)."""
    for c in MATRICES:
        n = len(c[0])
        for split in range(1, n):
            yield c, list(range(split)), list(range(split, n))


@pytest.mark.parametrize("c,left,right", list(partitions()))
def test_l_pi0_holds_exactly(c, left, right):
    c1, c2 = columns(c, left), columns(c, right)
    p1, p2 = complement_projector(c1), complement_projector(c2)
    m1, m2 = matmul(p2, c1), matmul(p1, c2)
    assert pinv(m1) + pinv(m2) == pinv(c)
    assert positive_definite(matmul(transpose(c1), m1))
    assert positive_definite(matmul(transpose(c2), m2))


@pytest.mark.parametrize("c", MATRICES)
def test_e_sc_holds_exactly(c):
    n = len(c[0])
    head, tail = columns(c, range(n - 1)), columns(c, [n - 1])
    residual = matmul(complement_projector(head), tail)
    assert det(gram(c)) == det(gram(head)) * sum(x * x for (x,) in residual)


def within_rounding(got, exact, k):
    """Whether the float ``got`` lies within ROUNDING k max|exact| of ``exact``, entrywise."""
    want = np.array(exact, dtype=np.float64)
    return got.shape == want.shape and np.max(np.abs(got - want)) <= ROUNDING * k * np.max(np.abs(want))


def condition_bound(c):
    """||C^T C||_F ||(C^T C)^-1||_F, at least kappa_2(C)^2."""
    g = gram(c)
    return frobenius(g) * frobenius(inverse(g))


@pytest.mark.parametrize("c", MATRICES)
def test_float_pseudo_inverses_lie_within_rounding_of_the_exact_ones(c):
    a = np.array(c, dtype=np.float64)
    exact, k = pinv(c), condition_bound(c)
    assert within_rounding(pseudo_inverse(DenseMatrix(a)).array, exact, k)
    for split in range(1, len(c[0])):
        parts = partitioned_pinv(DenseMatrix(a[:, :split]), DenseMatrix(a[:, split:]))
        assert within_rounding(parts.stacked().array, exact, k), split


def test_the_bound_is_far_below_the_entries_it_bounds():
    assert max(map(condition_bound, MATRICES)) * ROUNDING < 1e-9
