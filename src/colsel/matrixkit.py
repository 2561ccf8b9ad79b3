"""Immutable dense matrices and the linear algebra kernels built on them.

Everything downstream (criteria, selectors, reduction harness) works on
``DenseMatrix`` values.  All operations are pure functions returning fresh
objects, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, RankDeficiencyError, ShapeError

EPS = float(np.finfo(np.float64).eps)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """A real m x n matrix with finite float64 entries, immutable after construction."""

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=np.float64, copy=True, order="C")
        if arr.ndim != 2:
            raise InvalidInputError(f"expected a 2-d matrix, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInputError(f"matrix dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidInputError("matrix entries must all be finite")
        object.__setattr__(self, "array", _readonly(arr))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """Row-major flat view of the entries (read-only)."""
        return self.array.reshape(-1)

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(np.eye(n))

    def columns(self, indices) -> "DenseMatrix":
        """Submatrix made of the given column indices, in the given order."""
        idx = list(indices)
        if not idx:
            raise InvalidInputError("a column subset must be non-empty")
        if any(j < 0 or j >= self.cols for j in idx):
            raise InvalidInputError(f"column index out of range for {self.cols} columns")
        return _built(np.ascontiguousarray(self.array[:, idx]))

    def column_norms(self) -> np.ndarray:
        """Two-norm of each column, as ``column_norms`` computes it."""
        return column_norms(self.array)

    def unit_scaled(self) -> tuple["DenseMatrix", int]:
        """(this matrix / 2**e, e) as ``unit_scaled`` gives them."""
        arr, exponent = unit_scaled(self.array)
        return (_built(arr) if exponent else self), exponent

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


def _built(arr: np.ndarray) -> DenseMatrix:
    """``DenseMatrix(arr)`` without its copy and finiteness scan, for a result
    this module has just built with entries finite by construction.  ``arr``
    must be a fresh, C-ordered float64 array that nothing else holds: the
    constructor's C-ordered copy fixes the layout, and matmul bits depend on it."""
    matrix = object.__new__(DenseMatrix)
    object.__setattr__(matrix, "array", _readonly(arr))
    return matrix


def column_norms(arr: np.ndarray) -> np.ndarray:
    """Two-norm of each column of an m x k array, or of each matrix of a
    (B, m, k) stack, computed on the column divided by the power of two at or
    below its largest entry, so squaring neither overflows nor underflows; the
    scaling is exact, so in range the result has the bits of
    ``np.linalg.norm(axis=-2)``, and a matrix of a stack gets the bits it
    gets alone."""
    top = np.max(np.abs(arr), axis=-2, keepdims=True)
    scale = np.ldexp(0.5, np.frexp(top)[1])
    with np.errstate(over="ignore"):  # a norm past float64 range is inf
        return np.linalg.norm(arr / scale, axis=-2) * scale[..., 0, :]


def unit_scaled(a: np.ndarray):
    """(a / 2**e, e) with 2**e the power of two at or below max|a|, so
    |a / 2**e| < 2; ``a`` itself where e = 0, the zero matrix included.

    The scaling is exact wherever a / 2**e is not subnormal.  Squares and
    products formed at unit scale neither underflow nor overflow, whatever
    the scale of ``a``.
    """
    top = float(np.abs(a).max())
    exponent = math.frexp(top)[1] - 1 if top else 0
    return (np.ldexp(a, -exponent) if exponent else a), exponent


def pow2_scaled(value, exponent: int) -> float:
    """``value`` times 2**exponent, exact where the result is normal, inf past
    float64 range and the rounded subnormal or 0 below it, without a warning."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.copysign(math.inf, value)


def gather_columns(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (B, m, k) stack of the submatrices a[:, idx[b]], one gather of their columns."""
    return np.swapaxes(a.T[idx], 1, 2)


def concat_columns(left: DenseMatrix, right: DenseMatrix) -> DenseMatrix:
    """Horizontal concatenation [left right]."""
    if left.rows != right.rows:
        raise ShapeError(f"row counts differ: {left.rows} vs {right.rows}")
    return _built(np.hstack([left.array, right.array]))


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Singular values in non-increasing order plus the numerical rank they imply."""

    singular_values: np.ndarray
    numerical_rank: int
    rank_tolerance: float


def default_rank_tolerance(rows: int, cols: int, sigma_max):
    """max(m, n) * machine epsilon * sigma_1, the one rank tolerance.

    ``sigma_max`` is one matrix's sigma_1 (a float) or an array of sigma_1
    over a stack of m x n matrices.  Singular values above the tolerance
    count toward the rank, so the zero matrix has rank 0 at any scale, and
    with no floor, a matrix at subnormal scale keeps its full rank.
    """
    return max(rows, cols) * EPS * sigma_max


def svd(matrix: DenseMatrix) -> SvdResult:
    """Singular values of ``matrix`` with an SVD-based numerical rank."""
    sigma = np.linalg.svd(matrix.array, compute_uv=False)
    tol = default_rank_tolerance(matrix.rows, matrix.cols, float(sigma[0]))
    return SvdResult(_readonly(sigma), int(np.count_nonzero(sigma > tol)), tol)


def batch_svd(stack: np.ndarray):
    """Singular values of a (B, m, k) stack from one LAPACK call, and whether
    each matrix has numerical rank k under ``svd``'s tolerance: row for row
    the bits and the rank ``svd`` gives that matrix alone."""
    sigma = np.linalg.svd(stack, compute_uv=False)
    tol = default_rank_tolerance(*stack.shape[1:], sigma[:, 0])
    return sigma, np.count_nonzero(sigma > tol[:, None], axis=1) == stack.shape[2]


def batch_pseudo_inverse(stack: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverses of a (B, m, n) stack via one SVD call,
    each with the bits it gets alone.

    Singular values at or below the rank tolerance are treated as zero, so
    rank-deficient inputs are handled by truncation rather than rejected.
    A pseudo-inverse beyond float64 range (e.g. of ``eye(2) * 1e-310``)
    raises InvalidInputError.
    """
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    kept = s > default_rank_tolerance(*stack.shape[1:], s[:, :1])
    with np.errstate(over="ignore", invalid="ignore"):
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
        pinv = np.swapaxes(vt, 1, 2) @ (inv[:, :, None] * np.swapaxes(u, 1, 2))
    if not np.isfinite(pinv).all():
        row = np.argmin(np.isfinite(pinv).all(axis=(1, 2)))
        raise InvalidInputError(
            f"pseudo-inverse overflows float64: smallest kept singular value {s[row][kept[row]][-1]!r}"
        )
    return pinv


def pseudo_inverse(matrix: DenseMatrix) -> DenseMatrix:
    """``batch_pseudo_inverse`` of ``matrix`` alone."""
    return _built(batch_pseudo_inverse(matrix.array[None])[0])


def batch_complement_projector(stack: np.ndarray) -> np.ndarray:
    """Orthogonal projectors I - C C^+ onto the complements of range(C) for
    a (B, m, k) stack via one SVD call, each with the bits it gets alone.

    Requires every C to have full column rank under the default tolerance.
    """
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank = np.count_nonzero(s > default_rank_tolerance(*stack.shape[1:], s[:, :1]), axis=1)
    if (rank < stack.shape[2]).any():
        raise RankDeficiencyError(
            f"matrix has numerical rank {rank.min()} < {stack.shape[2]} columns"
        )
    p = np.eye(stack.shape[1]) - u @ np.swapaxes(u, 1, 2)
    return (p + np.swapaxes(p, 1, 2)) / 2.0


def complement_projector(c: DenseMatrix) -> DenseMatrix:
    """``batch_complement_projector`` of ``c`` alone."""
    return _built(batch_complement_projector(c.array[None])[0])


def batch_projected(p: np.ndarray, c: np.ndarray):
    """P C and the symmetrized Schur complement C^T P C of (B, m, m)
    projectors and a (B, m, k) stack: ``partitioned_pinv``'s M1 = P2 C1 and
    S1 (or M2 and S2).  A product beyond float64 range (e.g. of columns near
    1e308) raises InvalidInputError, without a floating-point warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        pc = p @ c
        schur = np.swapaxes(c, 1, 2) @ p @ c
        schur = (schur + np.swapaxes(schur, 1, 2)) / 2.0
    if not (np.isfinite(pc).all() and np.isfinite(schur).all()):
        raise InvalidInputError(
            "partitioned pseudo-inverse overflows float64: P2 C1, P1 C2 or a Schur complement is not finite"
        )
    return pc, schur


@dataclass(frozen=True, eq=False)
class PartitionedPinv:
    """Pseudo-inverse of [C1 C2] split into its two stacked blocks.

    ``m1_pinv`` is the pseudo-inverse of the projection of C1 away from
    range(C2), ``m2_pinv`` the mirror image, and ``schur1``/``schur2`` are the
    corresponding Gram Schur complements (symmetric positive definite when the
    concatenation has full column rank).
    """

    m1_pinv: DenseMatrix
    m2_pinv: DenseMatrix
    schur1: DenseMatrix
    schur2: DenseMatrix

    def stacked(self) -> DenseMatrix:
        return _built(np.vstack([self.m1_pinv.array, self.m2_pinv.array]))


def partitioned_pinv(c1: DenseMatrix, c2: DenseMatrix) -> PartitionedPinv:
    """Blockwise pseudo-inverse of the concatenation [C1 C2].

    The stack of the two returned pseudo-inverse blocks equals the
    pseudo-inverse of [C1 C2] whenever the concatenation has full column rank.
    A projection or Schur complement beyond float64 range (e.g. of columns
    near 1e308) raises InvalidInputError, without a floating-point warning.
    """
    combined = concat_columns(c1, c2)
    m, n = combined.rows, combined.cols
    if m < n:
        # undefined for wide concatenations, which can never have full column rank
        raise ShapeError(f"need at least {n} rows for {n} total columns, got {m}")
    if svd(combined).numerical_rank < n:
        raise RankDeficiencyError("concatenation [C1 C2] is numerically rank deficient")

    p1, p2 = (batch_complement_projector(c.array[None]) for c in (c1, c2))
    (m1, s1), (m2, s2) = batch_projected(p2, c1.array[None]), batch_projected(p1, c2.array[None])
    pinvs = batch_pseudo_inverse(m1), batch_pseudo_inverse(m2)
    return PartitionedPinv(*(_built(x[0]) for x in (*pinvs, s1, s2)))
