"""Exact and heuristic column subset selectors plus the decision-problem solver.

The exact selector enumerates all C(n, k) subsets in lexicographic order,
in chunks of stacked submatrices, each unranked in closed form from its first
rank.  Every subset of a chunk gets singular-value estimates from one batched
eigensolve of its k x k block of the shared Gram matrix A^T A, and residual
estimates from one batched QR of its columns; only the subsets whose
estimated value could be the chunk's best run through the vectorized LAPACK
SVD that gives the reported values.  Each worker thread reduces every
threads-th chunk on its own, and optima merge by (value, indices), so ties
resolve to the lexicographically smallest index sequence at any thread count.

The heuristic selectors (forward greedy for vol and res-frobenius, and the
local swap) estimate every candidate from one rank-one projection of the
current selection (``_projection``) and certify the same way.  Every band
is (estimate, width), an infinite width marking no usable estimate, and
``_screened_best`` is the one certify path.  ``subsets_evaluated`` counts
every candidate considered, not only the ones the SVD certified.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .criteria import (
    CriterionSpec,
    CriterionValue,
    batch_bands,
    batch_residuals,
    batch_values,
    evaluate,
)
from .errors import InfeasibleError, InvalidParameterError
from .matrixkit import DenseMatrix, default_rank_tolerance

DECISION_SLACK = 1e-9
SWAP_IMPROVEMENT = 1e-12
# How far an estimate may sit from the SVD value: relative, and for the
# residuals also absolute, in units of ||A||_F (see _residual_width); on top,
# ROUNDING * k * kappa^2 relative for a k-column candidate whose condition
# number is at most kappa (see _screened_best).  The exact selector's Gram
# eigenvalues get ROUNDING * (m + k) * k * sigma_1^2 (see _gram_estimates).
SCREEN_MARGIN = 1e-6
RESIDUAL_SLACK = 1e-6
ROUNDING = 1e-14
# The subsets an exhaustive search may enumerate without allow_large.  On one
# thread of a 2-vCPU x86 machine it scores 9e4 (k = 11) to 1.2e6 (k = 2)
# subsets/s for vol and 2.6e4 to 3.4e4 for res-two (k = 11, 6), so a search
# within it takes at most about 11 s, or 40 s for res-two.
MAX_EXHAUSTIVE_SUBSETS = 10**6
_CHUNK_SIZE = 2048


@dataclass(frozen=True)
class ColumnSubset:
    """Strictly increasing column indices identifying a submatrix of the parent."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise InvalidParameterError("a column subset must be non-empty")
        if any(i < 0 for i in idx):
            raise InvalidParameterError("column indices must be non-negative")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidParameterError("column indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __str__(self):
        return ",".join(str(i) for i in self.indices)


@dataclass(frozen=True)
class SelectionResult:
    subset: ColumnSubset
    value: CriterionValue
    method: str
    subsets_evaluated: int
    elapsed: float


@dataclass(frozen=True)
class DecisionQuery:
    """Is there a k-column submatrix whose criterion value crosses b?"""

    criterion: CriterionSpec
    k: int
    b: float

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise InvalidParameterError(f"threshold b must be positive and finite, got {self.b}")
        if self.k < 1:
            raise InvalidParameterError(f"subset size k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class DecisionOutcome:
    answer: bool
    witness: ColumnSubset | None


def _index_chunks(n: int, k: int, chunk_size: int = _CHUNK_SIZE, first: int = 0, stride: int = 1):
    """Chunks ``first``, ``first + stride``, ... of the k-combinations of
    range(n) in lexicographic order, as (rows, k) index arrays of
    ``chunk_size`` rows (the last chunk may be shorter).

    Each chunk is unranked in closed form (combinatorial number system): the
    combination of lexicographic rank r is j -> n - 1 - j applied to the one
    of colex rank R = C(n, k) - 1 - r, whose largest element is the c with
    C(c, k) <= R < C(c + 1, k), and so on down with R - C(c, k).  Table
    entries are clamped at C(n, k), above every rank, to fit in int64.
    """
    total = math.comb(n, k)
    table = np.array([[min(math.comb(c, j), total) for c in range(n)] for j in range(k, 0, -1)],
                     dtype=np.int64)
    for start in range(first * chunk_size, total, stride * chunk_size):
        rank = total - 1 - np.arange(start, min(start + chunk_size, total), dtype=np.int64)
        chunk = np.empty((len(rank), k), dtype=np.intp)
        for pos, row in enumerate(table):
            c = np.searchsorted(row, rank, side="right") - 1
            rank -= row[c]
            chunk[:, pos] = n - 1 - c
        yield chunk


def _stack(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (B, m, k) stack of submatrices a[:, idx[b]]."""
    return np.ascontiguousarray(np.moveaxis(a[:, idx], 1, 0))


def _batch_stats(sub: np.ndarray):
    """Singular values and full-rank flags for a stack of submatrices."""
    m, k = sub.shape[1], sub.shape[2]
    sigma = np.linalg.svd(sub, compute_uv=False)
    tol = default_rank_tolerance(m, k, sigma[:, 0])
    ranks = np.count_nonzero(sigma > tol[:, None], axis=1)
    return sigma, ranks == k


def _batch_scores(a: np.ndarray, col_norms: np.ndarray, idx: np.ndarray, specs):
    """(values, valid) per spec for the subsets in ``idx``.

    The singular-value criteria share one values-only batched SVD; each
    residual takes the SVD with U instead.  An SVD runs only when a spec
    needs it.
    """
    sub = _stack(a, idx)
    stats = None
    scores = []
    for spec in specs:
        if spec.residual_norm is not None:
            scores.append((batch_residuals(a, sub, spec.residual_norm),
                           np.ones(len(idx), dtype=bool)))
            continue
        if stats is None:
            stats = _batch_stats(sub) + (col_norms[idx],)
        sigma, full, cn = stats
        scores.append(batch_values(spec, sigma, cn, full))
    return scores


def _best_row(vals: np.ndarray, valid: np.ndarray, maximize: bool) -> int | None:
    """Index of the first best valid row, or None when no row is valid."""
    filled = np.where(valid, vals, -np.inf if maximize else np.inf)
    row = int(np.argmax(filled)) if maximize else int(np.argmin(filled))
    return row if valid[row] else None


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _gram_estimates(gram: np.ndarray, scale: float, m: int, idx: np.ndarray):
    """Singular-value estimates of each submatrix a[:, idx[b]] and a bound on
    their relative error against the SVD's values, inf for a row whose full
    column rank the estimate does not prove.

    ``gram`` is (a / scale)^T (a / scale) for a power of two ``scale``.  Each
    row's sigma^2 are the eigenvalues of its k x k block; Gram formation,
    ``eigvalsh`` and the SVD's own rounding together move them by at most
    ROUNDING * (m + k) * k * sigma_1^2 (plus underflow, which is below
    m * k * the smallest normal number).  The relative error grows as the
    square of the row's condition number and is never below
    ROUNDING * (m + k) * k, which also covers the rounding of the criteria's
    value functions.
    """
    k = idx.shape[1]
    r = min(m, k)
    lam = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])[:, ::-1][:, :r]
    err = ROUNDING * (m + k) * k * lam[:, 0] + m * k * np.finfo(np.float64).smallest_normal
    lam = np.maximum(lam, 0.0)
    rel = err / lam[:, -1]
    sigma = np.sqrt(lam) * scale
    proven = (r == k) & (sigma[:, -1] * (1.0 - rel)
                         > default_rank_tolerance(m, k, sigma[:, 0] * (1.0 + rel)))
    return sigma, np.where(proven, rel, np.inf)


def _better(current, candidate, maximize: bool):
    """The better of two (value, indices) optima, either of which may be
    None.  An exact tie goes to the smaller index tuple, so optima merge to
    the same result in any order."""
    if candidate is None:
        return current
    if current is None:
        return candidate
    if candidate[0] == current[0]:
        return min(current, candidate)
    if maximize:
        return candidate if candidate[0] > current[0] else current
    return candidate if candidate[0] < current[0] else current


def _merged(optima, maximize):
    """Per-spec optimum lists folded into one by ``_better``."""
    best = [None] * len(maximize)
    for cands in optima:
        best = [_better(*args) for args in zip(best, cands, maximize)]
    return best


def check_exhaustive(n: int, k: int, allow_large: bool = False):
    """Raise InvalidParameterError before an exhaustive search over the C(n, k)
    k-subsets of n columns that exceeds ``MAX_EXHAUSTIVE_SUBSETS`` (unless
    ``allow_large``) or the 2**63 ranks the enumeration can index (always)."""
    count = math.comb(n, k)
    if count >= 2**63:
        raise InvalidParameterError(f"C({n}, {k}) subsets exceed the 2**63 ranks of the enumeration")
    if count > MAX_EXHAUSTIVE_SUBSETS and not allow_large:
        raise InvalidParameterError(f"C({n}, {k}) = {count} subsets exceed the search budget "
                                    f"of {MAX_EXHAUSTIVE_SUBSETS}")


def exact_optima(matrix: DenseMatrix, k: int, specs, threads: int = 1, allow_large: bool = False):
    """One exhaustive enumeration shared by several criteria.

    Returns (per-spec optimum list, C(n, k) subsets enumerated).  A spec whose
    criterion admits no valid subset (e.g. no full-rank subset exists for a
    rank-requiring criterion) gets None.  Every subset is scored: each chunk
    bands every row's value for every spec, from the eigenvalues of its
    blocks of the Gram matrix of A at unit scale (``_gram_estimates``,
    ``batch_bands``) and, for the residuals, a QR of each subset
    (``_residual_bands``), and certifies the rows that could be its best
    with one batched SVD over the union of those rows for all specs
    (``_screened_best``), so optima, witnesses and the count equal those of
    an SVD of every subset.

    Each of ``threads`` workers unranks and reduces every ``threads``-th
    chunk (``_index_chunks``) on its own, and the workers' optima merge by
    (value, indices) (``_better``): the witness is the lexicographically
    smallest optimal subset at any thread count.

    Before any of this work, ``check_exhaustive`` rejects a search over more
    than ``MAX_EXHAUSTIVE_SUBSETS`` subsets unless ``allow_large`` is set, and
    one over 2**63 or more subsets in any case.
    """
    n = matrix.cols
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    check_exhaustive(n, k, allow_large)
    if threads < 1:
        raise InvalidParameterError("threads must be >= 1")
    specs = list(specs)
    maximize = [spec.direction == "maximize" for spec in specs]
    a = matrix.array
    col_norms = matrix.column_norms()
    unit, scale = _unit_scaled(a)
    gram = unit.T @ unit
    norms = {spec.residual_norm for spec in specs} - {None}
    basis = _residual_basis(unit) if norms else None

    def chunk_optima(idx):
        sigma, rel = _gram_estimates(gram, scale, a.shape[0], idx)
        cn = col_norms[idx]
        residual = _residual_bands(basis, scale, idx, sigma, rel, norms)
        bands = [residual[spec.residual_norm] if spec.residual_norm is not None
                 else batch_bands(spec, sigma, cn, rel) for spec in specs]
        return _screened_best(a, col_norms, idx, specs, bands)

    def reduce_stride(first):
        return _merged(map(chunk_optima, _index_chunks(n, k, first=first, stride=threads)), maximize)

    if threads == 1:
        return reduce_stride(0), math.comb(n, k)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _merged(pool.map(reduce_stride, range(threads)), maximize), math.comb(n, k)


def select_exact(matrix: DenseMatrix, k: int, criterion: CriterionSpec,
                 threads: int = 1, allow_large: bool = False) -> SelectionResult:
    """Ground-truth selector: the optimum over all C(n, k) column subsets.

    Rank-deficient subsets are skipped for criteria that require full column
    rank; ties go to the lexicographically smallest index sequence.  Over
    ``MAX_EXHAUSTIVE_SUBSETS`` subsets the search needs ``allow_large``
    (``exact_optima``).
    """
    start = time.perf_counter()
    (outcome,), seen = exact_optima(matrix, k, [criterion], threads=threads, allow_large=allow_large)
    if outcome is None:
        raise InfeasibleError(
            f"no subset of {k} columns is feasible for criterion {criterion.identifier!r}"
        )
    value, idx = outcome
    return SelectionResult(
        subset=ColumnSubset(idx),
        value=CriterionValue(value, criterion, k),
        method="exact",
        subsets_evaluated=seen,
        elapsed=time.perf_counter() - start,
    )


def select_greedy_frobenius(matrix: DenseMatrix, k: int) -> SelectionResult:
    """The k columns of smallest two-norm, which minimize the Frobenius norm exactly.

    The squared Frobenius norm of a column selection is the sum of its squared
    column norms, so this greedy choice coincides with the exhaustive optimum.
    """
    n = matrix.cols
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    start = time.perf_counter()
    order = np.argsort(matrix.column_norms(), kind="stable")
    subset = ColumnSubset(tuple(sorted(int(j) for j in order[:k])))
    spec = CriterionSpec("norm", 2.0)
    value = evaluate(spec, matrix.columns(subset))
    return SelectionResult(
        subset=subset,
        value=value,
        method="greedy_frobenius",
        subsets_evaluated=1,
        elapsed=time.perf_counter() - start,
    )


def _unit_scaled(a: np.ndarray):
    """(a / s, s) with s the power of two at or below max|a|, so |a / s| < 2.

    The estimates below square column norms; at unit scale that neither
    underflows nor overflows, whatever the scale of ``a``.
    """
    top = float(np.max(np.abs(a)))
    if top == 0.0:
        return a, 1.0
    scale = math.ldexp(0.5, math.frexp(top)[1])
    return a / scale, scale


def _rounding(k: int, kappa: np.ndarray) -> np.ndarray:
    """Relative rounding error allowed between an estimate and the SVD value
    of a k-column candidate whose condition number is at most ``kappa``."""
    return ROUNDING * k * kappa**2


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _projection(unit: np.ndarray, chosen, cols, k: int):
    """(R, Q^T A, P_perp A, rho, rounding) for unit[:, chosen] = QR and
    A = unit[:, cols], where rho_j = ||P_perp a_j|| and rounding_j is the
    ``_rounding`` of the k columns with a_j appended to or swapped into
    ``chosen``.  Both are [Q, u] M with ||M|| <= ||R|| + ||a_j|| and
    sigma_min(M) >= min(sigma_min(R), rho_j) / (2 + ||R^-1|| ||a_j||).  A
    zero rho_j or a singular R gives an infinite or NaN rounding and so an
    infinite or NaN band width: no usable estimate (``_screened_best``).
    """
    q, r = np.linalg.qr(unit[:, list(chosen)])
    cols = unit[:, cols]
    coef = q.T @ cols
    rest = cols - q @ coef if chosen else cols
    rho = np.linalg.norm(rest, axis=0)
    sigma = np.linalg.svd(r, compute_uv=False)
    top, inv = sigma.max(initial=0.0), 1.0 / sigma.min(initial=np.inf)
    norms = np.linalg.norm(cols, axis=0)
    kappa = (top + norms) * (2.0 + inv * norms) * np.maximum(inv, 1.0 / rho)
    return r, coef, rest, rho, _rounding(k, kappa)


def _moves(bases: np.ndarray, added: np.ndarray) -> np.ndarray:
    """Sorted rows base + (j,), per row of ``bases`` and then per j in ``added``."""
    return np.sort(np.column_stack([np.repeat(bases, len(added), axis=0),
                                    np.tile(added, len(bases))]), axis=1)


def _residual_width(estimate: np.ndarray, norm2: float, rounding: np.ndarray) -> np.ndarray:
    """Width of a band around an ``estimate`` of ||(I - P_C) A|| at unit
    scale, where ||A||_F^2 = ``norm2`` and ``rounding`` is C's ``_rounding``.

    Besides the relative margin, the width holds ``RESIDUAL_SLACK * ||A||_F``
    and the rounding relative to ||A||_F, since a residual can be far below
    ||A||, and that rounding carried through a square root, for an estimate
    formed from its square.
    """
    squared = rounding * norm2
    return (SCREEN_MARGIN * estimate
            + math.sqrt(norm2) * (RESIDUAL_SLACK + rounding)
            + np.minimum(np.sqrt(squared), squared / estimate))


def _residual_basis(unit: np.ndarray):
    """(B, ||A||_F^2, underflow) for ``unit`` = A / scale, what every chunk's
    ``_residual_bands`` needs: B has A's residual norms and no more rows than
    columns (the R of A's own QR for a tall A); the underflow of the squares
    ``batch_residuals`` sums is below sqrt(m * n * smallest normal)."""
    m, n = unit.shape
    underflow = math.sqrt(m * n * np.finfo(np.float64).smallest_normal)
    return np.linalg.qr(unit, mode="r") if m > n else unit, np.sum(unit**2), underflow


@np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore")
def _residual_bands(basis, scale: float, idx: np.ndarray, sigma: np.ndarray,
                    rel: np.ndarray, norms) -> dict:
    """Band (estimate, width) of ||(I - P_C) A|| for each subset of ``idx``,
    per residual norm in ``norms`` ("two", "frobenius"), from the
    ``_residual_basis`` of A / ``scale``.

    A complete QR of each C = [Q1, Q2] R gives (I - P_C) A = Q2 Q2^T A for a
    full-rank C: res-frobenius is ||Q2^T A||_F and res-two the square root
    of the largest eigenvalue of its Gram on the smaller side; A's stand-in
    B has the same residual norms, so Q2 never has more entries than A.
    ``sigma`` and ``rel`` are C's ``_gram_estimates``.  They bound C's
    condition number, which sets the rounding in the width
    (``_residual_width``).  A row whose full column rank they do not prove
    gets an infinite width, since ``batch_residuals`` truncates its rank and
    the QR does not.  The width also holds the underflow bound.
    """
    if not norms:
        return {}
    unit, norm2, underflow = basis
    k = idx.shape[1]
    q = np.linalg.qr(_stack(unit, idx), mode="complete").Q
    # Q2^T A has at most n rows, so its Gram on the smaller side is tail tail^T
    tail = np.swapaxes(q[:, :, k:], 1, 2) @ unit
    rounding = _rounding(k, sigma[:, 0] / sigma[:, -1] * ((1.0 + rel) / (1.0 - rel)))
    bands = {}
    for norm in norms:
        if norm == "frobenius":
            estimate = np.sqrt(np.sum(tail**2, axis=(1, 2)))
        elif tail.shape[1]:
            top = np.linalg.eigvalsh(tail @ np.swapaxes(tail, 1, 2))[:, -1]
            estimate = np.sqrt(np.maximum(top, 0.0))
        else:
            estimate = np.zeros(len(idx))
        width = scale * _residual_width(estimate, norm2, rounding) + underflow
        bands[norm] = scale * estimate, np.where(np.isfinite(rel), width, np.inf)
    return bands


def _screened_best(a: np.ndarray, col_norms: np.ndarray, idx: np.ndarray, specs, bands):
    """Per spec, (value, indices) of the first best valid row of ``idx``, the
    optimum ``_better`` merges, or None when no row is valid.

    ``bands`` holds one band (estimate, width) per spec, the one band
    contract: each row's SVD value is taken to lie within ``width`` of its
    ``estimate``, and a row whose estimate or width is not finite (no usable
    estimate) spans (-inf, inf).  The rows whose band reaches their spec's
    best band join one union for all specs, certified by one SVD call, so a
    row without a usable estimate is always certified and never sets the
    cut.  A width grows with the row's condition number, so a near-dependent
    row is certified rather than excluded.  When the union left rows out, a
    spec is rescored on every row if no certified row is valid or a
    certified value lies outside its band (which also catches estimates
    wrong as a whole, e.g. noise over volumes that are all 0).  The result
    equals that of scoring every row whenever each excluded row's value lies
    in its band, which the rounding bound is there to ensure.
    """
    maximize = [spec.direction == "maximize" for spec in specs]
    spans, union = [], np.zeros(len(idx), dtype=bool)
    for (estimate, width), up in zip(bands, maximize):
        wide = ~(np.isfinite(estimate) & (width < np.inf))
        estimate, width = np.where(wide, 0.0, estimate), np.where(wide, np.inf, width)
        low, high = estimate - width, estimate + width
        union |= high >= low.max() if up else low <= high.min()
        spans.append((low, high))
    certified = idx[union]
    out = []
    for spec, up, (low, high), (vals, valid) in zip(
            specs, maximize, spans, _batch_scores(a, col_norms, certified, specs)):
        cands, best = certified, _best_row(vals, valid, up)
        inside = np.all((low[union] <= vals) & (vals <= high[union]))
        if not (union.all() or best is not None and inside):
            ((vals, valid),) = _batch_scores(a, col_norms, idx, [spec])
            cands, best = idx, _best_row(vals, valid, up)
        out.append(None if best is None else (float(vals[best]), tuple(map(int, cands[best]))))
    return out


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _swap_estimates(unit: np.ndarray, current, outside: np.ndarray, current_vol: float):
    """Band (estimate, width) of the volume after swapping position i of
    ``current`` for column j, per (i, j), row-major.

    With C = a[:, current] = QR and B = C^+ A_out, the squared volume
    ratio of the swap is B_ij^2 + [(C^T C)^-1]_ii * ||P_perp a_j||^2
    (rectangular maxvol); the ratio is scale-free, so it is computed on
    ``unit`` (``_unit_scaled``) and multiplied by ``current_vol``.
    """
    r, coef, _, rho, rounding = _projection(unit, current, outside, len(current))
    rinv = np.linalg.inv(r)
    ratio = (rinv @ coef) ** 2 + np.sum(rinv**2, axis=1)[:, None] * rho**2
    estimate = current_vol * np.sqrt(ratio)
    return estimate.ravel(), (estimate * (SCREEN_MARGIN + rounding)).ravel()


def select_local_swap_volume(matrix: DenseMatrix, k: int, seed: int = 0,
                             max_sweeps: int = 100) -> SelectionResult:
    """Volume ascent by single-column swaps from a seeded random full-rank start.

    The start is the first full-rank one of n * k seeded random draws, or
    else greedy vol's subset (``select_greedy_forward``) if that is full
    rank; with neither, no start exists and InfeasibleError is raised.

    Each sweep considers every (selected, unselected) exchange and applies
    the one with the largest volume, ties going to the earliest selected
    position and then the smallest column; iteration stops when no swap
    improves by a relative factor above 1 + 1e-12 or after ``max_sweeps``
    accepted swaps.  A sweep estimates every swap's volume from one QR of
    the current selection (``_swap_estimates``) and certifies the near-best
    by the batched SVD (``_screened_best``, which states when the result
    equals an SVD of every swap).  ``subsets_evaluated`` counts the start
    draws (plus greedy's count when it gives the start) and every swap
    considered, k(n - k) per sweep, whether or not its SVD ran.
    """
    n = matrix.cols
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    if max_sweeps < 0:
        raise InvalidParameterError(f"max_sweeps must be >= 0, got {max_sweeps}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    a = matrix.array
    col_norms = matrix.column_norms()
    unit = _unit_scaled(a)[0]
    vol_spec = CriterionSpec("vol")
    evaluated = 0

    def full_rank_volume(cand):
        """The volume of a[:, cand], or None when it is rank-deficient."""
        idx = np.array([cand], dtype=np.intp)
        sigma, full = _batch_stats(_stack(a, idx))
        vols, _ = batch_values(vol_spec, sigma, col_norms[idx], full)
        return float(vols[0]) if full[0] else None

    for _ in range(n * k):
        current = tuple(int(i) for i in np.sort(rng.choice(n, size=k, replace=False)))
        evaluated += 1
        if (current_vol := full_rank_volume(current)) is not None:
            break
    else:
        greedy = select_greedy_forward(matrix, k, vol_spec)
        evaluated += greedy.subsets_evaluated
        current_vol = full_rank_volume(current := greedy.subset.indices)
    if current_vol is None:
        raise InfeasibleError(
            f"no full-rank starting subset found after {n * k} seeded attempts or by greedy vol"
        )

    for _ in range(max_sweeps):
        outside = np.setdiff1d(np.arange(n), current)
        if not len(outside):
            break
        kept = np.array([current[:pos] + current[pos + 1:] for pos in range(k)], dtype=np.intp)
        idx = _moves(kept, outside)
        band = _swap_estimates(unit, current, outside, current_vol)
        ((vol, swapped),) = _screened_best(a, col_norms, idx, [vol_spec], [band])
        evaluated += len(idx)
        if vol > current_vol * (1.0 + SWAP_IMPROVEMENT):
            current, current_vol = swapped, vol
        else:
            break

    return SelectionResult(
        subset=ColumnSubset(current),
        value=CriterionValue(current_vol, vol_spec, k),
        method="local_swap",
        subsets_evaluated=evaluated,
        elapsed=time.perf_counter() - start,
    )


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _extension_estimates(criterion: CriterionSpec, unit: np.ndarray, scale: float, chosen,
                         remaining: np.ndarray, value: float):
    """Band (estimate, width) of each extension chosen + (j,) of A = ``unit``
    * ``scale``; all widths are infinite for a criterion without a rank-one
    estimate, and a row's width is infinite or NaN where its rounding is.

    With R = P_perp_S A and r_j its column j: vol(S + j) = vol(S) * ||r_j||,
    and res-frobenius(S + j)^2 = ||R||_F^2 - ||r_j^T R||^2 / ||r_j||^2
    (a zero r_j gains nothing).  That difference cancels; ``_residual_width``
    allows for it.
    """
    if criterion.kind not in ("vol", "res-frobenius"):
        return np.zeros(len(remaining)), np.full(len(remaining), np.inf)
    _, _, rest, rho, rounding = _projection(unit, chosen, slice(None), len(chosen) + 1)
    rho, rounding = rho[remaining], rounding[remaining]
    if criterion.kind == "vol":
        estimate = value * (scale * rho)
        return estimate, estimate * (SCREEN_MARGIN + rounding)
    gram = rest.T @ rest[:, remaining]
    gain = np.divide(np.sum(gram**2, axis=0), rho**2, out=np.zeros_like(rho), where=rho > 0.0)
    estimate = np.sqrt(np.maximum(np.sum(rest**2) - gain, 0.0))
    return scale * estimate, scale * _residual_width(estimate, np.sum(unit**2), rounding)


def select_greedy_forward(matrix: DenseMatrix, k: int, criterion: CriterionSpec) -> SelectionResult:
    """Grow the subset one column at a time, taking the best extension each step.

    Ties break toward the smallest column index.  Heuristic: no optimality
    guarantee.  Residual criteria are evaluated against the full matrix.
    For vol and res-frobenius each step estimates every extension from the
    part of A outside the chosen columns (``_extension_estimates``, a
    column-pivoted-QR-style sweep) and certifies the near-best by the
    batched SVD (``_screened_best``, which states when the result equals an
    SVD of every extension).  The other criteria score every extension.
    ``subsets_evaluated`` counts every extension considered, whether or not
    its SVD ran.
    """
    n = matrix.cols
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    start = time.perf_counter()
    a = matrix.array
    col_norms = matrix.column_norms()
    unit, scale = _unit_scaled(a)
    evaluated = 0

    chosen: tuple[int, ...] = ()
    value = 1.0  # the volume of no columns
    for _ in range(k):
        remaining = np.setdiff1d(np.arange(n), chosen)
        idx = _moves(np.array([chosen], dtype=np.intp), remaining)
        band = _extension_estimates(criterion, unit, scale, chosen, remaining, value)
        (best,) = _screened_best(a, col_norms, idx, [criterion], [band])
        evaluated += len(idx)
        if best is None:
            raise InfeasibleError(
                f"every extension is rank-deficient for criterion {criterion.identifier!r}"
            )
        value, chosen = best

    return SelectionResult(
        subset=ColumnSubset(chosen),
        value=CriterionValue(value, criterion, k),
        method="greedy_forward",
        subsets_evaluated=evaluated,
        elapsed=time.perf_counter() - start,
    )


def meets_threshold(criterion: CriterionSpec, value: float, b: float) -> bool:
    """Whether ``value`` reaches threshold ``b`` on the criterion's side of it,
    up to the absolute ``DECISION_SLACK``."""
    if criterion.direction == "maximize":
        return value >= b - DECISION_SLACK
    return value <= b + DECISION_SLACK


def decide(matrix: DenseMatrix, query: DecisionQuery, threads: int = 1,
           allow_large: bool = False) -> DecisionOutcome:
    """Answer a threshold decision problem by exhaustive selection.

    Comparisons use an absolute slack of 1e-9, strictly smaller than every
    separation the reduction harness needs to distinguish.
    """
    result = select_exact(matrix, query.k, query.criterion, threads=threads, allow_large=allow_large)
    optimal = query.criterion.optimal_unit_value(query.k)
    if optimal is not None and math.isclose(query.b, optimal, rel_tol=0.0, abs_tol=1e-12):
        norms = matrix.column_norms()
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            warnings.warn(
                "threshold b equals the unit-column optimal value but the matrix "
                "does not have unit columns; the decision is still answered",
                stacklevel=2,
            )
    answer = meets_threshold(query.criterion, result.value.value, query.b)
    return DecisionOutcome(answer=answer, witness=result.subset if answer else None)
