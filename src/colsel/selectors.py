"""Exact and heuristic column subset selectors plus the decision-problem solver.

The exact selector enumerates all C(n, k) subsets in lexicographic order,
evaluating criteria on batches of stacked submatrices so the per-subset cost
is one small SVD inside a vectorized LAPACK call.  Enumeration may fan out
over worker threads; chunks are reduced in enumeration order with a
strictly-better rule, so the witness is independent of the thread count and
ties resolve to the lexicographically smallest index sequence.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .criteria import CriterionSpec, CriterionValue, batch_residuals, batch_values, evaluate
from .errors import InfeasibleError, InvalidParameterError
from .matrixkit import DenseMatrix, default_rank_tolerance

DECISION_SLACK = 1e-9
SWAP_IMPROVEMENT = 1e-12
MAX_EXHAUSTIVE_COLUMNS = 30
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
        if not self.b > 0:
            raise InvalidParameterError(f"threshold b must be positive, got {self.b}")
        if self.k < 1:
            raise InvalidParameterError(f"subset size k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class DecisionOutcome:
    answer: bool
    witness: ColumnSubset | None


def _index_chunks(n: int, k: int, chunk_size: int = _CHUNK_SIZE):
    combos = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(combos, chunk_size))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


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


def _chunk_candidates(a: np.ndarray, col_norms: np.ndarray, idx: np.ndarray, specs):
    """Best (value, indices) within one chunk, per spec; None when no row is valid."""
    out = []
    for spec, (vals, valid) in zip(specs, _batch_scores(a, col_norms, idx, specs)):
        row = _best_row(vals, valid, spec.direction == "maximize")
        out.append(None if row is None else (float(vals[row]), tuple(int(i) for i in idx[row])))
    return out


def _better(current, candidate, maximize: bool):
    if candidate is None:
        return current
    if current is None:
        return candidate
    if maximize:
        return candidate if candidate[0] > current[0] else current
    return candidate if candidate[0] < current[0] else current


def _in_order(work, items, threads: int):
    """``map(work, items)``, fanned out over ``threads`` workers when above 1.

    Results come back in submission order through a bounded window, so the
    caller reduces them in enumeration order without materializing every item.
    """
    if threads == 1:
        yield from map(work, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for item in items:
            pending.append(pool.submit(work, item))
            if len(pending) >= 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def exact_optima(matrix: DenseMatrix, k: int, specs, threads: int = 1, allow_large: bool = False):
    """One exhaustive enumeration shared by several criteria.

    Returns (per-spec optimum list, subsets enumerated).  A spec whose
    criterion admits no valid subset (e.g. no full-rank subset exists for a
    rank-requiring criterion) gets None.
    """
    n = matrix.cols
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    if n > MAX_EXHAUSTIVE_COLUMNS and not allow_large:
        raise InvalidParameterError(
            f"exhaustive selection over n={n} columns exceeds the desk-scale bound "
            f"{MAX_EXHAUSTIVE_COLUMNS}; pass allow_large to override"
        )
    if threads < 1:
        raise InvalidParameterError("threads must be >= 1")
    specs = list(specs)
    maximize = [spec.direction == "maximize" for spec in specs]
    a = matrix.array
    col_norms = matrix.column_norms()
    best = [None] * len(specs)
    seen = 0

    def work(idx):
        return len(idx), _chunk_candidates(a, col_norms, idx, specs)

    for count, cands in _in_order(work, _index_chunks(n, k), threads):
        seen += count
        best = [_better(*args) for args in zip(best, cands, maximize)]
    return best, seen


def select_exact(matrix: DenseMatrix, k: int, criterion: CriterionSpec,
                 threads: int = 1, allow_large: bool = False) -> SelectionResult:
    """Ground-truth selector: the optimum over all C(n, k) column subsets.

    Rank-deficient subsets are skipped for criteria that require full column
    rank; ties go to the lexicographically smallest index sequence.
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


def select_local_swap_volume(matrix: DenseMatrix, k: int, seed: int = 0,
                             max_sweeps: int = 100) -> SelectionResult:
    """Volume ascent by single-column swaps from a seeded random full-rank start.

    Each sweep scans every (selected, unselected) exchange and applies the one
    with the largest volume; iteration stops when no swap improves by a
    relative factor above 1 + 1e-12 or after ``max_sweeps`` accepted swaps.
    """
    n = matrix.cols
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    a = matrix.array
    col_norms = matrix.column_norms()
    vol_spec = CriterionSpec("volume")
    evaluated = 0

    current = None
    for _ in range(n * k):
        cand = np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)
        sigma, full = _batch_stats(_stack(a, cand[None, :]))
        evaluated += 1
        if full[0]:
            current = tuple(int(i) for i in cand)
            current_vol = float(np.prod(sigma[0]))
            break
    if current is None:
        raise InfeasibleError(
            f"no full-rank starting subset found after {n * k} seeded attempts"
        )

    for _ in range(max_sweeps):
        outside = [j for j in range(n) if j not in current]
        if not outside:
            break
        swaps = []
        for pos in range(k):
            for j in outside:
                swaps.append(tuple(sorted(current[:pos] + current[pos + 1:] + (j,))))
        idx = np.array(swaps, dtype=np.intp)
        ((vols, _),) = _batch_scores(a, col_norms, idx, [vol_spec])
        evaluated += len(swaps)
        best_row = int(np.argmax(vols))
        if vols[best_row] > current_vol * (1.0 + SWAP_IMPROVEMENT):
            current = swaps[best_row]
            current_vol = float(vols[best_row])
        else:
            break

    return SelectionResult(
        subset=ColumnSubset(current),
        value=CriterionValue(current_vol, vol_spec, k),
        method="local_swap",
        subsets_evaluated=evaluated,
        elapsed=time.perf_counter() - start,
    )


def select_greedy_forward(matrix: DenseMatrix, k: int, criterion: CriterionSpec) -> SelectionResult:
    """Grow the subset one column at a time, taking the best extension each step.

    Ties break toward the smallest column index.  Heuristic: no optimality
    guarantee.  Residual criteria are evaluated against the full matrix.
    """
    n = matrix.cols
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    start = time.perf_counter()
    a = matrix.array
    col_norms = matrix.column_norms()
    maximize = criterion.direction == "maximize"
    evaluated = 0

    chosen: tuple[int, ...] = ()
    for _ in range(k):
        remaining = [j for j in range(n) if j not in chosen]
        cands = [tuple(sorted(chosen + (j,))) for j in remaining]
        idx = np.array(cands, dtype=np.intp)
        ((vals, valid),) = _batch_scores(a, col_norms, idx, [criterion])
        evaluated += len(cands)
        row = _best_row(vals, valid, maximize)
        if row is None:
            raise InfeasibleError(
                f"every extension is rank-deficient for criterion {criterion.identifier!r}"
            )
        chosen = cands[row]
        last_value = float(vals[row])

    return SelectionResult(
        subset=ColumnSubset(chosen),
        value=CriterionValue(last_value, criterion, k),
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
    optimal = query.criterion.optimal_unit_value(query.k)
    if optimal is not None and math.isclose(query.b, optimal, rel_tol=0.0, abs_tol=1e-12):
        norms = matrix.column_norms()
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            warnings.warn(
                "threshold b equals the unit-column optimal value but the matrix "
                "does not have unit columns; the decision is still answered",
                stacklevel=2,
            )
    result = select_exact(matrix, query.k, query.criterion, threads=threads, allow_large=allow_large)
    answer = meets_threshold(query.criterion, result.value.value, query.b)
    return DecisionOutcome(answer=answer, witness=result.subset if answer else None)
