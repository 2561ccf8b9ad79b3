"""Exact and heuristic column subset selectors plus the decision-problem solver.

The exact selector enumerates all C(n, k) subsets in lexicographic order, in
the fewest chunks that fit a per-worker byte budget (``_CHUNK_BYTES``), each
unranked in closed form when its task runs, and folds the chunks' optima by
(value, indices) as they arrive, so ties resolve to the lexicographically
smallest index sequence at any thread count.  Every candidate of every
selector gets a value band from ``screen``, and ``_screened_best``, the one
certify path, runs only the candidates whose band could be the best through
the vectorized LAPACK SVD that gives the reported values, in slices within
the same budget (``_score_bytes``).  ``subsets_evaluated`` counts every
candidate considered, not only the ones the SVD certified.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .criteria import CriterionSpec, CriterionValue, batch_residuals, batch_values, evaluate
from .errors import InfeasibleError, InvalidInputError, InvalidParameterError
from .matrixkit import DenseMatrix, batch_svd, column_norms, gather_columns, unit_scaled
from .screen import ChunkScreen, extension_estimates, swap_estimates

DECISION_SLACK = 1e-9
SWAP_IMPROVEMENT = 1e-12
# The subsets an exhaustive search may enumerate without allow_large.  On one
# thread of a 2-vCPU x86 machine (4 MiB L2), at 12 rows, it scores 9.1e5
# (12 x 20, k = 11) to 4.6e6 (12 x 1000, k = 2) subsets/s for vol, whose pass
# factors its Gram blocks, 6.3e5 at k = 11 for pinv-norm, whose pass also
# inverts the factor, 4.5e5 at k = 11 for rvol, whose pass also brackets
# their largest eigenvalues, 6.0e5 and 5.7e5 at k = 11 for norm-two and
# srank, whose passes bracket them with no factor, and 7.0e5 to 9.9e5 for
# the residuals (k = 6, 11), whose pass reflects each distinct prefix of a
# chunk once and gathers no block; the spectral pass of gap's 12 criteria,
# which solves for the eigenvalues of each group of equal blocks, scores
# 1.6e5 at M = 8 (24 x 24, k = 8; 1.3e5 solving every block).  These are the
# best of several runs; the host's load moves single runs by up to a third.
# So a search within it takes at most about 11 s, with one known exception:
# res-two on a wide input, whose bands exclude few rows, so most go to the SVD
# of an m x n residual; a 12 x 1000 Gaussian at k = 2 (499,500 subsets)
# certifies 414,124 of them and takes about 223 s.
MAX_EXHAUSTIVE_SUBSETS = 10**6
# The bytes one exact-search worker's chunk may hold in its arrays
# (ChunkScreen.chunk_bytes), and one certification slice in its stacks
# (_score_bytes): a pass holds 0.78 to 1.0 times it at 12 x 20, k = 6 and
# x3c's M = 6, and the densest chunk of res-two at 12 x 1000, k = 2, 1.11
# times (tracemalloc, tests/test_chunk_budget.py).
_CHUNK_BYTES = 4 * 2**20


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


def _index_chunks(n: int, k: int, size: int, extra: int):
    """The function i -> chunk i of the k-combinations of range(n) in
    lexicographic order, as a (rows, k) index array: chunks of ``size``
    rows, one more in each of the first ``extra`` chunks, the last one cut
    at C(n, k).  (size, extra) = divmod(C(n, k), c) cuts them into c chunks
    whose sizes differ by at most one.

    Each chunk is unranked in closed form (combinatorial number system): the
    combination of lexicographic rank r is j -> n - 1 - j applied to the one
    of colex rank R = C(n, k) - 1 - r, whose largest element is the c with
    C(c, k) <= R < C(c + 1, k), and so on down with R - C(c, k).  The table
    of those binomials is built once, and its entries are clamped at
    C(n, k), above every rank, to fit in int64.
    """
    total = math.comb(n, k)
    table = np.array([[min(math.comb(c, j), total) for c in range(n)] for j in range(k, 0, -1)],
                     dtype=np.int64)

    def chunk(i):
        start = i * size + min(i, extra)
        rank = total - 1 - np.arange(start, min(start + size + (i < extra), total), dtype=np.int64)
        idx = np.empty((len(rank), k), dtype=np.intp)
        for pos, row in enumerate(table):
            c = np.searchsorted(row, rank, side="right") - 1
            rank -= row[c]
            idx[:, pos] = n - 1 - c
        return idx

    return chunk


def _score_bytes(m: int, n: int, k: int, specs) -> int:
    """Bytes per subset of the largest arrays ``_batch_scores`` forms for
    ``specs`` on an m x n matrix: the (B, m, k) stack and four (B, k)
    vectors of singular values and their powers, and for the residuals the
    SVD's U (B, m, k), U^T A (B, k, n), and the (B, m, n) product and
    residual."""
    floats = m * k + 4 * k
    if any(spec.residual_norm for spec in specs):
        floats += m * k + k * n + 2 * m * n
    return 8 * floats


def _batch_scores(a: np.ndarray, col_norms: np.ndarray, idx: np.ndarray, specs,
                  exponent: int = 0):
    """(values, valid) per spec for the subsets in ``idx`` of A / 2**exponent,
    whose column norms are ``col_norms``, A being ``a``; scored in the
    fewest slices of at most ``_CHUNK_BYTES`` (``_score_bytes``), with sizes
    at most one apart, so a rescore of a whole chunk stays within the
    budget.  Every subset's SVD is its own, so the slices change no bit of
    the result.  A non-finite value is never valid.
    """
    rows = max(1, _CHUNK_BYTES // _score_bytes(*a.shape, idx.shape[1], specs))
    if len(idx) <= rows:
        return _slice_scores(a, col_norms, idx, specs, exponent)
    parts = [_slice_scores(a, col_norms, part, specs, exponent)
             for part in np.array_split(idx, -(-len(idx) // rows))]
    return [tuple(map(np.concatenate, zip(*spec_parts))) for spec_parts in zip(*parts)]


def _slice_scores(a: np.ndarray, col_norms: np.ndarray, idx: np.ndarray, specs, exponent: int):
    """``_batch_scores`` of one slice.

    The singular-value criteria share one values-only batched SVD
    (``_divided_svd``); each residual takes the SVD with U instead.  An SVD
    runs only when a spec needs it.
    """
    sub = gather_columns(a, idx)
    stats = None
    scores = []
    for spec in specs:
        if spec.residual_norm is not None:
            vals = batch_residuals(a, sub, spec.residual_norm, exponent)
            scores.append((vals, np.isfinite(vals)))
            continue
        if stats is None:
            stats = _divided_svd(sub, exponent) + (col_norms[idx],)
        sigma, full, cn = stats
        scores.append(batch_values(spec, sigma, cn, full))
    return scores


def _divided_svd(sub: np.ndarray, exponent: int):
    """(sigma, full rank) of the (B, m, k) stack ``sub`` divided by
    2**exponent.  The SVD takes ``sub`` itself, as ``criteria.values``
    does, and its sigmas are divided exactly; a matrix whose sigma_1
    overflows float64 there is decomposed divided instead."""
    sigma, full = batch_svd(sub)
    if exponent:
        sigma = np.ldexp(sigma, -exponent)
        over = np.isinf(sigma[:, 0])
        if over.any():
            sigma[over], full[over] = batch_svd(np.ldexp(sub[over], -exponent))
    return sigma, full


def _best_row(vals: np.ndarray, valid: np.ndarray, maximize: bool) -> int | None:
    """Index of the first best valid row, or None when no row is valid."""
    filled = np.where(valid, vals, -np.inf if maximize else np.inf)
    row = int(np.argmax(filled)) if maximize else int(np.argmin(filled))
    return row if valid[row] else None


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


def _rescaled(spec: CriterionSpec, k: int, optimum, exponent: int):
    """An optimum (value, indices), or None, found on A / 2**exponent, as
    the optimum on A: its value times 2**(exponent * d) for the criterion's
    degree d, inf above float64 range and the rounded subnormal or 0 below
    it."""
    if optimum is None:
        return None
    value, idx = optimum
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, exponent * spec.degree(k))), idx


def _optimum_value(spec: CriterionSpec, k: int, optimum) -> CriterionValue:
    """The reported value of an exact optimum (value, indices); an optimum
    past float64 range raises InvalidInputError, which names its subset."""
    value, idx = optimum
    if math.isinf(value):
        raise InvalidInputError(f"criterion {spec.identifier!r}: the value of optimal subset "
                                f"{ColumnSubset(idx)} overflows float64")
    return CriterionValue(value, spec, k)


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
    bands every row's value for every spec (``ChunkScreen.bands``), and
    certifies the rows that could be its best with one batched SVD over the
    union of those rows for all specs (``_screened_best``), so optima,
    witnesses and the count equal those of an SVD of every subset.

    The subsets are cut into the fewest chunks, sizes at most one apart,
    whose arrays fit in ``_CHUNK_BYTES`` (``ChunkScreen.chunk_rows``) at any
    ``threads``.  Their ids map over one pool of min(``threads``, chunks)
    threads; each task unranks (``_index_chunks``) and reduces its chunk,
    and the optima fold by (value, indices) as they arrive (``_better``), so
    the witness is the lexicographically smallest optimal subset at any
    thread count and chunk size.

    The search runs at A's unit scale, on A / 2**e (``unit_scaled``): the
    bands and the certified values are those of the subsets of A / 2**e,
    which stay in float64 range at any uniform scale of A, and each optimum
    is rescaled once, by 2**(e d) for its criterion's degree d
    (``_rescaled``), to inf where it leaves float64 range.

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
    if not specs:
        raise InvalidParameterError("need at least one criterion")
    maximize = [spec.direction == "maximize" for spec in specs]
    a = matrix.array
    screen = ChunkScreen(a, specs, k)
    total = math.comb(n, k)
    chunks = -(-total // screen.chunk_rows(_CHUNK_BYTES))
    index_chunk = _index_chunks(n, k, *divmod(total, chunks))

    def chunk_optima(i):
        idx = index_chunk(i)
        return _screened_best(a, screen.col_norms, idx, specs, screen.bands(idx), screen.exponent)

    workers = min(threads, chunks)
    if workers == 1:
        optima = _merged(map(chunk_optima, range(chunks)), maximize)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            optima = _merged(pool.map(chunk_optima, range(chunks)), maximize)
    return [_rescaled(spec, k, best, screen.exponent) for spec, best in zip(specs, optima)], total


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
    return SelectionResult(
        subset=ColumnSubset(outcome[1]),
        value=_optimum_value(criterion, k, outcome),
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


def _outside(n: int, chosen) -> np.ndarray:
    """The sorted indices of range(n) not in ``chosen``, from a mask: not
    ``np.setdiff1d``, whose ``np.unique`` imports ``numpy.ma``, a megabyte."""
    keep = np.ones(n, dtype=bool)
    keep[np.asarray(chosen, dtype=np.intp)] = False
    return np.flatnonzero(keep)


def _moves(bases: np.ndarray, added: np.ndarray) -> np.ndarray:
    """Sorted rows base + (j,), per row of ``bases`` and then per j in ``added``."""
    return np.sort(np.column_stack([np.repeat(bases, len(added), axis=0),
                                    np.tile(added, len(bases))]), axis=1)


def _screened_best(a: np.ndarray, col_norms: np.ndarray, idx: np.ndarray, specs, bands,
                   exponent: int = 0):
    """Per spec, (value, indices) of the first best valid row of ``idx``, the
    optimum ``_better`` merges, or None when no row is valid; the subsets
    are those of A / 2**exponent, as ``_batch_scores`` scores them.

    ``bands`` holds one band (estimate, width) per spec, the one band
    contract: each row's SVD value is taken to lie within ``width`` of its
    ``estimate``, and a row whose estimate or width is not finite (no usable
    estimate) spans (-inf, inf).  The bands are stacked into (specs, rows)
    arrays, each spec's oriented so that larger is better, and one pass over
    them finds the rows whose band reaches their spec's best band: they join
    one union for all specs, certified by one SVD call, so a row without a
    usable estimate is always certified and never sets the cut.  The check
    that every certified value lies in its band is one pass too.  A width
    grows with the row's condition number, so a near-dependent row is
    certified rather than excluded.  When the union left rows out, a
    spec is rescored on every row if no certified row is valid or a
    certified value lies outside its band (which also catches estimates
    wrong as a whole, e.g. noise over volumes that are all 0).  The result
    equals that of scoring every row whenever each excluded row's value lies
    in its band, which the rounding bound is there to ensure.
    """
    maximize = [spec.direction == "maximize" for spec in specs]
    sign = np.where(maximize, 1.0, -1.0)[:, None]
    estimate, width = (np.concatenate(part).reshape(len(specs), -1) for part in zip(*bands))
    wide = ~(np.isfinite(estimate) & (width < np.inf))
    estimate[wide], width[wide] = 0.0, np.inf
    # every band oriented so that larger is better (a minimized spec's
    # estimate negated): a row can be its spec's best when its upper end
    # reaches the largest lower end
    estimate *= sign
    low = estimate - width
    high = np.add(estimate, width, out=estimate)
    union = (high >= low.max(axis=1, keepdims=True)).any(axis=0)
    certified, everything = idx.compress(union, axis=0), union.all()
    scores = _batch_scores(a, col_norms, certified, specs, exponent)
    oriented = sign * np.concatenate([vals for vals, _ in scores]).reshape(len(specs), -1)
    low, high = low.compress(union, axis=1), high.compress(union, axis=1)
    inside = ((low <= oriented) & (oriented <= high)).all(axis=1)
    out = []
    for spec, larger, held, (vals, valid) in zip(specs, maximize, inside, scores):
        cands, best = certified, _best_row(vals, valid, larger)
        if not (everything or best is not None and held):
            ((vals, valid),) = _batch_scores(a, col_norms, idx, [spec], exponent)
            cands, best = idx, _best_row(vals, valid, larger)
        out.append(None if best is None else (float(vals[best]), tuple(map(int, cands[best]))))
    return out


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
    the current selection (``swap_estimates``) and certifies the near-best
    by the batched SVD (``_screened_best``, which states when the result
    equals an SVD of every swap).  ``subsets_evaluated`` counts the start
    draws (plus greedy's count when it gives the start) and every swap
    considered, k(n - k) per sweep, whether or not its SVD ran.

    The ascent runs at A's unit scale, as exact search does: the volume is
    rescaled once, and one past float64 range raises InvalidInputError,
    which names the subset.
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
    unit, exponent = unit_scaled(a)
    col_norms = column_norms(unit)
    vol_spec = CriterionSpec("vol")
    evaluated = 0

    def full_rank_volume(cand):
        """The volume of a[:, cand] / 2**exponent, or None when it is rank-deficient."""
        idx = np.array([cand], dtype=np.intp)
        sigma, full = _divided_svd(gather_columns(a, idx), exponent)
        vols, _ = batch_values(vol_spec, sigma, col_norms[idx], full)
        return float(vols[0]) if full[0] else None

    for _ in range(n * k):
        current = tuple(int(i) for i in np.sort(rng.choice(n, size=k, replace=False)))
        evaluated += 1
        if (current_vol := full_rank_volume(current)) is not None:
            break
    else:
        ((_, current), count) = _greedy_steps(a, unit, exponent, col_norms, k, vol_spec)
        evaluated += count
        current_vol = full_rank_volume(current)
    if current_vol is None:
        raise InfeasibleError(
            f"no full-rank starting subset found after {n * k} seeded attempts or by greedy vol"
        )

    for _ in range(max_sweeps):
        outside = _outside(n, current)
        if not len(outside):
            break
        kept = np.array([current[:pos] + current[pos + 1:] for pos in range(k)], dtype=np.intp)
        idx = _moves(kept, outside)
        band = swap_estimates(unit, current, outside, current_vol)
        (best,) = _screened_best(a, col_norms, idx, [vol_spec], [band], exponent)
        evaluated += len(idx)
        # no swap is valid where every volume overflows
        if best is None or not best[0] > current_vol * (1.0 + SWAP_IMPROVEMENT):
            break
        current_vol, current = best

    return SelectionResult(
        subset=ColumnSubset(current),
        value=_optimum_value(vol_spec, k, _rescaled(vol_spec, k, (current_vol, current), exponent)),
        method="local_swap",
        subsets_evaluated=evaluated,
        elapsed=time.perf_counter() - start,
    )


def select_greedy_forward(matrix: DenseMatrix, k: int, criterion: CriterionSpec) -> SelectionResult:
    """Grow the subset one column at a time, taking the best extension each step.

    Ties break toward the smallest column index.  Heuristic: no optimality
    guarantee.  Residual criteria are evaluated against the full matrix.
    For vol and res-frobenius each step estimates every extension from the
    part of A outside the chosen columns (``extension_estimates``, a
    column-pivoted-QR-style sweep) and certifies the near-best by the
    batched SVD (``_screened_best``, which states when the result equals an
    SVD of every extension).  The other criteria score every extension.
    ``subsets_evaluated`` counts every extension considered, whether or not
    its SVD ran.  The steps run at A's unit scale, as exact search does: the
    value is rescaled once, and one past float64 range raises
    InvalidInputError, which names the subset.  A step whose every extension
    is rank-deficient raises InfeasibleError, which names the columns chosen
    so far: ties go to the smallest index, so a step can take a column that
    leaves no full-rank extension where another of equal value would have.
    """
    n = matrix.cols
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    start = time.perf_counter()
    unit, exponent = unit_scaled(matrix.array)
    best, evaluated = _greedy_steps(matrix.array, unit, exponent, column_norms(unit), k, criterion)
    return SelectionResult(
        subset=ColumnSubset(best[1]),
        value=_optimum_value(criterion, k, _rescaled(criterion, k, best, exponent)),
        method="greedy_forward",
        subsets_evaluated=evaluated,
        elapsed=time.perf_counter() - start,
    )


def _greedy_steps(a: np.ndarray, unit: np.ndarray, exponent: int, col_norms: np.ndarray, k: int,
                  criterion: CriterionSpec):
    """Greedy forward selection on A / 2**exponent = ``unit``, whose column
    norms are ``col_norms``: ((value, chosen) there, extensions considered)."""
    evaluated, chosen, value = 0, (), 1.0  # the volume of no columns
    for _ in range(k):
        remaining = _outside(a.shape[1], chosen)
        idx = _moves(np.array([chosen], dtype=np.intp), remaining)
        band = extension_estimates(criterion, unit, chosen, remaining, value)
        (best,) = _screened_best(a, col_norms, idx, [criterion], [band], exponent)
        evaluated += len(idx)
        if best is None:
            named = ",".join(map(str, chosen)) or "none"
            raise InfeasibleError(
                f"every extension of the columns chosen so far ({named}) is rank-deficient for "
                f"criterion {criterion.identifier!r}; greedy takes the smallest column index "
                "among equal values"
            )
        value, chosen = best
    return (value, chosen), evaluated


def meets_threshold(value: float, b: float, maximize: bool) -> bool:
    """Whether ``value`` reaches threshold ``b`` from above when ``maximize``,
    else from below, up to a slack of ``DECISION_SLACK * b``: the one
    decision rule, which the X3C checks share."""
    if maximize:
        return value >= b - DECISION_SLACK * b
    return value <= b + DECISION_SLACK * b


def decide(matrix: DenseMatrix, query: DecisionQuery, threads: int = 1,
           allow_large: bool = False) -> DecisionOutcome:
    """Answer a threshold decision problem by exhaustive selection
    (``exact_optima``): no when no k-subset is feasible for the criterion,
    and an error that names the subset for an optimum past float64 range.

    Comparisons use a slack of 1e-9 relative to the threshold b
    (``meets_threshold``), strictly smaller than every separation the
    reduction harness needs to distinguish, at any scale of b.
    """
    (outcome,), _ = exact_optima(matrix, query.k, [query.criterion], threads=threads,
                                 allow_large=allow_large)
    value = None if outcome is None else _optimum_value(query.criterion, query.k, outcome).value
    optimal = query.criterion.optimal_unit_value(query.k)
    if optimal is not None and math.isclose(query.b, optimal, rel_tol=0.0, abs_tol=1e-12):
        norms = matrix.column_norms()
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            warnings.warn(
                "threshold b equals the unit-column optimal value but the matrix "
                "does not have unit columns; the decision is still answered",
                stacklevel=2,
            )
    answer = value is not None and meets_threshold(value, query.b,
                                                   query.criterion.direction == "maximize")
    return DecisionOutcome(answer=answer, witness=ColumnSubset(outcome[1]) if answer else None)
