"""Exact and heuristic column subset selectors plus the decision-problem solver.

The exact selector enumerates all C(n, k) subsets in lexicographic order,
in chunks of stacked submatrices, each unranked in closed form from its first
rank.  A chunk holds as many subsets as fit in a per-worker byte budget
(``_CHUNK_BYTES``, counted by ``_chunk_bytes`` from the arrays the pass
holds at once), so a pass of small arrays takes few large chunks and few
numpy calls.  Every subset of a chunk gets estimates from its k x k block of the
shared Gram matrix A^T A, held in one ``GramSpectrum`` per chunk from which
every criterion of the pass reads its band, so each power sum, sigma_1,
sigma_k and det is formed once per chunk, whatever the number of criteria.
The chunk's blocks are gathered once, as one (k, k, B) array.  A pass
whose criteria are all Gram-invariant (vol, rvol, sopt, norm-two, and
norm, pinv-norm, cond and srank at p = 2 or 4) or residuals fills the
spectrum from a Cholesky factor of that array, formed a column of every
block at a time, with a bracket on each block's largest eigenvalue from
repeated squaring where a criterion reads it; a block that fails to
factor leaves only its own row unproven, for the SVD to certify.  Any
other pass (p = 3, or sigma_k alone: every x3c pass) fills it from one
batched eigensolve.  Residual estimates come from one batched QR of the
subsets' columns.  Only the subsets whose estimated value could be the
chunk's best run through the vectorized LAPACK SVD that gives the reported
values, in slices within the same budget (``_score_bytes``).  Each worker
thread reduces every workers-th chunk on its own, the workers being the
threads asked for but never more than the chunks, and optima merge by
(value, indices), so ties resolve to the lexicographically smallest index
sequence at any thread count.

The heuristic selectors (forward greedy for vol and res-frobenius, and the
local swap) estimate every candidate from one rank-one projection of the
current selection (``_projection``) and certify the same way.  Every band
is (estimate, width), one that is not finite marking no usable estimate,
and ``_screened_best`` is the one certify path.  ``subsets_evaluated`` counts
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
    GramSpectrum,
    batch_bands,
    batch_residuals,
    batch_values,
    evaluate,
)
from .errors import InfeasibleError, InvalidParameterError
from .matrixkit import DenseMatrix, batch_svd, default_rank_tolerance, gather_columns

DECISION_SLACK = 1e-9
SWAP_IMPROVEMENT = 1e-12
# How far an estimate may sit from the SVD value: relative, and for the
# residuals also absolute, in units of ||A||_F (see _residual_width); on top,
# ROUNDING * k * kappa^2 relative for a k-column candidate whose condition
# number is at most kappa (see _screened_best).  The exact selector's Gram
# eigenvalues get ROUNDING * (m + k) * k * sigma_1^2 (see _gram_estimates),
# and its Cholesky estimates a multiple of that (see _cholesky_estimates).
SCREEN_MARGIN = 1e-6
RESIDUAL_SLACK = 1e-6
ROUNDING = 1e-14
# The subsets an exhaustive search may enumerate without allow_large.  On one
# thread of a 2-vCPU x86 machine (4 MiB L2), at 12 rows, it scores 7.1e5
# (12 x 20, k = 11) to 4.6e6 (12 x 1000, k = 2) subsets/s for vol, whose pass
# factors its Gram blocks, 4.8e5 at k = 11 for pinv-norm, whose pass also
# inverts the factor, 2.4e5 at k = 11 for rvol, whose pass also brackets
# their largest eigenvalues, and 0.9e5 to 1.5e5 for the residuals (k = 11,
# 6); the spectral pass of gap's 12 criteria, which solves for the blocks'
# eigenvalues, scores 1.3e5 at M = 8 (24 x 24, k = 8).  These are the best
# of several runs; the host's load moves single runs by up to a third.  So
# a search within it takes at most about 11 s.
MAX_EXHAUSTIVE_SUBSETS = 10**6
# The bytes one exact-search worker's chunk may hold in its arrays
# (_chunk_bytes), and one certification slice in its stacks (_score_bytes):
# a pass holds 0.74 to 1.21 times it at 12 x 20, k = 6 and x3c's M = 6
# (tracemalloc, tests/test_chunk_budget.py).
_CHUNK_BYTES = 4 * 2**20
# _top_bracket's normalized squarings: the traces of H^16 and H^32
_SQUARINGS = 5


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


def _index_chunks(n: int, k: int, chunk_size: int, first: int = 0, stride: int = 1,
                  extra: int = 0):
    """Chunks ``first``, ``first + stride``, ... of the k-combinations of
    range(n) in lexicographic order, as (rows, k) index arrays of
    ``chunk_size`` rows, one more in each of the first ``extra`` chunks; the
    last chunk may be shorter, and no chunk is empty.  (chunk_size, extra) =
    divmod(C(n, k), c) cuts them into c chunks (fewer when c > C(n, k)) whose
    sizes differ by at most one.

    Each chunk is unranked in closed form (combinatorial number system): the
    combination of lexicographic rank r is j -> n - 1 - j applied to the one
    of colex rank R = C(n, k) - 1 - r, whose largest element is the c with
    C(c, k) <= R < C(c + 1, k), and so on down with R - C(c, k).  Table
    entries are clamped at C(n, k), above every rank, to fit in int64.
    """
    total = math.comb(n, k)
    table = np.array([[min(math.comb(c, j), total) for c in range(n)] for j in range(k, 0, -1)],
                     dtype=np.int64)
    for i in range(first, total, stride):
        start = i * chunk_size + min(i, extra)
        if start >= total:
            break
        stop = min(start + chunk_size + (i < extra), total)
        rank = total - 1 - np.arange(start, stop, dtype=np.int64)
        chunk = np.empty((len(rank), k), dtype=np.intp)
        for pos, row in enumerate(table):
            c = np.searchsorted(row, rank, side="right") - 1
            rank -= row[c]
            chunk[:, pos] = n - 1 - c
        yield chunk


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


def _batch_scores(a: np.ndarray, col_norms: np.ndarray, idx: np.ndarray, specs):
    """(values, valid) per spec for the subsets in ``idx``, scored in the
    fewest slices of at most ``_CHUNK_BYTES`` (``_score_bytes``), with sizes
    at most one apart, so a rescore of a whole chunk stays within the
    budget.  Every subset's SVD is its own, so the slices change no bit of
    the result.
    """
    rows = max(1, _CHUNK_BYTES // _score_bytes(*a.shape, idx.shape[1], specs))
    if len(idx) <= rows:
        return _slice_scores(a, col_norms, idx, specs)
    parts = [_slice_scores(a, col_norms, part, specs)
             for part in np.array_split(idx, -(-len(idx) // rows))]
    return [tuple(map(np.concatenate, zip(*spec_parts))) for spec_parts in zip(*parts)]


def _slice_scores(a: np.ndarray, col_norms: np.ndarray, idx: np.ndarray, specs):
    """``_batch_scores`` of one slice.

    The singular-value criteria share one values-only batched SVD; each
    residual takes the SVD with U instead.  An SVD runs only when a spec
    needs it.
    """
    sub = gather_columns(a, idx)
    stats = None
    scores = []
    for spec in specs:
        if spec.residual_norm is not None:
            scores.append((batch_residuals(a, sub, spec.residual_norm),
                           np.ones(len(idx), dtype=bool)))
            continue
        if stats is None:
            stats = batch_svd(sub) + (col_norms[idx],)
        sigma, full, cn = stats
        scores.append(batch_values(spec, sigma, cn, full))
    return scores


def _best_row(vals: np.ndarray, valid: np.ndarray, maximize: bool) -> int | None:
    """Index of the first best valid row, or None when no row is valid."""
    filled = np.where(valid, vals, -np.inf if maximize else np.inf)
    row = int(np.argmax(filled)) if maximize else int(np.argmin(filled))
    return row if valid[row] else None


def _proven(m: int, k: int, top: np.ndarray, bottom: np.ndarray, rel: np.ndarray):
    """(rel, kappa) for estimates ``top`` of sigma_1 and ``bottom`` of sigma_k
    of m x k submatrices, each within a factor 1 -+ ``rel`` of the SVD's:
    rel, and the condition-number bound top (1 + rel) / (bottom (1 - rel)),
    NaN and inf for a row whose full column rank the estimates do not prove
    (the SVD path's rank test, applied to the bounds)."""
    high, low = top * (1.0 + rel), bottom * (1.0 - rel)
    proven = (m >= k) & (low > default_rank_tolerance(m, k, high))
    return np.where(proven, rel, np.nan), np.where(proven, high / low, np.inf)


def _blocks(gram: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows' k x k blocks of ``gram`` as one (k, k, B) array, entry
    (i, j, b) = gram[idx[b, i], idx[b, j]], so each entry of every block is
    one contiguous vector over the chunk.  One gather, whose innermost
    index runs over the chunk."""
    cols = np.ascontiguousarray(idx.T)
    return gram[cols[:, None, :], cols[None, :, :]]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _gram_estimates(gram: np.ndarray, scale: float, m: int, idx: np.ndarray):
    """(spectrum, kappa): a ``GramSpectrum`` of the eigenvalues of each
    submatrix a[:, idx[b]], with a bound rel on the relative error of its
    sigmas against the SVD's values, and a bound on its condition number;
    a row whose full column rank the estimate does not prove (``_proven``)
    has a NaN rel and NaN eigenvalues, and an infinite kappa.

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
    lam = np.linalg.eigvalsh(np.moveaxis(_blocks(gram, idx), -1, 0))[:, ::-1][:, :r]
    err = ROUNDING * (m + k) * k * lam[:, 0] + m * k * np.finfo(np.float64).smallest_normal
    lam = np.maximum(lam, 0.0)
    rel, kappa = _proven(m, k, np.sqrt(lam[:, 0]) * scale, np.sqrt(lam[:, -1]) * scale,
                         err / lam[:, -1])
    lam[np.isnan(rel)] = np.nan
    return GramSpectrum(rel, scale, k, eigenvalues=lam), kappa


def _cholesky(h: np.ndarray) -> np.ndarray:
    """Each block H of a (k, k, B) array ``h`` (``_blocks``) overwritten by
    its lower-triangular factor L, L L^T = H, and returned; a column of
    every block at a time: column j is c / sqrt(c_j), c = h[j:, j] - the
    sum over l < j of L[j:, l] L[j, l].  A block whose pivot c_j is not
    positive gets NaN from that column on; the other blocks are untouched
    by it.
    """
    k = len(h)
    for j in range(k):
        col = h[j:, j] - np.einsum("ilb,lb->ib", h[j:, :j], h[j, :j])
        h[j:, j] = col / np.sqrt(np.where(col[0] > 0.0, col[0], np.nan))
    h[np.triu_indices(k, 1)] = 0.0
    return h


def _inverse_traces(lower: np.ndarray):
    """(tr H^-1, tr H^-2) for each H = L L^T of a (k, k, B) array of
    lower-triangular factors L (``_cholesky``), which is overwritten.

    X = L^-1 takes L's place by forward substitution, a row of every block
    at a time, X_i = (e_i - sum over l < i of L_il X_l) / L_ii.  Then
    H^-1 = X^T X, whose entry (i, j) is the sum of X_li X_lj over
    l >= i, j; it is formed a row at a time, j <= i, and
    tr H^-2 = ||X^T X||_F^2 counts each entry off the diagonal twice.
    """
    x = lower
    for i in range(len(x)):
        x[i, :i] = -np.einsum("lb,ljb->jb", lower[i, :i], x[:i, :i]) / lower[i, i]
        x[i, i] = 1.0 / lower[i, i]
    first = second = 0.0
    for i in range(len(x)):
        row = np.einsum("lb,ljb->jb", x[i:, i], x[i:, :i + 1])  # (X^T X)_ij, j <= i
        first = first + row[i]
        row *= row
        second = second + 2.0 * np.sum(row, axis=0) - row[i]
    return first, second


@np.errstate(divide="ignore", invalid="ignore", under="ignore")
def _top_bracket(h: np.ndarray):
    """(lo, hi) with lo <= lambda_max(H) <= hi for each H of a (B, d, d) stack
    ``h`` of symmetric positive semidefinite blocks, both 0 for a zero block.
    The squarings overwrite ``h``: they take turns between it and one more
    array of its size.

    With t_q = tr H^q, lambda_max^32 <= t_32 <= lambda_max^16 t_16, so
    lo = (t_32 / t_16)^(1/16) and hi = t_32^(1/32).  The traces come from
    ``_SQUARINGS`` normalized squarings: X_0 = H / tr H and
    X_j = X_(j-1)^2 / c_j with c_j = tr X_(j-1)^2, so every X_j has trace 1
    and 1/d <= c_j <= 1, and the traces are carried as logs,
    log t_(2^j) / 2^j = log tr H + sum over i <= j of 2^-i log c_i, which
    neither over- nor underflow.  The last c_5 = ||X_4||_F^2 = t_32 / t_16^2
    needs no product, and hi / lo = c_5^(-1/32): 1 where lambda_max is well
    separated (c_5 -> 1), and at most d^(1/32) (5% at d = 5) where it is
    multiple.

    Rounding (u = eps / 2, gamma_n = n u / (1 - n u)).  The computed X_j
    differs from X_(j-1)^2 / c_j by at most gamma_(d+1) |X_(j-1)|^2 / c_j
    entrywise (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.5), a matrix of Frobenius norm at most gamma_(d+1), since
    || |X|^2 ||_F <= ||X||_F^2 = c_j; so each squaring moves the eigenvalues
    of X_j by at most gamma_(d+1) (Weyl), at most d gamma_(d+1) relative to
    lambda_max(X_j) >= tr X_j / d = 1 / d, and the same bound puts each
    computed c_j within gamma_d, and c_5 within gamma_(d^2), relative.
    Squaring j enters log lambda_max(H) = log tr H + sum over i <= j of
    2^-i log c_i + 2^-j log lambda_max(X_j) with the weight 2^-j, and the
    weights sum to less than 2, so to first order log lo and log hi bracket
    log lambda_max of the block given within 2 (d gamma_(d+1) + gamma_(d^2))
    <= 2 d (d + 1) eps.
    """
    c = np.einsum("bii->b", h)
    positive = c > 0.0
    c = np.where(positive, c, 1.0)
    log_root = np.log(c)  # log t_(2^j) / 2^j, for j = 0 so far
    x, y = h, np.empty_like(h)
    x /= c[:, None, None]
    for j in range(1, _SQUARINGS):
        np.matmul(x, x, out=y)
        c = np.einsum("bii->b", y)
        log_root += np.log(c) / 2**j
        y /= c[:, None, None]
        x, y = y, x
    last = np.log(np.einsum("bij,bij->b", x, x))  # log c_5
    weight = 2.0 ** (1 - _SQUARINGS)  # 1/16
    lo, hi = np.exp(log_root + last * weight), np.exp(log_root + last * weight / 2)
    return np.where(positive, lo, 0.0), np.where(positive, hi, 0.0)


@np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore")
def _cholesky_estimates(gram: np.ndarray, scale: float, m: int, idx: np.ndarray, inverse: bool,
                        top: bool):
    """(spectrum, kappa) as ``_gram_estimates`` gives them, with the
    spectrum's Cholesky invariants (NaN where rel is), from one (k, k, B)
    array of the rows' k x k blocks G_b of ``gram`` (``_blocks``), each
    shifted to H = G_b + delta I and factored L L^T = H a column of every
    block at a time (``_cholesky``); the traces of L^-1 are formed only
    when ``inverse``, and the largest eigenvalue of H (``_top_bracket``, on
    a (B, k, k) copy of the shifted blocks) only when ``top``.  A block
    whose pivot is not positive gets a NaN factor, so its row alone is
    unproven (NaN rel) and goes to the SVD.

    The width.  delta = ROUNDING * (m + k) * k * tr G_b (plus the underflow
    term) is the bound of ``_gram_estimates`` with tr G_b for sigma_1^2
    (tr G_b >= sigma_1^2 - k delta, a second-order gap that the margin of
    ROUNDING over the measured rounding absorbs), so Gram formation and the
    SVD's own rounding leave each eigenvalue of G_b within delta of the
    SVD's sigma_i^2 (at unit scale), and sigma_1^2 <= tr H.  H's eigenvalues are therefore within
    [sigma_i^2, sigma_i^2 + 2 delta]: at least delta, which keeps the
    factorization of a singular block from breaking down (it needs about
    k^2 eps lambda_1(H), and ROUNDING is about 45 eps).  The computed L is
    the exact factor of H + E with ||E||_2 <= (k + 1) eps tr H / (1 -
    (k + 1) eps) <= delta (Cholesky backward error; Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3, which holds for any order
    of the sums in ``_cholesky``'s columns), so the eigenvalues nu_i of
    L L^T, which ``root_det`` = prod diag L and the inverse traces describe,
    lie within [sigma_i^2 - delta, sigma_i^2 + 3 delta], while tr H and
    ||H||_F^2 hold H's own.  For nu_low <= every nu_i, rel = 4 delta / nu_low
    bounds |sigma_i^2 - nu_i| / nu_i, so sigma_i lies within 1 -+ rel of
    sqrt(nu_i), with delta / nu_low to spare.  The spare is at least
    45 (m + k) k eps kappa(H); it covers the forward error of the triangular
    inverse, about k eps kappa(L) relative with kappa(L)^2 = kappa(L L^T)
    (Higham, section 14.2), the rounding of the traces, of nu_low and of the
    value functions, and the 2 k (k + 1) eps of ``_top_bracket``.
    ``batch_bands`` carries rel through the kind's ``log_lipschitz``.

    The largest eigenvalue.  ``_top_bracket`` gives lo <= lambda_max(H) <= hi,
    and sigma_1^2 lies within [lambda_max(H) - 2 delta, lambda_max(H)], so
    sigma_1 lies within 1 -+ r of the midpoint s of [sqrt(lo), sqrt(hi)],
    r = (sqrt(hi) - sqrt(lo)) / (sqrt(hi) + sqrt(lo)), up to the 2 delta
    that the spare holds; ``top`` is s^2, and the row's rel grows by r.

    nu_low is 1 / tr (L L^T)^-1 with the inverse, and otherwise the
    determinant bound min(D) det(S) ((k - 1) / k)^(k - 1), where D is the
    diagonal of L L^T and S = D^-1/2 L L^T D^-1/2: S has unit diagonal, so
    AM-GM over its other k - 1 eigenvalues, which sum to at most k, bounds
    its smallest one, and nu_min >= min(D) lambda_min(S).  The rank proof
    and kappa take sqrt(tr H) for sigma_1 and sqrt(nu_low) for sigma_k.
    """
    k = idx.shape[1]
    h = _blocks(gram, idx)
    diagonal = h.reshape(k * k, -1)[:: k + 1]  # a view of every block's diagonal
    trace = np.sum(diagonal, axis=0)
    delta = ROUNDING * (m + k) * k * trace + m * k * np.finfo(np.float64).smallest_normal
    diagonal += delta
    traces = {1: trace + k * delta, 2: np.einsum("ijb,ijb->b", h, h)}
    spread, largest = 0.0, None  # r and s^2 of the largest eigenvalue's bracket
    if top:
        low1, high1 = np.sqrt(_top_bracket(np.moveaxis(h, -1, 0).copy()))
        spread, largest = (high1 - low1) / (high1 + low1), ((low1 + high1) / 2.0) ** 2
    lower = _cholesky(h)
    pivots = lower.reshape(k * k, -1)[:: k + 1]
    root_det = np.prod(pivots, axis=0)
    if inverse:  # the inverse takes the factor's place
        traces[-1], traces[-2] = _inverse_traces(lower)
        low = 1.0 / traces[-1]
    else:
        d = np.einsum("ilb,ilb->ib", lower, lower)
        low = np.min(d, axis=0) * np.prod(pivots**2 / d, axis=0) * ((k - 1) / k) ** (k - 1)
    rel, kappa = _proven(m, k, np.sqrt(traces[1]) * scale, np.sqrt(low) * scale,
                         4.0 * delta / low + spread)
    unproven = np.isnan(rel)
    for invariant in [root_det, *traces.values()] + ([largest] if top else []):
        invariant[unproven] = np.nan
    return GramSpectrum(rel, scale, k, root_det=root_det, traces=traces, top=largest), kappa


def _factored_parts(specs):
    """How ``_chunk_bands`` bands a pass over ``specs``: None when it solves
    for the blocks' eigenvalues, and otherwise (inverse, top) for its
    Cholesky factors, whether it also forms the inverse's traces
    (pinv-norm, cond) and the bracket on the largest eigenvalue (rvol,
    norm-two, srank)."""
    if not all(spec.gram_invariant or spec.residual_norm for spec in specs):
        return None
    return (any(spec.kind in ("pinv-norm", "cond") for spec in specs),
            any(spec.kind in ("rvol", "srank") or spec.kind == "norm" and spec.p == math.inf
                for spec in specs))


def _chunk_bytes(m: int, n: int, k: int, specs) -> int:
    """Bytes per subset of the arrays one chunk of a pass over ``specs`` on
    an m x n matrix holds at once, certification slices aside
    (``_score_bytes``).  The estimates hold the (k, k, B) blocks, with
    ``_top_bracket``'s two (B, k, k) buffers on a factored pass that
    brackets the largest eigenvalue.  The residuals, once the estimates are
    formed, hold the (B, m', m') complete Q of ``_residual_bands``,
    m' = min(m, n) being the rows of ``_residual_basis``, beside the larger
    of three arrays of the (B, m', k) stack's size (the stack, the QR's
    working copy and its R) and the (B, m' - k, n) tail.  Throughout, a
    chunk holds four (B, k) arrays (its indices, their transpose, their
    column norms and the certified rows' copy) and four (B,) vectors per
    spec: its band (estimate, width) and the band stacked
    (``_screened_best``)."""
    parts = _factored_parts(specs)
    floats = k * k * (3 if parts and parts[1] else 1)
    if any(spec.residual_norm for spec in specs):
        rows = min(m, n)
        floats = max(floats, rows * rows + max(3 * rows * k, max(rows - k, 0) * n))
    return 8 * (floats + 4 * k + 4 * len(specs))


def _chunk_plan(total: int, rows: int, threads: int):
    """(workers, chunks) for ``total`` subsets: the fewest chunks of at most
    ``rows`` subsets, rounded up to a multiple of the workers, which are
    ``threads`` but never more than those fewest chunks."""
    needed = -(-total // rows)
    workers = min(threads, needed)
    return workers, workers * -(-needed // workers)


def _chunk_bands(gram: np.ndarray, scale: float, m: int, col_norms: np.ndarray, basis,
                 idx: np.ndarray, specs):
    """Each spec's band (estimate, width) of the m x k submatrices a[:, idx[b]]:
    from one ``GramSpectrum`` of their blocks of ``gram`` = (a / scale)^T
    (a / scale) (``batch_bands``), and the residuals' from the
    ``_residual_basis`` ``basis`` (``_residual_bands``).  The blocks are
    factored (``_cholesky_estimates``, with the inverse's traces only for
    pinv-norm and cond, and the bracket on the largest eigenvalue only for
    rvol, norm-two and srank) when every spec is ``gram_invariant`` or a
    residual, a block that fails to factor leaving only its own row
    unproven; otherwise their eigenvalues are solved for
    (``_gram_estimates``).
    """
    parts = _factored_parts(specs)
    if parts is None:
        spectrum, kappa = _gram_estimates(gram, scale, m, idx)
    else:
        spectrum, kappa = _cholesky_estimates(gram, scale, m, idx, *parts)
    norms = {spec.residual_norm for spec in specs} - {None}
    residual = _residual_bands(basis, scale, idx, kappa, norms) if norms else {}
    cn = col_norms[idx]
    return [residual[spec.residual_norm] if spec.residual_norm else batch_bands(spec, spectrum, cn)
            for spec in specs]


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
    forms one ``GramSpectrum`` of its blocks of the Gram matrix of A at unit
    scale, bands every row's value for every spec from it and, for the
    residuals, from a QR of each subset (``_chunk_bands``), and certifies the
    rows that could be its best with one batched SVD over the union of those
    rows for all specs (``_screened_best``), so optima, witnesses and the
    count equal those of an SVD of every subset.

    A chunk holds as many subsets as fit in ``_CHUNK_BYTES`` of the arrays
    the pass holds at once (``_chunk_bytes``).  The workers are
    ``threads``, but never more than the chunks that budget needs, so no
    thread starts without a chunk; the chunk count is rounded up to a
    multiple of the workers, with sizes that differ by at most one
    (``_chunk_plan``).  Each worker unranks and
    reduces every workers-th chunk (``_index_chunks``) on its own, and the
    workers' optima merge by (value, indices) (``_better``): the witness is
    the lexicographically smallest optimal subset at any thread count and
    any chunk size.

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
    basis = _residual_basis(unit) if any(spec.residual_norm for spec in specs) else None
    total = math.comb(n, k)
    rows = max(1, _CHUNK_BYTES // _chunk_bytes(*a.shape, k, specs))
    workers, chunks = _chunk_plan(total, rows, threads)
    size, extra = divmod(total, chunks)

    def chunk_optima(idx):
        bands = _chunk_bands(gram, scale, a.shape[0], col_norms, basis, idx, specs)
        return _screened_best(a, col_norms, idx, specs, bands)

    def reduce_stride(first):
        strided = _index_chunks(n, k, size, first, workers, extra)
        return _merged(map(chunk_optima, strided), maximize)

    if workers == 1:
        return reduce_stride(0), total
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _merged(pool.map(reduce_stride, range(workers)), maximize), total


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
def _residual_bands(basis, scale: float, idx: np.ndarray, kappa: np.ndarray, norms) -> dict:
    """Band (estimate, width) of ||(I - P_C) A|| for each subset of ``idx``,
    per residual norm in ``norms`` ("two", "frobenius"), from the
    ``_residual_basis`` of A / ``scale``.

    A complete QR of each C = [Q1, Q2] R gives (I - P_C) A = Q2 Q2^T A for a
    full-rank C: res-frobenius is ||Q2^T A||_F and res-two the square root
    of the largest eigenvalue of its Gram on the smaller side, whose
    ``_top_bracket`` [lo, hi] gives the midpoint of [sqrt(lo), sqrt(hi)] as
    the estimate and half its length on top of the width (its rounding, a
    relative 2 d (d + 1) eps for a d x d Gram, is far inside the width's
    ``SCREEN_MARGIN``); A's stand-in B has the same residual norms, so Q2
    never has more entries than A.
    ``kappa`` bounds C's condition number, which sets the rounding in the
    width (``_residual_width``); it is inf for a row whose full column rank
    the chunk's estimates do not prove, whose width is then infinite, since
    ``batch_residuals`` truncates its rank and the QR does not.  The width
    also holds the underflow bound.
    """
    unit, norm2, underflow = basis
    k = idx.shape[1]
    q = np.linalg.qr(gather_columns(unit, idx), mode="complete")[0]
    # Q2^T A has at most n rows, so its Gram on the smaller side is tail tail^T
    tail = np.swapaxes(q[:, :, k:], 1, 2) @ unit
    del q  # freed before res-two's bracket allocates
    rounding = _rounding(k, kappa)
    bands = {}
    for norm in norms:
        if norm == "frobenius":
            estimate, spread = np.sqrt(np.sum(tail**2, axis=(1, 2))), 0.0
        elif tail.shape[1]:
            low, high = np.sqrt(_top_bracket(tail @ np.swapaxes(tail, 1, 2)))
            estimate, spread = (low + high) / 2.0, (high - low) / 2.0
        else:
            estimate = spread = np.zeros(len(idx))
        width = scale * (_residual_width(estimate, norm2, rounding) + spread) + underflow
        bands[norm] = scale * estimate, np.where(np.isfinite(kappa), width, np.inf)
    return bands


def _screened_best(a: np.ndarray, col_norms: np.ndarray, idx: np.ndarray, specs, bands):
    """Per spec, (value, indices) of the first best valid row of ``idx``, the
    optimum ``_better`` merges, or None when no row is valid.

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
    scores = _batch_scores(a, col_norms, certified, specs)
    oriented = sign * np.concatenate([vals for vals, _ in scores]).reshape(len(specs), -1)
    low, high = low.compress(union, axis=1), high.compress(union, axis=1)
    inside = ((low <= oriented) & (oriented <= high)).all(axis=1)
    out = []
    for spec, larger, held, (vals, valid) in zip(specs, maximize, inside, scores):
        cands, best = certified, _best_row(vals, valid, larger)
        if not (everything or best is not None and held):
            ((vals, valid),) = _batch_scores(a, col_norms, idx, [spec])
            cands, best = idx, _best_row(vals, valid, larger)
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
        sigma, full = batch_svd(gather_columns(a, idx))
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
    up to a slack of ``DECISION_SLACK * b``, relative to the threshold."""
    if criterion.direction == "maximize":
        return value >= b - DECISION_SLACK * b
    return value <= b + DECISION_SLACK * b


def decide(matrix: DenseMatrix, query: DecisionQuery, threads: int = 1,
           allow_large: bool = False) -> DecisionOutcome:
    """Answer a threshold decision problem by exhaustive selection.

    Comparisons use a slack of 1e-9 relative to the threshold b
    (``meets_threshold``), strictly smaller than every separation the
    reduction harness needs to distinguish, at any scale of b.
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
