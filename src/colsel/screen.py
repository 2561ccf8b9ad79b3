"""Value bands for the selectors' screens: each candidate subset's
(estimate, width), within which its SVD value is taken to lie, so that only
the candidates whose band reaches the best one go to the SVD; a band that is
not finite marks no usable estimate.

Exact search bands each chunk of subsets through the pass's ``ChunkScreen``,
from one ``GramSpectrum`` of the subsets' k x k blocks of A^T A that every
criterion of the pass reads, all at A's unit scale (``unit_scaled``): the
bands are those of the values on A / 2**e, which stay in float64 range at
any uniform scale of A.  The spectrum forms only what the pass's criteria
read: the blocks' eigenvalues, or a Cholesky factor where a criterion
reads det(C^T C) or the inverse's traces, or else tr (C^T C)^j and the
largest eigenvalue alone, with no factor.  The residuals' bands come from
a tree of Householder reflections over the prefixes of a chunk's
lexicographic rows, one reflection per distinct prefix, shared by the rows
that begin with it, and one more per row, which also proves each row's
rank and bounds its condition number, so that a pass of residuals alone
gathers no block (``_residual_bands``).  A pass that solves for the
blocks' eigenvalues solves once per group of a chunk's rows whose blocks
are equal up to the order of their columns (``_equal_blocks``), where its
Gram's entries repeat, as the X3C reduction's do.
Forward greedy for vol and res-frobenius bands every extension from one
pivoted partial Cholesky factor of A^T A that grows by a column per step
(``GreedyFactor``), and the local swap bands every swap from one QR of the
current selection (``swap_estimates``).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .criteria import CriterionSpec, batch_bands
from .matrixkit import column_norms, default_rank_tolerance, unit_scaled

# How far an estimate may sit from the SVD value: relative, and for the
# residuals also absolute, in units of ||A||_F (see _residual_width); on top,
# ROUNDING * k * kappa^2 relative for a k-column candidate whose condition
# number is at most kappa (see _rounding).  The exact selector's estimates
# take the rounding bound delta of _shift, ROUNDING * (m + k) * k * sigma_1^2
# for its Gram eigenvalues, and a multiple of it for its shifted blocks.
SCREEN_MARGIN = 1e-6
RESIDUAL_SLACK = 1e-6
ROUNDING = 1e-14


class GramSpectrum:
    """Estimated spectra of a stack of B k-column submatrices C: the reads of
    a ``criteria.Singular``, which the criteria's value functions make,
    answered from estimates; one object for every criterion of a chunk (20
    in an x3c verify pass, 12 in gap's), so each quantity is formed once.

    Row b's sigmas are taken to lie within a factor 1 -+ ``rel[b]`` of the
    ones the SVD computes; a row whose full column rank its estimator did not
    prove has a NaN ``rel``, and the constructor makes its invariants NaN in
    place, so every quantity formed from it is NaN.  Per row, with H = C^T C
    for C at A's unit scale, its estimator gave either the eigenvalues of H
    (``eigenvalues``, non-increasing; ``_gram_estimates``) or the invariants
    of H shifted by the rounding bound (``_shifted_estimates``): ``traces``
    mapping j to tr H^j for j = 1, 2, ``top``, the largest eigenvalue, when
    it was bracketed, and with a Cholesky factor, ``root_det`` =
    det(H)^(1/2) and, when an inverse was formed, the traces for j = -1,
    -2; with no factor, ``rel`` bounds sigma_1 and the sums of sigma^(2j),
    not each sigma, and proves no rank (a zero block aside).  A read whose
    invariant was not formed raises ``LookupError``: without eigenvalues,
    ``prod()`` with no ``root_det`` and ``smallest()`` always.  ``sum(j)``
    is tr H^j, formed once and kept: by products and square roots of the eigenvalues where 2j is an
    integer of magnitude at most 4, the j that p = 2, 3 and 4 need, by
    ``np.power`` for any other.  ``prod()``, ``power_sum(q)``, ``largest()``
    and ``smallest()`` are C's prod sigma, sum sigma^q, sigma_1 and sigma_k,
    and ``relative_prod()`` and ``relative_power_sum(q)`` those of
    sigma / sigma_1; a quantity whose forming raises is not kept.
    ``growth(L)`` is (1 - rel)^-L - 1, formed once per L.
    """

    def __init__(self, rel, k: int, eigenvalues=None, root_det=None, traces=None, top=None):
        self.rel, self.k = rel, k
        self._sums, self._root_det, self.top, self.bottom = dict(traces or {}), root_det, top, None
        self._powers, self._growth, self._eigenvalues = {}, {}, None
        unproven = np.isnan(rel)
        for invariant in (eigenvalues, root_det, *self._sums.values(), top):
            if invariant is not None:
                invariant[unproven] = np.nan
        if eigenvalues is not None:
            # the eigenvalues of a row run down a column, so that every sum
            # over them adds whole rows of this array
            self._eigenvalues = lam = np.ascontiguousarray(eigenvalues.T)
            self.top, self.bottom = lam[0], lam[-1]

    def _power(self, j):
        """The eigenvalues to the power j, formed once per j."""
        if j not in self._powers:
            lam = _formed(self._eigenvalues, "eigenvalues")
            if j == 1:
                out = lam
            elif j == -1:
                out = 1.0 / lam
            elif abs(j) == 0.5:
                out = np.sqrt(self._power(2 * j))
            elif float(2 * j).is_integer() and abs(j) <= 2:
                unit = math.copysign(1.0, j)
                out = self._power(unit) * self._power(j - unit)
            else:
                out = lam**j
            self._powers[j] = out
        return self._powers[j]

    def sum(self, j):
        if j not in self._sums:
            self._sums[j] = np.add.reduce(self._power(j), axis=0)
        return self._sums[j]

    @property
    def root_det(self):
        if self._root_det is None:
            self._root_det = np.multiply.reduce(self._power(0.5), axis=0)
        return self._root_det

    def prod(self):
        return self.root_det

    def largest(self):
        return np.sqrt(_formed(self.top, "largest eigenvalue"))

    def smallest(self):
        return np.sqrt(_formed(self.bottom, "smallest eigenvalue"))

    def power_sum(self, q):
        return self.sum(q / 2)

    def relative_prod(self):
        return self.root_det / self.top ** (self.k / 2.0)

    def relative_power_sum(self, q):
        return self.sum(q / 2) / self.top ** (q / 2)

    def growth(self, lipschitz: float):
        if lipschitz not in self._growth:
            self._growth[lipschitz] = (1.0 - self.rel) ** -lipschitz - 1.0
        return self._growth[lipschitz]


def _formed(invariant, name: str):
    """``invariant``, which a read of a ``GramSpectrum`` needs; a pass
    whose estimator did not form it reads no value through it."""
    if invariant is None:
        raise LookupError(f"the pass's estimates formed no {name}")
    return invariant


class ChunkScreen:
    """The bands of one exact-search pass over ``specs`` on the k-subsets of
    the m x n matrix ``a``: formed once per pass, A's unit-scale copy ``unit``
    (``unit_scaled``, with its power of two ``exponent``), which the pass also
    certifies (``selectors._screened_best``), its column norms ``col_norms``,
    its Gram matrix when a spec is no residual (``spectral``), the residuals'
    ``_residual_basis`` when a residual is among the specs, how the pass bands
    (``parts``), and on a pass that solves for the blocks' eigenvalues, the
    codes of the Gram's entries by which it groups equal blocks
    (``_gram_codes``); then read by every chunk's ``bands``, from any thread.
    The grouping's tally is the one state the chunks change, under a lock: the
    rows grouped so far and their groups, and whether the pass still groups
    (``grouping``), which stops once the groups exceed two thirds of those
    rows.  A chunk that starts before another's tally lands may group once
    more, which changes no result."""

    def __init__(self, a: np.ndarray, specs, k: int):
        self.unit, self.exponent = unit_scaled(a)
        self.col_norms = column_norms(self.unit)
        self.norms = {spec.residual_norm for spec in specs} - {None}
        self.basis = _residual_basis(self.unit) if self.norms else None
        (self.m, self.n), self.specs, self.k = a.shape, specs, k
        # whether a spec reads the Gram's blocks, and then None when the pass
        # solves for their eigenvalues, else the invariants beside tr H^j that
        # its specs read (``CriterionSpec.factored``)
        reads = [spec.factored for spec in specs if not spec.residual_norm]
        self.spectral = bool(reads)
        self.parts = None if None in reads else set().union(*reads)
        self.gram = self.unit.T @ self.unit if self.spectral else None
        # a block of one column has no entry off the diagonal, and C(n, 1)
        # blocks are too few to pay for coding the Gram
        self.codes = _gram_codes(self.gram) if self.parts is None and k > 1 else None
        self.grouping = self.codes is not None
        self._grouped = self._groups = 0  # rows grouped so far, and their groups
        self._tally = threading.Lock()

    def chunk_bytes(self, rows: int) -> int:
        """Bytes of the arrays a chunk of ``rows`` k-subsets holds at once,
        certification slices aside (``selectors._score_bytes``).  The estimates
        of a pass with a spec that is no residual hold the (k, k, B) blocks,
        with ``_top_bracket``'s two (B, k, k) buffers on a pass that brackets
        the largest eigenvalue, with or without a factor; a pass of residuals
        alone gathers no block.  Every pass then holds four (B,) vectors per
        spec: its band (estimate, width) and the band stacked
        (``selectors._screened_best``).  A pass that groups equal blocks
        (``_equal_blocks``) also holds, per subset, its two (k, k) blocks of
        codes, its key's sorted copy, its reordered indices, the keys' sort
        order and its group; its groups' blocks are counted as the blocks of
        every row, which the first chunk, before grouping stops, may need.  The
        residuals are banded between the estimates and the bands and free their
        arrays before the bands are formed, so a pass with a residual holds the
        larger of the two and what ``_residual_bands`` holds per (k - 1)-prefix
        or per subset, m' = min(m, n) being the rows of ``_residual_basis`` and
        d = m' - k + 1 the rows of the last level's T.  Per prefix, the arrays
        of the prefix tree's last level: the (d + 1, n) T gathered from its
        parent, beside the parent level's (d + 2, n) arrays while it gathers
        (for k > 2; for k = 2 the parent is the basis itself), which it then
        frees, and beside x, tau v and the v^T T row while it reflects in
        place; an earlier level holds fewer nodes.  The prefixes are counted
        exactly for the last ``rows`` subsets of the lexicographic order, which
        hold the most that any ``rows`` consecutive ones do
        (``_suffix_prefixes``); k = 1 has no tree.  Per subset, its (d, d) W,
        the (d - 1, d - 1) update and Gram, four d-vectors (v, p, y, v * p) and its
        condition bound kappa; res-two's bracket then holds the Gram and one
        more array of its size, within that.  Throughout, a chunk holds four
        (B, k) arrays (its indices, their transpose, their column norms and the
        certified rows' copy)."""
        k = self.k
        blocks = (3 if self.parts and "top" in self.parts else 1) if self.spectral else 0
        held = 8 * (k * k * blocks + 4 * len(self.specs))
        if self.codes is not None:
            held += 3 * k * k * self.codes.itemsize + 8 * (k + 2)
        held *= rows
        if self.basis is not None:
            d = max(min(self.m, self.n) - k + 1, 0)
            per_subset = d * d + 2 * max(d - 1, 0) ** 2 + 4 * d + 1
            held = max(held, 8 * rows * per_subset)
            if k > 1:
                per_prefix = (2 * d + 3 if k > 2 else d + 2) * self.n + 2 * d + 2
                held = max(held, 8 * _suffix_prefixes(self.n, k, rows) * per_prefix)
        return held + 8 * 4 * k * rows

    def chunk_rows(self, budget: int) -> int:
        """The most rows, at least 1 and at most C(n, k), of a chunk whose
        arrays fit in ``budget`` bytes (``chunk_bytes``, which grows with
        the rows)."""
        low, high = 1, max(1, min(math.comb(self.n, self.k), budget // (32 * self.k)))
        while low < high:
            mid = (low + high + 1) // 2
            if self.chunk_bytes(mid) <= budget:
                low = mid
            else:
                high = mid - 1
        return low

    def bands(self, idx: np.ndarray):
        """Each spec's band (estimate, width) of the m x k submatrices
        unit[:, idx[b]]: from one ``GramSpectrum`` of their
        blocks of the Gram matrix, gathered once as one (k, k, B) array
        (``batch_bands``), and the residuals' from one Householder
        reflection per distinct prefix of the chunk's rows and a rank-two
        update of each (k - 1)-prefix's residual Gram per subset
        (``_residual_bands``, which proves each row's rank and bounds its
        condition number from the same reflections, so a pass of residuals
        alone gathers no block).  Each spec that is no residual reads
        either invariants of the blocks (``CriterionSpec.factored``) or
        their eigenvalues.  When every such spec reads invariants, the
        estimator shifts the blocks (``_shifted_estimates``) and forms the
        ``parts`` they read: a Cholesky factor for det H or the inverse's
        traces (vol, rvol, sopt, pinv-norm, cond), and no factor for norm
        at p = 2, 4, inf and srank at p = 2, 4.  Otherwise (p = 3 or a
        non-integer p, or sigma_k alone: every x3c verify and gap pass)
        their eigenvalues are solved for in one batched eigensolve
        (``_gram_estimates``): one per group of the chunk's rows whose
        blocks are equal up to the order of their columns
        (``_equal_blocks``) while the pass is ``grouping``, and one per row
        otherwise.  A pass stops grouping after the chunk that takes its
        groups above two thirds of the rows it has grouped: the grouping
        costs a third (k = 8) to a half (k = 5) of an eigensolve per row, so
        up to that chunk the grouped rows cost about what solving every
        block would, or less.  The tally spans the pass, not one chunk, so
        that one chunk of rarer repeats (at M = 8, one chunk in a hundred
        or so, among chunks whose groups are about half their rows) does
        not stop it.
        """
        if self.parts is None:
            groups = _equal_blocks(self.codes, idx) if self.grouping else None
            if groups is not None:
                with self._tally:
                    self._grouped += len(idx)
                    self._groups += len(groups[0])
                    self.grouping = 3 * self._groups <= 2 * self._grouped
            spectrum = _gram_estimates(self.gram, self.m, idx, groups)
        elif self.spectral:
            spectrum = _shifted_estimates(self.gram, self.m, idx, self.parts)
        else:  # a pass of residuals alone
            spectrum = None
        residual = _residual_bands(self.basis, idx, self.norms)[0] if self.norms else {}
        cn = self.col_norms[idx]
        return [residual[spec.residual_norm] if spec.residual_norm
                else batch_bands(spec, spectrum, cn) for spec in self.specs]


def _suffix_prefixes(n: int, k: int, rows: int) -> int:
    """The distinct (k - 1)-prefixes among the last ``rows`` of the C(n, k)
    k-combinations of range(n) in lexicographic order, k >= 2: the most that
    any ``rows`` consecutive combinations hold, the order's runs of equal
    prefixes being shortest at its end.

    Under j -> n - 1 - j, the last rows taken backwards are the first
    ``rows`` in colexicographic order, and a prefix becomes the k - 1
    largest elements, on which colex order sorts first.  So the prefixes
    are those of colex rank at most that of the combination c_1 < ... <
    c_k of colex rank rows - 1: with c_1 dropped and every other element
    lowered by one, a (k - 1)-combination of colex rank sum C(c_i - 1,
    i - 1) over i >= 2, whose count is one more.  The combination is
    unranked greedily, c_i the largest c below c_(i + 1) (c_(k + 1) = n)
    with C(c, i) within the rank left."""
    count, rank, c = 1, rows - 1, n
    for i in range(k, 0, -1):
        c -= 1
        while math.comb(c, i) > rank:
            c -= 1
        rank -= math.comb(c, i)
        if i > 1:
            count += math.comb(c - 1, i - 1)
    return count


def _gram_codes(gram: np.ndarray):
    """Each entry of ``gram``'s code among its distinct values, in the
    smallest unsigned integer type that holds them, or None when no two of
    its entries above the diagonal are equal: then no two subsets of k >= 2
    columns share a block in any order of their columns, since each has an
    entry off the diagonal that names its own pair of columns.  Inputs
    drawn from a continuous distribution are such; the reduction's 0 and
    1 / sqrt(3) entries, whose blocks are (3 I + N) / 3 for N the triples'
    overlap counts, and 0/1 matrices are not."""
    upper = np.sort(gram[np.triu_indices(len(gram), 1)])
    if np.all(upper[1:] != upper[:-1]):
        return None
    values = np.sort(gram, axis=None)
    values = values[np.insert(values[1:] != values[:-1], 0, True)]
    return np.searchsorted(values, gram).astype(np.min_scalar_type(len(values) - 1))


def _equal_blocks(codes: np.ndarray, idx: np.ndarray):
    """(reps, inverse): the rows of ``idx`` grouped by their k x k Gram
    blocks, equal up to the order of their columns; ``reps`` holds each
    group's columns in their canonical order, and ``inverse`` each row's
    group.  ``codes`` is the Gram's ``_gram_codes``.

    Each row's columns are put in a canonical order: sorted by the block's
    row sums s of codes, ties broken by the row sums of codes weighted by s,
    a stable sort by quantities that a reordering of the columns permutes
    along (integers, exact in float64 below 2**53).  The reordered block is
    then keyed exactly by the bytes of its codes, and one sort of the keys
    finds the groups (not ``np.unique``, whose first call imports
    ``numpy.ma``, a megabyte).  Two rows with one key have equal reordered
    blocks, entry for entry; two rows whose blocks are equal under some
    order but that still tie in another may fall into two groups, which
    costs one more eigensolve and nothing else.  On the X3C reduction at
    M = 5, about 190 groups stand for a pass's 2,002 blocks.
    """
    n, flat = len(codes), codes.ravel()
    block = flat[(idx * n)[:, :, None] + idx[:, None, :]].astype(np.float64)
    sums = np.einsum("bij->bi", block)
    order = np.lexsort((np.einsum("bij,bj->bi", block, sums), sums), axis=1)
    del block
    reordered = np.take_along_axis(idx, order, axis=1)
    block = flat[(reordered * n)[:, :, None] + reordered[:, None, :]]
    keys = block.reshape(len(idx), -1).view(np.dtype((np.void, block[0].nbytes))).ravel()
    del block
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(len(idx), dtype=bool)  # where a group begins, in key order
    first[0] = True
    first[1:] = keys[1:] != keys[:-1]
    inverse = np.empty(len(idx), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return reordered[order[first]], inverse


def _blocks(gram: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows' k x k blocks of ``gram`` as one (k, k, B) array, entry
    (i, j, b) = gram[idx[b, i], idx[b, j]], so each entry of every block is
    one contiguous vector over the chunk.  One gather, whose innermost
    index runs over the chunk."""
    cols = np.ascontiguousarray(idx.T)
    return gram[cols[:, None, :], cols[None, :, :]]


def _proven(m: int, k: int, top: np.ndarray, bottom: np.ndarray, rel: np.ndarray):
    """(rel, kappa) for estimates ``top`` of sigma_1 and ``bottom`` of sigma_k
    of m x k submatrices, each within a factor 1 -+ ``rel`` of the SVD's:
    rel, and the condition-number bound top (1 + rel) / (bottom (1 - rel)),
    NaN and inf for a row whose full column rank the estimates do not prove
    (the SVD path's rank test, applied to the bounds)."""
    high, low = top * (1.0 + rel), bottom * (1.0 - rel)
    proven = (m >= k) & (low > default_rank_tolerance(m, k, high))
    return np.where(proven, rel, np.nan), np.where(proven, high / low, np.inf)


def _shift(size: int, trace, m: int, k: int):
    """delta = ROUNDING * ``size`` * ``trace`` + m k * the smallest normal
    number (the underflow): how far rounding moves the eigenvalues of C^T C
    for an m x k submatrix C of A at unit scale, or of R^T R for C's R, from
    the SVD's sigma_i^2.  ``trace`` is sigma_1^2, or tr(C^T C) >= sigma_1^2 -
    k delta, a second-order gap that the margin of ROUNDING, about 45 eps,
    over the measured rounding absorbs.

    Gram formation, ``eigvalsh`` or the Cholesky factor, and the SVD's own
    rounding together take size = (m + k) k.  The residuals' tree reaches R
    by Householder QR, which is columnwise backward stable (Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 19.4): the computed R is the
    exact R of C + E with ||e_j|| <= gamma ||c_j||, gamma about c k m' eps
    for the tree's at most k reflections of length at most m' per column,
    plus c m n eps from A's own QR when A is tall (c a small constant).  So
    the singular values of C + E lie within eta = gamma ||C||_F of C's, and
    the eigenvalues of R^T R within 2 eta ||C||_F + eta^2 <= 3 gamma
    ||C||_F^2 of the SVD's sigma_i^2: size = (m' + k) k + m n [A tall]
    holds gamma's constant c up to 30.
    """
    return ROUNDING * size * trace + m * k * np.finfo(np.float64).smallest_normal


def _determinant_bound(min_diag, ratio, k: int):
    """nu_low = ``min_diag`` * ``ratio`` * ((k - 1) / k)^(k - 1), a lower
    bound on the smallest eigenvalue of each k x k positive definite M whose
    diagonal D has the least entry ``min_diag`` and whose S = D^-1/2 M D^-1/2
    has the determinant ``ratio`` = det(M) / prod(D).  S has unit diagonal,
    so its eigenvalues sum to k, and AM-GM over all of them but the smallest,
    which sum to at most k, bounds that smallest one below by det(S)
    ((k - 1) / k)^(k - 1); and nu_min(M) >= min(D) lambda_min(S)."""
    return min_diag * ratio * ((k - 1) / k) ** (k - 1)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _gram_estimates(gram: np.ndarray, m: int, idx: np.ndarray, groups=None):
    """A ``GramSpectrum`` of the eigenvalues of each submatrix a[:, idx[b]],
    with a bound rel on the relative error of its sigmas against the SVD's
    values; a row whose full column rank the estimate does not prove
    (``_proven``) has a NaN rel and NaN eigenvalues.

    ``gram`` is A^T A for A at unit scale.  Each row's sigma^2 are the
    eigenvalues of its k x k block, within ``_shift``((m + k) k, sigma_1^2)
    of the SVD's.  The relative error grows as the square of the row's
    condition number and is never below ROUNDING * (m + k) * k, which also
    covers the rounding of the criteria's value functions.

    With ``groups``, the (reps, inverse) of ``_equal_blocks``, one
    ``eigvalsh`` per group solves the block of the group's columns in
    their canonical order, and each row takes its group's eigenvalues.
    That block equals the row's own block with its rows and columns
    permuted alike, entry for entry, so it has the same eigenvalues, and
    ``eigvalsh`` solves it within the same backward error: the bound above
    holds for every row as it stands, and so does all that ``_proven``
    and the bands derive from it.
    """
    k = idx.shape[1]
    r = min(m, k)
    reps, inverse = (idx, None) if groups is None else groups
    lam = np.linalg.eigvalsh(np.moveaxis(_blocks(gram, reps), -1, 0))
    if inverse is not None:
        lam = lam[inverse]
    lam = lam[:, ::-1][:, :r]
    err = _shift((m + k) * k, lam[:, 0], m, k)
    lam = np.maximum(lam, 0.0)
    rel, _ = _proven(m, k, np.sqrt(lam[:, 0]), np.sqrt(lam[:, -1]), err / lam[:, -1])
    return GramSpectrum(rel, k, eigenvalues=lam)


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
def _top_bracket(h: np.ndarray, trace: np.ndarray, out: np.ndarray | None = None):
    """(lo, hi) with lo <= lambda_max(H) <= hi for each H of a (B, d, d)
    stack ``h`` of symmetric positive semidefinite blocks whose traces are
    ``trace``, both 0 where the trace is not positive (a zero block).
    X = H / tr H is formed once, into ``out``: ``h`` itself divides in
    place, and by default a new (B, d, d) array is made, into which ``h``
    may be read in any layout (the Cholesky path passes its (k, k, B)
    blocks transposed).  Four squarings then take turns between X and one
    more array of its size, with no division between them.

    With t_q = tr X^q, lambda_max(X)^32 <= t_32 <= lambda_max(X)^16 t_16,
    so lo = tr H (t_32 / t_16)^(1/16) and hi = tr H t_32^(1/32), where
    t_16 = tr X^16 and t_32 = ||X^16||_F^2.  hi / lo = (t_16^2 /
    t_32)^(1/32): 1 where lambda_max is well separated, and at most
    d^(1/32) (5% at d = 5) where it is multiple.  Any positive scale in
    place of tr H gives the same bracket; a ``trace`` within rounding of
    tr H keeps X's trace at 1 and its eigenvalues in [0, 1].

    Range.  lambda(X) <= 1, so no power of X overflows, and lambda_max(X)
    >= tr X / d = 1 / d, so lambda_max(X^16) >= d^-16 and t_16, t_32 >=
    d^-32 stay normal numbers for any d below 2^31.  An entry that
    underflows on the way moves the eigenvalues by at most d times the
    smallest normal number, far below the rounding.

    Rounding (u = eps / 2, gamma_n = n u / (1 - n u)).  The division moves
    each entry of X by u relative, its eigenvalues by at most u ||X||_F <=
    u.  The computed X_j = X^(2^j) differs from X_(j-1)^2 by at most
    gamma_(d+1) |X_(j-1)|^2 entrywise (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.5), a matrix of Frobenius norm at most
    gamma_(d+1) ||X_(j-1)||_F^2 = gamma_(d+1) tr X_j; so a squaring still
    moves the eigenvalues of X_j by at most gamma_(d+1) tr X_j <=
    d gamma_(d+1) lambda_max(X_j) (Weyl), and the same bound puts the
    computed t_16 within gamma_d, and t_32 within gamma_(d^2), relative.
    Squaring j enters log lambda_max(H) = log tr H + 2^-j log
    lambda_max(X_j) with the weight 2^-j, and the weights sum to less than
    2, so to first order log lo and log hi bracket log lambda_max of the
    block given within 2 (d gamma_(d+1) + gamma_(d^2)) <= 2 d (d + 1) eps.
    """
    positive = trace > 0.0
    scale = np.where(positive, trace, 1.0)
    x = np.divide(h, scale[:, None, None], out=np.empty(h.shape) if out is None else out)
    y = np.empty_like(x)
    for _ in range(4):
        np.matmul(x, x, out=y)
        x, y = y, x
    t16, t32 = np.einsum("bii->b", x), np.einsum("bij,bij->b", x, x)
    lo, hi = scale * (t32 / t16) ** (1 / 16), scale * t32 ** (1 / 32)
    return np.where(positive, lo, 0.0), np.where(positive, hi, 0.0)


@np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore")
def _shifted_estimates(gram: np.ndarray, m: int, idx: np.ndarray, parts):
    """A ``GramSpectrum`` of the rows' k x k blocks G_b of ``gram``, each
    shifted to H = G_b + delta I, delta = ``_shift``((m + k) k, tr G_b), in
    one (k, k, B) array (``_blocks``): tr H and tr H^2, the bracket on H's
    largest eigenvalue (``_top_bracket``, which reads the blocks
    transposed) only where ``parts`` (``ChunkScreen.parts``) holds "top",
    and, where it holds "det" or "inverse", a factor L L^T = H, formed a
    column of every block at a time (``_cholesky``), with ``root_det`` =
    prod diag L and, for "inverse", the traces of (L L^T)^-1.  A block
    whose pivot is not positive gets a NaN factor, so its row alone is
    unproven (NaN rel) and goes to the SVD.

    G_b's eigenvalues lie within delta of the SVD's sigma_i^2 (sigma_i = 0
    past its min(m, k) values), so H's lie within [sigma_i^2, sigma_i^2 +
    2 delta], at least delta, which keeps the factorization of a singular
    block from breaking down (it needs about k^2 eps lambda_1(H)), and
    sigma_1^2 <= tr H.  With lo <= lambda_max(H) <= hi (``_top_bracket``),
    sigma_1 lies within 1 -+ r of the midpoint s of [sqrt(lo), sqrt(hi)],
    r = (sqrt(hi) - sqrt(lo)) / (sqrt(hi) + sqrt(lo)), up to the 2 delta
    that the spare below holds; ``top`` is s^2, and the row's rel grows by
    r (0 without the bracket).  ``batch_bands`` carries rel through the
    kind's ``log_lipschitz``.

    With a factor.  The computed L is the exact factor of H + E with
    ||E||_2 <= (k + 1) eps tr H / (1 - (k + 1) eps) <= delta (Cholesky
    backward error; Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.3, which holds for any order of the sums in ``_cholesky``'s
    columns), so the eigenvalues nu_i of L L^T, which ``root_det`` and the
    inverse traces describe, lie within [sigma_i^2 - delta, sigma_i^2 + 3
    delta], while tr H and ||H||_F^2 hold H's own.  For nu_low <= every
    nu_i, rel = 4 delta / nu_low bounds |sigma_i^2 - nu_i| / nu_i, so
    sigma_i lies within 1 -+ rel of sqrt(nu_i), with delta / nu_low to
    spare.  The spare is at least 45 (m + k) k eps kappa(H); it covers the
    forward error of the triangular inverse, about k eps kappa(L) relative
    with kappa(L)^2 = kappa(L L^T) (Higham, section 14.2), the rounding of
    the traces, of nu_low and of the value functions, and the 2 k (k + 1)
    eps of ``_top_bracket``.  nu_low is 1 / tr (L L^T)^-1 with the
    inverse, and otherwise ``_determinant_bound`` on L L^T, whose diagonal
    D holds the squared norms of L's rows, with det(S) = prod_i L_ii^2 /
    D_i.  The rank proof (``_proven``) takes sqrt(tr H) for sigma_1 and
    sqrt(nu_low) for sigma_k.

    Without a factor, the spectrum answers what norm at p = 2, 4, inf and
    srank at p = 2, 4 read, sigma_1 and sum sigma^(2j) for j = 1, 2, and
    nothing else: ``prod()`` and ``smallest()`` raise.  With t = tr H,

        sum sigma^2 in [t - 2 k delta, t],
        sum sigma^4 in [tr H^2 - 4 delta t, tr H^2], and tr H^2 >= t^2 / k,
        sigma_1^2 in [lambda_max(H) - 2 delta, lambda_max(H)], lambda_max(H) >= t / k:

    the sums lie within a factor 1 - 4 k delta / t of the estimates, and
    sigma_1 within 1 -+ (r + 2 k delta / t) of s.  rel = 8 k delta / t + r
    therefore bounds sigma_1 and each sum's 2j-th root relatively, as the
    values' Lipschitz constants read it, whatever the row's rank, with half
    of its delta term to spare for the rounding of the traces (k^2 eps), of
    the bracket (2 k (k + 1) eps) and of the value functions.  No row's
    rank is proven or needed: every value read here scores a rank-deficient
    C (rank rule "any"), whose sigmas sum as H's eigenvalues do.  The one
    exception is a zero block, which the SVD scores 0 and the shift alone
    does not: its rel reaches 8 (t = k delta), and a row whose rel is 1 or
    more is left unproven (NaN rel), for the SVD to certify.
    """
    k = idx.shape[1]
    h = _blocks(gram, idx)
    diagonal = h.reshape(k * k, -1)[:: k + 1]  # a view of every block's diagonal
    trace = np.sum(diagonal, axis=0)
    delta = _shift((m + k) * k, trace, m, k)
    diagonal += delta
    traces = {1: trace + k * delta, 2: np.einsum("ijb,ijb->b", h, h)}
    spread, top = 0.0, None
    if "top" in parts:
        low, high = np.sqrt(_top_bracket(np.moveaxis(h, -1, 0), traces[1]))
        spread, top = (high - low) / (high + low), ((low + high) / 2.0) ** 2
    if not parts & {"det", "inverse"}:
        rel = 8.0 * k * delta / traces[1] + spread
        return GramSpectrum(np.where(rel < 1.0, rel, np.nan), k, traces=traces, top=top)
    lower = _cholesky(h)
    pivots = lower.reshape(k * k, -1)[:: k + 1]
    root_det = np.prod(pivots, axis=0)
    if "inverse" in parts:  # the inverse takes the factor's place
        traces[-1], traces[-2] = _inverse_traces(lower)
        low = 1.0 / traces[-1]
    else:
        d = np.einsum("ilb,ilb->ib", lower, lower)
        low = _determinant_bound(np.min(d, axis=0), np.prod(pivots**2 / d, axis=0), k)
    rel, _ = _proven(m, k, np.sqrt(traces[1]), np.sqrt(low), 4.0 * delta / low + spread)
    return GramSpectrum(rel, k, root_det=root_det, traces=traces, top=top)


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
    """(B, ||A||_F^2, underflow, squares, m) for the m x n A = ``unit`` at
    unit scale, what every chunk's ``_residual_bands`` needs: B has A's
    residual norms and no more rows than columns (the R of A's own QR for a
    tall A), ``squares`` its squared column norms; the underflow of the
    squares ``batch_residuals`` sums is below sqrt(m * n * smallest normal)."""
    m, n = unit.shape
    underflow = math.sqrt(m * n * np.finfo(np.float64).smallest_normal)
    basis = np.linalg.qr(unit, mode="r") if m > n else unit
    return basis, np.sum(unit**2), underflow, np.einsum("ij,ij->j", basis, basis), m


def _householder(x: np.ndarray):
    """(v, tau, ||x||) for each row x of an (N, r) array ``x``: H = I - tau
    v v^T takes x to -s e_1, v = x + s e_1, s = sign(x_1) ||x|| (no
    cancellation in s + x_1), tau = 1 / (s (s + x_1)).  v is formed in
    ``x``, so its entries after the first are x's; tau is (N, 1) and ||x||
    = |s| (N,).  A zero x gives NaN."""
    head = x[:, :1]
    norm = np.sqrt(np.sum(x * x, axis=1))
    s = np.copysign(norm[:, None], head)
    tau = 1.0 / (s * (s + head))
    head += s
    return x, tau, norm


@np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore")
def _reflected(t: np.ndarray, cols: np.ndarray):
    """(T', ||x||) for each T of a (N, r, n) stack ``t`` and the Householder
    reflection H = I - tau v v^T (``_householder``) that takes its column
    x = T[:, cols[b]] to -s e_1: T' = (H T)[1:], the first row dropped,
    formed in ``t``, of which it is a view, and ||x|| = |s|, the (N,)
    norms."""
    v, tau, norm = _householder(t[np.arange(len(cols)), :, cols])
    row = np.einsum("bi,bij->bj", v, t)  # v^T T
    step = tau * v
    for i in range(1, t.shape[1]):  # a row at a time: no (N, r - 1, n) temporary
        t[:, i] -= step[:, i, None] * row
    return t[:, 1:], norm


@np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore")
def _residual_bands(basis, idx: np.ndarray, norms):
    """(bands, kappa): per residual norm in ``norms`` ("two", "frobenius"),
    the band (estimate, width) of ||(I - P_C) A|| for each subset of
    ``idx``, and the bound kappa on each C's condition number that sizes
    the widths' rounding, inf where C's full column rank is not proven;
    from the ``_residual_basis`` B of the m x n A at unit scale, which has
    A's residual norms and m' = min(m, n) rows.

    The subsets are split as C = [C1 c], C1 their first k - 1 columns.  A
    Householder QR of C1 applied to B is shared by every row that begins
    with the same columns, and lexicographic rows share prefixes in runs,
    so a chunk reflects each distinct prefix once, in a tree: level l holds
    T for each distinct (l + 1)-prefix, its parent's T after the reflection
    of the parent's column j_l, with the first row dropped
    (``_reflected``); the root is B.  The column where each row first
    differs from the row before it (one comparison of neighbouring rows)
    gives every level's runs; a run cut by the chunk's edge is one more.
    The last level's T = Q2^T B, d = m' - k + 1 rows, for Q2 the last d
    columns of a complete Q of C1, and W = T T^T.  Per row, the reflection
    H of x = T[:, j], c = b_j (``_householder``) is the k-th reflection of
    a complete QR of C, so the trailing (d - 1) x (d - 1) block of H W H, a
    rank-two update of W, is Q2'^T B B^T Q2' for the last m' - k columns
    Q2' of a complete Q of C, whose eigenvalues are the squared singular
    values of (I - P_C) B for a full-rank C.  res-frobenius is the square
    root of its trace, and res-two the square root of its largest
    eigenvalue, whose ``_top_bracket`` [lo, hi] gives the midpoint of
    [sqrt(lo), sqrt(hi)] as the estimate and half its length on top of the
    width (its rounding, a relative 2 d (d + 1) eps, is far inside the
    width's ``SCREEN_MARGIN``).  For k = 1 the prefix is empty and T = B;
    for k >= m' the Gram is empty, and both norms are 0.

    kappa.  The reflections' norms |s_1|, ..., |s_k| down a row's path are
    the diagonal of the R of C's Householder QR, so det(C^T C) is their
    product squared, with no Gram block formed, and the eigenvalues nu_i of
    R^T R lie within delta = ``_shift``((m' + k) k + m n [A tall],
    tr(C^T C)) of the SVD's sigma_i^2, gamma being ``_shift``'s backward
    error of the reflections.  nu_low is ``_determinant_bound`` on R^T R,
    with det(S) = prod_i s_i^2 / D_(j_i) over the path's columns j_i, each
    factor at most 1, and D the squared column norms of C (B's, from
    ``_residual_basis``), which are R^T R's diagonal up to a relative
    3 gamma.  Then sigma_k^2 >= nu_low - delta, and ``_proven`` takes
    sqrt(tr(C^T C)) for sigma_1 and sqrt(nu_low) for sigma_k within rel =
    4 delta / nu_low: that leaves 3 delta / nu_low >= 9 k gamma, since
    tr(C^T C) >= k nu_low, for the 3 (k + 1) gamma by which D moves nu_low
    and the rounding of the products and of the column norms.  kappa =
    sqrt(tr(C^T C)) (1 + rel) / (sqrt(nu_low) (1 - rel)) >= sigma_1 /
    sigma_k on a proven row; on the others it is inf, and so is the width,
    since ``batch_residuals`` truncates a rank-deficient C and the
    reflections do not.  A zero x at a level makes its whole subtree NaN,
    and a zero x in the last step (a zero column, say) a row's estimate
    NaN; either leaves its det(S) 0 or NaN, so its kappa is inf, and
    ``selectors._screened_best`` certifies it.

    The width.  kappa sets the rounding in the width (``_residual_width``).
    The squared norms are formed by subtraction: forming W and the update,
    whose terms are at most ||A||_F^2, rounds them by a small multiple of
    eps ||A||_F^2 (sums over the n columns of T and the d - 1 entries of the
    trace enter that multiple), and that cancellation, carried through the
    square root, stays inside the width's square-root term
    min(sqrt(r), r / estimate) for r = ``_rounding`` * ||A||_F^2 >=
    ROUNDING * k * ||A||_F^2, about 45 k eps ||A||_F^2, with
    RESIDUAL_SLACK * ||A||_F, the root of 4,500 eps ||A||_F^2, beside it.
    The width also holds the underflow bound.
    """
    unit, norm2, underflow, col_squares, m = basis
    rows, n = unit.shape
    k = idx.shape[1]
    # a row begins a new (l + 1)-prefix where its first change is at column l or before
    first = np.zeros(len(idx), dtype=np.intp)
    first[1:] = np.argmax(idx[1:] != idx[:-1], axis=1)
    gathered = t = unit[None]  # the root; both names go once the tree is built
    node = np.zeros(len(idx), dtype=np.intp)  # each row's node at the level
    ratio = np.ones(1)  # each node's product of s_i^2 / D_(j_i) down its path
    for level in range(k - 1):
        starts = first <= level
        heads = np.flatnonzero(starts)
        cols = idx[heads, level]
        gathered = t[node[heads]]
        del t  # the parent level is freed before the reflection
        t, s = _reflected(gathered, cols)
        ratio = ratio[node[heads]] * (s * s / col_squares[cols])
        node = np.cumsum(starts) - 1
    v, tau, s = _householder(t[node, :, idx[:, -1]])
    ratio = ratio[node] * (s * s / col_squares[idx[:, -1]])
    d = col_squares[idx]
    trace = np.sum(d, axis=1)
    low = _determinant_bound(np.min(d, axis=1), ratio, k)
    delta = _shift((rows + k) * k + (m * n if rows < m else 0), trace, m, k)
    _, kappa = _proven(m, k, np.sqrt(trace), np.sqrt(low), 4.0 * delta / low)
    del d, trace, low, delta  # only kappa is held on
    w = t @ np.swapaxes(t, 1, 2)
    del t, gathered  # the tree goes before W is gathered per row
    w = w[node]
    # H W H = W - v y^T - y v^T with y = p - (tau / 2) (v^T p) v, p = tau W v
    p = tau * np.einsum("bij,bj->bi", w, v)
    y = p - tau / 2.0 * np.sum(v * p, axis=1, keepdims=True) * v
    outer = v[:, 1:, None] * y[:, None, 1:]
    gram = w[:, 1:, 1:] - outer
    gram -= np.swapaxes(outer, 1, 2)
    del w, outer  # freed before res-two's bracket allocates
    squares = np.maximum(np.einsum("bii->b", gram), 0.0)  # read before the bracket overwrites
    rounding = _rounding(k, kappa)
    bands = {}
    for norm in norms:
        if norm == "frobenius":
            estimate, spread = np.sqrt(squares), 0.0
        elif gram.shape[1]:
            low, high = np.sqrt(_top_bracket(gram, squares, out=gram))
            estimate, spread = (low + high) / 2.0, (high - low) / 2.0
        else:
            estimate = spread = np.zeros(len(idx))
        width = _residual_width(estimate, norm2, rounding) + spread + underflow
        bands[norm] = estimate, np.where(np.isfinite(kappa), width, np.inf)
    return bands, kappa


def _rounding(k: int, kappa: np.ndarray) -> np.ndarray:
    """Relative rounding error allowed between an estimate and the SVD value
    of a k-column candidate whose condition number is at most ``kappa``."""
    return ROUNDING * k * kappa**2


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def swap_estimates(unit: np.ndarray, current, outside: np.ndarray, current_vol: float):
    """Band (estimate, width) of the volume after swapping position i of
    ``current`` for column j, per (i, j), row-major.

    With C = a[:, current] = QR and B = C^+ A_out, the squared volume
    ratio of the swap is B_ij^2 + [(C^T C)^-1]_ii * ||P_perp a_j||^2
    (rectangular maxvol); the ratio is scale-free, so it is computed on
    ``unit`` (``unit_scaled``) and multiplied by ``current_vol``.

    The width's rounding is the ``_rounding`` of the k columns with a_j
    swapped in, rho_j = ||P_perp a_j||: they are [Q, u] M with ||M|| <= ||R||
    + ||a_j|| and sigma_min(M) >= min(sigma_min(R), rho_j) / (2 + ||R^-1||
    ||a_j||).  A zero rho_j or a singular R gives an infinite or NaN
    rounding and so an infinite or NaN band width: no usable estimate
    (``selectors._screened_best``).
    """
    q, r = np.linalg.qr(unit[:, list(current)])
    cols = unit[:, outside]
    coef = q.T @ cols
    rho = np.linalg.norm(cols - q @ coef, axis=0)
    sigma = np.linalg.svd(r, compute_uv=False)
    top, inv = sigma.max(initial=0.0), 1.0 / sigma.min(initial=np.inf)
    norms = np.linalg.norm(cols, axis=0)
    kappa = (top + norms) * (2.0 + inv * norms) * np.maximum(inv, 1.0 / rho)
    rinv = np.linalg.inv(r)
    ratio = (rinv @ coef) ** 2 + np.sum(rinv**2, axis=1)[:, None] * rho**2
    estimate = current_vol * np.sqrt(ratio)
    return estimate.ravel(), (estimate * (SCREEN_MARGIN + _rounding(len(current), kappa))).ravel()


class GreedyFactor:
    """The state one forward greedy run on A's unit-scale copy ``unit`` (m x
    n) keeps from step to step, for at most ``k`` pivots: a pivoted partial
    Cholesky factor of G = A^T A, one column u per chosen column, formed
    without G, and the reads of its Schur complement K = G - U U^T =
    (P_perp A)^T P_perp A that ``extension_estimates`` bands by.  Nothing is
    formed before the first ``extend``, so a criterion without an estimate
    costs nothing.

    Columns of U are held as the rows of ``rows``; ``rho2`` is K's diagonal,
    rho_j^2 = ||P_perp a_j||^2; ``frobenius`` is tr K = ||P_perp A||_F^2;
    ``cross``, kept for res-frobenius only, is S_j = ||K e_j||^2 =
    ||(P_perp A)^T P_perp a_j||^2.  Pivoting on column c costs O(mn + nk):

        u = (A^T a_c - U U[c]^T) / rho_c,  rho^2 -= u o u,  tr K -= ||u||^2,
        S -= 2 u o (K u) - (u o u) ||u||^2,  K u = A^T (A u) - U (U^T u),

    K u read before u joins U.  S starts as the diagonal of G^2, from the
    Gram on A's shorter side: sum_i (a_i^T a_j)^2 over an n x n G when A is
    tall, a_j^T (A A^T) a_j over an m x m one when it is wide.  Beside the
    factor ride the pivots' sum and least of ||a_c||^2 and their product of
    rho_c^2 / ||a_c||^2, which the widths read (``extension_estimates``).  A pivot whose
    computed rho_c^2 is not positive (cancellation on a column near-dependent
    on the ones before it, or a zero column) ends the factor: ``broken``, and
    from then on every band of the run has an infinite width.
    """

    def __init__(self, unit: np.ndarray, k: int):
        self.unit, self.k = unit, k
        self.pivots, self.broken = [], False
        self.rows = self.rho2 = self.cross = None

    def extend(self, chosen, cross: bool = False):
        """Pivot on each column of ``chosen`` not pivoted on yet; with
        ``cross``, keep S too, which is formed before the first pivot."""
        if self.rho2 is None:
            unit = self.unit
            self.squares = np.einsum("ij,ij->j", unit, unit)
            self.rho2, self.frobenius = self.squares.copy(), float(np.sum(self.squares))
            self.norm2 = self.frobenius
            self.rows = np.empty((self.k, unit.shape[1]))
            self.trace, self.least, self.ratio = 0.0, math.inf, 1.0
        if cross and self.cross is None:
            if self.pivots:
                raise ValueError("S is formed before the factor's first pivot")
            unit = self.unit
            if unit.shape[0] <= unit.shape[1]:
                self.cross = np.einsum("ij,ij->j", unit, (unit @ unit.T) @ unit)
            else:
                gram = unit.T @ unit
                self.cross = np.einsum("ij,ij->j", gram, gram)
        for c in chosen:
            if c not in self.pivots:
                self._pivot(c)

    def _pivot(self, c: int):
        pivot = float(self.rho2[c])
        j = len(self.pivots)
        self.pivots.append(c)
        if self.broken or not pivot > 0.0:
            self.broken = True
            return
        unit, rows = self.unit, self.rows[:j]
        u = (unit.T @ unit[:, c] - rows.T @ rows[:, c]) / math.sqrt(pivot)
        length = float(u @ u)
        if self.cross is not None:
            ku = unit.T @ (unit @ u) - rows.T @ (rows @ u)
            self.cross -= 2.0 * u * ku - u * u * length
        self.rows[j] = u
        self.rho2 -= u * u
        self.frobenius -= length
        square = float(self.squares[c])
        self.trace += square
        self.least = min(self.least, square)
        self.ratio *= pivot / square


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def extension_estimates(criterion: CriterionSpec, factor: GreedyFactor, chosen,
                        remaining: np.ndarray, value: float):
    """Band (estimate, width) of each extension chosen + (j,) of the
    ``factor``'s A, whose chosen columns score ``value``, after the factor
    pivots on ``chosen`` (``GreedyFactor.extend``); all widths are infinite
    for a criterion without a rank-one estimate, and where a row has no
    usable estimate.

    With rho_j = ||P_perp a_j|| and K the factor's Schur complement: vol(S +
    j) = vol(S) * rho_j, and res-frobenius(S + j)^2 = ||P_perp A||_F^2 - S_j /
    rho_j^2, S_j = ||K e_j||^2 (a zero rho_j gains nothing).

    The widths, from the rounding model of ``_shift``.  Let H = C^T C for
    the extension C = [a_S a_j] of k columns, D = diag(H), and Z = D^-1/2 H
    D^-1/2, whose diagonal is 1.  Gram formation errs by at most gamma_m
    ||a_i|| ||a_l|| per entry, and each downdate adds the Cholesky backward
    error, which is componentwise too (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3): the computed pivots and rho_j^2 are
    exact for H + E, |E_il| <= e ||a_i|| ||a_l||, e = gamma_m +
    gamma_(k + 1), so Z moves by at most e k, whatever D is.  To first order
    rho_j^2 = D_j / (Z^-1)_jj moves by w^T E w, w = rho_j^2 H^-1 e_j, and
    |w^T E w| <= e ||D^1/2 w||_1^2 <= e k rho_j^2 / lambda_min(Z): the
    factor's own error, relative, grows with Z's conditioning alone.  Its
    bound is delta / nu_low: delta = ``_shift``((m + k) k, k), the shift of
    a k x k block of trace k, and nu_low the ``_determinant_bound`` on Z + E'
    (diagonal 1, determinant the product of rho_c^2 / D_c over C's pivots; D,
    the squared column norms, moves it by a relative 3 (k + 1) gamma_m).
    delta >= 45 k e k, so it holds the e k / (2 (nu_low - e k)) that log(rho~
    / rho) needs with 20 k to spare.  The SVD's own rounding, a backward
    error of at most (delta / k) ||C||_F in the model of ``_shift``, moves
    each sigma_i of C and of a_S by at most that, so ``value`` and vol(S + j)
    move by at most a relative 2 delta kappa, kappa = sqrt(tr H / (min D
    nu_low)) >= ||C||_F / sigma_min(C) (to the spare above).  So rel =
    delta / nu_low + 2 delta kappa, and vol's width is estimate *
    (SCREEN_MARGIN + rel).

    res-frobenius's estimate^2 is formed by subtraction from ||A||_F^2, and
    S and A u also take products of length n: e grows to gamma_(m + n) +
    gamma_(k + 1), and the first-order moves of ||P_perp A||_F^2 (at most
    3 e k ||A||_F^2 / lambda_min(Z), by the same scaling) and of S_j /
    rho_j^2 (as much again, S_j's downdates rounding by k eps ||a_j||^2
    ||A||_F^2 each, over rho_j^2 >= D_j lambda_min(Z)) stay within 8 e k
    ||A||_F^2 / lambda_min(Z); the SVD's rounding moves the residual by at
    most (delta / k) kappa ||A||_F.  With delta = ``_shift``((m + n + k) k,
    k), rel bounds both relative to ||A||_F^2 and ||A||_F, with 5 k to
    spare: the ``rounding`` of ``_residual_width``.

    A row whose rel is 1 or more (also a non-positive rho_j^2 or a zero
    column) has no usable estimate, and after a pivot the factor could not
    take (``GreedyFactor.broken``) none has: infinite widths, so
    ``selectors._screened_best`` certifies them.  A finite width proves C
    full rank as the SVD tests it: 2 delta kappa < 1 puts sigma_min(C) above
    twice the SVD's backward error and its rank tolerance.
    """
    if criterion.kind not in ("vol", "res-frobenius"):
        return np.zeros(len(remaining)), np.full(len(remaining), np.inf)
    residual = criterion.kind == "res-frobenius"
    factor.extend(chosen, cross=residual)
    if factor.broken:
        return np.zeros(len(remaining)), np.full(len(remaining), np.inf)
    (m, n), k = factor.unit.shape, len(factor.pivots) + 1
    rho2, squares = factor.rho2[remaining], factor.squares[remaining]
    low = _determinant_bound(1.0, factor.ratio * rho2 / squares, k)
    kappa = np.sqrt((factor.trace + squares) / (np.minimum(factor.least, squares) * low))
    delta = _shift((m + (n if residual else 0) + k) * k, k, m, k)
    rel = delta / low + 2.0 * delta * kappa
    rel = np.where(rel < 1.0, rel, np.inf)
    if not residual:
        estimate = value * np.sqrt(np.maximum(rho2, 0.0))
        return estimate, estimate * (SCREEN_MARGIN + rel)
    gain = np.divide(factor.cross[remaining], rho2, out=np.zeros_like(rho2), where=rho2 > 0.0)
    estimate = np.sqrt(np.maximum(factor.frobenius - gain, 0.0))
    return estimate, _residual_width(estimate, factor.norm2, rel)
