"""Seeded randomized checks for every optimal-value and partition inequality.

``run_suite`` draws matrix families (random unit-column, orthonormal,
near-orthonormal perturbations, full-column-rank partitions, and parent/
submatrix pairs) and evaluates each documented inequality, equality band,
monotonicity and reconstruction identity on them.  Failures are data, not
exceptions: each check contributes a signed violation (positive means the
tolerance was exceeded) and the per-check maxima are aggregated into one
report record per lemma id.

The suite runs in blocks of ``_BLOCK_ROUNDS`` rounds.  A block first draws
its rounds, in the order of the generator calls that fix every report.  A
draw keeps only its generator calls: for a unit-column family the full-rank
Gaussian and, for a perturbed family, the perturbation's direction; for a
partition C = [C1 C2] the full-rank Gaussian C and the split.  The block
then finishes each unit-column family as one stack per shape
(``_unit_columns``: one QR, one SVD for the perturbations' two-norms and one
column normalisation); it decomposes the partitions as stacks
(``_partition_stacks``: the complement projectors of C1, C2 and C's head,
the pseudo-inverses of P2 C1, P1 C2 and C, the Schur complements'
eigenvalues and the head Grams' determinants, each one call per shape of the
matrixkit kernels that ``partitioned_pinv``, ``pseudo_inverse`` and
``complement_projector`` run on a stack of one); and it scores every family
as stacks (``_stacks``): one ``batch_svd`` call per shape (m, k), then one
``stacked_values`` call per k, the path ``values`` takes for a single
matrix.  So a matrix gets the same bits in a stack and alone, and a matrix
whose sigmas a draw already has is not decomposed again.
Above 1000 subsets, ``check_removal_monotonicity`` checks 1000 distinct ones
drawn uniformly from all C(k, ell).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criteria import CriterionSpec, parse_criterion, stacked_values
# bench/tracer.py PATCHES wraps these names in this module: svd, which
# check_removal_monotonicity calls, and the three one-matrix kernels and
# seven scalar wrappers below, which nothing here calls
from .criteria import (condition_number, pinv_schatten_norm, relative_volume,  # noqa: F401
                       s_optimality, schatten_norm, stable_rank, volume)
from .errors import InvalidParameterError, RankDeficiencyError
from .matrixkit import complement_projector, partitioned_pinv, pseudo_inverse  # noqa: F401
from .matrixkit import (DenseMatrix, batch_complement_projector, batch_projected, batch_pseudo_inverse,
                        batch_svd, column_norms, default_rank_tolerance, gather_columns, svd)

LEMMA_IDS = (
    "e_inter",
    "e_mean",
    "e_sc",
    "e_srk",
    "l_cond",
    "l_fi",
    "l_inter",
    "l_inter2",
    "l_norm",
    "l_pi0",
    "l_pi1",
    "l_pinv",
    "l_srank",
    "l_vol",
    "lem:orth",
    "r_schattenp",
)

# equality characterizations: defect <= DEFECT_TIGHT must put the criterion
# within BAND_LOOSE of its optimum, and a criterion within BAND_TIGHT of the
# optimum must come from defect <= DEFECT_LOOSE
DEFECT_TIGHT = 1e-8
BAND_LOOSE = 1e-6
BAND_TIGHT = 1e-10
DEFECT_LOOSE = 1e-4


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    trials: int
    failures: int
    worst_violation: float
    seed: int


# the ranges the suite draws from: rows, subset columns and parent columns
# (inclusive), and the Schatten parameters p > 2 and p < 2
_ROWS = (3, 8)
_SUBSET_COLS = (1, 5)
_PARENT_COLS = (2, 8)
_P_LARGE = (3.0, 4.0, 6.0)
_P_SMALL = (1.0, 1.5)

# rounds per block: a block is drawn, then scored, so its stacks hold at most
# 4 + 3 + C(5, 2) + 1 matrices per round of it at any trial count
_BLOCK_ROUNDS = 64
# the most matrix entries in one stack of removal subsets, which bounds the
# memory check_removal_monotonicity takes on a large C
_STACK_ENTRIES = 1 << 20


class _Accumulator:
    __slots__ = ("trials", "failures", "worst")

    def __init__(self):
        self.trials = 0
        self.failures = 0
        self.worst = -math.inf

    def record(self, violations):
        """One trial per row of the (rows, checks) ``violations``; a trial
        fails when its worst check is positive."""
        worst = np.max(violations, axis=1)
        self.trials += len(worst)
        self.failures += int(np.count_nonzero(worst > 0.0))
        self.worst = max(self.worst, float(np.max(worst)))


def _band(defect, value, optimum):
    """Two-sided equality-characterization check, as signed violations."""
    hit = np.abs(value - optimum)
    v_if = np.where(defect <= DEFECT_TIGHT, hit - BAND_LOOSE, -math.inf)
    v_only_if = np.where(hit <= BAND_TIGHT, defect - DEFECT_LOOSE, -math.inf)
    return np.maximum(v_if, v_only_if)


def _stacks(stacks, sigmas=(), per_matrix=()) -> dict[int, tuple[np.ndarray, ...]]:
    """The matrices of the (B_i, m, k) ``stacks``, then the full-rank ones
    whose singular values ``sigmas`` lists, by column count k, with one SVD
    call per shape: for each k, the matrices' positions in that order, their
    singular values, full-rank flags and ``per_matrix`` functions of a
    shape's stack (``stacks`` alone), each with one row per matrix."""
    shapes, by_cols, start = {}, {}, 0
    for stack in stacks:
        shapes.setdefault(stack.shape[1:], []).append((np.arange(start, start + len(stack)), stack))
        start += len(stack)
    for (_, k), group in shapes.items():
        rows, parts = zip(*group)
        stack = np.concatenate(parts)
        by_cols.setdefault(k, []).append((np.concatenate(rows), *batch_svd(stack),
                                          *(f(stack) for f in per_matrix)))
    for row, sigma in enumerate(sigmas, start):
        by_cols.setdefault(len(sigma), []).append(([row], sigma[None], [True]))
    return {k: tuple(map(np.concatenate, zip(*parts))) for k, parts in by_cols.items()}


def _scores(specs, stacks, sigmas=()) -> np.ndarray:
    """The (matrices, specs) values of ``specs`` on the matrices ``_stacks``
    groups, in its order, from one ``stacked_values`` call per k."""
    out = np.empty((sum(map(len, stacks)) + len(sigmas), len(specs)))
    for rows, sigma, full in _stacks(stacks, sigmas).values():
        out[rows] = stacked_values(specs, sigma, None, full).T
    return out


def _orthonormality_defect(stack: np.ndarray) -> np.ndarray:
    """||C^T C - I||_F per matrix of a (B, m, k) stack, one ddot each, as np.linalg.norm takes it."""
    d = (np.swapaxes(stack, 1, 2) @ stack - np.eye(stack.shape[2])).reshape(len(stack), 1, -1)
    return np.sqrt(d @ np.swapaxes(d, 1, 2))[:, 0, 0]


def _draw_full_rank(rng, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A standard normal m x k draw (m >= k), redrawn until it has full
    column rank under ``svd``'s tolerance, and ``svd``'s sigmas of it."""
    for _ in range(64):
        g = rng.standard_normal((m, k))
        sigma = np.linalg.svd(g, compute_uv=False)
        if sigma[-1] > default_rank_tolerance(m, k, sigma[0]):
            return g, sigma
    raise RuntimeError("could not draw a full-rank matrix")  # pragma: no cover


_FROBENIUS, _VOLUME, _RVOL = map(parse_criterion, ("norm-frobenius", "vol", "rvol"))


@functools.lru_cache(maxsize=None)
def _unit_claims(k: int) -> tuple[tuple[str, CriterionSpec, float, bool], ...]:
    """Every unit-column claim on k columns, as rows (lemma id, spec, optimum,
    is_max): the spec's value never passes the optimum (never exceeds it when
    ``is_max``, never falls below it otherwise), and it reaches the optimum
    only when C is orthonormal.  The optimum is the criterion's value at k
    orthonormal columns, except for r_schattenp: for p < 2 the Schatten-p norm
    of unit columns is at most k^(1/p), which orthonormal columns attain.
    """
    ids = [("l_vol", "vol"), ("l_vol", "sopt"), ("lem:orth", "rvol"), ("l_norm", "norm-two"),
           ("l_pinv", "pinv-norm-two"), ("l_pinv", "pinv-norm-frobenius"), ("l_cond", "cond-two"),
           ("l_cond", "cond-frobenius"), ("l_cond", "cond-mixed"), ("l_srank", "srank")]
    for p in _P_LARGE:
        ids += [("l_norm", f"norm:p={p}"), ("l_pinv", f"pinv-norm:p={p}"), ("l_cond", f"cond:p={p}"),
                ("l_cond", f"cond-mixed:p={p}"), ("l_srank", f"srank:p={p}")]
    specs = [(lid, parse_criterion(ident)) for lid, ident in ids]
    rows = [(lid, spec, spec.optimal_unit_value(k), spec.direction == "maximize") for lid, spec in specs]
    rows += [("r_schattenp", parse_criterion("norm", p), k ** (1.0 / p), True) for p in _P_SMALL]
    return tuple(rows)


def _unit_column_checks(stacks, acc: dict):
    """All unit-column optimal-value lemmas on the (B, m, k) ``stacks`` of
    unit-column matrices, each claim scored by one value-function call per k;
    each claim row yields its bound check and its equality check on every
    matrix."""
    stacks = _stacks(stacks, per_matrix=(column_norms, _orthonormality_defect))
    for k, (_, sigma, full, norms, defect) in stacks.items():
        claims = _unit_claims(k)
        specs = [spec for _, spec, _, _ in claims]
        scores = stacked_values([_FROBENIUS, *specs], sigma, norms, full)
        fro, value = scores[0], scores[1:]
        optimum = np.array([[optimum] for _, _, optimum, _ in claims])
        is_max = np.array([[is_max] for _, _, _, is_max in claims])
        excess = np.where(is_max, value - optimum, optimum - value) - 1e-10
        band = _band(defect, value, optimum)
        # the checks that are not claim rows: rvol is non-negative, and for p < 2
        # the Schatten-p norm of unit columns is also bounded below by sqrt(k)
        found = {"lem:orth": [-value[specs.index(_RVOL)]]}
        for row, (lid, _, _, _) in enumerate(claims):
            found.setdefault(lid, []).extend((excess[row], band[row]))
            if lid == "r_schattenp":
                found[lid].append((math.sqrt(k) - value[row]) - 1e-10)
        # as Python floats: numpy's power can differ from Python's in the last bit
        vol = value[specs.index(_VOLUME)].tolist()
        fro = fro.tolist()
        acc["e_srk"].record([[abs(f**2 - k) - 1e-12] for f in fro])
        acc["e_mean"].record([[v ** (2.0 / k) - f**2 / k - 1e-12] for v, f in zip(vol, fro)])
        for lid, violations in found.items():
            acc[lid].record(np.transpose(violations))


def _dims(rng) -> tuple[int, int]:
    m = int(rng.integers(_ROWS[0], _ROWS[1] + 1))
    k = int(rng.integers(_SUBSET_COLS[0], min(_SUBSET_COLS[1], m) + 1))
    return m, k


# the unit-column families by perturbation size: normalized Gaussian columns
# (None), orthonormal columns (0) and two normalized perturbations of them
_UNIT_FAMILIES = (None, 0.0, 1e-6, 1e-3)


def _draw_unit_columns(rng, eps: float | None) -> tuple[np.ndarray, ...]:
    """The generator calls of one draw of family ``eps``: a full-rank m x k
    Gaussian and, for a perturbed family, the m x k direction of its
    perturbation; ``_unit_columns`` makes the matrices from stacks of them."""
    m, k = _dims(rng)
    arr, _ = _draw_full_rank(rng, m, k)
    return (arr, rng.standard_normal((m, k))) if eps else (arr,)


def _normalized(stack: np.ndarray) -> np.ndarray:
    return stack / np.linalg.norm(stack, axis=1, keepdims=True)


def _unit_columns(eps: float | None, arr: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """The (B, m, k) unit-column matrices of family ``eps`` from the stacks of
    its draws' Gaussians ``arr`` and perturbation directions ``g``: arr with
    normalized columns (None), arr's Q factor (0), or Q + eps * g / ||g||_2
    with normalized columns; each matrix has the bits it has alone."""
    if eps is None:
        return _normalized(arr)
    q, _ = np.linalg.qr(arr)
    if eps == 0.0:
        return q
    return _normalized(q + eps * (g / np.linalg.svd(g, compute_uv=False)[:, :1, None]))


_PINV_POWERS = (2.0, 3.0, 4.0, 6.0)
_PINV_SPECS = tuple(parse_criterion("pinv-norm", p) for p in _PINV_POWERS)


def _partition_trial(rng) -> tuple[np.ndarray, np.ndarray, int]:
    """The generator calls of one partition draw: C = [C1 C2], full rank (so
    ``partitioned_pinv``'s rank test would pass), its sigmas and C1's width."""
    m = int(rng.integers(max(_ROWS[0], 3), _ROWS[1] + 1))
    n = int(rng.integers(2, min(m, 6) + 1))
    arr, sigma = _draw_full_rank(rng, m, n)
    return arr, sigma, int(rng.integers(1, n))


def _per_shape(kernel, *operands) -> list:
    """``kernel`` on the rows of the equal-length lists ``operands``, one call
    on the stacks of each group of rows whose operands have equal shapes: one
    result per row, in order, a tuple where ``kernel`` returns a tuple."""
    groups = collections.defaultdict(list)
    for i, row in enumerate(zip(*operands)):
        groups[tuple(x.shape for x in row)].append(i)
    out = [None] * len(operands[0])
    for rows in groups.values():
        got = kernel(*(np.array([x[i] for i in rows]) for x in operands))
        for i, result in zip(rows, zip(*got) if isinstance(got, tuple) else got):
            out[i] = result
    return out


def _partition_stacks(trials) -> list[tuple]:
    """Per partition draw (C, sigmas, split) of ``trials``: M1^+, M2^+, S1
    and S2 of ``partitioned_pinv``, the smaller of the least eigenvalues of
    S1 and S2, C^+, and e_sc's right-hand side det(H^T H) ||P_H c||^2, H the
    first n-1 columns of C, c its last and P_H H's complement projector;
    each decomposition one matrixkit kernel call per shape over the block."""
    cs = [c for c, _, _ in trials]
    c1s = [c[:, :split] for c, _, split in trials]
    c2s = [c[:, split:] for c, _, split in trials]
    heads = [c[:, :-1] for c in cs]
    t = len(cs)
    proj = _per_shape(batch_complement_projector, c1s + c2s + heads)
    # M1 = P2 C1 and M2 = P1 C2, with their Schur complements
    blocks, schurs = zip(*_per_shape(batch_projected, proj[t:2 * t] + proj[:t], c1s + c2s))
    pinv = _per_shape(batch_pseudo_inverse, [*blocks, *cs])
    smallest = _per_shape(lambda s: np.linalg.eigvalsh(s)[:, 0], schurs)
    dets = _per_shape(lambda h: np.linalg.det(np.swapaxes(h, 1, 2) @ h), heads)
    residuals = _per_shape(lambda p, c: np.sum((p @ c) ** 2, axis=(1, 2)), proj[2 * t:],
                           [c[:, -1:] for c in cs])
    return [(pinv[i], pinv[t + i], schurs[i], schurs[t + i], float(min(smallest[i], smallest[t + i])),
             pinv[2 * t + i], float(dets[i] * residuals[i])) for i in range(t)]


def _partition_checks(trials, found: dict):
    """The l_pi0, l_fi, l_pi1 and e_sc rows of the block's partition
    ``trials``, from ``_partition_stacks`` and one ``_scores`` call over
    every C1, C2 and C."""
    parts = [part[None] for c, _, split in trials for part in (c[:, :split], c[:, split:])]
    scores = _scores((_VOLUME, *_PINV_SPECS), parts, [sigma for _, sigma, _ in trials]).tolist()
    for t, (m1_pinv, m2_pinv, _, _, spd, direct, rhs) in enumerate(_partition_stacks(trials)):
        # C+ entries grow as 1/sigma_min, so the reconstruction error is taken
        # relative to the largest of them, as e_sc below is
        scale = max(1.0, float(np.max(np.abs(direct))))
        recon = float(np.max(np.abs(np.vstack([m1_pinv, m2_pinv]) - direct))) / scale
        found["l_pi0"].append((recon - 1e-9, -spd))
        (_, *pinv1), (_, *pinv2) = scores[2 * t:2 * t + 2]
        vol, *pinv = scores[len(parts) + t]
        # block-diagonal Schatten-p norms add in p-th powers, so the parts'
        # pseudo-inverse norms, in p-th powers, sum to at most C's (l_fi is p=2)
        excess = [a**p + b**p - whole**p - 1e-9
                  for p, a, b, whole in zip(_PINV_POWERS, pinv1, pinv2, pinv)]
        found["l_fi"].append(excess[:1])
        found["l_pi1"].append(excess[1:])
        # determinant identity for appending one column, vol(C)^2 on the left
        lhs = vol**2
        found["e_sc"].append((abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300) - 1e-9,))


def _interlacing_trial(rng, found: dict) -> list:
    """Draw A and its submatrix C and record its e_inter row; return what the
    block scores, [(C, its removal subsets, sigmas)], or [] if C is deficient."""
    m = int(rng.integers(_ROWS[0], _ROWS[1] + 1))
    n = int(rng.integers(_PARENT_COLS[0], _PARENT_COLS[1] + 1))
    a = rng.standard_normal((m, n))
    k = int(rng.integers(2, min(m, n, _SUBSET_COLS[1]) + 1)) if min(m, n) > 2 else 2
    cols = np.sort(rng.choice(n, size=k, replace=False))
    c = a[:, cols]

    (sigma_a,), _ = batch_svd(a[None])
    (sigma_c,), (full,) = batch_svd(c[None])
    sig_a, sig_c = sigma_a.tolist(), sigma_c.tolist()
    worst = -math.inf
    for j in range(k):
        # deleting n-k columns pushes sigma_j(C) down to at most position
        # n-k+j of the parent spectrum; beyond min(m, n) the bound is 0
        pos = n - k + j
        lower = sig_a[pos] if pos < len(sig_a) else 0.0
        worst = max(worst, lower - sig_c[j] - 1e-10)
        worst = max(worst, sig_c[j] - sig_a[j] - 1e-10)
    found["e_inter"].append((worst,))

    if not full:
        found["l_inter"].append((-math.inf,))
        found["l_inter2"].append((-math.inf,))
        return []
    ell = int(rng.integers(1, k))
    return [(c, np.array(list(itertools.combinations(range(k), ell)), dtype=np.intp), sigma_c)]


# rvol, then the five condition numbers that never rise when columns go
_REMOVAL_SPECS = tuple(map(parse_criterion, (
    "rvol", "cond-two", "cond-frobenius", "cond:p=4", "cond-mixed", "cond-mixed:p=4")))


def _removal_maxima(arrays, subsets, sigmas) -> np.ndarray:
    """The (C, 2) signed worst violations, per full-rank C of ``arrays`` with
    singular values ``sigmas``, over its column ``subsets`` ((S, ell) indices),
    of the scaled volume never dropping (l_inter) and no condition number
    rising (l_inter2); one ``_scores`` call over every subset and every C."""
    stacks = [gather_columns(a, s) for a, s in zip(arrays, subsets)]
    sizes = [len(stack) for stack in stacks]
    scores = _scores(_REMOVAL_SPECS, stacks, sigmas)
    parent = np.repeat(scores[sum(sizes):], sizes, axis=0)
    sub = scores[:len(parent)]
    worst = np.column_stack([parent[:, 0] - sub[:, 0] - 1e-10,
                             np.max(sub[:, 1:] - parent[:, 1:] - 1e-10, axis=1)])
    return np.maximum.reduceat(worst, np.cumsum([0, *sizes[:-1]]), axis=0)


def _removal_violations(c: DenseMatrix, subsets) -> tuple[float, float]:
    """``_removal_maxima`` of C over its column ``subsets`` (a sequence of
    equal-length index tuples), in stacks of at most ``_STACK_ENTRIES``
    entries, with C from one SVD; C must have full column rank."""
    res = svd(c)
    if res.numerical_rank < c.cols:
        raise RankDeficiencyError("removal monotonicity requires full column rank")
    subsets = np.array(subsets, dtype=np.intp)
    step = max(1, _STACK_ENTRIES // (c.rows * subsets.shape[1]))
    worst = [_removal_maxima([c.array], [subsets[start:start + step]], [res.singular_values])
             for start in range(0, len(subsets), step)]
    return tuple(np.max(np.concatenate(worst), axis=0).tolist())


def run_suite(seed: int = 0, trials: int = 200) -> list[LemmaReport]:
    """Run every documented check ``trials`` times per matrix family.

    Deterministic given ``seed``; the report is sorted by lemma id and a
    missing id means the suite itself is broken.
    """
    if trials < 1:
        raise InvalidParameterError(f"need trials >= 1, got {trials}")
    if seed < 0:
        raise InvalidParameterError(f"need seed >= 0, got {seed}")
    acc = {lid: _Accumulator() for lid in LEMMA_IDS}
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _BLOCK_ROUNDS):
        # the trials draw in generator order and leave their criteria to the
        # block's stacks; one row per trial and lemma, recorded once per block
        units, parts, removals, found = {}, [], [], collections.defaultdict(list)
        for _ in range(min(_BLOCK_ROUNDS, trials - start)):
            for eps in _UNIT_FAMILIES:
                draw = _draw_unit_columns(rng, eps)
                units.setdefault((eps, draw[0].shape), []).append(draw)
            parts.append(_partition_trial(rng))
            removals += _interlacing_trial(rng, found)
        _partition_checks(parts, found)
        if removals:
            worst = _removal_maxima(*zip(*removals))
            acc["l_inter"].record(worst[:, :1])
            acc["l_inter2"].record(worst[:, 1:])
        for lid, rows in found.items():
            acc[lid].record(rows)
        _unit_column_checks([_unit_columns(eps, *map(np.stack, zip(*draws)))
                             for (eps, _), draws in units.items()], acc)
    return [
        LemmaReport(lid, acc[lid].trials, acc[lid].failures, acc[lid].worst, seed)
        for lid in LEMMA_IDS
    ]


def check_removal_monotonicity(c: DenseMatrix, ell: int, seed: int = 0) -> bool:
    """Whether removing columns never lowers the scaled volume or raises any
    condition number.

    Checks all ell-column submatrices when there are at most 1000, otherwise
    1000 distinct ones drawn uniformly from all C(k, ell), seeded by ``seed``.
    """
    k = c.cols
    if not 1 <= ell < k:
        raise InvalidParameterError(f"need 1 <= ell < {k}, got {ell}")
    if seed < 0:
        raise InvalidParameterError(f"need seed >= 0, got {seed}")
    return max(_removal_violations(c, _removal_subsets(k, ell, seed))) <= 0.0


def _removal_subsets(k: int, ell: int, seed: int) -> list:
    """Every ell-column subset of k columns when there are at most 1000, else
    the first 1000 distinct ones of seeded uniform draws from all C(k, ell)
    (Floyd's algorithm, batches of 1000); each sorted, in lexicographic order."""
    if math.comb(k, ell) <= 1000:
        return list(itertools.combinations(range(k), ell))
    rng, sample = np.random.default_rng(seed), {}
    while len(sample) < 1000:
        draws = np.empty((1000, ell), dtype=np.intp)
        for i, j in enumerate(range(k - ell, k)):
            t = rng.integers(0, j + 1, size=1000)
            draws[:, i] = np.where(np.any(draws[:, :i] == t[:, None], axis=1), j, t)
        sample.update(dict.fromkeys(map(tuple, np.sort(draws, axis=1).tolist())))
    return sorted(itertools.islice(sample, 1000))
