"""Seeded randomized checks for every optimal-value and partition inequality.

``run_suite`` draws matrix families (random unit-column, orthonormal,
near-orthonormal perturbations, full-column-rank partitions, and parent/
submatrix pairs) and evaluates each documented inequality, equality band,
monotonicity and reconstruction identity on them.  Failures are data, not
exceptions: each check contributes a signed violation (positive means the
tolerance was exceeded) and the per-check maxima are aggregated into one
report record per lemma id.

The suite runs in blocks of ``_BLOCK_ROUNDS`` rounds.  A block first draws
its rounds, in the order of the generator calls that fix every report; the
partition and interlacing trials are scored as they are drawn.  It then
scores the unit-column family as stacks: one ``np.linalg.svd`` call per
shape (m, k), then one call of each claim's value function per k
(``stacked_values``), whose rows equal ``values`` bit for bit.  The
removal subsets of a matrix are one stack as well.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criteria import CriterionSpec, parse_criterion, stacked_values, values
# bench/tracer.py PATCHES wraps these names in this module: svd, pseudo_inverse,
# complement_projector and partitioned_pinv, which the suite calls, and the
# seven scalar wrappers, which it does not (ROADMAP item 4)
from .criteria import (condition_number, pinv_schatten_norm, relative_volume,  # noqa: F401
                       s_optimality, schatten_norm, stable_rank, volume)
from .errors import InvalidParameterError, RankDeficiencyError
from .matrixkit import (DenseMatrix, column_norms, complement_projector, default_rank_tolerance,
                        partitioned_pinv, pseudo_inverse, svd)
from .selectors import _batch_stats, _stack

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

# rounds per block: a block is drawn, then scored, so the unit-column stacks
# hold at most 4 * _BLOCK_ROUNDS matrices at any trial count
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


def _unit_stacks(matrices) -> dict[int, tuple[np.ndarray, ...]]:
    """The m x k matrices by column count k, with one SVD call per shape:
    for each k, their positions in ``matrices``, singular values, column
    norms, full-rank flags and orthonormality defects ||C^T C - I||_F, each
    with one row per matrix."""
    shapes = {}
    for i, c in enumerate(matrices):
        shapes.setdefault(c.shape, []).append(i)
    by_cols = {}
    for (_, k), rows in shapes.items():
        stack = np.stack([matrices[i] for i in rows])
        sigma, full = _batch_stats(stack)
        # one ddot per matrix, as np.linalg.norm takes the Frobenius norm
        d = (np.swapaxes(stack, 1, 2) @ stack - np.eye(k)).reshape(len(rows), 1, k * k)
        defect = np.sqrt(d @ np.swapaxes(d, 1, 2))[:, 0, 0]
        by_cols.setdefault(k, []).append((np.array(rows), sigma, column_norms(stack), full, defect))
    return {k: tuple(map(np.concatenate, zip(*parts))) for k, parts in by_cols.items()}


def _draw_full_rank(rng, m: int, k: int) -> np.ndarray:
    """A standard normal m x k draw (m >= k) of full column rank under
    ``svd``'s tolerance, redrawn until it has it."""
    for _ in range(64):
        g = rng.standard_normal((m, k))
        sigma = np.linalg.svd(g, compute_uv=False)
        if sigma[-1] > default_rank_tolerance(m, k, sigma[0]):
            return g
    raise RuntimeError("could not draw a full-rank matrix")  # pragma: no cover


def _unit_columns(arr: np.ndarray) -> np.ndarray:
    return arr / np.linalg.norm(arr, axis=0)


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


def _unit_column_checks(matrices, acc: dict):
    """All unit-column optimal-value lemmas on the unit-column ``matrices``,
    each claim scored by one value-function call per k; each claim row
    yields its bound check and its equality check on every matrix."""
    for k, (_, sigma, norms, full, defect) in _unit_stacks(matrices).items():
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


def _draw_unit_columns(rng, eps: float | None) -> np.ndarray:
    m, k = _dims(rng)
    arr = _draw_full_rank(rng, m, k)
    if eps is None:
        return _unit_columns(arr)
    q, _ = np.linalg.qr(arr)
    if eps == 0.0:
        return q
    g = rng.standard_normal((m, k))
    return _unit_columns(q + eps * (g / np.linalg.norm(g, 2)))


_PINV_POWERS = (2.0, 3.0, 4.0, 6.0)
_PINV_SPECS = tuple(parse_criterion("pinv-norm", p) for p in _PINV_POWERS)


def _partition_trial(rng, found: dict):
    m = int(rng.integers(max(_ROWS[0], 3), _ROWS[1] + 1))
    n = int(rng.integers(2, min(m, 6) + 1))
    c = DenseMatrix(_draw_full_rank(rng, m, n))
    split = int(rng.integers(1, n))
    c1 = DenseMatrix(c.array[:, :split])
    c2 = DenseMatrix(c.array[:, split:])

    # block-diagonal Schatten-p norms add in p-th powers, so the parts'
    # pseudo-inverse norms, in p-th powers, sum to at most C's (l_fi is p=2)
    pinv1, pinv2 = values(c1, _PINV_SPECS), values(c2, _PINV_SPECS)
    vol, *pinv = values(c, (_VOLUME, *_PINV_SPECS))
    excess = [a**p + b**p - whole**p - 1e-9
              for p, a, b, whole in zip(_PINV_POWERS, pinv1, pinv2, pinv)]
    found["l_fi"].append(excess[:1])
    found["l_pi1"].append(excess[1:])

    # C+ entries grow as 1/sigma_min, so the reconstruction error is taken
    # relative to the largest of them, as e_sc below is
    parts = partitioned_pinv(c1, c2)
    direct = pseudo_inverse(c).array
    scale = max(1.0, float(np.max(np.abs(direct))))
    recon = float(np.max(np.abs(parts.stacked().array - direct))) / scale
    spd = min(
        float(np.linalg.eigvalsh(parts.schur1.array)[0]),
        float(np.linalg.eigvalsh(parts.schur2.array)[0]),
    )
    found["l_pi0"].append((recon - 1e-9, -spd))

    # determinant identity for appending one column
    head = DenseMatrix(c.array[:, :-1])
    tail = c.array[:, -1]
    lhs = vol**2
    gram = head.array.T @ head.array
    rhs = float(np.linalg.det(gram) * np.sum((complement_projector(head).array @ tail) ** 2))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    found["e_sc"].append((abs(lhs - rhs) / scale - 1e-9,))


def _interlacing_trial(rng, found: dict):
    m = int(rng.integers(_ROWS[0], _ROWS[1] + 1))
    n = int(rng.integers(_PARENT_COLS[0], _PARENT_COLS[1] + 1))
    a = DenseMatrix(rng.standard_normal((m, n)))
    k = int(rng.integers(2, min(m, n, _SUBSET_COLS[1]) + 1)) if min(m, n) > 2 else 2
    cols = np.sort(rng.choice(n, size=k, replace=False))
    c = a.columns(cols)

    sig_a = svd(a).singular_values
    svd_c = svd(c)
    sig_c = svd_c.singular_values
    worst = -math.inf
    for j in range(k):
        # deleting n-k columns pushes sigma_j(C) down to at most position
        # n-k+j of the parent spectrum; beyond min(m, n) the bound is 0
        pos = n - k + j
        lower = sig_a[pos] if pos < len(sig_a) else 0.0
        worst = max(worst, lower - sig_c[j] - 1e-10)
        worst = max(worst, sig_c[j] - sig_a[j] - 1e-10)
    found["e_inter"].append((worst,))

    if svd_c.numerical_rank < k:
        v_inter = v_inter2 = -math.inf
    else:
        ell = int(rng.integers(1, k))
        v_inter, v_inter2 = _removal_violations(c, list(itertools.combinations(range(k), ell)))
    found["l_inter"].append((v_inter,))
    found["l_inter2"].append((v_inter2,))


# rvol, then the five condition numbers that never rise when columns go
_REMOVAL_SPECS = tuple(map(parse_criterion, (
    "rvol", "cond-two", "cond-frobenius", "cond:p=4", "cond-mixed", "cond-mixed:p=4")))


def _removal_violations(c: DenseMatrix, subsets) -> tuple[float, float]:
    """Signed worst violations, over the column ``subsets`` of C (a sequence
    of equal-length index tuples), of the scaled volume never dropping
    (l_inter) and no condition number rising (l_inter2) when columns are
    removed; the subsets are scored as stacks of at most ``_STACK_ENTRIES``
    entries, one SVD call each, and C from one SVD."""
    parent_rvol, *parent_kappa = values(c, _REMOVAL_SPECS)
    parent_kappa = np.array(parent_kappa)[:, None]
    subsets = np.array(subsets, dtype=np.intp)
    step = max(1, _STACK_ENTRIES // (c.rows * subsets.shape[1]))
    v_inter = v_inter2 = -math.inf
    for start in range(0, len(subsets), step):
        sigma, full = _batch_stats(_stack(c.array, subsets[start:start + step]))
        scores = stacked_values(_REMOVAL_SPECS, sigma, None, full)
        rvol, kappa = scores[0], scores[1:]
        v_inter = max(v_inter, float(np.max(parent_rvol - rvol - 1e-10)))
        v_inter2 = max(v_inter2, float(np.max(kappa - parent_kappa - 1e-10)))
    return v_inter, v_inter2


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
        # the partition and interlacing trials score as they draw, one
        # violation row per trial and lemma, recorded once per block
        units, found = [], collections.defaultdict(list)
        for _ in range(min(_BLOCK_ROUNDS, trials - start)):
            units += [_draw_unit_columns(rng, eps) for eps in _UNIT_FAMILIES]
            _partition_trial(rng, found)
            _interlacing_trial(rng, found)
        for lid, rows in found.items():
            acc[lid].record(rows)
        _unit_column_checks(units, acc)
    return [
        LemmaReport(lid, acc[lid].trials, acc[lid].failures, acc[lid].worst, seed)
        for lid in LEMMA_IDS
    ]


def check_removal_monotonicity(c: DenseMatrix, ell: int, seed: int = 0) -> bool:
    """Whether removing columns never lowers the scaled volume or raises any
    condition number.

    Checks all ell-column submatrices when there are at most 1000, otherwise a
    seeded sample of 1000.
    """
    k = c.cols
    if not 1 <= ell < k:
        raise InvalidParameterError(f"need 1 <= ell < {k}, got {ell}")
    if svd(c).numerical_rank < k:
        raise RankDeficiencyError("removal monotonicity requires full column rank")
    return max(_removal_violations(c, _removal_subsets(k, ell, seed))) <= 0.0


def _removal_subsets(k: int, ell: int, seed: int) -> list:
    """Every ell-column subset of k columns when there are at most 1000, else
    a seeded sample of 1000, each sorted."""
    if math.comb(k, ell) <= 1000:
        return list(itertools.combinations(range(k), ell))
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(k, size=ell, replace=False)) for _ in range(1000)]
