"""Seeded randomized checks for every optimal-value and partition inequality.

``run_suite`` draws matrix families (random unit-column, orthonormal,
near-orthonormal perturbations, full-column-rank partitions, and parent/
submatrix pairs) and evaluates each documented inequality, equality band,
monotonicity and reconstruction identity on them.  Failures are data, not
exceptions: each check contributes a signed violation (positive means the
tolerance was exceeded) and the per-check maxima are aggregated into one
report record per lemma id.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criteria import CriterionSpec, parse_criterion, values
# unused here, but bench/tracer.py PATCHES wraps these names in this module (ROADMAP item 4)
from .criteria import (condition_number, pinv_schatten_norm, relative_volume,  # noqa: F401
                       s_optimality, schatten_norm, stable_rank, volume)
from .errors import InvalidParameterError, RankDeficiencyError
from .matrixkit import DenseMatrix, complement_projector, partitioned_pinv, pseudo_inverse, svd

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


@dataclass(frozen=True)
class SuiteSizes:
    """Dimension and Schatten-parameter ranges the suite draws from (p_large >= 2)."""

    rows: tuple[int, int] = (3, 8)
    subset_cols: tuple[int, int] = (1, 5)
    parent_cols: tuple[int, int] = (2, 8)
    p_large: tuple[float, ...] = (3.0, 4.0, 6.0)
    p_small: tuple[float, ...] = (1.0, 1.5)
    submatrix_samples: int = 12


class _Accumulator:
    __slots__ = ("trials", "failures", "worst")

    def __init__(self):
        self.trials = 0
        self.failures = 0
        self.worst = -math.inf

    def record(self, *violations: float):
        worst = max(violations)
        self.trials += 1
        self.worst = max(self.worst, worst)
        if worst > 0.0:
            self.failures += 1


def _band(defect: float, value: float, optimum: float) -> float:
    """Two-sided equality-characterization check, as a signed violation."""
    hit = abs(value - optimum)
    v_if = (hit - BAND_LOOSE) if defect <= DEFECT_TIGHT else -math.inf
    v_only_if = (defect - DEFECT_LOOSE) if hit <= BAND_TIGHT else -math.inf
    return max(v_if, v_only_if)


def _orthonormality_defect(c: DenseMatrix) -> float:
    k = c.cols
    return float(np.linalg.norm(c.array.T @ c.array - np.eye(k)))


def _draw_full_rank(rng, m: int, k: int) -> DenseMatrix:
    for _ in range(64):
        g = rng.standard_normal((m, k))
        c = DenseMatrix(g)
        if svd(c).numerical_rank == k:
            return c
    raise RuntimeError("could not draw a full-rank matrix")  # pragma: no cover


def _unit_columns(arr: np.ndarray) -> DenseMatrix:
    return DenseMatrix(arr / np.linalg.norm(arr, axis=0))


_FROBENIUS, _VOLUME, _RVOL = map(parse_criterion, ("norm-frobenius", "vol", "rvol"))


@functools.lru_cache(maxsize=None)
def _unit_claims(sizes: SuiteSizes, k: int) -> tuple[tuple[str, CriterionSpec, float, bool], ...]:
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
    for p in sizes.p_large:
        ids += [("l_norm", f"norm:p={p}"), ("l_pinv", f"pinv-norm:p={p}"), ("l_cond", f"cond:p={p}"),
                ("l_cond", f"cond-mixed:p={p}"), ("l_srank", f"srank:p={p}")]
    specs = [(lid, parse_criterion(ident)) for lid, ident in ids]
    rows = [(lid, spec, spec.optimal_unit_value(k), spec.direction == "maximize") for lid, spec in specs]
    rows += [("r_schattenp", parse_criterion("norm", p), k ** (1.0 / p), True) for p in sizes.p_small]
    return tuple(rows)


def _unit_column_checks(c: DenseMatrix, acc: dict, sizes: SuiteSizes):
    """All unit-column optimal-value lemmas on one matrix, every claim scored
    from one SVD; each claim row yields its bound check and its equality check."""
    k = c.cols
    claims = _unit_claims(sizes, k)
    specs = [_FROBENIUS] + [spec for _, spec, _, _ in claims]
    value = dict(zip(specs, values(c, specs)))
    fro, vol = value[_FROBENIUS], value[_VOLUME]
    # the claims that are not rows: rvol is non-negative, and for p < 2 the
    # Schatten-p norm of unit columns is also bounded below by sqrt(k)
    small = [value[spec] for lid, spec, _, _ in claims if lid == "r_schattenp"]
    found = {"lem:orth": [-value[_RVOL]], "r_schattenp": [(math.sqrt(k) - v) - 1e-10 for v in small]}

    defect = _orthonormality_defect(c)
    acc["e_srk"].record(abs(fro**2 - k) - 1e-12)
    acc["e_mean"].record(vol ** (2.0 / k) - fro**2 / k - 1e-12)
    for lid, spec, optimum, is_max in claims:
        excess = value[spec] - optimum if is_max else optimum - value[spec]
        found.setdefault(lid, []).extend((excess - 1e-10, _band(defect, value[spec], optimum)))
    for lid, violations in found.items():
        acc[lid].record(*violations)


def _dims(rng, sizes: SuiteSizes) -> tuple[int, int]:
    m = int(rng.integers(sizes.rows[0], sizes.rows[1] + 1))
    k_hi = min(sizes.subset_cols[1], m)
    k = int(rng.integers(sizes.subset_cols[0], k_hi + 1))
    return m, k


# the unit-column families by perturbation size: normalized Gaussian columns
# (None), orthonormal columns (0) and two normalized perturbations of them
_UNIT_FAMILIES = (None, 0.0, 1e-6, 1e-3)


def _unit_column_trial(rng, sizes, acc, eps: float | None):
    m, k = _dims(rng, sizes)
    arr = _draw_full_rank(rng, m, k).array
    if eps is None:
        c = _unit_columns(arr)
    elif eps == 0.0:
        c = DenseMatrix(np.linalg.qr(arr)[0])
    else:
        q, _ = np.linalg.qr(arr)
        g = rng.standard_normal((m, k))
        c = _unit_columns(q + eps * (g / np.linalg.norm(g, 2)))
    _unit_column_checks(c, acc, sizes)


_PINV_POWERS = (2.0, 3.0, 4.0, 6.0)
_PINV_SPECS = tuple(parse_criterion("pinv-norm", p) for p in _PINV_POWERS)


def _partition_trial(rng, sizes, acc):
    m = int(rng.integers(max(sizes.rows[0], 3), sizes.rows[1] + 1))
    n = int(rng.integers(2, min(m, 6) + 1))
    c = _draw_full_rank(rng, m, n)
    split = int(rng.integers(1, n))
    c1 = DenseMatrix(c.array[:, :split])
    c2 = DenseMatrix(c.array[:, split:])

    # block-diagonal Schatten-p norms add in p-th powers, so the parts'
    # pseudo-inverse norms, in p-th powers, sum to at most C's (l_fi is p=2)
    pinv1, pinv2 = values(c1, _PINV_SPECS), values(c2, _PINV_SPECS)
    vol, *pinv = values(c, (_VOLUME, *_PINV_SPECS))
    excess = [a**p + b**p - whole**p - 1e-9
              for p, a, b, whole in zip(_PINV_POWERS, pinv1, pinv2, pinv)]
    acc["l_fi"].record(excess[0])
    acc["l_pi1"].record(*excess[1:])

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
    acc["l_pi0"].record(recon - 1e-9, -spd)

    # determinant identity for appending one column
    head = DenseMatrix(c.array[:, :-1])
    tail = c.array[:, -1]
    lhs = vol**2
    gram = head.array.T @ head.array
    rhs = float(np.linalg.det(gram) * np.sum((complement_projector(head).array @ tail) ** 2))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    acc["e_sc"].record(abs(lhs - rhs) / scale - 1e-9)


def _interlacing_trial(rng, sizes, acc):
    m = int(rng.integers(sizes.rows[0], sizes.rows[1] + 1))
    n = int(rng.integers(sizes.parent_cols[0], sizes.parent_cols[1] + 1))
    a = DenseMatrix(rng.standard_normal((m, n)))
    k = int(rng.integers(2, min(m, n, sizes.subset_cols[1]) + 1)) if min(m, n) > 2 else 2
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
    acc["e_inter"].record(worst)

    if svd_c.numerical_rank < k:
        acc["l_inter"].record(-math.inf)
        acc["l_inter2"].record(-math.inf)
        return
    ell = int(rng.integers(1, k))
    subsets = list(itertools.combinations(range(k), ell))
    if len(subsets) > sizes.submatrix_samples:
        pick = rng.choice(len(subsets), size=sizes.submatrix_samples, replace=False)
        subsets = [subsets[i] for i in sorted(pick)]
    v_inter, v_inter2 = _removal_violations(c, subsets)
    acc["l_inter"].record(v_inter)
    acc["l_inter2"].record(v_inter2)


# rvol, then the five condition numbers that never rise when columns go
_REMOVAL_SPECS = tuple(map(parse_criterion, (
    "rvol", "cond-two", "cond-frobenius", "cond:p=4", "cond-mixed", "cond-mixed:p=4")))


def _removal_violations(c: DenseMatrix, subsets) -> tuple[float, float]:
    """Signed worst violations, over the column ``subsets`` of C, of the scaled
    volume never dropping (l_inter) and no condition number rising (l_inter2)
    when columns are removed; each matrix is scored from one SVD."""
    parent_rvol, *parent_kappa = values(c, _REMOVAL_SPECS)
    v_inter = v_inter2 = -math.inf
    for sub_idx in subsets:
        rvol, *kappa = values(c.columns(sub_idx), _REMOVAL_SPECS)
        v_inter = max(v_inter, parent_rvol - rvol - 1e-10)
        for kappa_sub, kappa_parent in zip(kappa, parent_kappa):
            v_inter2 = max(v_inter2, kappa_sub - kappa_parent - 1e-10)
    return v_inter, v_inter2


def run_suite(seed: int = 0, trials: int = 200, sizes: SuiteSizes | None = None) -> list[LemmaReport]:
    """Run every documented check ``trials`` times per matrix family.

    Deterministic given ``seed``; the report is sorted by lemma id and a
    missing id means the suite itself is broken.
    """
    if trials < 1:
        raise InvalidParameterError(f"need trials >= 1, got {trials}")
    sizes = sizes or SuiteSizes()
    acc = {lid: _Accumulator() for lid in LEMMA_IDS}
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        for eps in _UNIT_FAMILIES:
            _unit_column_trial(rng, sizes, acc, eps)
        _partition_trial(rng, sizes, acc)
        _interlacing_trial(rng, sizes, acc)
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
    total = math.comb(k, ell)
    if total <= 1000:
        subsets = itertools.combinations(range(k), ell)
    else:
        rng = np.random.default_rng(seed)
        subsets = (
            tuple(np.sort(rng.choice(k, size=ell, replace=False))) for _ in range(1000)
        )
    return max(_removal_violations(c, subsets)) <= 0.0
