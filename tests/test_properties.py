"""Properties every criterion keeps, checked on seeded random inputs.

* Column permutation: permuting A's columns permutes the exact optimum's
  witness and leaves its value unchanged, up to rounding.
* Scale: multiplying A by c keeps the witness and scales the value by c^d,
  with d the criterion's degree (k for vol, 1 for the Schatten norms and the
  residuals, -1 for the pseudo-inverse norms, 0 for the scale-free rest);
  where c^d times the value leaves float64 range, the search fails with an
  error that names the witness, and below it returns the rounded subnormal
  or 0 with the same witness.
* Scalar/batched agreement: on a rank-deficient input, every subset the
  batched path scores has the value ``evaluate`` gives it, bit for bit, and
  every subset it skips makes ``evaluate`` raise.
"""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from colsel.criteria import evaluate, parse_criterion, registry
from colsel.errors import InvalidInputError, RankDeficiencyError
from colsel.matrixkit import DenseMatrix
from colsel.selectors import _batch_scores, select_exact


def all_subsets(n, k):
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


def runner_up_gap(a, k, spec):
    """|best - second best| over every valid k-subset of ``a``."""
    (vals, valid), = _batch_scores(a, np.linalg.norm(a, axis=0), all_subsets(a.shape[1], k), [spec])
    ranked = np.sort(vals[valid])
    best, second = (ranked[-1], ranked[-2]) if spec.direction == "maximize" else ranked[:2]
    return abs(best - second)


@pytest.mark.parametrize("seed", range(4))
def test_column_permutation(seed):
    rng = np.random.default_rng(seed)
    k = 3
    a = rng.standard_normal((7, 9))
    perm = rng.permutation(9)
    for spec in registry():
        plain = select_exact(DenseMatrix(a), k, spec)
        permuted = select_exact(DenseMatrix(a[:, perm]), k, spec)
        tol = k * 1e-15 * abs(plain.value.value)
        assert abs(permuted.value.value - plain.value.value) <= tol, spec.identifier
        if runner_up_gap(a, k, spec) > tol:
            back = tuple(sorted(int(perm[j]) for j in permuted.subset.indices))
            assert back == plain.subset.indices, spec.identifier


SCALE_K = 4
# every registered criterion's degree d at k = SCALE_K: value(cA) = c^d value(A)
SCALE_DEGREES = {
    "vol": SCALE_K, "rvol": 0, "sopt": 0,
    "norm-two": 1, "norm:p=3": 1, "norm:p=4": 1, "norm-frobenius": 1,
    "pinv-norm-two": -1, "pinv-norm-frobenius": -1, "pinv-norm:p=3": -1, "pinv-norm:p=4": -1,
    "cond-two": 0, "cond-frobenius": 0, "cond:p=3": 0, "cond:p=4": 0,
    "cond-mixed": 0, "cond-mixed:p=3": 0, "cond-mixed:p=4": 0,
    "srank": 0, "srank:p=3": 0, "srank:p=4": 0, "res-two": 1, "res-frobenius": 1,
}


def test_scale_degrees_cover_the_registry():
    assert sorted(SCALE_DEGREES) == sorted(map(str, registry()))
    for ident, degree in SCALE_DEGREES.items():
        assert parse_criterion(ident).degree(SCALE_K) == degree, ident


def scaled_value(value: float, c: float, degree: int) -> float:
    """c^degree * value, correctly rounded; inf above float64 range."""
    try:
        return float(Fraction(value) * Fraction(c) ** degree)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("c", [1e-150, 1e-80, 1e80, 1e150])
def test_scale(seed, c):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 10))
    smallest_normal = np.finfo(np.float64).smallest_normal
    for ident, degree in SCALE_DEGREES.items():
        spec = parse_criterion(ident)
        plain = select_exact(DenseMatrix(a), SCALE_K, spec)
        expected = scaled_value(plain.value.value, c, degree)
        if expected == math.inf:
            with pytest.raises(InvalidInputError, match=re.escape(f"subset {plain.subset} ")):
                select_exact(DenseMatrix(a * c), SCALE_K, spec)
            continue
        scaled = select_exact(DenseMatrix(a * c), SCALE_K, spec)
        assert scaled.subset == plain.subset, ident
        error = abs(scaled.value.value - expected)
        if abs(expected) >= smallest_normal:
            assert error <= 1e-12 * abs(expected), ident
        else:  # the subnormal or 0 it rounds to, to within its last place
            assert error <= 1e-12 * abs(expected) + 2.0**-1074, ident


def rank_deficient_matrix():
    """6 x 9 with column 3 = column 0, column 5 = column 1 + 2 column 2, column 7 = 0."""
    a = np.random.default_rng(5).standard_normal((6, 9))
    a[:, 3] = a[:, 0]
    a[:, 5] = a[:, 1] + 2.0 * a[:, 2]
    a[:, 7] = 0.0
    return a


@pytest.mark.parametrize("spec", registry(), ids=lambda spec: spec.identifier)
def test_scalar_and_batched_agree_on_rank_deficient_subsets(spec):
    a = rank_deficient_matrix()
    idx = all_subsets(a.shape[1], 3)
    (vals, valid), = _batch_scores(a, np.linalg.norm(a, axis=0), idx, [spec])
    parent = DenseMatrix(a)
    for row, value, ok in zip(idx, vals, valid):
        c = DenseMatrix(a[:, row])
        if ok:
            assert evaluate(spec, c, parent).value == value, row
        else:
            with pytest.raises((RankDeficiencyError, InvalidInputError)):
                evaluate(spec, c, parent)
