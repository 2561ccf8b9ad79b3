"""Properties every criterion keeps, checked on seeded random inputs.

* Column permutation: permuting A's columns permutes the exact optimum's
  witness and leaves its value unchanged, up to rounding.
* Scale: multiplying A by c keeps the witness and scales the value by c^d,
  with d the criterion's degree (1 for the residuals, 0 for the scale-free
  criteria).
* Scalar/batched agreement: on a rank-deficient input, every subset the
  batched path scores has the value ``evaluate`` gives it, bit for bit, and
  every subset it skips makes ``evaluate`` raise.
"""

import itertools

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


SCALE_DEGREES = {"rvol": 0, "srank": 0, "cond-mixed": 0, "cond-two": 0, "res-two": 1}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("c", [1e-150, 1e-80, 1e80, 1e150])
def test_scale(seed, c):
    rng = np.random.default_rng(seed)
    k = 4
    a = rng.standard_normal((8, 10))
    for ident, degree in SCALE_DEGREES.items():
        spec = parse_criterion(ident)
        plain = select_exact(DenseMatrix(a), k, spec)
        scaled = select_exact(DenseMatrix(a * c), k, spec)
        assert scaled.subset == plain.subset, ident
        expected = plain.value.value * c**degree
        assert abs(scaled.value.value - expected) <= 1e-12 * abs(expected), ident


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
