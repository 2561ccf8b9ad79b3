"""One scale rule: every selector certifies A's unit-scale copy, and each
candidate is decomposed at its own unit scale, as ``values`` decomposes a
submatrix.

Scaling A by 2**j therefore leaves every witness as it is and multiplies
every value by exactly 2**(j d), d the criterion's degree, wherever the
value stays finite; where it overflows, the selector raises the error that
names the unscaled witness.  And a witness's value equals ``evaluate`` on
it bit for bit, also where some columns sit far below the rest.
"""

import math

import numpy as np
import pytest

from colsel.criteria import evaluate, parse_criterion, registry
from colsel.errors import InvalidInputError
from colsel.matrixkit import DenseMatrix
from colsel.selectors import select_exact, select_greedy_forward, select_local_swap_volume

K = 4
# name -> (criterion, selector on a DenseMatrix at k = K)
RUNS = {
    **{f"exact-{spec}": (spec, lambda m, spec=spec: select_exact(m, K, spec)) for spec in registry()},
    **{f"greedy-{spec}": (spec, lambda m, spec=spec: select_greedy_forward(m, K, spec))
       for spec in map(parse_criterion, ("vol", "res-frobenius", "cond-two", "sopt"))},
    "local-swap": (parse_criterion("vol"), lambda m: select_local_swap_volume(m, K, seed=3)),
}


def _times_power_of_two(value, shift):
    """value * 2**shift, inf past float64 range."""
    try:
        return math.ldexp(value, shift)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("j", (-900, -500, 500, 900))
@pytest.mark.parametrize("name", RUNS)
def test_a_power_of_two_scales_every_answer_exactly(name, j):
    spec, run = RUNS[name]
    a = np.random.default_rng(3).standard_normal((7, 10))
    base = run(DenseMatrix(a))
    want = _times_power_of_two(base.value.value, j * spec.degree(K))
    scaled = DenseMatrix(np.ldexp(a, j))
    if math.isinf(want):
        with pytest.raises(InvalidInputError, match=f"optimal subset {base.subset} overflows"):
            run(scaled)
        return
    got = run(scaled)
    assert got.subset == base.subset
    assert np.float64(got.value.value).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("ident", ("norm-two", "norm:p=3", "pinv-norm-two", "cond-two", "srank",
                                   "res-two"))
@pytest.mark.parametrize("seed", range(6))
def test_a_witness_scores_as_evaluate_does_beside_columns_far_below_the_rest(seed, ident):
    # columns 0-3 sit 1e150 to 1e275 below the rest: a subset that holds
    # them, decomposed as gathered from the unit-scale copy, would be
    # rescaled inside LAPACK by a factor other than a power of two
    a = np.random.default_rng(seed).standard_normal((8, 10))
    a[:, :4] *= 10.0 ** -(150 + 25 * seed)
    matrix, spec = DenseMatrix(a), parse_criterion(ident)
    result = select_exact(matrix, 3, spec)
    again = evaluate(spec, matrix.columns(result.subset), full_matrix=matrix)
    assert np.float64(result.value.value).tobytes() == np.float64(again.value).tobytes()


@pytest.mark.parametrize("j", (-900, -500, 500, 900))
@pytest.mark.parametrize("spec", registry(), ids=str)
def test_evaluate_scales_exactly_too(spec, j):
    # C is decomposed at its own unit scale, whatever the scale of A
    a = np.random.default_rng(3).standard_normal((7, 10))
    cols = [0, 2, 5, 7]
    want = _times_power_of_two(evaluate(spec, DenseMatrix(a).columns(cols), DenseMatrix(a)).value,
                               j * spec.degree(len(cols)))
    scaled = DenseMatrix(np.ldexp(a, j))
    if math.isinf(want):
        with pytest.raises(InvalidInputError, match="must be finite"):
            evaluate(spec, scaled.columns(cols), scaled)
        return
    got = evaluate(spec, scaled.columns(cols), scaled).value
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_a_condition_number_near_the_top_of_float64_range():
    # sigma_1 of these orthogonal columns, 2e308, overflows unless C is
    # decomposed at its own unit scale
    c = DenseMatrix(np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]]) * 1e308)
    assert abs(evaluate(parse_criterion("cond-two"), c).value - 1.0) <= 4 * np.finfo(float).eps
