"""The screened heuristic selectors against scoring every candidate.

``select_greedy_forward`` (vol, res-frobenius) and ``select_local_swap_volume``
estimate every candidate by a rank-one update and run the batched SVD only on
the near-best.  The oracles below are the loops that score every candidate
through ``_batch_scores``; the selectors must return the same subset, the same
value under ``==`` and the same ``subsets_evaluated`` (or raise the same
error), also on inputs where the estimates are poor: rank(A) < k, duplicated
and nearly duplicated columns, extreme scales, and a near-dependent column
whose value nearly ties the best.
"""

import itertools

import numpy as np
import pytest

from colsel import selectors
from colsel.criteria import CriterionSpec, CriterionValue, batch_values, parse_criterion
from colsel.errors import InfeasibleError
from colsel.matrixkit import DenseMatrix
from colsel.selectors import (
    _batch_scores,
    _batch_stats,
    _best_row,
    _stack,
    select_greedy_forward,
    select_local_swap_volume,
)


def oracle_greedy(matrix, k, criterion):
    a = matrix.array
    col_norms = matrix.column_norms()
    maximize = criterion.direction == "maximize"
    evaluated = 0
    chosen = ()
    for _ in range(k):
        remaining = [j for j in range(matrix.cols) if j not in chosen]
        cands = [tuple(sorted(chosen + (j,))) for j in remaining]
        ((vals, valid),) = _batch_scores(a, col_norms, np.array(cands, dtype=np.intp), [criterion])
        evaluated += len(cands)
        row = _best_row(vals, valid, maximize)
        if row is None:
            raise InfeasibleError("every extension is rank-deficient")
        chosen = cands[row]
        last_value = float(vals[row])
    CriterionValue(last_value, criterion, k)
    return chosen, last_value, evaluated


def oracle_local_swap(matrix, k, seed=0, max_sweeps=100):
    n = matrix.cols
    rng = np.random.default_rng(seed)
    a = matrix.array
    col_norms = matrix.column_norms()
    vol_spec = CriterionSpec("vol")
    evaluated = 0
    current = None

    def volume(idx, sigma, full):
        # batch_values, unlike np.prod, keeps an overflowing volume free of warnings
        vols, _ = batch_values(vol_spec, sigma, col_norms[idx], full)
        return float(vols[0])

    for _ in range(n * k):
        cand = np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)
        sigma, full = _batch_stats(_stack(a, cand[None, :]))
        evaluated += 1
        if full[0]:
            current = tuple(int(i) for i in cand)
            current_vol = volume(cand[None, :], sigma, full)
            break
    if current is None:  # greedy vol's subset, if full rank, is the start
        chosen, _, count = oracle_greedy(matrix, k, vol_spec)
        evaluated += count
        idx = np.array([chosen], dtype=np.intp)
        sigma, full = _batch_stats(_stack(a, idx))
        if not full[0]:
            raise InfeasibleError("no full-rank starting subset")
        current, current_vol = chosen, volume(idx, sigma, full)
    for _ in range(max_sweeps):
        outside = [j for j in range(n) if j not in current]
        if not outside:
            break
        swaps = [tuple(sorted(current[:pos] + current[pos + 1:] + (j,)))
                 for pos in range(k) for j in outside]
        ((vols, _),) = _batch_scores(a, col_norms, np.array(swaps, dtype=np.intp), [vol_spec])
        evaluated += len(swaps)
        best_row = int(np.argmax(vols))
        if vols[best_row] > current_vol * (1.0 + selectors.SWAP_IMPROVEMENT):
            current = swaps[best_row]
            current_vol = float(vols[best_row])
        else:
            break
    CriterionValue(current_vol, vol_spec, k)
    return current, current_vol, evaluated


def _gaussian(seed, m=60, n=200):
    return np.random.default_rng(seed).standard_normal((m, n))


def _low_rank(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((60, 8)) @ rng.standard_normal((8, 200))


def _duplicated(seed):
    a = _gaussian(seed)
    a[:, [17, 64, 150]] = a[:, [3, 40, 3]]
    return a


def _sparse_support(seed):
    # only 12 of 200 columns are nonzero, so local swap's seeded draws never
    # find a full-rank start of 12 columns and greedy vol's subset is its start
    a = np.zeros((60, 200))
    a[:, ::17] = _gaussian(seed, 60, 12)
    return a


def _near_duplicate(seed):
    # columns 7 and 16 are both in local swap's seed-3 start, so its first
    # sweep starts from a selection with condition number near 1e10
    a = _gaussian(seed)
    a[:, 16] = a[:, 7] + 1e-9 * np.random.default_rng(seed + 1).standard_normal(60)
    return a


def _near_tie_vol(seed, big):
    # column 0, scaled by ``big``, is greedy vol's first choice; column 59 is
    # 0.999 times it plus the best other column's part outside it, so the two
    # second steps nearly tie while column 59 is near-dependent on column 0
    a = np.random.default_rng(seed).standard_normal((30, 60))
    a[:, 0] *= big
    u = a[:, 0] / np.linalg.norm(a[:, 0])
    rest = a - np.outer(u, u @ a)
    best = 1 + int(np.argmax(np.linalg.norm(rest[:, 1:], axis=0)))
    a[:, 59] = 0.999 * a[:, 0] + rest[:, best]
    return a


def _near_tie_residual(seed):
    # column 59 is greedy res-frobenius's first choice plus 1e-12 times the
    # part of its third choice outside the first two, so at the third step it
    # nearly ties that choice while being near-dependent on the first
    a = np.random.default_rng(seed).standard_normal((30, 60))
    crit = parse_criterion("res-frobenius")
    first, third = oracle_greedy(DenseMatrix(a), 2, crit)[0], oracle_greedy(DenseMatrix(a), 3, crit)[0]
    (pick,) = set(third) - set(first)
    q = np.linalg.qr(a[:, list(first)])[0]
    a[:, 59] = a[:, first[0]] + 1e-12 * (a[:, pick] - q @ (q.T @ a[:, pick]))
    return a


# name -> (matrix, k)
CASES = {
    **{f"gaussian-{s}": (lambda s=s: _gaussian(s), 12) for s in (0, 1, 2, 3)},
    "rank-8": (lambda: _low_rank(4), 12),
    "duplicated": (lambda: _duplicated(5), 12),
    "sparse-support": (lambda: _sparse_support(10), 12),
    "near-duplicate": (lambda: _near_duplicate(6), 12),
    **{f"scale-{c:g}": (lambda c=c: _gaussian(7) * c, 12) for c in (1e-150, 1e-100, 1e100, 1e150)},
    # small enough that vol stays finite at 1e+-100, so values are compared there too
    **{f"small-scale-{c:g}": (lambda c=c: _gaussian(8, 12, 40) * c, 3) for c in (1e-100, 1e100)},
    # max|A| at or above 2**1023
    "entry-1e308": (lambda: np.array([[1e308, 1.0]]), 1),
    "near-tie-vol-1e11": (lambda: _near_tie_vol(4, 1e11), 6),
    "near-tie-vol-1e12": (lambda: _near_tie_vol(0, 1e12), 6),
    "near-tie-res-frobenius": (lambda: _near_tie_residual(9), 6),
}

RUNS = {
    "greedy-vol": (lambda m, k: select_greedy_forward(m, k, parse_criterion("vol")),
                   lambda m, k: oracle_greedy(m, k, parse_criterion("vol"))),
    "greedy-res-frobenius": (lambda m, k: select_greedy_forward(m, k, parse_criterion("res-frobenius")),
                             lambda m, k: oracle_greedy(m, k, parse_criterion("res-frobenius"))),
    "local-swap": (lambda m, k: select_local_swap_volume(m, k, seed=3),
                   lambda m, k: oracle_local_swap(m, k, seed=3)),
}


def _outcome(run):
    try:
        return ("ok",) + run()
    except Exception as exc:  # the oracle and the selector must fail alike
        return ("error", type(exc).__name__)


def _selector_outcome(run):
    def call():
        result = run()
        return result.subset.indices, result.value.value, result.subsets_evaluated
    return _outcome(call)


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_screened_selector_equals_scoring_every_candidate(case, run):
    make, k = CASES[case]
    matrix = DenseMatrix(make())
    selector, oracle = RUNS[run]
    expected = _outcome(lambda: oracle(matrix, k))
    assert _selector_outcome(lambda: selector(matrix, k)) == expected


def test_local_swap_certifies_few_swaps_per_sweep(svd_rows):
    k, n = 12, 200
    result = select_local_swap_volume(DenseMatrix(_gaussian(11)), k, seed=1)
    per_sweep = k * (n - k)
    sweeps = (result.subsets_evaluated - 1) // per_sweep
    assert sweeps >= 2 and len(svd_rows) >= sweeps
    assert sum(svd_rows) <= sweeps * per_sweep // 50
    assert per_sweep not in svd_rows


def test_greedy_certifies_few_extensions_per_step(svd_rows):
    matrix = DenseMatrix(_gaussian(12))
    for ident in ("vol", "res-frobenius"):
        svd_rows.clear()
        result = select_greedy_forward(matrix, 12, parse_criterion(ident))
        assert len(svd_rows) == 12
        assert sum(svd_rows) <= result.subsets_evaluated // 20, ident


@pytest.mark.parametrize("run", sorted(RUNS))
def test_wrong_estimates_fall_back_to_scoring_every_candidate(run, monkeypatch):
    # reversed estimates are plausible in size but belong to other candidates;
    # the guard must notice and score every candidate
    def reversed_estimates(real):
        def wrapped(*args):
            band = real(*args)
            return band[0][::-1].copy(), band[1]
        return wrapped

    for name in ("_swap_estimates", "_extension_estimates"):
        monkeypatch.setattr(selectors, name, reversed_estimates(getattr(selectors, name)))
    matrix = DenseMatrix(_gaussian(13))
    selector, oracle = RUNS[run]
    assert _selector_outcome(lambda: selector(matrix, 12)) == _outcome(lambda: oracle(matrix, 12))


def _exact_band(matrix, idx, spec):
    """A band (estimate, width) whose estimates are the values themselves."""
    ((vals, _),) = _batch_scores(matrix.array, matrix.column_norms(), idx, [spec])
    return vals.copy(), 1e-9 * np.abs(vals)


def _every_row(matrix, idx, spec):
    ((vals, valid),) = _batch_scores(matrix.array, matrix.column_norms(), idx, [spec])
    row = _best_row(vals, valid, spec.direction == "maximize")
    return float(vals[row]), tuple(int(i) for i in idx[row])


def _triples(seed):
    """A seeded 8 x 12 matrix and the index rows of its C(12, 3) column triples."""
    idx = np.array(list(itertools.combinations(range(12), 3)), dtype=np.intp)
    return DenseMatrix(_gaussian(seed, 8, 12)), idx


def _screened(matrix, idx, specs, bands):
    return selectors._screened_best(matrix.array, matrix.column_norms(), idx, specs, bands)


def test_rows_without_a_usable_estimate_are_certified_alone(svd_rows):
    # an infinite estimate and a NaN width each mark a row as unusable; only
    # those two rows and the near-best one reach the SVD
    matrix, idx = _triples(14)
    spec = parse_criterion("vol")
    estimate, width = _exact_band(matrix, idx, spec)
    best = _every_row(matrix, idx, spec)
    low, lower = np.argsort(estimate)[:2]  # two rows far below the best
    estimate[low], width[lower] = np.inf, np.nan
    svd_rows.clear()
    assert _screened(matrix, idx, [spec], [(estimate, width)]) == [best]
    assert svd_rows == [3]


def test_a_spec_without_finite_widths_certifies_every_row_in_one_call(svd_rows):
    # sopt has no usable estimate at all, so the union is every row, and one
    # call certifies it for both specs
    matrix, idx = _triples(15)
    vol, sopt = parse_criterion("vol"), parse_criterion("sopt")
    blank = (np.zeros(len(idx)), np.full(len(idx), np.inf))
    svd_rows.clear()
    out = _screened(matrix, idx, [vol, sopt], [_exact_band(matrix, idx, vol), blank])
    assert out == [_every_row(matrix, idx, vol), _every_row(matrix, idx, sopt)]
    assert svd_rows == [len(idx)]


def test_a_union_of_every_row_gives_its_best_though_values_leave_their_bands(svd_rows):
    # every band is about 0 and reaches the best, so every row is certified;
    # no volume lies in its band, yet there is nothing left to rescore
    matrix, idx = _triples(16)
    spec = parse_criterion("vol")
    band = np.zeros(len(idx)), np.full(len(idx), 1e-300)
    svd_rows.clear()
    assert _screened(matrix, idx, [spec], [band]) == [_every_row(matrix, idx, spec)]
    assert svd_rows == [len(idx)]


def test_a_certified_best_outside_its_band_rescores_every_row(svd_rows):
    # the best row's band lies below its value but still reaches the best
    # band; the union leaves rows out, so the spec is rescored on every row
    matrix, idx = _triples(17)
    spec = parse_criterion("vol")
    estimate, _ = _exact_band(matrix, idx, spec)
    width = np.full(len(idx), 0.05 * estimate.max())
    top = int(np.argmax(estimate))
    estimate[top] -= 1.5 * width[top]
    union = np.count_nonzero(estimate + width >= np.max(estimate - width))
    assert 1 < union < len(idx)
    svd_rows.clear()
    assert _screened(matrix, idx, [spec], [(estimate, width)]) == [_every_row(matrix, idx, spec)]
    assert svd_rows == [union, len(idx)]


def test_criteria_without_a_rank_one_estimate_get_infinite_widths():
    a = _gaussian(16, 10, 20)
    unit, scale = selectors._unit_scaled(a)
    remaining = np.arange(2, 20)
    for ident in ("sopt", "rvol", "res-two"):
        estimate, width = selectors._extension_estimates(parse_criterion(ident), unit, scale,
                                                         (0, 1), remaining, 1.0)
        assert estimate.shape == width.shape == remaining.shape
        assert np.all(width == np.inf), ident
