"""The X3C checks at M = 6 and 7, sizes that only the subset budget bounds.

The largest instance here, M = 7 with n = 21, is C(21, 7) = 116,280 subsets
per enumeration.
"""

import functools

import pytest

from colsel.x3c import gap_report, generate_false, generate_true, verify_equivalence

FALSE = [(6, 18, 0), (6, 18, 1), (7, 21, 0)]
TRUE = [(6, 12, 0), (7, 14, 0)]


@functools.cache
def _gap(m, n, seed, threads=1):
    return gap_report(generate_false(m, n, seed), threads=threads)


@pytest.mark.parametrize("m, n, seed", FALSE)
def test_every_gap_row_holds(m, n, seed):
    reports = _gap(m, n, seed)
    assert len(reports) == 12
    assert all(rep.gap_holds for rep in reports), [
        (rep.criterion.identifier, rep.exact_optimum, rep.threshold) for rep in reports
        if not rep.gap_holds]
    assert all(len(rep.witness) == m for rep in reports)


@pytest.mark.parametrize("m, n, seed", FALSE[:2])
def test_gap_report_identical_at_two_threads(m, n, seed):
    assert _gap(m, n, seed, threads=2) == _gap(m, n, seed)


@pytest.mark.parametrize("generate, m, size, seed", [
    *((generate_false, m, n, seed) for m, n, seed in FALSE),
    *((generate_true, m, extra, seed) for m, extra, seed in TRUE),
])
def test_equivalence_holds(generate, m, size, seed):
    assert verify_equivalence(generate(m, size, seed)) is True
