import json
import math
from pathlib import Path

import numpy as np
import pytest

from colsel import lemmas
from colsel.criteria import parse_criterion, relative_volume, stacked_values, values
from colsel.errors import InvalidInputError, InvalidParameterError, RankDeficiencyError
from colsel.lemmas import (_FROBENIUS, _REMOVAL_SPECS, LEMMA_IDS, _removal_subsets,
                           _removal_violations, _unit_claims, _unit_stacks,
                           check_removal_monotonicity, run_suite)
from colsel.matrixkit import DenseMatrix
from colsel.selectors import _batch_stats
from colsel.x3c import gadget

# run_suite(seed=7) reports recorded from the suite before it drew in blocks,
# when it scored each matrix as it drew it
RECORDED = Path(__file__).resolve().parent / "data" / "lemma_reports.json"


class TestRunSuite:
    def test_all_ids_reported_and_green(self):
        reports = run_suite(seed=0, trials=40)
        assert [r.lemma_id for r in reports] == sorted(LEMMA_IDS)
        assert len(reports) == 16
        for rep in reports:
            assert rep.trials >= 40
            assert rep.failures == 0
            assert rep.worst_violation <= 0
            assert rep.seed == 0

    def test_reproducible_for_fixed_seed(self):
        first = run_suite(seed=5, trials=12)
        second = run_suite(seed=5, trials=12)
        assert first == second

    def test_seed_changes_draws(self):
        a = run_suite(seed=1, trials=12)
        b = run_suite(seed=2, trials=12)
        assert any(x.worst_violation != y.worst_violation for x, y in zip(a, b))

    def test_trials_validated(self):
        with pytest.raises(InvalidParameterError):
            run_suite(seed=0, trials=0)

    def test_negative_seed_validated(self):
        # numpy's generator raised a bare ValueError here
        with pytest.raises(InvalidParameterError, match="seed"):
            run_suite(seed=-1, trials=1)

    @pytest.mark.parametrize("block,trials", [(4, 3), (4, 4), (4, 5), (4, 9),
                                              (64, 63), (64, 64), (64, 65)])
    def test_blocks_keep_the_recorded_reports(self, monkeypatch, block, trials):
        monkeypatch.setattr(lemmas, "_BLOCK_ROUNDS", block)
        recorded = json.loads(RECORDED.read_text(encoding="utf-8"))[str(trials)]
        got = [[r.lemma_id, r.trials, r.failures, r.worst_violation]
               for r in run_suite(seed=7, trials=trials)]
        assert got == recorded


def mixed_matrices(seed, count=120):
    """Unit-column, orthonormal and Gaussian matrices, m in 3..8, k in 1..5."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        m = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(5, m) + 1))
        g = rng.standard_normal((m, k))
        out.append([g / np.linalg.norm(g, axis=0), np.linalg.qr(g)[0], g][i % 3])
    return out


class TestStackedScorer:
    def test_equals_values_row_by_row_on_mixed_shapes(self):
        matrices = mixed_matrices(0)
        for k, (rows, sigma, norms, full, defect) in _unit_stacks(matrices).items():
            for specs in ([_FROBENIUS, *[spec for _, spec, _, _ in _unit_claims(k)]],
                          _REMOVAL_SPECS):
                got = stacked_values(specs, sigma, norms, full)
                for col, i in enumerate(rows):
                    c = DenseMatrix(matrices[i])
                    assert got[:, col].tolist() == values(c, specs), (k, i)
            for col, i in enumerate(rows):
                c = matrices[i]
                assert defect[col] == float(np.linalg.norm(c.T @ c - np.eye(k)))
        assert sorted(i for rows, *_ in _unit_stacks(matrices).values() for i in rows) == \
            list(range(len(matrices)))

    def test_rank_deficient_row_raises_as_values_does(self):
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((5, 6, 3))
        stack[2, :, 2] = 2.0 * stack[2, :, 0]
        with pytest.raises(RankDeficiencyError):
            values(DenseMatrix(stack[2]), _REMOVAL_SPECS)
        sigma, full = _batch_stats(stack)
        assert full.tolist() == [True, True, False, True, True]
        with pytest.raises(RankDeficiencyError):
            stacked_values(_REMOVAL_SPECS, sigma, None, full)

    def test_rank_deficient_and_zero_rows_score_as_values_does(self):
        # vol scores a rank-deficient matrix 0, norm and srank score it as is,
        # and all three score the zero matrix 0
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((4, 6, 3))
        stack[1, :, 2] = 2.0 * stack[1, :, 0]
        stack[3] = 0.0
        specs = list(map(parse_criterion, ("vol", "norm-two", "norm:p=3", "srank")))
        sigma, full = _batch_stats(stack)
        got = stacked_values(specs, sigma, None, full)
        for b, c in enumerate(stack):
            assert got[:, b].tolist() == values(DenseMatrix(c), specs), b
        assert got[0, 1] == got[0, 3] == 0.0 and got[1, 1] > 0.0

    def test_zero_column_with_sopt_raises_as_values_does(self):
        stack = np.random.default_rng(2).standard_normal((4, 5, 3))
        stack[3, :, 1] = 0.0
        sopt = (parse_criterion("sopt"),)
        with pytest.raises(InvalidInputError, match="zero column"):
            values(DenseMatrix(stack[3]), sopt)
        (_, sigma, norms, full, _), = _unit_stacks(list(stack)).values()
        with pytest.raises(InvalidInputError, match="zero column"):
            stacked_values(sopt, sigma, norms, full)


class TestRemovalMonotonicity:
    def test_orthonormal_matrix(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((7, 4)))
        assert check_removal_monotonicity(DenseMatrix(q), 2) is True

    def test_overlap_pattern_single_column(self):
        g = gadget(1)
        assert check_removal_monotonicity(g, 1) is True
        np.testing.assert_allclose(relative_volume(g), 1 / math.sqrt(2), atol=1e-12)
        assert relative_volume(g.columns([0])) == 1.0

    def test_random_full_rank_all_depths(self):
        rng = np.random.default_rng(8)
        c = DenseMatrix(rng.standard_normal((8, 5)))
        for ell in range(1, 5):
            assert check_removal_monotonicity(c, ell) is True

    def test_rank_deficient_rejected(self):
        col = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(RankDeficiencyError):
            check_removal_monotonicity(DenseMatrix(np.hstack([col, 2 * col])), 1)

    def test_ell_bounds(self):
        c = DenseMatrix(np.eye(3))
        with pytest.raises(InvalidParameterError):
            check_removal_monotonicity(c, 0)
        with pytest.raises(InvalidParameterError):
            check_removal_monotonicity(c, 3)

    def test_sampled_path_for_many_submatrices(self):
        rng = np.random.default_rng(4)
        c = DenseMatrix(rng.standard_normal((16, 14)))
        assert check_removal_monotonicity(c, 7, seed=1) is True


def per_subset_violations(c, subsets):
    """The removal violations with one ``values`` call per subset."""
    parent_rvol, *parent_kappa = values(c, _REMOVAL_SPECS)
    v_inter = v_inter2 = -math.inf
    for sub in subsets:
        rvol, *kappa = values(c.columns(sub), _REMOVAL_SPECS)
        v_inter = max(v_inter, parent_rvol - rvol - 1e-10)
        for kappa_sub, kappa_parent in zip(kappa, parent_kappa):
            v_inter2 = max(v_inter2, kappa_sub - kappa_parent - 1e-10)
    return v_inter, v_inter2


@pytest.mark.parametrize("m,k,ell,seed", [(8, 5, 2, 8), (6, 4, 3, 3), (9, 9, 4, 5), (16, 14, 7, 4)])
def test_stacked_removal_equals_per_subset_values(monkeypatch, m, k, ell, seed):
    # (16, 14, 7) takes the seeded sample of 1000 subsets
    c = DenseMatrix(np.random.default_rng(seed).standard_normal((m, k)))
    subsets = _removal_subsets(k, ell, seed=1)
    assert len(subsets) == min(math.comb(k, ell), 1000)
    want = per_subset_violations(c, subsets)
    assert _removal_violations(c, subsets) == want
    # stacks of a few subsets each give the same maxima
    monkeypatch.setattr(lemmas, "_STACK_ENTRIES", 3 * m * ell)
    assert _removal_violations(c, subsets) == want
