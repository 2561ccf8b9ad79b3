import math

import numpy as np
import pytest

from colsel.criteria import relative_volume
from colsel.errors import InvalidParameterError, RankDeficiencyError
from colsel.lemmas import LEMMA_IDS, check_removal_monotonicity, run_suite
from colsel.matrixkit import DenseMatrix
from colsel.x3c import gadget


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
