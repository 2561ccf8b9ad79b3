import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from colsel.criteria import evaluate, parse_criterion
from colsel.errors import InfeasibleError, InvalidInputError, InvalidParameterError
from colsel.matrixkit import DenseMatrix
from colsel import screen, selectors
from colsel.selectors import (
    ColumnSubset,
    DecisionOutcome,
    DecisionQuery,
    check_exhaustive,
    decide,
    select_exact,
    select_greedy_forward,
    select_greedy_frobenius,
    select_local_swap_volume,
)
from colsel import x3c


def brute_force(matrix, k, spec):
    """Independent oracle: plain loop over combinations, scalar evaluation."""
    best = None
    for combo in itertools.combinations(range(matrix.cols), k):
        sub = matrix.columns(combo)
        try:
            value = evaluate(spec, sub, full_matrix=matrix).value
        except Exception:
            continue
        if best is None:
            best = (value, combo)
        elif spec.direction == "maximize" and value > best[0]:
            best = (value, combo)
        elif spec.direction == "minimize" and value < best[0]:
            best = (value, combo)
    return best


class TestColumnSubset:
    def test_validation(self):
        assert ColumnSubset((0, 2, 5)).indices == (0, 2, 5)
        with pytest.raises(InvalidParameterError):
            ColumnSubset(())
        with pytest.raises(InvalidParameterError):
            ColumnSubset((2, 1))
        with pytest.raises(InvalidParameterError):
            ColumnSubset((1, 1))
        with pytest.raises(InvalidParameterError):
            ColumnSubset((-1, 0))


class TestSelectExact:
    def test_identity_tie_break(self):
        result = select_exact(DenseMatrix(np.eye(3)), 2, parse_criterion("vol"))
        assert result.subset.indices == (0, 1)
        assert result.value.value == 1.0
        assert result.subsets_evaluated == 3

    def test_three_column_volume(self):
        a = DenseMatrix([[1.0, 0.0, 2**-0.5], [0.0, 1.0, 2**-0.5]])
        result = select_exact(a, 2, parse_criterion("vol"))
        assert result.subset.indices == (0, 1)
        np.testing.assert_allclose(result.value.value, 1.0, atol=1e-14)
        # the other two pairs are strictly worse
        for combo in ((0, 2), (1, 2)):
            assert evaluate(parse_criterion("vol"), a.columns(combo)).value < 1.0

    def test_planted_cover_attains_full_relative_volume(self):
        inst = x3c.generate_true(3, 4, seed=5)
        a = x3c.reduce(inst).matrix
        result = select_exact(a, 3, parse_criterion("rvol"))
        np.testing.assert_allclose(result.value.value, 1.0, atol=1e-12)

    @pytest.mark.parametrize("ident", ["vol", "rvol", "sopt", "norm-two", "norm:p=3",
                                       "pinv-norm-frobenius", "cond-two", "cond-mixed",
                                       "srank", "res-two", "res-frobenius"])
    def test_matches_brute_force_oracle(self, ident):
        rng = np.random.default_rng(sum(ident.encode()))
        spec = parse_criterion(ident)
        for _ in range(4):
            m = int(rng.integers(4, 8))
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, min(4, n) + 1))
            a = DenseMatrix(rng.standard_normal((m, n)))
            expected = brute_force(a, k, spec)
            result = select_exact(a, k, spec)
            np.testing.assert_allclose(result.value.value, expected[0], rtol=1e-12, atol=1e-12)
            # ulp-level ties admit several optimal witnesses; the returned one
            # must itself be optimal under independent re-evaluation
            witness_value = evaluate(spec, a.columns(result.subset), full_matrix=a).value
            np.testing.assert_allclose(witness_value, expected[0], rtol=1e-12, atol=1e-12)

    def test_enumeration_count(self):
        rng = np.random.default_rng(2)
        a = DenseMatrix(rng.standard_normal((5, 9)))
        result = select_exact(a, 3, parse_criterion("norm-two"))
        assert result.subsets_evaluated == math.comb(9, 3)

    def test_rank_deficient_subsets_skipped_for_rank_criteria(self):
        col = np.array([1.0, 2.0, 0.0])
        a = DenseMatrix(np.column_stack([col, col, [0.0, 0.0, 1.0]]))
        result = select_exact(a, 2, parse_criterion("rvol"))
        assert result.subset.indices in ((0, 2), (1, 2))

    def test_rank_deficient_subsets_kept_for_residuals(self):
        col = np.array([1.0, 2.0, 0.0])
        a = DenseMatrix(np.column_stack([col, 2 * col, [0.0, 0.0, 1.0]]))
        result = select_exact(a, 2, parse_criterion("res-frobenius"))
        # {0,2} and {1,2} both span everything; the duplicate pair does not
        assert result.subset.indices == (0, 2)
        np.testing.assert_allclose(result.value.value, 0.0, atol=1e-12)

    def test_infeasible_when_no_full_rank_subset(self):
        col = np.array([[1.0], [2.0]])
        a = DenseMatrix(np.hstack([col, 2 * col]))
        with pytest.raises(InfeasibleError):
            select_exact(a, 2, parse_criterion("rvol"))

    def test_over_budget_enumeration_is_rejected_up_front(self, monkeypatch):
        # C(31, 15) = 300,540,195 subsets: rejected before the scaled copy or
        # any chunk is made
        def unreachable(*args, **kwargs):
            raise AssertionError("the enumeration started")

        a = DenseMatrix(np.random.default_rng(0).standard_normal((3, 31)))
        for module, name in ((screen, "unit_scaled"), (selectors, "_index_chunks")):
            monkeypatch.setattr(module, name, unreachable)
        with pytest.raises(InvalidParameterError, match="C\\(31, 15\\)"):
            select_exact(a, 15, parse_criterion("norm-two"))

    def test_no_criteria_is_rejected_up_front(self, monkeypatch):
        # an empty criterion list failed inside the first chunk's reduction
        def unreachable(*args, **kwargs):
            raise AssertionError("the enumeration started")

        a = DenseMatrix(np.random.default_rng(0).standard_normal((5, 7)))
        for module, name in ((screen, "unit_scaled"), (selectors, "_index_chunks")):
            monkeypatch.setattr(module, name, unreachable)
        with pytest.raises(InvalidParameterError, match="criterion"):
            selectors.exact_optima(a, 2, [])

    def test_budget_counts_subsets(self, monkeypatch):
        monkeypatch.setattr(selectors, "MAX_EXHAUSTIVE_SUBSETS", math.comb(8, 4))
        check_exhaustive(8, 4)
        check_exhaustive(40, 1)
        with pytest.raises(InvalidParameterError, match="C\\(9, 4\\) = 126"):
            check_exhaustive(9, 4)
        rng = np.random.default_rng(1)
        assert select_exact(DenseMatrix(rng.standard_normal((4, 8))), 4,
                            parse_criterion("vol")).subsets_evaluated == 70
        with pytest.raises(InvalidParameterError):
            select_exact(DenseMatrix(rng.standard_normal((4, 9))), 4, parse_criterion("vol"))

    def test_allow_large_lifts_the_budget_but_not_the_rank_limit(self, monkeypatch):
        monkeypatch.setattr(selectors, "MAX_EXHAUSTIVE_SUBSETS", math.comb(8, 4))
        a = DenseMatrix(np.random.default_rng(2).standard_normal((4, 9)))
        result = select_exact(a, 4, parse_criterion("vol"), allow_large=True)
        assert result.subsets_evaluated == 126
        check_exhaustive(9, 4, allow_large=True)
        check_exhaustive(66, 33, allow_large=True)  # C(66, 33) < 2**63 <= C(67, 33)
        with pytest.raises(InvalidParameterError, match="C\\(67, 33\\)"):
            check_exhaustive(67, 33, allow_large=True)

    def test_many_columns_within_budget_need_no_override(self):
        # 3 x 31 at k = 2 is 465 subsets; a cap on n alone rejected it
        a = DenseMatrix(np.random.default_rng(0).standard_normal((3, 31)))
        spec = parse_criterion("norm-two")
        default, lifted = select_exact(a, 2, spec), select_exact(a, 2, spec, allow_large=True)
        assert (default.subset, default.value.value, default.subsets_evaluated) == (
            lifted.subset, lifted.value.value, lifted.subsets_evaluated)
        assert default.subsets_evaluated == 465

    def test_k_bounds(self):
        a = DenseMatrix(np.eye(3))
        with pytest.raises(InvalidParameterError):
            select_exact(a, 0, parse_criterion("vol"))
        with pytest.raises(InvalidParameterError):
            select_exact(a, 4, parse_criterion("vol"))

    def test_thread_counts_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = DenseMatrix(rng.standard_normal((7, 12)))
            base = select_exact(a, 4, parse_criterion("rvol"))
            for threads in (2, 8):
                other = select_exact(a, 4, parse_criterion("rvol"), threads=threads)
                assert other.subset.indices == base.subset.indices
                assert other.value.value == base.value.value

    def test_value_matches_reevaluation(self):
        rng = np.random.default_rng(4)
        a = DenseMatrix(rng.standard_normal((6, 9)))
        for ident in ("vol", "rvol", "sopt", "norm:p=4", "pinv-norm-two",
                      "cond-frobenius", "srank", "res-two"):
            spec = parse_criterion(ident)
            result = select_exact(a, 3, spec)
            again = evaluate(spec, a.columns(result.subset), full_matrix=a).value
            np.testing.assert_allclose(result.value.value, again, rtol=1e-12, atol=1e-14)


class TestGreedyFrobenius:
    def test_small_norm_columns_win(self):
        a = DenseMatrix(np.diag([3.0, 1.0, 2.0]))
        result = select_greedy_frobenius(a, 2)
        assert result.subset.indices == (1, 2)
        np.testing.assert_allclose(result.value.value, math.sqrt(5.0), rtol=1e-14)

    def test_tie_break_on_identity(self):
        result = select_greedy_frobenius(DenseMatrix(np.eye(3)), 2)
        assert result.subset.indices == (0, 1)
        np.testing.assert_allclose(result.value.value, math.sqrt(2.0), rtol=1e-15)

    def test_equals_exhaustive_optimum(self):
        rng = np.random.default_rng(5)
        spec = parse_criterion("norm-frobenius")
        for _ in range(30):
            m = int(rng.integers(3, 8))
            n = int(rng.integers(3, 10))
            k = int(rng.integers(1, min(5, n) + 1))
            a = DenseMatrix(rng.standard_normal((m, n)))
            greedy = select_greedy_frobenius(a, k)
            exact = select_exact(a, k, spec)
            np.testing.assert_allclose(greedy.value.value, exact.value.value, atol=1e-12, rtol=0)


class TestLocalSwapVolume:
    def test_identity_any_seed(self):
        for seed in (0, 1, 17):
            result = select_local_swap_volume(DenseMatrix(np.eye(4)), 2, seed=seed)
            np.testing.assert_allclose(result.value.value, 1.0, atol=1e-14)

    def test_k_equal_to_n_keeps_every_column(self):
        # no column is left to swap in, so the first full-rank draw is the answer
        a = DenseMatrix(np.random.default_rng(3).standard_normal((4, 3)))
        result = select_local_swap_volume(a, 3)
        assert (result.subset.indices, result.subsets_evaluated) == ((0, 1, 2), 1)
        np.testing.assert_allclose(result.value.value,
                                   np.prod(np.linalg.svd(a.array, compute_uv=False)), rtol=1e-12)

    def test_negative_max_sweeps_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="max_sweeps"):
            select_local_swap_volume(DenseMatrix(np.eye(4)), 2, max_sweeps=-1)
        result = select_local_swap_volume(DenseMatrix(np.eye(4)), 2, max_sweeps=0)
        assert result.subsets_evaluated >= 1

    def test_negative_seed_is_rejected(self):
        # numpy's generator raised a bare ValueError here
        with pytest.raises(InvalidParameterError, match="seed"):
            select_local_swap_volume(DenseMatrix(np.eye(4)), 2, seed=-1)

    def test_reaches_global_optimum_here(self):
        a = DenseMatrix([[1.0, 0.0, 2**-0.5], [0.0, 1.0, 2**-0.5]])
        result = select_local_swap_volume(a, 2, seed=0)
        assert result.subset.indices == (0, 1)
        np.testing.assert_allclose(result.value.value, 1.0, atol=1e-14)

    def test_bounded_by_exact_on_planted_instances(self):
        for seed in range(4):
            inst = x3c.generate_true(3, 6, seed=seed)
            a = x3c.reduce(inst).matrix
            local = select_local_swap_volume(a, 3, seed=seed)
            assert local.value.value <= 1.0 + 1e-12

    def test_never_beats_exact(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            a = DenseMatrix(rng.standard_normal((6, 9)))
            exact = select_exact(a, 3, parse_criterion("vol"))
            local = select_local_swap_volume(a, 3, seed=seed)
            assert local.value.value <= exact.value.value + 1e-12

    def test_infeasible_start(self):
        col = np.array([[1.0], [0.0]])
        a = DenseMatrix(np.hstack([col, 2 * col, 3 * col]))
        with pytest.raises(InfeasibleError):
            select_local_swap_volume(a, 2, seed=0)

    def test_greedy_start_where_the_seeded_draws_find_none(self):
        # the six draws of seed 0 are all rank-deficient, but columns 0, 1 are
        # not; greedy vol's subset is the start, and its extensions are counted
        a = DenseMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        result = select_local_swap_volume(a, 2, seed=0)
        assert result.subset.indices == (0, 1)
        assert result.value.value == 1.0
        assert result.subsets_evaluated == 6 + 5 + 2  # draws, greedy, one sweep

    @pytest.mark.parametrize("scale", (1e100, 1e150))
    def test_overflowing_start_volume_raises_without_a_warning(self, scale):
        # the start volume comes from the criteria table like every other
        # volume, so its overflow is one clean error, not a numpy warning first
        a = DenseMatrix(np.random.default_rng(7).standard_normal((60, 200)) * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                select_local_swap_volume(a, 12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        a = DenseMatrix(rng.standard_normal((6, 10)))
        first = select_local_swap_volume(a, 3, seed=11)
        second = select_local_swap_volume(a, 3, seed=11)
        assert first.subset.indices == second.subset.indices
        assert first.value.value == second.value.value


class TestGreedyForward:
    def test_identity_volume(self):
        result = select_greedy_forward(DenseMatrix(np.eye(3)), 2, parse_criterion("vol"))
        assert result.subset.indices == (0, 1)
        assert result.value.value == pytest.approx(1.0, abs=1e-14)

    def test_two_norm_minimization_on_diagonal(self):
        result = select_greedy_forward(DenseMatrix(np.diag([3.0, 2.0, 1.0])), 2,
                                       parse_criterion("norm-two"))
        assert result.subset.indices == (1, 2)
        np.testing.assert_allclose(result.value.value, 2.0, rtol=1e-14)

    def test_never_beats_exact_for_maximization(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = DenseMatrix(rng.standard_normal((8, 6)))
            greedy = select_greedy_forward(a, 3, parse_criterion("vol"))
            exact = select_exact(a, 3, parse_criterion("vol"))
            assert greedy.value.value <= exact.value.value + 1e-12

    def test_residual_greedy_runs_against_parent(self):
        rng = np.random.default_rng(9)
        a = DenseMatrix(rng.standard_normal((5, 6)))
        result = select_greedy_forward(a, 2, parse_criterion("res-frobenius"))
        again = evaluate(parse_criterion("res-frobenius"), a.columns(result.subset),
                         full_matrix=a).value
        np.testing.assert_allclose(result.value.value, again, rtol=1e-12)

    def test_infeasible_when_rank_cannot_grow(self):
        col = np.array([[1.0], [2.0]])
        a = DenseMatrix(np.hstack([col, 2 * col]))
        with pytest.raises(InfeasibleError):
            select_greedy_forward(a, 2, parse_criterion("rvol"))


@pytest.mark.parametrize("select", [
    select_greedy_frobenius,
    select_local_swap_volume,
    lambda a, k: select_greedy_forward(a, k, parse_criterion("vol")),
], ids=("greedy-frobenius", "local-swap", "greedy"))
@pytest.mark.parametrize("k", (0, 4))
def test_heuristics_reject_k_outside_one_to_n(select, k):
    with pytest.raises(InvalidParameterError, match=r"k must be in \[1, 3\], got " + str(k)):
        select(DenseMatrix(np.eye(3)), k)


HEURISTICS = {
    "greedy-vol": lambda a, k: select_greedy_forward(a, k, parse_criterion("vol")),
    "greedy-res-frobenius": lambda a, k: select_greedy_forward(a, k, parse_criterion("res-frobenius")),
    "local-swap": lambda a, k: select_local_swap_volume(a, k),
}


class TestHeuristicsAtUnitScale:
    """The heuristic selectors score at A's unit scale, as exact search does:
    a uniform scale 2**s of A changes no subset, the value is the unscaled
    one times 2**(s d), rounded once below float64 range, and a value past
    it is an error that names the subset."""

    A = np.random.default_rng(0).standard_normal((20, 40))

    @pytest.mark.parametrize("run", sorted(HEURISTICS))
    @pytest.mark.parametrize("s", (-400, -131))
    def test_below_range_keeps_the_unscaled_subset(self, run, s):
        # s = -131 puts vol of 8 columns (about 4e5) in the subnormals; at
        # s = -400 every volume of four or more columns was 0.0 at A's own
        # scale, and greedy filled the subset with the smallest free indices
        unscaled = HEURISTICS[run](DenseMatrix(self.A), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = HEURISTICS[run](DenseMatrix(np.ldexp(self.A, s)), 8)
        degree = 1 if run == "greedy-res-frobenius" else 8
        assert scaled.subset == unscaled.subset
        assert scaled.value.value == math.ldexp(unscaled.value.value, s * degree)
        assert scaled.subsets_evaluated == unscaled.subsets_evaluated
        if degree == 8:
            assert (0.0 < scaled.value.value < np.finfo(np.float64).tiny if s == -131
                    else scaled.value.value == 0.0)
        if run == "greedy-vol":
            assert str(scaled.subset) == "4,13,19,22,30,37,38,39"

    @pytest.mark.parametrize("run", ("greedy-vol", "local-swap"))
    def test_volume_past_float64_names_the_unscaled_subset(self, run):
        # greedy raised "every extension is rank-deficient" here, and local
        # swap "criterion value must be finite"
        subset = HEURISTICS[run](DenseMatrix(self.A), 8).subset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError,
                               match=f"optimal subset {subset} overflows float64"):
                HEURISTICS[run](DenseMatrix(np.ldexp(self.A, 400)), 8)

    @pytest.mark.parametrize("run", ("greedy-vol", "local-swap"))
    def test_column_past_float64_is_chosen_and_named(self, run):
        # column 0's volume, about 2.4e308, was invalid at A's scale, and
        # column 1 won with 2.236
        a = DenseMatrix([[1.7e308, 1.0], [1.7e308, 2.0]])
        with pytest.raises(InvalidInputError, match="optimal subset 0 overflows float64"):
            HEURISTICS[run](a, 1)


class TestDecide:
    def test_identity_volume_yes(self):
        outcome = decide(DenseMatrix(np.eye(4)), DecisionQuery(parse_criterion("vol"), 2, 1.0))
        assert outcome.answer is True
        assert outcome.witness.indices == (0, 1)

    def test_no_answer_has_no_witness(self):
        a = DenseMatrix([[1.0, 2**-0.5], [0.0, 2**-0.5]])
        outcome = decide(a, DecisionQuery(parse_criterion("vol"), 2, 1.0))
        assert outcome.answer is False
        assert outcome.witness is None

    def test_no_feasible_subset_answers_no(self):
        # both columns equal: the one 2-subset is rank-deficient, which rvol
        # rejects, so no subset can cross b
        a = DenseMatrix(np.ones((2, 2)))
        outcome = decide(a, DecisionQuery(parse_criterion("rvol"), 2, 0.5))
        assert outcome == DecisionOutcome(False, None)
        with pytest.raises(InfeasibleError):
            select_exact(a, 2, parse_criterion("rvol"))

    def test_minimization_side(self):
        a = DenseMatrix(np.diag([3.0, 1.0, 2.0]))
        with pytest.warns(UserWarning):  # b hits the unit-column optimum, columns are not unit
            outcome = decide(a, DecisionQuery(parse_criterion("norm-two"), 1, 1.0))
        assert outcome.answer is True
        assert outcome.witness.indices == (1,)

    def test_slack_absorbs_rounding(self):
        inst = x3c.generate_true(2, 2, seed=9)
        a = x3c.reduce(inst).matrix
        for ident in ("vol", "sopt", "pinv-norm-frobenius", "cond-frobenius", "srank"):
            spec = parse_criterion(ident)
            outcome = decide(a, DecisionQuery(spec, 2, spec.optimal_unit_value(2)))
            assert outcome.answer is True

    @pytest.mark.parametrize("ident", ["vol", "cond-two"])
    def test_slack_is_a_billionth_of_b(self, ident):
        # b just past the optimum, on the side no subset reaches: a tenth of
        # the slack (1e-9 of b) away is within it, ten times the slack is not
        spec = parse_criterion(ident)
        a = DenseMatrix(np.random.default_rng(5).standard_normal((6, 8)))
        optimum = select_exact(a, 3, spec).value.value
        past = 1.0 if spec.direction == "maximize" else -1.0
        for factor, answer in ((0.1, True), (10.0, False)):
            b = optimum * (1.0 + past * factor * 1e-9)
            assert decide(a, DecisionQuery(spec, 3, b)).answer is answer, factor

    def test_warns_on_non_unit_columns_at_optimal_threshold(self):
        a = DenseMatrix(np.diag([2.0, 1.0]))
        with pytest.warns(UserWarning):
            decide(a, DecisionQuery(parse_criterion("vol"), 1, 1.0))

    def test_no_warning_for_unit_columns(self):
        a = x3c.reduce(x3c.generate_true(2, 1, seed=0)).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decide(a, DecisionQuery(parse_criterion("vol"), 2, 1.0))

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            DecisionQuery(parse_criterion("vol"), 2, 0.0)
        with pytest.raises(InvalidParameterError):
            DecisionQuery(parse_criterion("vol"), 0, 1.0)

    @pytest.mark.parametrize("b", [math.inf, float("1e400"), math.nan])
    def test_threshold_must_be_finite(self, b):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            DecisionQuery(parse_criterion("vol"), 2, b)

    def test_invalid_k_raises_before_any_warning(self):
        a = DenseMatrix([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="k must be in"):
                decide(a, DecisionQuery(parse_criterion("vol"), 5, 1.0))


def test_heuristics_leave_numpy_ma_unimported():
    """Greedy and local swap take each step's complement from a mask:
    ``np.setdiff1d`` goes through ``np.unique``, which imports ``numpy.ma``
    (about a megabyte) on its first call."""
    code = """if True:
        import sys
        import numpy as np
        from colsel.criteria import parse_criterion
        from colsel.matrixkit import DenseMatrix
        from colsel.selectors import select_greedy_forward, select_local_swap_volume
        a = DenseMatrix(np.random.default_rng(0).standard_normal((8, 14)))
        assert "numpy.ma" not in sys.modules
        for ident in ("res-frobenius", "vol"):
            select_greedy_forward(a, 4, parse_criterion(ident))
            assert "numpy.ma" not in sys.modules, ident
        select_local_swap_volume(a, 4)
        assert "numpy.ma" not in sys.modules, "local swap"
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
