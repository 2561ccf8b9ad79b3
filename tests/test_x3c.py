import itertools
import math

import numpy as np
import pytest

from colsel import x3c
from colsel.criteria import evaluate, registry
from colsel.errors import (
    CapacityError,
    GenerationFailureError,
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    PreconditionError,
)
from colsel.matrixkit import DenseMatrix, svd
from colsel.x3c import (
    INV_SQRT3,
    ReductionMatrix,
    X3CInstance,
    format_instance,
    gadget,
    gap_report,
    generate_false,
    generate_true,
    parse_instance,
    reduce,
    solve_exact,
    verify_equivalence,
)


def naive_cover(instance):
    """Oracle: try every M-subset of sets for disjointness and full coverage."""
    ground = set(range(1, instance.ground_size + 1))
    for combo in itertools.combinations(range(instance.n), instance.m_triples):
        elements = [e for j in combo for e in instance.sets[j]]
        if len(set(elements)) == len(elements) and set(elements) == ground:
            return combo
    return None


class TestInstanceValidation:
    def test_accepts_and_normalizes(self):
        inst = X3CInstance(2, ((3, 1, 2), (4, 5, 6)))
        assert inst.sets == ((1, 2, 3), (4, 5, 6))
        assert inst.n == 2 and inst.ground_size == 6

    def test_rejects_bad_sets(self):
        with pytest.raises(InvalidInputError):
            X3CInstance(1, ((1, 2, 2),))
        with pytest.raises(InvalidInputError):
            X3CInstance(1, ((1, 2, 4),))
        with pytest.raises(InvalidInputError):
            X3CInstance(1, ((0, 1, 2),))
        with pytest.raises(InvalidInputError):
            X3CInstance(2, ((1, 2, 3), (3, 2, 1)))
        with pytest.raises(InvalidInputError):
            X3CInstance(1, ())


class TestTextFormat:
    def test_roundtrip(self):
        inst = generate_true(3, 4, seed=2)
        again = parse_instance(format_instance(inst))
        assert again == inst

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("")
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("2\n1 2 3\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("1 1\n1 2\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_instance("2 2\n1 2 3\n4 5 x\n")


class TestSolveExact:
    def test_single_triple(self):
        assert solve_exact(X3CInstance(1, ((1, 2, 3),))) == (0,)

    def test_small_positive(self):
        inst = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
        assert solve_exact(inst) == (0, 1)

    def test_small_negative(self):
        inst = X3CInstance(2, ((1, 2, 3), (1, 4, 5), (2, 4, 6)))
        assert solve_exact(inst) is None

    def test_agrees_with_naive_enumeration(self):
        import random

        rng = random.Random(17)
        for _ in range(40):
            m = rng.randint(2, 3)
            n = rng.randint(2, min(10, math.comb(3 * m, 3)))
            seen = set()
            while len(seen) < n:
                seen.add(tuple(sorted(rng.sample(range(1, 3 * m + 1), 3))))
            inst = X3CInstance(m, tuple(sorted(seen)))
            got = solve_exact(inst)
            expected = naive_cover(inst)
            assert (got is None) == (expected is None)
            if got is not None:
                cover = [inst.sets[j] for j in got]
                assert len(got) == m
                assert sorted(e for t in cover for e in t) == list(range(1, 3 * m + 1))


class TestGenerators:
    def test_single_triple_universe(self):
        inst = generate_true(1, 0, seed=123)
        assert inst.sets == ((1, 2, 3),)

    def test_planted_cover_survives(self):
        for seed in (0, 7, 19):
            inst = generate_true(2, 1, seed=seed)
            assert inst.n == 3
            assert solve_exact(inst) is not None

    def test_extras_are_distinct(self):
        inst = generate_true(3, 5, seed=1)
        assert inst.n == 8
        assert len(set(inst.sets)) == 8
        assert solve_exact(inst) is not None

    def test_deterministic(self):
        assert generate_true(3, 4, seed=9) == generate_true(3, 4, seed=9)
        assert generate_false(2, 4, seed=9) == generate_false(2, 4, seed=9)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            generate_true(1, 1, seed=0)

    def test_false_instances_certified(self):
        for seed, m, n in ((3, 2, 3), (11, 3, 6), (5, 4, 9)):
            inst = generate_false(m, n, seed=seed)
            assert inst.n == n
            assert solve_exact(inst) is None

    def test_false_requires_m_at_least_two(self):
        with pytest.raises(InvalidParameterError):
            generate_false(1, 1, seed=0)

    def test_false_generation_over_budget_is_rejected_up_front(self, monkeypatch):
        # C(40, 6) = 3,838,380 subsets: no draw is made or solved
        def unreachable(instance):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(x3c, "solve_exact", unreachable)
        with pytest.raises(InvalidParameterError, match="C\\(40, 6\\)"):
            generate_false(6, 40, seed=0)

    @pytest.mark.parametrize("m, n", [(2, 11), (3, 57), (3, 84)])
    def test_false_generation_past_the_bound_is_rejected_up_front(self, monkeypatch, m, n):
        # more than C(3M - 1, 3) distinct triples always hold an exact cover;
        # (3, 84) spent all 10,000 draws, about 20 s, before it failed
        def unreachable(instance):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(x3c, "solve_exact", unreachable)
        with pytest.raises(CapacityError, match="exact cover"):
            generate_false(m, n, seed=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_false_generation_at_the_uncoverable_count(self, seed):
        inst = generate_false(2, 10, seed=seed)
        assert inst.n == 10
        assert solve_exact(inst) is None and naive_cover(inst) is None

    @pytest.mark.parametrize("m", (2, 3))
    def test_uncoverable_count_is_exact(self, m):
        # the C(3M - 1, 3) triples that avoid one element have no cover, and
        # any one more distinct triples have one
        triples = list(itertools.combinations(range(1, 3 * m + 1), 3))
        avoiding = tuple(t for t in triples if 1 not in t)
        assert len(avoiding) == math.comb(3 * m - 1, 3)
        assert solve_exact(X3CInstance(m, avoiding)) is None
        rng = np.random.default_rng(m)
        for _ in range(50):
            pick = rng.choice(len(triples), size=len(avoiding) + 1, replace=False)
            assert solve_exact(X3CInstance(m, tuple(triples[i] for i in pick))) is not None


class TestInputErrors:
    """Every documented input error of the instances, generators, reduction,
    gap report and parser."""

    def test_instance_needs_m_at_least_one(self):
        with pytest.raises(InvalidInputError, match="M >= 1"):
            X3CInstance(0, ((1, 2, 3),))

    def test_reduction_matrix_must_match_its_instance(self):
        inst = X3CInstance(1, ((1, 2, 3),))
        with pytest.raises(InvalidInputError, match="shape"):
            ReductionMatrix(DenseMatrix(np.full((3, 2), INV_SQRT3)), inst)
        with pytest.raises(InvalidInputError, match="3 nonzeros"):
            ReductionMatrix(DenseMatrix(np.array([[INV_SQRT3], [INV_SQRT3], [0.0]])), inst)

    @pytest.mark.parametrize("make, error, match", [
        (lambda: generate_true(0, 1, 0), InvalidParameterError, "M >= 1"),
        (lambda: generate_true(2, -1, 0), InvalidParameterError, "extra_sets >= 0"),
        (lambda: generate_false(3, 1, 0), InvalidParameterError, "n >= 2"),
        (lambda: generate_false(2, 21, 0), CapacityError, "at most 10 sets"),
        (lambda: generate_true(3, 2, -5), InvalidParameterError, r"need seed >= 0, got -5"),
        (lambda: generate_false(3, 8, -5), InvalidParameterError, r"need seed >= 0, got -5"),
    ], ids=("true-m-0", "true-extra-negative", "false-n-1", "false-over-capacity",
            "true-seed-negative", "false-seed-negative"))
    def test_generator_arguments(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    def test_false_generation_gives_up_after_its_draw_budget(self, monkeypatch):
        monkeypatch.setattr(x3c, "_FALSE_DRAW_BUDGET", 3)
        monkeypatch.setattr(x3c, "solve_exact", lambda instance: (0, 1))
        with pytest.raises(GenerationFailureError, match="3 draws"):
            generate_false(2, 4, seed=0)

    def test_gap_report_needs_rank_m(self):
        # no cover, and [1,2,3] + [4,5,6] = [1,2,4] + [3,5,6] leaves rank 3 < 4
        inst = X3CInstance(4, ((1, 2, 3), (4, 5, 6), (1, 2, 4), (3, 5, 6)))
        with pytest.raises(PreconditionError, match="rank >= 4"):
            gap_report(inst)

    @pytest.mark.parametrize("text, match", [
        ("3 x", "two integers"),
        ("2 2\n1 2 3\n", "expected 2 set lines, found 1"),
        ("1 1\n1 2 4\n", "outside 1..3"),
    ], ids=("header-not-integer", "missing-set-line", "element-outside-ground"))
    def test_parse_errors(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_instance(text)


class TestReduction:
    def test_single_set_column(self):
        red = reduce(X3CInstance(1, ((1, 2, 3),)))
        np.testing.assert_array_equal(red.matrix.array, [[INV_SQRT3]] * 3)

    def test_disjoint_supports_are_orthonormal(self):
        red = reduce(X3CInstance(2, ((1, 2, 3), (4, 5, 6))))
        gram = red.matrix.array.T @ red.matrix.array
        np.testing.assert_allclose(gram, np.eye(2), atol=3e-16)

    def test_shared_element_gram(self):
        red = reduce(X3CInstance(2, ((1, 2, 3), (3, 4, 5))))
        gram = red.matrix.array.T @ red.matrix.array
        np.testing.assert_allclose(gram[0, 1], 1 / 3, rtol=1e-15)

    def test_entries_bit_exact(self):
        inst = generate_true(4, 6, seed=3)
        a = reduce(inst).matrix.array
        assert np.all((a == 0.0) | (a == INV_SQRT3))
        assert np.all(np.count_nonzero(a, axis=0) == 3)
        assert np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) <= 1e-15

    def test_reduction_matrix_validates(self):
        inst = X3CInstance(1, ((1, 2, 3),))
        with pytest.raises(InvalidInputError):
            ReductionMatrix(DenseMatrix(np.ones((3, 1))), inst)


class TestGadget:
    def test_shared_one_pattern(self):
        g = gadget(1)
        assert (g.rows, g.cols) == (5, 2)
        sig = svd(g).singular_values
        np.testing.assert_allclose(sig, [2 / math.sqrt(3), math.sqrt(2 / 3)], atol=1e-12, rtol=0)

    def test_shared_two_pattern(self):
        g = gadget(2)
        assert (g.rows, g.cols) == (4, 2)
        sig = svd(g).singular_values
        np.testing.assert_allclose(sig, [math.sqrt(5 / 3), math.sqrt(1 / 3)], atol=1e-12, rtol=0)

    def test_matches_reduction_submatrix_bit_for_bit(self):
        red = reduce(X3CInstance(2, ((1, 2, 3), (3, 4, 5)))).matrix.array
        keep = np.any(red != 0.0, axis=1)
        np.testing.assert_array_equal(red[keep], gadget(1).array)
        red2 = reduce(X3CInstance(2, ((1, 2, 3), (2, 3, 4)))).matrix.array
        keep2 = np.any(red2 != 0.0, axis=1)
        np.testing.assert_array_equal(red2[keep2], gadget(2).array)

    def test_invalid_overlap_count(self):
        with pytest.raises(InvalidParameterError):
            gadget(3)


class TestPlantedCoverOptimality:
    def test_cover_columns_attain_every_optimal_value(self):
        inst = generate_true(3, 6, seed=21)
        cover = solve_exact(inst)
        c = reduce(inst).matrix.columns(cover)
        gram = c.array.T @ c.array
        np.testing.assert_allclose(gram, np.eye(3), atol=3e-16)
        k = 3
        for spec in registry():
            optimum = spec.optimal_unit_value(k)
            if optimum is None:
                continue
            value = evaluate(spec, c).value
            np.testing.assert_allclose(value, optimum, atol=1e-12, rtol=0)


class TestVerifyEquivalence:
    def test_planted_true(self):
        assert verify_equivalence(generate_true(2, 2, seed=4)) is True

    def test_certified_false(self):
        assert verify_equivalence(generate_false(2, 4, seed=6)) is True

    def test_single_triple(self):
        assert verify_equivalence(X3CInstance(1, ((1, 2, 3),))) is True

    def test_over_budget_instance_is_rejected_up_front(self, monkeypatch):
        # M = 9 with n = 27 consecutive triples: C(27, 9) = 4,686,825 subsets
        def unreachable(*args, **kwargs):
            raise AssertionError("the check started")

        instance = X3CInstance(9, tuple((i + 1, (i + 1) % 27 + 1, (i + 2) % 27 + 1)
                                        for i in range(27)))
        for name in ("solve_exact", "exact_optima"):
            monkeypatch.setattr(x3c, name, unreachable)
        for check in (verify_equivalence, gap_report):
            with pytest.raises(InvalidParameterError, match="C\\(27, 9\\)"):
                check(instance)

    def test_decisions_agree_with_direct_orthonormality_scan(self):
        """Independent oracle: scan all subsets for Gram defect <= 1e-8."""
        from colsel.criteria import equivalence_criteria
        from colsel.selectors import DecisionQuery, decide

        instances = [
            generate_true(2, 3, seed=31),
            generate_true(3, 4, seed=32),
            generate_false(2, 5, seed=33),
            generate_false(3, 7, seed=34),
        ]
        for inst in instances:
            a = reduce(inst).matrix
            k = inst.m_triples
            exists_orthonormal = False
            for combo in itertools.combinations(range(a.cols), k):
                sub = a.columns(combo).array
                if np.linalg.norm(sub.T @ sub - np.eye(k)) <= 1e-8:
                    exists_orthonormal = True
                    break
            for spec in equivalence_criteria():
                query = DecisionQuery(spec, k, spec.optimal_unit_value(k))
                assert decide(a, query).answer == exists_orthonormal, spec.identifier


class TestGapReport:
    def test_requires_false_instance(self):
        with pytest.raises(PreconditionError):
            gap_report(generate_true(2, 1, seed=0))

    def test_all_rows_hold_on_false_instance(self):
        inst = generate_false(2, 4, seed=3)
        reports = gap_report(inst)
        assert len(reports) == 12
        assert all(rep.gap_holds for rep in reports)

    def test_row_thresholds(self):
        inst = generate_false(3, 7, seed=1)
        reports = gap_report(inst)
        assert all(rep.gap_holds for rep in reports)
        by_id = {rep.criterion.identifier: rep for rep in reports}
        k = 3
        assert by_id["rvol"].threshold == pytest.approx(1 / math.sqrt(2))
        assert by_id["vol"].threshold == pytest.approx(2 * math.sqrt(2) / 3)
        assert by_id["sopt"].threshold == pytest.approx((2 * math.sqrt(2) / 3) ** (1 / k))
        assert by_id["norm-two"].threshold == pytest.approx(2 / math.sqrt(3))
        assert by_id["pinv-norm-two"].threshold == pytest.approx(math.sqrt(1.5))
        assert by_id["pinv-norm-frobenius"].threshold == pytest.approx(math.sqrt(k + 0.25))
        quarter = math.sqrt(1 + 1 / (4 * k))
        assert by_id["pinv-norm:p=3"].threshold == pytest.approx(k ** (1 / 3) * quarter)
        assert by_id["pinv-norm:p=4"].threshold == pytest.approx(k ** (1 / 4) * quarter)
        assert by_id["cond-two"].threshold == pytest.approx(math.sqrt(2))
        assert by_id["cond-frobenius"].threshold == pytest.approx(k * quarter)
        assert by_id["cond-mixed"].threshold == pytest.approx(math.sqrt(1.5 * k))
        assert by_id["srank"].threshold == pytest.approx(0.75 * k)

    def test_alternate_threshold_recorded_for_pinv_two_norm(self):
        inst = generate_false(2, 4, seed=3)
        by_id = {rep.criterion.identifier: rep for rep in gap_report(inst)}
        assert by_id["pinv-norm-two"].alt_threshold == pytest.approx(2 / math.sqrt(3))
        assert by_id["vol"].alt_threshold is None

    def test_pure_overlap_embedding_attains_volume_threshold(self):
        # two sets sharing one element, padded with a disjoint triple: the only
        # 3-subset contains the 5x2 overlap pattern plus one orthogonal column
        inst = X3CInstance(3, ((1, 2, 3), (3, 4, 5), (7, 8, 9)))
        assert solve_exact(inst) is None
        by_id = {rep.criterion.identifier: rep for rep in gap_report(inst)}
        np.testing.assert_allclose(
            by_id["vol"].exact_optimum, 2 * math.sqrt(2) / 3, atol=1e-12, rtol=0
        )
        # the extra orthogonal column pushes rvol below the 2-column bound
        assert by_id["rvol"].exact_optimum <= 1 / math.sqrt(2) + 1e-12
        from colsel.criteria import relative_volume

        pair = reduce(inst).matrix.columns((0, 1))
        np.testing.assert_allclose(relative_volume(pair), 1 / math.sqrt(2), atol=1e-12, rtol=0)
        assert all(rep.gap_holds for rep in by_id.values())

    def test_removal_monotonicity_on_embedded_pattern(self):
        from colsel.criteria import relative_volume

        inst = X3CInstance(3, ((1, 2, 3), (3, 4, 5), (7, 8, 9)))
        c = reduce(inst).matrix
        full = relative_volume(c)
        for pair in itertools.combinations(range(3), 2):
            assert full <= relative_volume(c.columns(pair)) + 1e-10
