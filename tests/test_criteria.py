import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from colsel.criteria import (
    _KINDS,
    _NAMES,
    CriterionSpec,
    CriterionValue,
    batch_values,
    condition_number,
    equivalence_criteria,
    evaluate,
    parse_criterion,
    pinv_schatten_norm,
    registry,
    relative_volume,
    residual,
    s_optimality,
    schatten_norm,
    stable_rank,
    values,
    volume,
)
from colsel.errors import (
    InvalidInputError,
    InvalidParameterError,
    RankDeficiencyError,
    ShapeError,
)
from colsel.matrixkit import DenseMatrix, batch_svd, gather_columns, pseudo_inverse
from colsel.screen import ChunkScreen
from colsel.x3c import gadget

SQRT2 = math.sqrt(2.0)


def unit_columns(rng, m, k):
    g = rng.standard_normal((m, k))
    return DenseMatrix(g / np.linalg.norm(g, axis=0))


class TestVolume:
    def test_orthonormal_columns(self):
        assert volume(DenseMatrix([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])) == 1.0

    def test_overlap_pattern(self):
        np.testing.assert_allclose(volume(gadget(1)), 2 * SQRT2 / 3, atol=1e-12, rtol=0)

    def test_diagonal(self):
        np.testing.assert_allclose(volume(DenseMatrix(np.diag([2.0, 3.0]))), 6.0, rtol=1e-14)

    def test_rank_deficient_is_zero(self):
        col = np.array([[1.0], [1.0]])
        assert volume(DenseMatrix(np.hstack([col, col]))) == 0.0


class TestRelativeVolume:
    def test_single_column_is_one(self):
        assert relative_volume(DenseMatrix([[3.0], [4.0]])) == 1.0

    def test_overlap_patterns(self):
        np.testing.assert_allclose(relative_volume(gadget(1)), 1 / SQRT2, atol=1e-12, rtol=0)
        np.testing.assert_allclose(relative_volume(gadget(2)), 1 / math.sqrt(5), atol=1e-12, rtol=0)

    def test_range_and_orthonormal_peak(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = unit_columns(rng, 6, 3)
            val = relative_volume(c)
            assert 0 < val <= 1 + 1e-12
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        np.testing.assert_allclose(relative_volume(DenseMatrix(q)), 1.0, atol=1e-12)

    def test_rank_deficient_rejected(self):
        col = np.array([[1.0], [1.0]])
        with pytest.raises(RankDeficiencyError):
            relative_volume(DenseMatrix(np.hstack([col, col])))


class TestSOptimality:
    def test_orthonormal(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 3)))
        np.testing.assert_allclose(s_optimality(DenseMatrix(q)), 1.0, atol=1e-12)

    def test_overlap_pattern_is_volume_root(self):
        # unit columns, so the value reduces to vol^(1/k)
        np.testing.assert_allclose(
            s_optimality(gadget(1)), (2 * SQRT2 / 3) ** 0.5, atol=1e-12, rtol=0
        )

    def test_diagonal_is_one(self):
        assert s_optimality(DenseMatrix(np.diag([2.0, 3.0]))) == 1.0

    def test_zero_column_rejected(self):
        with pytest.raises(InvalidInputError):
            s_optimality(DenseMatrix([[1.0, 0.0], [0.0, 0.0]]))


class TestSchattenNorm:
    def test_identity_p3(self):
        np.testing.assert_allclose(schatten_norm(DenseMatrix(np.eye(3)), 3), 3 ** (1 / 3), rtol=1e-14)

    def test_overlap_pattern_two_norm(self):
        np.testing.assert_allclose(
            schatten_norm(gadget(1), math.inf), 2 / math.sqrt(3), atol=1e-12, rtol=0
        )

    def test_diagonal_p4(self):
        np.testing.assert_allclose(
            schatten_norm(DenseMatrix(np.diag([2.0, 1.0])), 4), 17 ** 0.25, rtol=1e-14
        )

    def test_p2_matches_frobenius(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((5, 4))
            np.testing.assert_allclose(
                schatten_norm(DenseMatrix(a), 2), np.linalg.norm(a), rtol=1e-12
            )

    def test_bad_p_rejected(self):
        with pytest.raises(InvalidParameterError):
            schatten_norm(DenseMatrix(np.eye(2)), 0.5)


class TestPinvSchattenNorm:
    def test_orthonormal_frobenius(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 2)))
        np.testing.assert_allclose(pinv_schatten_norm(DenseMatrix(q), 2), SQRT2, rtol=1e-12)

    def test_overlap_pattern(self):
        np.testing.assert_allclose(
            pinv_schatten_norm(gadget(1), math.inf), math.sqrt(1.5), atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(
            pinv_schatten_norm(gadget(1), 2) ** 2, 2.25, atol=1e-12, rtol=0
        )

    def test_matches_pinv_of_matrix(self):
        rng = np.random.default_rng(4)
        c = DenseMatrix(rng.standard_normal((6, 3)))
        pinv = pseudo_inverse(c)
        np.testing.assert_allclose(
            pinv_schatten_norm(c, 2), np.linalg.norm(pinv.array), rtol=1e-12
        )

    def test_rank_deficient_rejected(self):
        col = np.array([[1.0], [1.0]])
        with pytest.raises(RankDeficiencyError):
            pinv_schatten_norm(DenseMatrix(np.hstack([col, col])), 2)


class TestConditionNumber:
    def test_orthonormal_two(self):
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 3)))
        np.testing.assert_allclose(condition_number(DenseMatrix(q), "two"), 1.0, atol=1e-12)

    def test_overlap_pattern_two(self):
        np.testing.assert_allclose(condition_number(gadget(1), "two"), SQRT2, atol=1e-12, rtol=0)

    def test_diagonal_frobenius(self):
        np.testing.assert_allclose(
            condition_number(DenseMatrix(np.diag([2.0, 1.0])), "frobenius"), 2.5, rtol=1e-14
        )

    def test_flavors_agree_with_norm_products(self):
        rng = np.random.default_rng(6)
        c = DenseMatrix(rng.standard_normal((7, 3)))
        np.testing.assert_allclose(
            condition_number(c, "mixed"),
            schatten_norm(c, 2) * pinv_schatten_norm(c, math.inf),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            condition_number(c, "schatten", 4),
            schatten_norm(c, 4) * pinv_schatten_norm(c, 4),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            condition_number(c, "mixed_schatten", 3),
            schatten_norm(c, 3) * pinv_schatten_norm(c, math.inf),
            rtol=1e-12,
        )

    def test_invalid_combinations(self):
        c = DenseMatrix(np.eye(2))
        with pytest.raises(InvalidParameterError):
            condition_number(c, "two", 3)
        with pytest.raises(InvalidParameterError):
            condition_number(c, "schatten")
        with pytest.raises(InvalidParameterError):
            condition_number(c, "nuclear")

    @pytest.mark.parametrize("kind, p, ident", [
        ("two", None, "cond-two"),
        ("frobenius", None, "cond-frobenius"),
        ("mixed", None, "cond-mixed"),
        ("schatten", 2, "cond-frobenius"),
        ("schatten", 3, "cond:p=3"),
        ("schatten", math.inf, "cond-two"),
        ("mixed_schatten", 2, "cond-mixed"),
        ("mixed_schatten", 4, "cond-mixed:p=4"),
        ("mixed_schatten", math.inf, "cond-mixed:p=inf"),
    ])
    def test_flavor_table(self, kind, p, ident):
        c = DenseMatrix(np.random.default_rng(11).standard_normal((6, 3)))
        expected = evaluate(parse_criterion(ident), c).value
        assert condition_number(c, kind, p) == expected

    @pytest.mark.parametrize("kind, p", [
        ("two", 3), ("two", math.inf), ("frobenius", 2), ("mixed", 3), ("mixed", 2),
        ("schatten", None), ("mixed_schatten", None), ("schatten", 0.5), ("mixed_schatten", 0),
    ])
    def test_flavor_table_rejects(self, kind, p):
        with pytest.raises(InvalidParameterError):
            condition_number(DenseMatrix(np.eye(2)), kind, p)


class TestStableRank:
    def test_zero_matrix(self):
        assert stable_rank(DenseMatrix(np.zeros((3, 2))), 2) == 0.0

    def test_identity(self):
        assert stable_rank(DenseMatrix(np.eye(4)), 2) == pytest.approx(4.0, abs=1e-12)

    def test_overlap_pattern(self):
        np.testing.assert_allclose(stable_rank(gadget(1), 2), 1.5, atol=1e-12, rtol=0)

    def test_bad_p_rejected(self):
        with pytest.raises(InvalidParameterError):
            stable_rank(DenseMatrix(np.eye(2)), 1.5)
        with pytest.raises(InvalidParameterError):
            stable_rank(DenseMatrix(np.eye(2)), math.inf)


class TestResidual:
    def test_exact_span_is_zero(self):
        rng = np.random.default_rng(7)
        a = DenseMatrix(rng.standard_normal((4, 3)))
        assert residual(a, a, "frobenius") <= 1e-12 * np.linalg.norm(a.array)

    def test_orthogonal_complement(self):
        a = DenseMatrix(np.eye(3))
        c = DenseMatrix([[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(residual(a, c, "frobenius"), SQRT2, rtol=1e-14)

    def test_matches_explicit_projection(self):
        rng = np.random.default_rng(8)
        a = DenseMatrix(rng.standard_normal((5, 4)))
        c = a.columns([1, 3])
        proj = np.eye(5) - c.array @ pseudo_inverse(c).array
        rest = proj @ a.array
        np.testing.assert_allclose(residual(a, c, "frobenius"), np.linalg.norm(rest), rtol=1e-12)
        np.testing.assert_allclose(
            residual(a, c, "two"), np.linalg.svd(rest, compute_uv=False)[0], rtol=1e-12
        )

    def test_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            residual(DenseMatrix(np.eye(3)), DenseMatrix(np.eye(2)), "two")


class TestRegistry:
    def test_directions(self):
        for spec in registry():
            expected = (
                "maximize"
                if spec.kind in ("vol", "rvol", "sopt", "srank")
                else "minimize"
            )
            assert spec.direction == expected

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_optimal_unit_values(self, k):
        table = {
            "vol": 1.0,
            "rvol": 1.0,
            "sopt": 1.0,
            "norm-two": 1.0,
            "pinv-norm-two": 1.0,
            "cond-two": 1.0,
            "norm-frobenius": math.sqrt(k),
            "pinv-norm-frobenius": math.sqrt(k),
            "cond-mixed": math.sqrt(k),
            "norm:p=3": k ** (1 / 3),
            "pinv-norm:p=4": k ** (1 / 4),
            "cond-mixed:p=3": k ** (1 / 3),
            "cond-frobenius": float(k),
            "srank": float(k),
            "srank:p=4": float(k),
            "cond:p=4": k ** 0.5,
            "res-two": None,
            "res-frobenius": None,
        }
        for ident, expected in table.items():
            got = parse_criterion(ident).optimal_unit_value(k)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, rel=1e-15)

    def test_identifier_roundtrip(self):
        for spec in registry():
            assert parse_criterion(spec.identifier) == spec

    def test_equivalence_subset(self):
        ids = {spec.identifier for spec in equivalence_criteria()}
        assert "norm-frobenius" not in ids
        assert "res-two" not in ids and "res-frobenius" not in ids
        assert {"vol", "rvol", "sopt", "norm-two", "pinv-norm-frobenius", "srank"} <= ids

    def test_unit_norm_schatten_below_two_has_no_decision_value(self):
        assert parse_criterion("norm:p=1").optimal_unit_value(3) is None
        assert not parse_criterion("norm:p=1").characterizes_orthonormal


class TestParseCriterion:
    def test_aliases_and_p_flag(self):
        assert parse_criterion("volume") == CriterionSpec("vol")
        assert parse_criterion("norm", p=4) == CriterionSpec("norm", 4.0)
        assert parse_criterion("norm", p="inf") == CriterionSpec("norm", math.inf)
        assert parse_criterion("srank") == CriterionSpec("srank", 2.0)
        assert parse_criterion("srank", p=4) == CriterionSpec("srank", 4.0)
        assert parse_criterion("cond-mixed:p=4") == CriterionSpec("cond-mixed", 4.0)

    def test_rejections(self):
        with pytest.raises(InvalidParameterError):
            parse_criterion("norm")
        with pytest.raises(InvalidParameterError):
            parse_criterion("vol", p=3)
        with pytest.raises(InvalidParameterError):
            parse_criterion("norm-two", p=3)
        with pytest.raises(InvalidParameterError):
            parse_criterion("spectral-gap")
        with pytest.raises(InvalidParameterError):
            parse_criterion("cond:p=zero")
        with pytest.raises(InvalidParameterError, match="bad Schatten parameter 'abc'"):
            parse_criterion("norm", p="abc")
        with pytest.raises(InvalidParameterError, match="bad Schatten parameter 'abc'"):
            parse_criterion("norm:p=abc")

    @pytest.mark.parametrize("text, p, message", [
        ("bogus", None, "unknown criterion id 'bogus'"),
        ("norm", None, "criterion 'norm' needs a Schatten parameter"),
        ("volume", 3, "criterion 'vol' takes no Schatten parameter"),
        ("cond-two", 3, "criterion 'cond-two' takes no Schatten parameter"),
        # the suffix silently overrode p
        ("cond:p=3", 4, "criterion 'cond:p=3' gives p by its suffix, so it takes no Schatten "
                        "parameter"),
        ("cond", 0.5, "criterion 'cond': Schatten parameter must be >= 1 or inf, got 0.5"),
        ("srank", "inf", "criterion 'srank': Schatten parameter must be finite and >= 2, got inf"),
    ])
    def test_errors_name_the_criterion_id(self, text, p, message):
        with pytest.raises(InvalidParameterError) as err:
            parse_criterion(text, p)
        assert str(err.value) == message

    def test_spec_checks_p_as_the_parser_does(self):
        assert CriterionSpec("srank") == parse_criterion("srank")
        with pytest.raises(InvalidParameterError, match="unknown criterion id 'bogus'"):
            CriterionSpec("bogus")


class TestNameIndex:
    """One row and one printed name per criterion."""

    def test_no_name_in_two_rows(self):
        names = [name for kind, row in _KINDS.items()
                 for name in (kind, *(named for named, _ in row.named))]
        assert len(names) == len(set(names))
        assert set(names) == set(_NAMES)
        assert len(_KINDS) == 10

    @pytest.mark.parametrize("name", sorted(_NAMES))
    def test_every_name_round_trips(self, name):
        parsed = []
        for p in (None, 2, 3, "inf"):
            try:
                spec = parse_criterion(name, p)
            except InvalidParameterError:
                continue
            parsed.append(spec)
            assert parse_criterion(spec.identifier) == spec
            assert str(spec) == spec.identifier
        assert parsed

    @pytest.mark.parametrize("text, canonical", [
        ("cond:p=2", "cond-frobenius"),
        ("cond:p=inf", "cond-two"),
        ("cond-mixed:p=2", "cond-mixed"),
        ("norm:p=2", "norm-frobenius"),
        ("srank:p=2", "srank"),
    ])
    def test_pinned_and_default_p_share_one_spec(self, text, canonical):
        assert parse_criterion(text) == parse_criterion(canonical)
        assert parse_criterion(text).identifier == canonical

    @pytest.mark.parametrize("kind", ["cond_two", "cond_frobenius", "cond_mixed"])
    def test_removed_kind_names_are_rejected(self, kind):
        with pytest.raises(InvalidParameterError, match="unknown criterion id"):
            CriterionSpec(kind)

    def test_registry_ids_in_report_order(self):
        assert [spec.identifier for spec in registry()] == [
            "vol", "rvol", "sopt", "norm-two", "norm:p=3", "norm:p=4", "norm-frobenius",
            "pinv-norm-two", "pinv-norm-frobenius", "pinv-norm:p=3", "pinv-norm:p=4",
            "cond-two", "cond-frobenius", "cond:p=3", "cond:p=4", "cond-mixed",
            "cond-mixed:p=3", "cond-mixed:p=4", "srank", "srank:p=3", "srank:p=4",
            "res-two", "res-frobenius",
        ]


class TestUnitColumnBounds:
    """Spot checks of the optimal-value inequalities; the full sweep lives in run_suite."""

    def test_all_bounds_on_random_unit_columns(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = int(rng.integers(3, 8))
            k = int(rng.integers(1, min(m, 5) + 1))
            c = unit_columns(rng, m, k)
            assert abs(schatten_norm(c, 2) ** 2 - k) <= 1e-12
            assert volume(c) <= 1 + 1e-10
            assert s_optimality(c) <= 1 + 1e-10
            assert schatten_norm(c, math.inf) >= 1 - 1e-10
            assert schatten_norm(c, 3) >= k ** (1 / 3) - 1e-10
            assert math.sqrt(k) - 1e-10 <= schatten_norm(c, 1.5) <= k ** (1 / 1.5) + 1e-10
            assert pinv_schatten_norm(c, math.inf) >= 1 - 1e-10
            assert pinv_schatten_norm(c, 2) >= math.sqrt(k) - 1e-10
            assert condition_number(c, "frobenius") >= k - 1e-10
            assert condition_number(c, "mixed") >= math.sqrt(k) - 1e-10
            assert stable_rank(c, 2) <= k + 1e-10
            assert volume(c) ** (2 / k) <= schatten_norm(c, 2) ** 2 / k + 1e-12

    def test_evaluate_dispatch_matches_functions(self):
        rng = np.random.default_rng(10)
        c = unit_columns(rng, 6, 3)
        pairs = [
            ("vol", volume(c)),
            ("rvol", relative_volume(c)),
            ("sopt", s_optimality(c)),
            ("norm:p=4", schatten_norm(c, 4)),
            ("pinv-norm-two", pinv_schatten_norm(c, math.inf)),
            ("cond-frobenius", condition_number(c, "frobenius")),
            ("srank:p=3", stable_rank(c, 3)),
        ]
        for ident, expected in pairs:
            got = evaluate(parse_criterion(ident), c)
            assert got.value == expected
            assert got.subset_size == 3
        res = evaluate(parse_criterion("res-two"), c.columns([0, 1]), full_matrix=c)
        assert res.value == residual(c, c.columns([0, 1]), "two")

    def test_evaluate_residual_needs_parent(self):
        with pytest.raises(InvalidParameterError):
            evaluate(parse_criterion("res-two"), DenseMatrix(np.eye(2)))

    def test_criterion_value_requires_finite(self):
        with pytest.raises(InvalidInputError):
            CriterionValue(math.nan, CriterionSpec("vol"), 2)


class TestBatchValues:
    def test_batch_matches_scalar_evaluators(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 9))
        idx = np.array([[0, 1, 2], [3, 4, 5], [2, 5, 8], [1, 6, 7]], dtype=np.intp)
        sub = np.stack([a[:, row] for row in idx])
        sigma = np.linalg.svd(sub, compute_uv=False)
        norms = np.linalg.norm(a, axis=0)[idx]
        full = np.ones(len(idx), dtype=bool)
        for ident in ("vol", "rvol", "sopt", "norm:p=3", "pinv-norm:p=4",
                      "cond-two", "cond-frobenius", "cond:p=3", "cond-mixed",
                      "cond-mixed:p=4", "srank", "norm-two"):
            spec = parse_criterion(ident)
            vals, valid = batch_values(spec, sigma, norms, full)
            assert valid.all()
            for row, pos in zip(idx, range(len(idx))):
                expected = evaluate(spec, DenseMatrix(a[:, row])).value
                np.testing.assert_allclose(vals[pos], expected, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("ident", ("pinv-norm-frobenius", "pinv-norm-two", "cond:p=4", "cond-two"))
    def test_a_row_whose_sigma_or_value_is_not_finite_is_invalid(self, ident):
        # these minimized criteria used to score such a row a valid 0.0, which
        # then won; full_rank claims every row, so only finiteness decides
        sigma = np.array([[2.0, 1.0], [np.inf, 1.0], [np.inf, np.inf], [np.nan, np.nan]])
        vals, valid = batch_values(parse_criterion(ident), sigma, np.ones((4, 2)),
                                   np.ones(4, dtype=bool))
        assert valid.tolist() == [True, False, False, False]
        assert vals[0] == evaluate(parse_criterion(ident), DenseMatrix(np.diag([2.0, 1.0]))).value

    def test_residual_not_batchable(self):
        with pytest.raises(InvalidParameterError):
            batch_values(parse_criterion("res-two"), np.ones((1, 2)), np.ones((1, 2)),
                         np.ones(1, dtype=bool))


class TestFloatingPointWarnings:
    """The scalar path ignores the floating-point warnings the batched path ignores."""

    def test_overflowing_value_warns_nothing(self):
        c = DenseMatrix(np.eye(2) * 1e-310)
        spec = parse_criterion("pinv-norm-two")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert values(c, (spec,)) == [math.inf]
            with pytest.raises(InvalidInputError, match="must be finite"):
                evaluate(spec, c)


class TestOneValueFunction:
    """A criterion's one value function serves certification and the bands."""

    # a Cholesky pass with the largest eigenvalue's bracket, one with the
    # inverse's traces, and the eigenvalue pass of p = 3
    @pytest.mark.parametrize("ident", ("rvol", "cond:p=4", "pinv-norm:p=3", "sopt"))
    def test_values_batch_values_and_bands_call_it(self, ident, monkeypatch):
        spec = parse_criterion(ident)
        row = _KINDS[spec.kind]
        spectra = []

        def recording(spectrum, p, norms):
            spectra.append(type(spectrum).__name__)
            return row.value(spectrum, p, norms)

        monkeypatch.setitem(_KINDS, spec.kind, dataclasses.replace(row, value=recording))
        a = np.random.default_rng(0).standard_normal((6, 8))
        idx = np.array(list(itertools.combinations(range(8), 3)))
        values(DenseMatrix(a[:, :3]), (spec,))
        stack = gather_columns(a, idx)
        sigma, full_rank = batch_svd(stack)
        batch_values(spec, sigma, np.linalg.norm(stack, axis=1), full_rank)
        ChunkScreen(a, [spec], 3).bands(idx)
        assert spectra == ["Singular", "Singular", "GramSpectrum"]
