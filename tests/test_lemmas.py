import json
import math
from pathlib import Path

import numpy as np
import pytest

from colsel import cli, lemmas
from colsel.criteria import parse_criterion, relative_volume, stacked_values, values
from colsel.errors import InvalidInputError, InvalidParameterError, RankDeficiencyError
from colsel.lemmas import (_FROBENIUS, _PINV_SPECS, _REMOVAL_SPECS, _UNIT_FAMILIES, _VOLUME, LEMMA_IDS,
                           _draw_unit_columns, _orthonormality_defect, _partition_stacks, _partition_trial,
                           _removal_subsets, _removal_violations, _scores, _stacks, _unit_claims,
                           _unit_columns, check_removal_monotonicity, run_suite)
from colsel.matrixkit import (DenseMatrix, batch_svd, column_norms, complement_projector, partitioned_pinv,
                              pseudo_inverse)
from colsel.x3c import gadget

# run_suite(seed=7) reports recorded from the suite before it drew in blocks,
# when it scored each matrix as it drew it
RECORDED = Path(__file__).resolve().parent / "data" / "lemma_reports.json"
# run_suite reports per trial count and seed, recorded from the suite before
# the partition and interlacing trials joined the block's stacks, when each
# trial scored its matrices one ``values`` call at a time
RECORDED_BY_SEED = Path(__file__).resolve().parent / "data" / "lemma_reports_by_seed.json"


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

    # 65, 129 and 130 trials end on a one- or two-round block
    @pytest.mark.parametrize("trials,seed", [(25, seed) for seed in range(10)] +
                             [(1000, 3), (65, 5), (129, 9), (130, 131)])
    def test_stacked_trials_keep_the_recorded_reports(self, trials, seed):
        recorded = json.loads(RECORDED_BY_SEED.read_text(encoding="utf-8"))[str(trials)][str(seed)]
        got = [[r.lemma_id, r.trials, r.failures, r.worst_violation]
               for r in run_suite(seed=seed, trials=trials)]
        assert got == recorded


def repeated_column(arr):
    """``arr`` with its last column replaced by a copy of its first."""
    out = arr.copy()
    out[:, -1] = out[:, 0]
    return out


def deficient_unit_draw(draw):
    def patched(rng, eps):
        got = draw(rng, eps)
        return (repeated_column(got[0]),) if eps is None else got
    return patched


def deficient_partition(trial):
    def patched(rng):
        c, split = trial(rng)
        return repeated_column(c), split
    return patched


def deficient_interlacing(trial):
    def patched(rng):
        _, c, subsets = trial(rng)
        c = repeated_column(c)
        return c, c, subsets
    return patched


# a drawn matrix that a check needs at full rank is never redrawn: a deficient
# one ends the run, and the CLI exits 2
@pytest.mark.parametrize("name,patch", [("_draw_unit_columns", deficient_unit_draw),
                                        ("_partition_trial", deficient_partition),
                                        ("_interlacing_trial", deficient_interlacing)])
def test_deficient_draw_raises_for_every_family(monkeypatch, capsys, name, patch):
    monkeypatch.setattr(lemmas, name, patch(getattr(lemmas, name)))
    with pytest.raises(RankDeficiencyError):
        run_suite(0, 1)
    assert cli.main(["lemmas", "--seed", "0", "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def mixed_matrices(seed, count=120, max_cols=5):
    """Unit-column, orthonormal and Gaussian matrices, m in 3..8, k in 1..max_cols."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        m = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(max_cols, m) + 1))
        g = rng.standard_normal((m, k))
        out.append([g / np.linalg.norm(g, axis=0), np.linalg.qr(g)[0], g][i % 3])
    return out


def unit_stacks(matrices):
    """The unit-column family's stacks, as ``_unit_column_checks`` forms them
    from one-matrix stacks."""
    return _stacks([c[None] for c in matrices], per_matrix=(column_norms, _orthonormality_defect))


def one_matrix_unit_columns(eps, arr, g=None):
    """A unit-column matrix of family ``eps`` from one draw, one matrix at a time."""
    if eps is None:
        return arr / np.linalg.norm(arr, axis=0)
    q, _ = np.linalg.qr(arr)
    if eps == 0.0:
        return q
    p = q + eps * (g / np.linalg.norm(g, 2))
    return p / np.linalg.norm(p, axis=0)


# the reports pin only each lemma's worst violation; this pins every matrix
@pytest.mark.parametrize("seed", range(3))
def test_stacked_unit_draws_equal_the_one_matrix_formulas(seed):
    rng = np.random.default_rng(seed)
    groups = {}
    for _ in range(80):
        for eps in _UNIT_FAMILIES:
            draw = _draw_unit_columns(rng, eps)
            assert len(draw) == (2 if eps else 1)
            groups.setdefault((eps, draw[0].shape), []).append(draw)
    for eps in _UNIT_FAMILIES:
        shapes = {shape for family, shape in groups if family == eps}
        assert {m for m, _ in shapes} == set(range(3, 9)) and {k for _, k in shapes} == set(range(1, 6))
    for (eps, shape), draws in groups.items():
        stack = _unit_columns(eps, *map(np.stack, zip(*draws)))
        assert stack.shape == (len(draws), *shape)
        for got, draw in zip(stack, draws):
            assert np.array_equal(got, one_matrix_unit_columns(eps, *draw)), (eps, shape)


# the reports pin only each lemma's worst row; this pins every partition draw
@pytest.mark.parametrize("seed", range(3))
def test_stacked_partition_draws_equal_the_one_matrix_functions(seed):
    rng = np.random.default_rng(seed)
    trials = [_partition_trial(rng) for _ in range(1000)]
    assert {(*c.shape, split) for c, split in trials} == \
        {(m, n, split) for m in range(3, 9) for n in range(2, min(m, 6) + 1) for split in range(1, n)}
    for (arr, split), got in zip(trials, _partition_stacks(trials)):
        m1_pinv, m2_pinv, schur1, schur2, spd, direct, rhs = got
        c = DenseMatrix(arr)
        parts = partitioned_pinv(c.columns(range(split)), c.columns(range(split, c.cols)))
        for name, a, b in [("m1_pinv", m1_pinv, parts.m1_pinv), ("m2_pinv", m2_pinv, parts.m2_pinv),
                           ("schur1", schur1, parts.schur1), ("schur2", schur2, parts.schur2),
                           ("direct", direct, pseudo_inverse(c))]:
            assert a.shape == b.array.shape and a.tobytes() == b.array.tobytes(), (name, arr.shape, split)
        assert spd == min(np.linalg.eigvalsh(schur.array)[0] for schur in (parts.schur1, parts.schur2))
        head, tail = DenseMatrix(arr[:, :-1]), arr[:, -1]
        gram = head.array.T @ head.array
        assert rhs == float(np.linalg.det(gram) * np.sum((complement_projector(head).array @ tail) ** 2))


class TestStackedScorer:
    def test_equals_values_row_by_row_on_mixed_shapes(self):
        matrices = mixed_matrices(0)
        for k, (rows, sigma, full, norms, defect) in unit_stacks(matrices).items():
            for specs in ([_FROBENIUS, *[spec for _, spec, _, _ in _unit_claims(k)]],
                          _REMOVAL_SPECS):
                got = stacked_values(specs, sigma, norms, full)
                for col, i in enumerate(rows):
                    c = DenseMatrix(matrices[i])
                    assert got[:, col].tolist() == values(c, specs), (k, i)
            for col, i in enumerate(rows):
                c = matrices[i]
                assert defect[col] == float(np.linalg.norm(c.T @ c - np.eye(k)))
        assert sorted(i for rows, *_ in unit_stacks(matrices).values() for i in rows) == \
            list(range(len(matrices)))

    # partition trials draw C with up to 6 columns, and C1, C2 from its split
    @pytest.mark.parametrize("seed", range(3))
    def test_partition_specs_equal_values_on_mixed_shapes_up_to_six_columns(self, seed):
        matrices = mixed_matrices(seed, max_cols=6)
        assert max(c.shape[1] for c in matrices) == 6
        specs = (_VOLUME, *_PINV_SPECS)
        for rows, sigma, full in _stacks([c[None] for c in matrices]).values():
            got = stacked_values(specs, sigma, None, full)
            for col, i in enumerate(rows):
                assert got[:, col].tolist() == values(DenseMatrix(matrices[i]), specs), i
        # C1 and C2 of each split, then every C, in one call, as _partition_checks scores them
        parts = [part for c in matrices if c.shape[1] > 1 for part in (c[:, :1], c[:, 1:])] + matrices
        got = _scores(specs, [c[None] for c in parts])
        assert got.tolist() == [values(DenseMatrix(c), specs) for c in parts]

    def test_rank_deficient_row_raises_as_values_does(self):
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((5, 6, 3))
        stack[2, :, 2] = 2.0 * stack[2, :, 0]
        with pytest.raises(RankDeficiencyError):
            values(DenseMatrix(stack[2]), _REMOVAL_SPECS)
        sigma, full = batch_svd(stack)
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
        sigma, full = batch_svd(stack)
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
        (_, sigma, full, norms, _), = unit_stacks(list(stack)).values()
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

    # C(15, 7) = 6,435 subsets take the seeded sample, C(15, 2) = 105 are all
    # checked; numpy's generator raised a bare ValueError in the first case,
    # and the second ignored the seed
    @pytest.mark.parametrize("ell", [7, 2])
    def test_negative_seed_validated(self, ell):
        c = DenseMatrix(np.random.default_rng(6).standard_normal((20, 15)))
        with pytest.raises(InvalidParameterError, match="seed"):
            check_removal_monotonicity(c, ell, seed=-1)

    def test_sampled_path_for_many_submatrices(self):
        rng = np.random.default_rng(4)
        c = DenseMatrix(rng.standard_normal((16, 14)))
        assert check_removal_monotonicity(c, 7, seed=1) is True

    # C(14, 4) = 1,001 is one above the sample size, so the draws collect all
    # but one subset, and C(66, 33), C(70, 35) and C(100, 50) are above 2**62
    @pytest.mark.parametrize("k, ell, seed", [(14, 7, 1), (14, 4, 0), (16, 8, 3), (66, 33, 1),
                                              (70, 35, 2), (100, 50, 5), (200, 3, 4)])
    def test_sampled_subsets_are_distinct_and_sorted(self, k, ell, seed):
        subsets = _removal_subsets(k, ell, seed)
        assert len(subsets) == len(set(subsets)) == 1000
        assert all(len(s) == ell and 0 <= s[0] and s[-1] < k for s in subsets)
        assert all(a < b for s in subsets for a, b in zip(s, s[1:]))
        assert subsets == sorted(subsets)
        assert len({s[0] for s in subsets}) > 1
        assert _removal_subsets(k, ell, seed) == subsets

    # each column is in half of all C(2 ell, ell) subsets, and some subsets drop
    # both of the first two columns or sit in the last 1% of lexicographic order
    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_subsets_reach_all_of_them(self, seed):
        for k in (66, 70, 100):
            subsets = _removal_subsets(k, k // 2, seed)
            share = sum(s[0] == 0 for s in subsets) / len(subsets)
            assert abs(share - 0.5) <= 0.06
        assert any(s[0] >= 2 for s in _removal_subsets(66, 33, seed))
        assert 100 * lex_rank(_removal_subsets(70, 35, seed)[-1], 70) > 99 * math.comb(70, 35)

    def test_sampled_path_on_a_large_orthonormal_matrix(self):
        q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((66, 66)))
        assert check_removal_monotonicity(DenseMatrix(q), 33) is True


def lex_rank(subset, k):
    """The number of sorted len(subset)-subsets of range(k) that come before
    ``subset`` in lexicographic order."""
    rank, prev = 0, -1
    for i, c in enumerate(subset):
        rank += sum(math.comb(k - 1 - v, len(subset) - 1 - i) for v in range(prev + 1, c))
        prev = c
    return rank


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
