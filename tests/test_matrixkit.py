import math
import warnings

import numpy as np
import pytest

from colsel.errors import InvalidInputError, RankDeficiencyError, ShapeError
from colsel.matrixkit import (
    DenseMatrix,
    batch_svd,
    complement_projector,
    concat_columns,
    gather_columns,
    partitioned_pinv,
    pseudo_inverse,
    svd,
)
from colsel.x3c import gadget


def random_matrix(rng, m, n):
    return DenseMatrix(rng.standard_normal((m, n)))


class TestDenseMatrix:
    def test_basic_shape_and_entries(self):
        m = DenseMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (m.rows, m.cols) == (2, 3)
        np.testing.assert_array_equal(m.entries, [1, 2, 3, 4, 5, 6])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            DenseMatrix([[1.0, np.nan]])
        with pytest.raises(InvalidInputError):
            DenseMatrix([[np.inf], [0.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            DenseMatrix(np.zeros((0, 3)))
        with pytest.raises(InvalidInputError):
            DenseMatrix(np.zeros((3, 0)))

    def test_immutable(self):
        m = DenseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_kernel_results_are_read_only_c_ordered_and_as_constructed(self):
        # these results skip DenseMatrix's copy and finiteness scan: each must
        # still be a fresh, read-only, C-ordered float64 array with the bits
        # the constructor gives it, since matmul bits depend on layout
        rng = np.random.default_rng(7)
        a = random_matrix(rng, 6, 4)
        c1, c2 = a.columns([3, 0]), a.columns([1])
        parts = partitioned_pinv(c1, c2)
        results = {
            "pseudo_inverse": (pseudo_inverse(a), None),
            "pseudo_inverse of a wide matrix": (pseudo_inverse(DenseMatrix(a.array.T)), None),
            "complement_projector": (complement_projector(c1), None),
            "concat_columns": (concat_columns(c1, c2), np.hstack([c1.array, c2.array])),
            "columns": (a.columns([2, 0, 3]), a.array[:, [2, 0, 3]]),
            "one column": (c2, a.array[:, [1]]),
            "stacked": (parts.stacked(), np.vstack([parts.m1_pinv.array, parts.m2_pinv.array])),
        }
        for name, (out, want) in results.items():
            arr = out.array
            assert arr.dtype == np.float64 and arr.ndim == 2, name
            assert arr.flags.c_contiguous and not arr.flags.writeable, name
            assert not np.shares_memory(arr, a.array), name
            assert arr.tobytes() == DenseMatrix(arr).array.tobytes(), name
            if want is not None:
                assert arr.tobytes() == DenseMatrix(want).array.tobytes(), name

    def test_detached_from_source(self):
        src = np.eye(2)
        m = DenseMatrix(src)
        src[0, 0] = 7.0
        assert m.array[0, 0] == 1.0

    def test_columns_subset(self):
        m = DenseMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        sub = m.columns([2, 0])
        np.testing.assert_array_equal(sub.array, [[3.0, 1.0], [6.0, 4.0]])
        with pytest.raises(InvalidInputError):
            m.columns([3])
        with pytest.raises(InvalidInputError):
            m.columns([])

    @pytest.mark.parametrize("seed", range(6))
    def test_column_norms_match_numpy_without_warnings(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((1 + 3 * seed, 2 + 5 * seed)) * 10.0 ** rng.integers(-150, 150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = DenseMatrix(a).column_norms()
            assert np.array_equal(norms, np.linalg.norm(a, axis=0))
            assert np.array_equal(DenseMatrix([[1e308, 1.0]]).column_norms(), [1e308, 1.0])
            assert np.array_equal(DenseMatrix(np.zeros((3, 2))).column_norms(), [0.0, 0.0])

    def test_concat_columns(self):
        a = DenseMatrix(np.eye(2))
        b = DenseMatrix([[5.0], [6.0]])
        np.testing.assert_array_equal(concat_columns(a, b).array, [[1, 0, 5], [0, 1, 6]])
        with pytest.raises(ShapeError):
            concat_columns(a, DenseMatrix([[1.0]]))


class TestSvd:
    def test_identity(self):
        res = svd(DenseMatrix(np.eye(3)))
        np.testing.assert_allclose(res.singular_values, [1, 1, 1], atol=1e-15)
        assert res.numerical_rank == 3

    def test_diagonal(self):
        res = svd(DenseMatrix(np.diag([2.0, 1.0])))
        np.testing.assert_allclose(res.singular_values, [2, 1], atol=1e-15)

    def test_overlap_pattern_values(self):
        res = svd(gadget(1))
        np.testing.assert_allclose(
            res.singular_values, [2 / math.sqrt(3), math.sqrt(2 / 3)], rtol=0, atol=1e-12
        )
        assert res.numerical_rank == 2

    def test_nonincreasing_and_frobenius_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            res = svd(m)
            sig = res.singular_values
            assert np.all(np.diff(sig) <= 0)
            fro = np.linalg.norm(m.array)
            np.testing.assert_allclose(np.sqrt(np.sum(sig**2)), fro, rtol=1e-12)

    def test_rank_tolerance_default(self):
        m = DenseMatrix([[1.0, 1.0], [1.0, 1.0]])
        res = svd(m)
        assert res.numerical_rank == 1
        assert res.rank_tolerance > 0

    def test_rank_at_subnormal_scale_and_of_zero(self):
        assert svd(DenseMatrix(np.eye(2) * 1e-310)).numerical_rank == 2
        assert svd(DenseMatrix(np.zeros((2, 3)))).numerical_rank == 0


def _batch_cases():
    """(m, k) stacks whose middle matrix is each of the rank test's edge cases,
    between two Gaussian matrices of its shape."""
    rng = np.random.default_rng(5)
    dup = rng.standard_normal((5, 3))
    dup[:, 2] = dup[:, 0]
    special = {"zero": np.zeros((4, 3)), "duplicated-column": dup,
               "subnormal": rng.standard_normal((4, 3)) * 1e-310,
               "wide": rng.standard_normal((2, 4))}
    return {name: np.stack([rng.standard_normal(mid.shape), mid, rng.standard_normal(mid.shape)])
            for name, mid in special.items()}


BATCH_CASES = _batch_cases()


class TestBatchSvd:
    @pytest.mark.parametrize("name", BATCH_CASES)
    def test_flags_and_sigmas_match_svd_row_by_row(self, name):
        stack = BATCH_CASES[name]
        sigma, full = batch_svd(stack)
        alone = [svd(DenseMatrix(c)) for c in stack]
        assert full.tolist() == [res.numerical_rank == stack.shape[2] for res in alone]
        for row, res in zip(sigma, alone):
            assert row.tobytes() == res.singular_values.tobytes()

    def test_edge_cases_are_flagged_as_svd_ranks_them(self):
        flags = {name: batch_svd(stack)[1].tolist() for name, stack in BATCH_CASES.items()}
        assert flags == {"zero": [True, False, True], "duplicated-column": [True, False, True],
                         "subnormal": [True, True, True], "wide": [False, False, False]}

    def test_gather_columns_stacks_the_subsets(self):
        a = np.arange(12.0).reshape(3, 4)
        idx = np.array([[0, 2], [3, 1]])
        got = gather_columns(a, idx)
        assert got.shape == (2, 3, 2)
        for sub, cols in zip(got, idx):
            assert np.array_equal(sub, a[:, cols])


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_array_equal(pseudo_inverse(DenseMatrix(np.eye(3))).array, np.eye(3))

    @pytest.mark.parametrize("base", [np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])])
    def test_overflowing_pseudo_inverse_raises_without_warnings(self, base):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflows float64"):
                pseudo_inverse(DenseMatrix(base * 1e-310))

    # P2 C1 and C1^T P2 C1 overflow here; a RuntimeWarning from matmul, then
    # the generic "entries must all be finite", came out instead
    @pytest.mark.parametrize("swap", [False, True])
    def test_overflowing_partitioned_pinv_raises_without_warnings(self, swap):
        c1 = DenseMatrix([[1e308], [1e308], [-1e308], [0.5]])
        c2 = DenseMatrix([[1.0], [-1.0], [0.0], [1e308]])
        if swap:
            c1, c2 = c2, c1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="partitioned pseudo-inverse overflows float64"):
                partitioned_pinv(c1, c2)

    def test_diagonal(self):
        out = pseudo_inverse(DenseMatrix(np.diag([2.0, 1.0])))
        np.testing.assert_allclose(out.array, np.diag([0.5, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_moore_penrose_identities(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = random_matrix(rng, *shape).array
        p = pseudo_inverse(DenseMatrix(a)).array
        scale = np.linalg.norm(a)
        np.testing.assert_allclose(a @ p @ a, a, atol=1e-10 * scale)
        np.testing.assert_allclose(p @ a @ p, p, atol=1e-10 * np.linalg.norm(p))
        np.testing.assert_allclose(a @ p, (a @ p).T, atol=1e-10)
        np.testing.assert_allclose(p @ a, (p @ a).T, atol=1e-10)

    def test_rank_deficient_truncates(self):
        col = np.array([[1.0], [2.0]])
        a = np.hstack([col, 2 * col])
        p = pseudo_inverse(DenseMatrix(a)).array
        np.testing.assert_allclose(a @ p @ a, a, atol=1e-12)

    def test_double_application_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            back = pseudo_inverse(pseudo_inverse(a)).array
            np.testing.assert_allclose(back, a.array, rtol=1e-8, atol=1e-8)


class TestComplementProjector:
    def test_coordinate_axis(self):
        p = complement_projector(DenseMatrix([[1.0], [0.0]]))
        np.testing.assert_allclose(p.array, np.diag([0.0, 1.0]), atol=1e-15)

    def test_full_range_gives_zero(self):
        p = complement_projector(DenseMatrix(np.eye(2)))
        np.testing.assert_allclose(p.array, np.zeros((2, 2)), atol=1e-15)

    def test_projector_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            c = random_matrix(rng, 4, 2)
            p = complement_projector(c).array
            np.testing.assert_allclose(p, p.T, atol=1e-12)
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.linalg.norm(p @ c.array) <= 1e-10

    def test_rank_deficient_rejected(self):
        col = np.array([[1.0], [2.0], [0.0]])
        with pytest.raises(RankDeficiencyError):
            complement_projector(DenseMatrix(np.hstack([col, 3 * col])))


class TestPartitionedPinv:
    def test_orthonormal_split(self):
        parts = partitioned_pinv(DenseMatrix([[1.0], [0.0]]), DenseMatrix([[0.0], [1.0]]))
        np.testing.assert_allclose(parts.m1_pinv.array, [[1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(parts.m2_pinv.array, [[0.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("seed,m,k1,k2", [(0, 5, 2, 1), (1, 6, 3, 2), (2, 7, 1, 4)])
    def test_stack_matches_direct_pinv(self, seed, m, k1, k2):
        rng = np.random.default_rng(seed)
        c1 = random_matrix(rng, m, k1)
        c2 = random_matrix(rng, m, k2)
        parts = partitioned_pinv(c1, c2)
        direct = pseudo_inverse(concat_columns(c1, c2))
        np.testing.assert_allclose(parts.stacked().array, direct.array, atol=1e-9)

    def test_overlap_pattern_split(self):
        g = gadget(1)
        c1, c2 = g.columns([0]), g.columns([1])
        parts = partitioned_pinv(c1, c2)
        np.testing.assert_allclose(
            parts.stacked().array, pseudo_inverse(g).array, atol=1e-9
        )

    def test_schur_blocks_positive_definite(self):
        rng = np.random.default_rng(9)
        c1 = random_matrix(rng, 6, 2)
        c2 = random_matrix(rng, 6, 3)
        parts = partitioned_pinv(c1, c2)
        for block in (parts.schur1, parts.schur2):
            np.testing.assert_allclose(block.array, block.array.T, atol=1e-12)
            assert np.linalg.eigvalsh(block.array)[0] > 0

    def test_schur_block_is_projected_gram(self):
        rng = np.random.default_rng(12)
        c1 = random_matrix(rng, 5, 2)
        c2 = random_matrix(rng, 5, 2)
        parts = partitioned_pinv(c1, c2)
        p2 = complement_projector(c2).array
        np.testing.assert_allclose(parts.schur1.array, c1.array.T @ p2 @ c1.array, atol=1e-12)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            partitioned_pinv(DenseMatrix(np.eye(2)), DenseMatrix(np.eye(3)))

    def test_wide_concatenation_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeError):
            partitioned_pinv(random_matrix(rng, 3, 2), random_matrix(rng, 3, 2))

    def test_combined_rank_deficiency_rejected(self):
        c1 = DenseMatrix([[1.0], [0.0], [0.0]])
        c2 = DenseMatrix([[2.0], [0.0], [0.0]])
        with pytest.raises(RankDeficiencyError):
            partitioned_pinv(c1, c2)


class TestSpectralInequalities:
    def test_interlacing_on_random_submatrices(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(2, 9))
            a = random_matrix(rng, m, n)
            k = int(rng.integers(1, min(m, n) + 1))
            cols = np.sort(rng.choice(n, size=k, replace=False))
            sig_a = svd(a).singular_values
            sig_c = svd(a.columns(cols)).singular_values
            for j in range(k):
                pos = n - k + j
                lower = sig_a[pos] if pos < len(sig_a) else 0.0
                assert lower <= sig_c[j] + 1e-10
                assert sig_c[j] <= sig_a[j] + 1e-10

    def test_partition_lower_bounds_for_pinv_norms(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            m = int(rng.integers(4, 9))
            n = int(rng.integers(2, min(m, 6) + 1))
            split = int(rng.integers(1, n))
            c = random_matrix(rng, m, n)
            c1 = DenseMatrix(c.array[:, :split])
            c2 = DenseMatrix(c.array[:, split:])

            def pn(mat, p):
                return float(np.sum(svd(mat).singular_values ** (-p)) ** (1 / p))

            assert pn(c, 2) ** 2 >= pn(c1, 2) ** 2 + pn(c2, 2) ** 2 - 1e-9
            for p in (3.0, 4.0, 6.0):
                assert pn(c, p) ** p >= pn(c1, p) ** p + pn(c2, p) ** p - 1e-9

    def test_appended_column_determinant_identity(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(2, min(m, 6) + 1))
            c = random_matrix(rng, m, n)
            head = DenseMatrix(c.array[:, :-1])
            tail = c.array[:, -1]
            lhs = float(np.prod(svd(c).singular_values)) ** 2
            rhs = np.linalg.det(head.array.T @ head.array) * np.sum(
                (complement_projector(head).array @ tail) ** 2
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)
