"""Exact search's chunks, sized by a per-worker byte budget.

``exact_optima`` cuts the C(n, k) subsets into as many chunks as
``_CHUNK_BYTES`` of the arrays the pass holds at once needs
(``ChunkScreen.chunk_rows``), at any thread count, and maps them over
min(threads, chunks) workers; ``_batch_scores`` certifies in slices within
the same budget (``_score_bytes``).  Neither the chunks, the slices nor the
thread count may change a value or a witness.
"""

import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from chunking import index_chunks, recording_chunks
from colsel import screen, selectors, x3c
from colsel.criteria import equivalence_criteria, parse_criterion, registry
from colsel.matrixkit import DenseMatrix
from colsel.selectors import _batch_scores, exact_optima

# the benchmark's eight criteria, at its size: 12 x 20, k = 6, 38,760 subsets
BENCH_CRITERIA = ("vol", "rvol", "sopt", "norm-two", "pinv-norm:p=4", "cond:p=4", "srank",
                  "res-two")
K = 6


def _bench_matrix(scale=1.0):
    return DenseMatrix(np.random.default_rng(20).standard_normal((12, 20)) * scale)


def _zero_one_matrix():
    """A seeded 12 x 20 matrix of 0s and 1s: its Gram's entries repeat."""
    return DenseMatrix(np.random.default_rng(20).integers(0, 2, (12, 20)).astype(float))


def _x3c_matrix():
    # M = 5 over 14 triples: 2,002 subsets
    return x3c.reduce(x3c.generate_false(5, 14, 3)).matrix


def _budget(matrix, k, specs, rows):
    """The byte budget that gives chunks of ``rows`` subsets to a pass."""
    return screen.ChunkScreen(matrix.array, specs, k).chunk_bytes(rows)


def _recording_pools(monkeypatch):
    """The ``max_workers`` of every pool ``exact_optima`` starts."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(selectors, "ThreadPoolExecutor", Recording)
    return sizes


@pytest.mark.parametrize("n, k, chunks", [(20, 6, 4), (20, 6, 24), (10, 3, 7), (9, 4, 126),
                                          (7, 7, 1), (2100, 1, 3)])
def test_balanced_chunks_cover_every_subset_with_sizes_one_apart(n, k, chunks):
    size, extra = divmod(math.comb(n, k), chunks)
    found = list(index_chunks(n, k, size, extra))
    assert len(found) == chunks
    assert max(map(len, found)) - min(map(len, found)) <= 1
    combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    assert np.array_equal(np.concatenate(found), combos)


def test_more_chunks_than_subsets_give_one_subset_each():
    # 5 subsets cut for 6 chunks: five chunks of one, and no empty one
    size, extra = divmod(5, 6)
    found = list(index_chunks(5, 4, size, extra))
    assert [len(c) for c in found] == [1] * 5


class _SerialPool:
    """A stand-in for ThreadPoolExecutor that records ``max_workers`` and
    maps serially, so no thread starts."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return list(map(fn, iterable))


@pytest.mark.parametrize("rows", (None, 9))
def test_threads_beyond_the_chunks_start_one_worker_per_chunk(rows, monkeypatch):
    # 6 x 8, k = 3: 56 subsets, one chunk at the default budget and seven
    # chunks of at most 9 rows; a million threads asked for start none
    # beyond those chunks
    matrix = DenseMatrix(np.random.default_rng(4).standard_normal((6, 8)))
    specs = [parse_criterion("vol"), parse_criterion("res-two")]
    expected = exact_optima(matrix, 3, specs)
    if rows is not None:
        monkeypatch.setattr(selectors, "_CHUNK_BYTES", _budget(matrix, 3, specs, rows))
    sizes = []
    monkeypatch.setattr(selectors, "ThreadPoolExecutor",
                        lambda max_workers: _SerialPool(sizes, max_workers))
    chunks = recording_chunks(monkeypatch)
    assert exact_optima(matrix, 3, specs, threads=10**6) == expected
    assert sizes == ([] if rows is None else [7])
    assert len(chunks) == (1 if rows is None else 7)


# budget name -> rows per chunk, or None for the default budget
BUDGETS = {"tiny": 1201, "default": None, "one-chunk": math.comb(20, K)}


def _invariance(matrix, k, specs, monkeypatch):
    """The optima at every budget of BUDGETS and 1 to 4 threads, checking
    each run's chunks and workers: the fewest chunks of the budget's rows
    at every thread count, with sizes at most one apart, over
    min(threads, chunks) workers."""
    outcomes = set()
    total = math.comb(matrix.cols, k)
    for name, rows in BUDGETS.items():
        if rows is not None:
            monkeypatch.setattr(selectors, "_CHUNK_BYTES", _budget(matrix, k, specs, rows))
        budget_rows = screen.ChunkScreen(matrix.array, specs, k).chunk_rows(selectors._CHUNK_BYTES)
        chunks, pools = recording_chunks(monkeypatch), _recording_pools(monkeypatch)
        for threads in (1, 2, 3, 4):
            chunks.clear()
            pools.clear()
            outcomes.add(repr(exact_optima(matrix, k, specs, threads=threads)))
            sizes = [len(idx) for idx in chunks]
            assert len(chunks) == -(-total // budget_rows), (name, threads)
            workers = min(threads, len(chunks))
            assert pools == ([] if workers == 1 else [workers]), (name, threads)
            assert max(sizes) - min(sizes) <= 1, (name, threads)
            assert sum(sizes) == total
            if rows is not None:
                assert max(sizes) <= rows
        monkeypatch.undo()
    return outcomes


@pytest.mark.parametrize("spec", registry(), ids=str)
def test_optima_do_not_depend_on_chunks_or_threads(spec, monkeypatch):
    outcomes = _invariance(_bench_matrix(), K, [spec], monkeypatch)
    assert len(outcomes) == 1


def test_x3c_verify_pass_does_not_depend_on_chunks_or_threads(monkeypatch):
    outcomes = _invariance(_x3c_matrix(), 5, equivalence_criteria(), monkeypatch)
    assert len(outcomes) == 1


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one pass of each estimator path: the blocks' eigenvalues (norm:p=3), their
# Cholesky factor alone (vol, sopt), with its inverse (pinv-norm, cond) or
# the bracket on the largest eigenvalue (rvol), the bracket with no factor
# (norm-two, srank), the residuals' prefix tree with no block, every
# registered criterion at once, x3c gap's 12 and
# verify's 20 criteria at M = 6, which group their chunks' equal blocks, and
# at 1e100, which the pass screens at unit scale; and the eigenvalues on a
# 0/1 matrix, whose first chunk groups its blocks and finds too few equal
PASSES = [*((ident, 1.0) for ident in ("norm:p=3", *BENCH_CRITERIA, "res-frobenius", "registry",
                                       "gap", "verify")),
          ("sopt", 1e100), ("registry", 1e100), ("norm:p=3 on 0/1", 1.0)]


def _pass(name, scale):
    """(matrix, k, specs) of a pass named in PASSES."""
    if name in ("gap", "verify"):
        # 18 x 18, k = 6: 18,564 subsets
        matrix = x3c.reduce(x3c.generate_false(6, 18, 7)).matrix
        specs = [row[0] for row in x3c._gap_rows(6)] if name == "gap" else equivalence_criteria()
        return matrix, 6, specs
    if name == "norm:p=3 on 0/1":
        return _zero_one_matrix(), K, [parse_criterion("norm:p=3")]
    return _bench_matrix(scale), K, registry() if name == "registry" else [parse_criterion(name)]


# a pass's peak against the bytes its largest chunk holds by chunk_bytes,
# which the budget bounds: measured 0.78 to 1.0 for PASSES and 1.11 for the
# densest chunk of a wide residual pass (a rescore of every row adds its
# certification slices).  Above the range, the byte counts miss an
# array; below it, they count arrays the pass does not hold, and its chunks
# come out needlessly small.
HELD_RANGE = (0.6, 1.3)


@pytest.mark.parametrize("name, scale", PASSES, ids=str)
def test_a_pass_holds_what_its_chunks_count(name, scale):
    matrix, k, specs = _pass(name, scale)
    chunk = screen.ChunkScreen(matrix.array, specs, k)
    total = math.comb(matrix.cols, k)
    chunks = -(-total // chunk.chunk_rows(selectors._CHUNK_BYTES))
    assert chunks > 1
    held = chunk.chunk_bytes(-(-total // chunks))
    assert held <= selectors._CHUNK_BYTES
    peak = _peak_bytes(lambda: exact_optima(matrix, k, specs))
    low, high = HELD_RANGE
    assert low * held <= peak <= high * held


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 11) for k in range(2, n + 1)])
def test_the_last_rows_hold_the_most_distinct_prefixes(n, k):
    # for every window length, no run of consecutive k-combinations holds
    # more distinct (k - 1)-prefixes than the order's last rows, which
    # _suffix_prefixes counts
    combos = list(itertools.combinations(range(n), k))
    starts = np.array([i == 0 or a[:-1] != b[:-1] for i, (a, b)
                       in enumerate(zip(combos, [None] + combos[:-1]))])
    begun = np.concatenate([[0], np.cumsum(starts)])
    for rows in range(1, len(combos) + 1):
        first = np.arange(len(combos) - rows + 1)
        held = begun[first + rows] - begun[first] + ~starts[first]
        assert screen._suffix_prefixes(n, k, rows) == held[-1] == held.max()


def test_the_chunk_densest_in_prefixes_holds_what_it_counts():
    # res-two at 12 x 1000, k = 2: the order's last chunk holds the most
    # distinct 1-prefixes, each a 12 x 1000 T of the prefix tree, 39 in its
    # 779 rows, where 2k / n per row would count 3; its bands alone are
    # measured, since the pass certifies most of its 499,500 rows through
    # SVDs of 12 x 1000 residuals and takes minutes
    matrix = DenseMatrix(np.random.default_rng(21).standard_normal((12, 1000)))
    chunk = screen.ChunkScreen(matrix.array, [parse_criterion("res-two")], 2)
    total = math.comb(1000, 2)
    chunks = -(-total // chunk.chunk_rows(selectors._CHUNK_BYTES))
    last = selectors._index_chunks(1000, 2, *divmod(total, chunks))(chunks - 1)
    assert screen._suffix_prefixes(1000, 2, len(last)) == len({row[0] for row in last.tolist()})
    held = chunk.chunk_bytes(len(last))
    assert held <= selectors._CHUNK_BYTES
    peak = _peak_bytes(lambda: chunk.bands(last))
    low, high = HELD_RANGE
    assert low * held <= peak <= high * held


def test_a_rescore_of_every_row_is_sliced(svd_rows, monkeypatch):
    # svd_rows has the rows of each _batch_scores call, slices the rows of
    # each of its slices; bands that belong to other rows make every chunk
    # rescore all of its rows
    slices = []
    real, real_bands = selectors._slice_scores, screen.ChunkScreen.bands

    def recording(a, col_norms, idx, specs):
        slices.append(len(idx))
        return real(a, col_norms, idx, specs)

    def reversed_bands(self, idx):
        return [(estimate[::-1].copy(), width) for estimate, width in real_bands(self, idx)]

    monkeypatch.setattr(selectors, "_slice_scores", recording)
    monkeypatch.setattr(screen.ChunkScreen, "bands", reversed_bands)
    matrix = _bench_matrix()
    spec = parse_criterion("sopt")
    exact_optima(matrix, K, [spec])
    rows = selectors._CHUNK_BYTES // selectors._score_bytes(matrix.rows, matrix.cols, K, [spec])
    assert max(svd_rows) > rows >= max(slices)
    assert sum(slices) == sum(svd_rows)


@pytest.mark.parametrize("idents", [("sopt", "vol"), ("res-two", "res-frobenius", "cond:p=4")],
                         ids="+".join)
@pytest.mark.parametrize("scale", (1.0, 1e100, 1e-150), ids="{:g}".format)
def test_sliced_scores_equal_one_stack_bit_for_bit(idents, scale, monkeypatch):
    matrix = _bench_matrix(scale)
    specs = [parse_criterion(ident) for ident in idents]
    idx = next(index_chunks(matrix.cols, K, 2048))
    a, col_norms = matrix.array, matrix.column_norms()
    whole = _batch_scores(a, col_norms, idx, specs)
    stack = selectors._score_bytes(matrix.rows, matrix.cols, K, specs)
    monkeypatch.setattr(selectors, "_CHUNK_BYTES", 97 * stack)  # 22 slices
    sliced = _batch_scores(a, col_norms, idx, specs)
    for (vals, valid), (cut, cut_valid) in zip(whole, sliced):
        assert vals.tobytes() == cut.tobytes()
        assert np.array_equal(valid, cut_valid)
