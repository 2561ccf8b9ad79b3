"""The screened exhaustive enumeration against scoring every subset.

``exact_optima`` bands every subset's value and runs the batched SVD only on
the subsets that could be a chunk's best.  A pass of Gram-invariant criteria
(vol, rvol, sopt, norm-two, and norm, pinv-norm, cond and srank at p = 2 or
4) takes its bands from each subset's Gram block: from a Cholesky factor of
it where a criterion reads its determinant or its inverse (vol, rvol, sopt,
pinv-norm, cond), else from its traces alone, and from a bracket on its
largest eigenvalue where one is read; any other pass from the eigenvalues of
that block.  The residuals take theirs, and their rank proof, from a QR of
each subset's first k - 1 columns, shared by the subsets that begin with
them, and one Householder reflection per subset.  The oracle below is the
loop that scores every subset through ``_batch_scores``, over
``itertools.combinations``; the selector must return the same subset, the
same value under ``==`` and the same ``subsets_evaluated`` (or raise the
same error) for every registered criterion, also where the estimates are poor or absent: duplicated and nearly
duplicated columns, rank below k, k equal to or above the row count, more
rows than columns, the tie-heavy X3C reduction matrices, and scales of
1e+-100 and 1e+-150.  The oracle scores at A's unit scale, as the selector
does, and rescales its optimum once, so a value past float64 range keeps
the witness of the unscaled input.
"""

import functools
import itertools
import math
import sys

import numpy as np
import pytest

from chunking import index_chunks, recording_chunks
from colsel import criteria, screen, selectors, x3c
from colsel.criteria import equivalence_criteria, parse_criterion, registry
from colsel.errors import InvalidParameterError
from colsel.matrixkit import DenseMatrix, batch_svd, column_norms, gather_columns
from colsel.screen import GramSpectrum
from colsel.selectors import _batch_scores, _best_row, _better, exact_optima, select_exact

# the benchmark's eight criteria and res-frobenius
CRITERIA = ("vol", "rvol", "sopt", "norm-two", "pinv-norm:p=4", "cond:p=4", "srank", "res-two",
            "res-frobenius")


def _unit(matrix):
    """(A / 2**e, its column norms, e), with e from ``unit_scaled``: the
    inputs ``exact_optima`` certifies with."""
    unit, exponent = screen.unit_scaled(matrix.array)
    return unit, column_norms(unit), exponent


def oracle_optima(matrix, k, specs):
    a, col_norms, exponent = _unit(matrix)
    maximize = [spec.direction == "maximize" for spec in specs]
    best = [None] * len(specs)
    seen = 0
    combos = itertools.combinations(range(matrix.cols), k)
    while block := list(itertools.islice(combos, 2048)):
        idx = np.array(block, dtype=np.intp)
        for i, (vals, valid) in enumerate(_batch_scores(a, col_norms, idx, specs)):
            row = _best_row(vals, valid, maximize[i])
            cand = None if row is None else (float(vals[row]), tuple(int(j) for j in idx[row]))
            best[i] = _better(best[i], cand, maximize[i])
        seen += len(idx)
    return [selectors._rescaled(spec, k, b, exponent) for spec, b in zip(specs, best)], seen


def _gaussian(seed, m=9, n=15):
    return np.random.default_rng(seed).standard_normal((m, n))


def _duplicated(seed):
    a = _gaussian(seed)
    a[:, [1, 9, 13]] = a[:, [0, 4, 4]]
    return a


def _near_duplicate(seed):
    a = _gaussian(seed)
    a[:, 6] = a[:, 2] + 1e-9 * np.random.default_rng(seed + 1).standard_normal(len(a))
    return a


def _spanning_near_duplicate(seed):
    # column 6 is column 2 plus 1e-12 z and column 11 is z, so a subset holding
    # 2 and 6 spans what one holding 2 and 11 spans, at a condition number
    # above 1e11: such subsets lie next to the residual optima
    a = _gaussian(seed)
    z = np.random.default_rng(seed + 1).standard_normal(len(a))
    a[:, 6] = a[:, 2] + 1e-12 * z
    a[:, 11] = z
    return a


def _low_rank(seed, rank=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((9, rank)) @ rng.standard_normal((rank, 15))


def _graded(seed, m=10, n=14):
    # column norms spread over six orders of magnitude, 10^U(-3, 3): the
    # determinant bound proves the rank of fewer rows than the eigenvalues do
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, n)


def _reduction(instance):
    return x3c.reduce(instance).matrix.array


# name -> (matrix, k); 9 x 15 with k = 5 is 3,003 subsets, one or two chunks
CASES = {
    **{f"gaussian-{s}": (lambda s=s: _gaussian(s), 5) for s in (0, 1)},
    "duplicated": (lambda: _duplicated(2), 5),
    "near-duplicate": (lambda: _near_duplicate(3), 5),
    "spanning-near-duplicate": (lambda: _spanning_near_duplicate(2), 5),
    "rank-k-1": (lambda: _low_rank(4), 5),
    # fewer rows than k: no subset has full column rank
    "wide": (lambda: _gaussian(6, 4, 10), 5),
    "k-above-m": (lambda: _gaussian(9, 2, 8), 5),
    # every full-rank subset spans the whole column space: residuals near 0
    "k-equals-m": (lambda: _gaussian(10, 5, 10), 5),
    "tall": (lambda: _gaussian(11, 16, 9), 4),
    "very-tall": (lambda: _gaussian(12, 200, 10), 4),
    "graded": (lambda: _graded(13), 5),
    "x3c-false": (lambda: _reduction(x3c.generate_false(5, 14, 1)), 5),
    "x3c-true": (lambda: _reduction(x3c.generate_true(5, 9, 1)), 5),
    **{f"scale-{c:g}": (lambda c=c: _gaussian(5) * c, 5) for c in (1e-150, 1e-100, 1e100, 1e150)},
}
# the benchmark's size, 38,760 subsets
LARGE_CASES = {f"gaussian-12x20-{s}": (lambda s=s: _gaussian(s, 12, 20), 6) for s in (0, 1, 2)}


def _twice(scale):
    b = _gaussian(0, 8, 12)
    return np.hstack([b, b]) * scale


# [B, B]: subset S and its copy S + 12 are the same submatrix, so optima tie
# exactly across chunks and threads; 10,626 subsets in six chunks
TIE_CASES = {f"twice-{c:g}": (lambda c=c: _twice(c), 4) for c in (1.0, 1e100)}


@functools.cache
def _oracle(case, specs):
    make, k = {**CASES, **LARGE_CASES, **TIE_CASES}[case]
    return oracle_optima(DenseMatrix(make()), k, specs)


def _expected(case, spec, specs=registry()):
    """What ``select_exact`` gives for ``spec`` by the oracle's one pass over ``specs``."""
    best, seen = _oracle(case, specs)
    outcome = best[specs.index(spec)]
    if outcome is None:
        return ("error", "InfeasibleError")
    value, idx = outcome
    if not math.isfinite(value):
        return ("error", "InvalidInputError")
    return ("ok", idx, value, seen)


# how exact_optima estimates a chunk: by eigenvalues for a pass with a spectral
# criterion, by a Cholesky factor for a pass with a criterion that reads the
# determinant or the inverse, with the inverse's traces for a pass with
# pinv-norm or cond, by the traces alone for the others, and with the bracket
# on the largest eigenvalue for a pass with rvol, norm-two or srank; the
# estimators that prove rank, and the factor-free ones, which prove none
ESTIMATORS = ("eigvalsh", "cholesky", "cholesky-inverse", "cholesky-top")
FACTOR_FREE = ("traces", "traces-top")


def _parts(estimator):
    """The ``ChunkScreen.parts`` of a shifted-block ``estimator``: "cholesky"
    (a factor for the determinant) or "traces" (none), with the parts
    "-inverse" and "-top" it names."""
    parts = {"det"} if estimator.startswith("cholesky") else set()
    return parts | {part for part in ("inverse", "top") if f"-{part}" in estimator}


def _estimates(matrix, idx, estimator="eigvalsh"):
    """The spectrum of the subsets ``idx`` of ``matrix`` by ``estimator``:
    "eigvalsh", or "cholesky" or "traces" with the parts "-inverse" and
    "-top" it names."""
    unit, _ = screen.unit_scaled(matrix.array)
    gram = unit.T @ unit
    if estimator == "eigvalsh":
        return screen._gram_estimates(gram, matrix.rows, idx)
    return screen._shifted_estimates(gram, matrix.rows, idx, _parts(estimator))


def _reads_a_factor(spec):
    """Whether a pass of ``spec`` factors its blocks (``CriterionSpec.factored``)."""
    return spec.gram_invariant and bool({"det", "inverse"} & set(spec.factored))


def _serves(estimator, spec):
    """Whether ``estimator`` forms every invariant a Gram-invariant ``spec`` reads."""
    reads = set(spec.factored)
    return ((estimator.startswith("cholesky") or not reads & {"det", "inverse"})
            and ("inverse" not in reads or "-inverse" in estimator)
            and ("top" not in reads or "-top" in estimator))


def _tree(matrix, idx, norms=("two", "frobenius")):
    """(bands, kappa) of ``_residual_bands`` on the subsets ``idx`` of ``matrix``."""
    unit, _ = screen.unit_scaled(matrix.array)
    return screen._residual_bands(screen._residual_basis(unit), idx, set(norms))


def _select_outcome(matrix, k, spec, threads=1):
    try:
        result = select_exact(matrix, k, spec, threads=threads)
    except Exception as exc:  # the oracle and the selector must fail alike
        return ("error", type(exc).__name__)
    return ("ok", result.subset.indices, result.value.value, result.subsets_evaluated)


@pytest.mark.parametrize("n, k, chunk_size", [(20, 6, 2048), (9, 4, 126), (10, 3, 7), (7, 7, 3),
                                               (7, 1, 3), (2100, 1, 2048), (12, 6, 1),
                                               (70, 69, 2048), (40, 37, 2048)])
def test_index_chunks_match_itertools(n, k, chunk_size):
    combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    chunks = list(index_chunks(n, k, chunk_size))
    assert [len(c) for c in chunks[:-1]] == [chunk_size] * (len(chunks) - 1)
    assert all(c.dtype == np.intp for c in chunks)
    assert np.array_equal(np.concatenate(chunks), combos)


@pytest.mark.parametrize("spec", registry(), ids=str)
@pytest.mark.parametrize("case", sorted(CASES))
def test_select_exact_equals_scoring_every_subset(case, spec):
    # the oracle scores every criterion in one pass; each criterion's optimum
    # is the one a pass of its own would give
    make, k = CASES[case]
    assert _select_outcome(DenseMatrix(make()), k, spec) == _expected(case, spec)


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("case", sorted(LARGE_CASES))
def test_large_shared_pass_equals_scoring_every_subset(case, threads):
    # one pass for every criterion certifies the union of their near-best rows
    make, k = LARGE_CASES[case]
    specs = registry()
    assert exact_optima(DenseMatrix(make()), k, specs, threads=threads) == _oracle(case, specs)


@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_pass_equals_scoring_every_subset(case):
    make, k = CASES[case]
    assert exact_optima(DenseMatrix(make()), k, registry(), threads=2) == _oracle(case, registry())


@pytest.mark.parametrize("ident", CRITERIA)
def test_large_select_exact_equals_scoring_every_subset(ident):
    make, k = LARGE_CASES["gaussian-12x20-0"]
    spec = parse_criterion(ident)
    expected = _expected("gaussian-12x20-0", spec)
    assert _select_outcome(DenseMatrix(make()), k, spec, threads=2) == expected


@pytest.mark.parametrize("ident", CRITERIA)
def test_svd_runs_on_few_subsets(ident, svd_rows):
    matrix = DenseMatrix(_gaussian(7, 12, 20))
    result = select_exact(matrix, 6, parse_criterion(ident))
    assert result.subsets_evaluated == math.comb(20, 6)
    assert 0 < sum(svd_rows) <= result.subsets_evaluated // 100


def _recording(monkeypatch, name, module=np.linalg):
    """The shapes of the arrays passed to ``module.<name>`` from now on."""
    shapes = []
    real = getattr(module, name)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return shapes


def _reversed(band):
    return band[0][::-1].copy(), band[1]


def _halved(band):
    return band[0] / 2.0, band[1]


def _corrupted_tree(real, corrupt):
    """``_residual_bands`` with every band corrupted, its kappa kept."""
    def tree(*args):
        bands, kappa = real(*args)
        return {norm: corrupt(band) for norm, band in bands.items()}, kappa
    return tree


@pytest.mark.parametrize("corrupt", (_reversed, _halved), ids=("reversed", "halved"))
@pytest.mark.parametrize("ident", CRITERIA)
def test_wrong_estimates_fall_back_to_scoring_every_subset(ident, corrupt, monkeypatch, svd_rows):
    # estimates of the right size that belong to other rows, or are all off by
    # a factor of two: the certified values leave their bands, and the guard
    # must score the chunk in full; batch_bands forms the bands of the
    # eigenvalue, the Cholesky and the factor-free estimates, and every one of
    # CRITERIA has one of the latter two: a Cholesky factor where it reads
    # the determinant or the inverse, the traces alone for norm-two and
    # srank, and no block at all for the residuals
    real, real_residual = screen.batch_bands, screen._residual_bands
    monkeypatch.setattr(screen, "batch_bands", lambda *args: corrupt(real(*args)))
    monkeypatch.setattr(screen, "_residual_bands", _corrupted_tree(real_residual, corrupt))
    factored = _recording(monkeypatch, "_cholesky", screen)
    shifted = _recording(monkeypatch, "_shifted_estimates", screen)
    gathered = _recording(monkeypatch, "_blocks", screen)
    make, k = CASES["gaussian-0"]
    spec = parse_criterion(ident)
    assert _select_outcome(DenseMatrix(make()), k, spec) == _expected("gaussian-0", spec)
    assert sum(svd_rows) >= math.comb(make().shape[1], k)
    if _reads_a_factor(spec):
        assert factored and shifted
    elif spec.gram_invariant:
        assert shifted and not factored
    else:
        assert spec.residual_norm is not None and not gathered


@pytest.mark.parametrize("threads", (1, 3))
# every block of a chunk, or every other one, is made to fail its first pivot
@pytest.mark.parametrize("stride", (1, 2), ids=("every", "alternate"))
@pytest.mark.parametrize("case", ("gaussian-0", "duplicated", "scale-1e-150"))
def test_failed_pivots_are_certified_by_the_svd(case, stride, threads, monkeypatch, svd_rows):
    # a block whose pivot is not positive leaves its own row unproven (NaN
    # rel), and a reflection of a zero x (every node of the residuals' tree,
    # or every other one, at every level) the kappa of each row below it
    # infinite; such a row is certified by the SVD; no chunk falls back to
    # eigvalsh, and a row that fails does not disturb its chunk's others
    real, real_reflected = screen._cholesky, screen._reflected
    calls, zeroed = [], []

    def failing(h):
        calls.append(h.shape)
        return real(np.where(np.arange(h.shape[-1]) % stride == 0, -h, h))

    def zeroing(t, cols):
        nodes = np.arange(0, len(cols), stride)
        t[nodes, :, cols[nodes]] = 0.0
        zeroed.append(len(nodes))
        return real_reflected(t, cols)

    monkeypatch.setattr(screen, "_cholesky", failing)
    monkeypatch.setattr(screen, "_reflected", zeroing)
    solved = _recording(monkeypatch, "eigvalsh")
    make, k = CASES[case]
    matrix = DenseMatrix(make())
    for ident in CRITERIA:
        spec = parse_criterion(ident)
        svd_rows.clear()
        assert _select_outcome(matrix, k, spec, threads) == _expected(case, spec)
        if stride == 1 and (_reads_a_factor(spec) or spec.residual_norm is not None):
            assert sum(svd_rows) >= math.comb(matrix.cols, k), spec
    assert calls and zeroed and not solved


def _specs(*idents):
    return [parse_criterion(ident) for ident in idents]


def test_only_passes_that_read_a_determinant_or_an_inverse_factor(monkeypatch):
    # a pass holding any criterion that is no function of the Gram invariants
    # and the largest eigenvalue (p = 3, or sigma_k alone) keeps its eigenvalue
    # estimates and never factors, x3c's passes included; a pass of
    # Gram-invariant criteria and residuals never calls eigvalsh at all,
    # res-two's tail Grams included; of those, a pass factors its blocks
    # only when a criterion reads det(C^T C) or the inverse's traces (vol,
    # rvol, sopt, pinv-norm, cond), one of norm and srank alone reads their
    # traces, and a pass of residuals alone gathers no block
    factored = _recording(monkeypatch, "_cholesky", screen)
    gathered = _recording(monkeypatch, "_blocks", screen)
    solved = _recording(monkeypatch, "eigvalsh")
    matrix, k = DenseMatrix(_gaussian(0)), 5
    for specs in (_specs("pinv-norm:p=3"), _specs("srank:p=3"), _specs("pinv-norm-two"),
                  _specs("cond-two"), _specs("cond-mixed"), _specs("rvol", "norm-two", "norm:p=3"),
                  _specs("vol", "sopt", "cond-two"), registry()):
        exact_optima(matrix, k, specs)
    instance = x3c.generate_false(3, 8, 1)
    x3c.gap_report(instance)
    x3c.verify_equivalence(instance)
    assert solved and not factored
    solved.clear()
    gram_invariant = [spec for spec in registry() if spec.gram_invariant]
    assert len(gram_invariant) == 12
    factoring = [spec for spec in gram_invariant if _reads_a_factor(spec)]
    assert {str(spec) for spec in factoring} == {
        "vol", "rvol", "sopt", "pinv-norm-frobenius", "pinv-norm:p=4", "cond-frobenius",
        "cond:p=4"}
    traces = [spec for spec in gram_invariant if not _reads_a_factor(spec)]
    assert {str(spec) for spec in traces} == {"norm-two", "norm:p=4", "norm-frobenius", "srank",
                                              "srank:p=4"}
    # the traces prove no rank, and serve only values that score a rank-deficient C
    assert all(criteria._KINDS[spec.kind].rank == "any" for spec in traces)
    for specs in ([[spec] for spec in factoring] + [gram_invariant]
                  + [_specs("res-frobenius", "vol"), _specs("res-two", "rvol"),
                     _specs("norm-two", "vol")]):
        factored.clear()
        exact_optima(matrix, k, specs)
        assert factored, specs
    for specs in [[spec] for spec in traces] + [traces, _specs("res-two", "srank")]:
        factored.clear()
        gathered.clear()
        exact_optima(matrix, k, specs)
        assert gathered and not factored, specs
    for specs in (_specs("res-two"), _specs("res-frobenius"), _specs("res-two", "res-frobenius")):
        gathered.clear()
        exact_optima(matrix, k, specs)
        assert not gathered and not factored, specs
    assert not solved


def _grams(b):
    """B^T B for each B of a stack."""
    return np.swapaxes(b, 1, 2) @ b


def _top_gap(seed, gap, d=6, count=64):
    """Q diag(lambda) Q^T for seeded random orthogonal Q, whose two largest
    eigenvalues are 1 and 1 - ``gap``."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(0.0, 1.0 - gap, (count, d)), axis=1)[:, ::-1]
    lam[:, 0], lam[:, 1] = 1.0, 1.0 - gap
    q = np.linalg.qr(rng.standard_normal((count, d, d)))[0]
    return (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)


def _cover_grams(seed):
    """C^T C for an exact cover C of seeded X3C instances, M = 3 to 6: every
    eigenvalue equal, up to the rounding of the reduction's entries."""
    grams = []
    for m in range(3, 7):
        instance = x3c.generate_true(m, 3, seed)
        c = x3c.reduce(instance).matrix.array[:, list(x3c.solve_exact(instance))]
        grams.append(c.T @ c)
    return grams


# name -> a list of (d, d) PSD blocks or (B, d, d) stacks of them, by seed
TOP_STACKS = {
    "x3c-cover": _cover_grams,
    "gap-1e-8": lambda seed: [_top_gap(seed, 1e-8)],
    "gap-0.5": lambda seed: [_top_gap(seed, 0.5)],
    # rank 3 of 6
    "rank-deficient": lambda seed: [_grams(np.random.default_rng(seed).standard_normal((64, 3, 6)))],
    "zero": lambda seed: [np.zeros((4, 5, 5))],
    "column-scales": lambda seed: [_grams(
        _gaussian(seed, 12, 6)[None] * 10.0 ** np.random.default_rng(seed).uniform(-3, 3, 6))],
    "gaussian-grams": lambda seed: [_grams(np.random.default_rng(seed).standard_normal((256, 12, 6)))],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", sorted(TOP_STACKS))
def test_top_bracket_holds_the_largest_eigenvalue(family, seed):
    # lo <= lambda_max <= hi within the 2 d (d + 1) eps the docstring derives,
    # widened by eigvalsh's own rounding, a few d eps; hi / lo is at most
    # d^(1/32), and, with the other eigenvalues at most r lambda_max, at most
    # exp((d - 1) r^16 / 16)
    eps = np.finfo(np.float64).eps
    for stack in TOP_STACKS[family](seed):
        h = stack if stack.ndim == 3 else stack[None]
        d = h.shape[-1]
        lo, hi = screen._top_bracket(h, np.einsum("bii->b", h))
        top = np.linalg.eigvalsh(h)[:, -1]
        slack = 2 * d * (d + 1) * eps + 8 * d * eps
        assert np.all(lo * (1.0 - slack) <= top), family
        assert np.all(top <= hi * (1.0 + slack)), family
        assert np.all(hi <= lo * d ** (1 / 32) * (1.0 + slack))
        if family == "zero":
            assert np.all(lo == 0.0) and np.all(hi == 0.0)
        if family == "x3c-cover":
            # a d-fold top eigenvalue: the bracket is as wide as it can be
            assert np.allclose(hi / lo, d ** (1 / 32), rtol=1e-12, atol=0.0)
        if family == "gap-0.5":
            assert np.all(hi <= lo * math.exp((d - 1) * 0.5**16 / 16) * (1.0 + slack))


def _spd_stacks(k, seed, count=256):
    """(k, k, count) arrays of symmetric positive definite blocks, one per
    family: Gaussian Grams, Grams of columns scaled by 10^U(-3, 3), and
    Grams of rank k - 1 (1 at k = 1) shifted as ``_shifted_estimates``
    shifts them."""
    rng = np.random.default_rng(seed)
    gaussian = _grams(rng.standard_normal((count, k + 3, k)))
    scaled = _grams(rng.standard_normal((count, k + 3, k)) * 10.0 ** rng.uniform(-3, 3, k))
    rank = max(k - 1, 1)
    singular = _grams(rng.standard_normal((count, k + 3, rank)) @ rng.standard_normal((count, rank, k)))
    trace = np.trace(singular, axis1=1, axis2=2)
    singular += (screen.ROUNDING * (12 + k) * k * trace)[:, None, None] * np.eye(k)
    return [np.ascontiguousarray(np.moveaxis(h, 0, -1)) for h in (gaussian, scaled, singular)]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("k", (1, 2, 6, 11))
def test_column_cholesky_reproduces_each_block(k, seed):
    # L is lower triangular with a positive diagonal, and L L^T is within
    # the backward error (k + 1) eps tr H of each block in the two-norm
    # (Higham, Thm 10.3), which also holds the rounding of the product
    eps = np.finfo(np.float64).eps
    for h in _spd_stacks(k, seed):
        lower = screen._cholesky(h.copy())
        assert lower.shape == h.shape
        assert np.all(lower[np.triu_indices(k, 1)] == 0.0)
        assert np.all(np.diagonal(lower).T > 0.0)
        error = np.einsum("ilb,jlb->bij", lower, lower) - np.moveaxis(h, -1, 0)
        bound = (k + 1) * eps * np.einsum("iib->b", h)
        assert np.all(np.linalg.norm(error, 2, axis=(1, 2)) <= bound)


@pytest.mark.parametrize("k", (1, 2, 6, 11))
def test_inverse_traces_match_the_inverse(k):
    # tr H^-1 and tr H^-2 from the forward substitution against those of
    # numpy's inverse of L L^T, on the Gaussian Grams, within
    # 4 k eps kappa^2 of either
    eps = np.finfo(np.float64).eps
    h = _spd_stacks(k, 0)[0]
    lower = screen._cholesky(h.copy())
    product = np.einsum("ilb,jlb->bij", lower, lower)
    inverse = np.linalg.inv(product)
    tolerance = 4 * k * eps * np.linalg.cond(product) ** 2
    first, second = screen._inverse_traces(lower.copy())
    assert np.all(np.abs(first / np.trace(inverse, axis1=1, axis2=2) - 1.0) <= tolerance)
    assert np.all(np.abs(second / np.sum(inverse**2, axis=(1, 2)) - 1.0) <= tolerance)


@pytest.mark.parametrize("case", ("duplicated", "rank-k-1", "wide", "k-above-m", "scale-1e-150",
                                  "x3c-true"))
def test_every_shifted_block_of_a_gram_factors(case, monkeypatch):
    # the shift by the rounding bound keeps each block's eigenvalues at or
    # above it, so no pivot of a Gram's block fails, singular blocks included
    real = screen._cholesky
    factors = []

    def recording(h):
        factors.append(real(h))
        return factors[-1]

    monkeypatch.setattr(screen, "_cholesky", recording)
    make, k = CASES[case]
    exact_optima(DenseMatrix(make()), k, _specs("vol"))
    assert factors and not any(np.isnan(factor).any() for factor in factors)


@pytest.mark.parametrize("inverse, top", itertools.product((False, True), repeat=2))
def test_a_row_is_unproven_exactly_where_its_pivot_fails(inverse, top):
    # columns 0 and 1 of a Gram made indefinite: every block holding both
    # fails its second pivot and no other block fails, so the chunk mixes
    # both kinds; NaN runs from the failing pivot on, and the row's rel is
    # NaN exactly where a pivot failed
    make, k = CASES["gaussian-0"]
    matrix = DenseMatrix(make())
    unit, _ = screen.unit_scaled(matrix.array)
    gram = unit.T @ unit
    gram[0, 1] = gram[1, 0] = 3.0 * math.sqrt(gram[0, 0] * gram[1, 1])
    mixed = 0
    for idx in index_chunks(matrix.cols, k, 2048):
        fails = (idx[:, 0] == 0) & (idx[:, 1] == 1)
        pivots = np.diagonal(screen._cholesky(screen._blocks(gram, idx))).T
        assert np.array_equal(np.isnan(pivots).any(axis=0), fails)
        assert np.all(np.isnan(pivots[1:, fails])) and np.all(pivots[0, fails] > 0.0)
        parts = _parts("cholesky" + "-inverse" * inverse + "-top" * top)
        spectrum = screen._shifted_estimates(gram, matrix.rows, idx, parts)
        assert np.array_equal(np.isnan(spectrum.rel), fails)
        mixed += fails.any() and not fails.all()
    assert mixed


# the CASES families by seed, and their k
FAMILIES = {
    "gaussian": (_gaussian, 5),
    "duplicated": (_duplicated, 5),
    "near-duplicate": (_near_duplicate, 5),
    "spanning-near-duplicate": (_spanning_near_duplicate, 5),
    "rank-k-1": (_low_rank, 5),
    "wide": (lambda seed: _gaussian(seed, 4, 10), 5),
    "very-tall": (lambda seed: _gaussian(seed, 200, 10), 4),
    "x3c-false": (lambda seed: _reduction(x3c.generate_false(5, 14, seed)), 5),
}


def _bands_hold(make, k, scale, estimators):
    """The rows, over three seeds of ``make``, whose band by each of
    ``estimators`` (each for the Gram-invariant criteria whose invariants it
    forms) or by the residuals' tree has a finite width; each must score
    inside it."""
    specs = [spec for spec in registry() if spec.gram_invariant] + _specs("res-two", "res-frobenius")
    checked = 0
    for seed in range(3):
        matrix = DenseMatrix(make(seed) * scale)
        a, col_norms, exponent = _unit(matrix)
        for idx in index_chunks(matrix.cols, k, 2048):
            scores = _batch_scores(a, col_norms, idx, specs)
            residual, _ = _tree(matrix, idx)
            for estimator in estimators:
                spectrum = _estimates(matrix, idx, estimator)
                for spec, (vals, _) in zip(specs, scores):
                    if spec.residual_norm is not None:
                        estimate, width = residual[spec.residual_norm]
                    elif not _serves(estimator, spec):
                        continue
                    else:
                        estimate, width = screen.batch_bands(spec, spectrum, col_norms[idx])
                    finite = np.isfinite(width)
                    assert np.all(np.abs(vals[finite] - estimate[finite]) <= width[finite]), spec
                    checked += np.count_nonzero(finite)
    return checked


@pytest.mark.parametrize("scale", (1.0, 1e-150, 1e-100, 1e100, 1e150), ids="{:g}".format)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cholesky_bands_hold_the_svd_value(family, scale):
    # every row whose band has a finite width scores inside it, for each
    # Gram-invariant criterion, with and without the inverse's traces and the
    # largest eigenvalue's bracket (each criterion with the parts it reads),
    # and for the residuals, whose widths take the tree's condition-number
    # bound
    make, k = FAMILIES[family]
    checked = _bands_hold(make, k, scale, ("cholesky", "cholesky-inverse", "cholesky-top",
                                            "cholesky-inverse-top"))
    assert checked > 0 or family in ("rank-k-1", "wide")


@pytest.mark.parametrize("scale", (1.0, 1e-150, 1e-100, 1e100, 1e150), ids="{:g}".format)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_factor_free_bands_hold_the_svd_value(family, scale):
    # the same through the traces alone, with and without the bracket, for
    # norm at p = 2, 4, inf and srank at p = 2, 4: their rel bounds sigma_1
    # and the power sums whatever the rank, so rank-deficient and wide rows
    # keep finite bands too
    make, k = FAMILIES[family]
    assert _bands_hold(make, k, scale, FACTOR_FREE) > 0


# the Schatten criteria at p off the registry's 2, 3, 4 and inf, whose power
# sums take np.power rather than products
OFF_REGISTRY = tuple(_specs(*(f"{kind}:p={p}" for p in (1.5, 6)
                               for kind in ("norm", "pinv-norm", "cond", "cond-mixed")), "srank:p=6"))


def _x3c(m, seed, solvable):
    """The reduction matrix of a seeded X3C instance with M = m and n = 3m
    triples, at most 14 (C(14, 6) = 3,003 subsets at M = 6)."""
    n = min(3 * m, 14)
    instance = x3c.generate_true(m, n - m, seed) if solvable else x3c.generate_false(m, n, seed)
    return _reduction(instance)


# the families whose eigenvalue estimates band the x3c passes and the others,
# with the reduction matrices at M = 3 to 6 (k = M)
EIGEN_FAMILIES = {
    **{name: FAMILIES[name]
       for name in ("gaussian", "duplicated", "near-duplicate", "rank-k-1", "wide")},
    **{f"x3c-{kind}-{m}": (functools.partial(_x3c, m, solvable=kind == "true"), m)
       for kind in ("false", "true") for m in range(3, 7)},
}


def _chunk_bands(specs, spectrum, matrix, idx):
    """Each spec's band of the rows ``idx``, all from one ``spectrum``, as a
    pass of exact search forms them."""
    unit, _ = screen.unit_scaled(matrix.array)
    residual, _ = _tree(matrix, idx, {spec.residual_norm for spec in specs} - {None})
    col_norms = column_norms(unit)[idx]
    return [residual[spec.residual_norm] if spec.residual_norm is not None
            else screen.batch_bands(spec, spectrum, col_norms) for spec in specs]


@pytest.mark.parametrize("scale", (1.0, 1e-100, 1e100), ids="{:g}".format)
@pytest.mark.parametrize("family", sorted(EIGEN_FAMILIES))
def test_eigenvalue_bands_hold_the_svd_value(family, scale):
    # the analogue of the Cholesky test above for the spectrum of the
    # eigenvalue estimates, the one that bands every x3c pass: every row
    # whose band has a finite width scores inside it, for every registered
    # criterion and the off-registry p, all banded from one spectrum per chunk
    make, k = EIGEN_FAMILIES[family]
    specs = registry() + OFF_REGISTRY
    checked = 0
    for seed in range(2):
        matrix = DenseMatrix(make(seed) * scale)
        a, col_norms, exponent = _unit(matrix)
        for idx in index_chunks(matrix.cols, k, 2048):
            bands = _chunk_bands(specs, _estimates(matrix, idx), matrix, idx)
            for spec, (vals, _), (estimate, width) in zip(
                    specs, _batch_scores(a, col_norms, idx, specs), bands):
                finite = np.isfinite(width)
                assert np.all(np.abs(vals[finite] - estimate[finite]) <= width[finite]), spec
                checked += np.count_nonzero(finite)
    assert checked > 0 or family in ("rank-k-1", "wide")


# estimator -> the specs of one pass: the x3c verify pass plus the
# off-registry p, every criterion a Cholesky factor bands, or every one the
# traces alone band
SHARED_PASSES = {"eigvalsh": equivalence_criteria() + OFF_REGISTRY,
                 "cholesky-inverse-top": tuple(spec for spec in registry() if spec.gram_invariant),
                 "traces-top": tuple(spec for spec in registry()
                                     if spec.gram_invariant and _serves("traces-top", spec))}


@pytest.mark.parametrize("estimator", sorted(SHARED_PASSES))
@pytest.mark.parametrize("case", ("gaussian-0", "duplicated", "x3c-false", "x3c-true",
                                  "scale-1e-100", "scale-1e+100"))
def test_a_shared_spectrum_bands_as_one_spec_passes_do(case, estimator):
    # a pass over many specs reads every power sum from one spectrum's cache;
    # each band must be the one a pass of that spec alone gives the chunk,
    # so no spec reads another's sum (Schatten sums at unit scale, signed
    # exponents, half-integer ones) or another's width factor
    make, k = CASES[case]
    matrix = DenseMatrix(make())
    specs = SHARED_PASSES[estimator]
    compared = 0
    for idx in index_chunks(matrix.cols, k, 2048):
        shared = _chunk_bands(specs, _estimates(matrix, idx, estimator), matrix, idx)
        for spec, (estimate, width) in zip(specs, shared):
            ((alone, alone_width),) = _chunk_bands([spec], _estimates(matrix, idx, estimator),
                                                   matrix, idx)
            finite = np.isfinite(width)
            assert np.array_equal(finite, np.isfinite(alone_width)), spec
            tolerance = 1e-12 * width[finite]
            assert np.all(np.abs(estimate[finite] - alone[finite]) <= tolerance), spec
            assert np.all(np.abs(width[finite] - alone_width[finite]) <= tolerance), spec
            compared += np.count_nonzero(finite)
    assert compared > 0


def _by_estimator(values, estimators=ESTIMATORS):
    """Each of ``values`` with each estimator; the eigenvalue cases keep the
    bare value as their id."""
    return [pytest.param(v, e, id=v if e == "eigvalsh" else f"{v}-{e}")
            for e in estimators for v in values]


@pytest.mark.parametrize("case, estimator", _by_estimator(
    ("gaussian-0", "duplicated", "near-duplicate", "rank-k-1", "wide")))
def test_estimates_prove_full_rank_only_where_the_svd_finds_it(case, estimator):
    # a finite relative error marks a row whose rank the estimate proves; every
    # such row must be full rank for the SVD, since it may set the cut
    make, k = CASES[case]
    matrix = DenseMatrix(make())
    for idx in index_chunks(matrix.cols, k, 2048):
        spectrum = _estimates(matrix, idx, estimator)
        _, full = batch_svd(gather_columns(matrix.array, idx))
        proven = ~np.isnan(spectrum.rel)
        assert np.all(full[proven])
        if case == "gaussian-0":
            assert np.all(proven)
        if case in ("rank-k-1", "wide"):
            assert not np.any(proven)


def test_the_graded_case_holds_rows_only_the_determinant_bound_leaves_unproven():
    # the graded columns send rows that the eigenvalues prove to the SVD, on
    # the Cholesky path without an inverse and on the residuals' tree alike
    make, k = CASES["graded"]
    matrix = DenseMatrix(make())
    (idx,) = index_chunks(matrix.cols, k, 2048)
    assert not np.isnan(_estimates(matrix, idx).rel).any()
    assert np.isnan(_estimates(matrix, idx, "cholesky").rel).any()
    assert np.isinf(_tree(matrix, idx)[1]).any()


def _zero_column(seed=0):
    """A Gaussian 9 x 15 whose column 3 is zero."""
    a = _gaussian(seed)
    a[:, 3] = 0.0
    return a


@pytest.mark.parametrize("case", ("gaussian-0", "duplicated", "near-duplicate", "rank-k-1", "wide",
                                  "zero-column"))
def test_the_tree_proves_full_rank_only_where_the_svd_finds_it(case):
    # the residuals' tree proves a row's rank exactly where its kappa is
    # finite, and then both its widths are finite; every such row is full
    # rank for the SVD, with sigma_1 <= kappa sigma_k; a zero column's
    # reflection leaves exactly the rows that hold it unproven
    make, k = (_zero_column, 5) if case == "zero-column" else CASES[case]
    matrix = DenseMatrix(make())
    for idx in index_chunks(matrix.cols, k, 2048):
        bands, kappa = _tree(matrix, idx)
        sigma, full = batch_svd(gather_columns(matrix.array, idx))
        proven = np.isfinite(kappa)
        for _, width in bands.values():
            assert np.array_equal(np.isfinite(width), proven)
        assert np.all(full[proven])
        assert np.all(sigma[proven, 0] <= kappa[proven] * sigma[proven, -1])
        if case == "gaussian-0":
            assert np.all(proven)
        if case in ("rank-k-1", "wide"):
            assert not np.any(proven)
        if case == "zero-column":
            assert np.array_equal(proven, ~np.any(idx == 3, axis=1))


@pytest.mark.parametrize("estimator", FACTOR_FREE)
def test_a_factor_free_spectrum_has_no_determinant_and_no_smallest_sigma(estimator):
    # the traces bound sigma_1 and the power sums alone: a criterion that
    # read prod sigma or sigma_k from them would read what the pass never
    # formed, and raises instead
    make, k = CASES["gaussian-0"]
    matrix = DenseMatrix(make())
    spectrum = _estimates(matrix, next(index_chunks(matrix.cols, k, 2048)), estimator)
    for read in (spectrum.prod, spectrum.smallest, spectrum.relative_prod,
                 lambda: spectrum.power_sum(3.0)):
        with pytest.raises(LookupError):
            read()
    assert np.all(np.isfinite(spectrum.power_sum(2.0)) & np.isfinite(spectrum.power_sum(4.0)))
    if estimator == "traces-top":
        assert np.all(np.isfinite(spectrum.largest()))
    else:
        with pytest.raises(LookupError):
            spectrum.largest()


@pytest.mark.parametrize("scale", (1.0, 1e-100, 1e100), ids="{:g}".format)
@pytest.mark.parametrize("estimator", ("eigvalsh", "cholesky-inverse-top"))
@pytest.mark.parametrize("family", ("duplicated", "rank-k-1"))
def test_bands_are_not_finite_exactly_where_full_rank_is_not_proven(family, estimator, scale):
    # an unproven row carries a NaN rel and NaN invariants, so every band of
    # it is NaN, and no other row's band is lost to a floating-point error
    # that row would raise; only an estimate that over- or underflows on a
    # proven row makes a spec's widths infinite, and at A's unit scale, at
    # any scale of A, none does
    make, k = FAMILIES[family]
    specs = [spec for spec in registry()
             if spec.residual_norm is None and (estimator == "eigvalsh" or spec.gram_invariant)]
    unproven_rows = overflowed = 0
    for seed in range(2):
        matrix = DenseMatrix(make(seed) * scale)
        _, col_norms, _ = _unit(matrix)
        for idx in index_chunks(matrix.cols, k, 2048):
            spectrum = _estimates(matrix, idx, estimator)
            unproven = np.isnan(spectrum.rel)
            unproven_rows += np.count_nonzero(unproven)
            for spec in specs:
                estimate, width = screen.batch_bands(spec, spectrum, col_norms[idx])
                if np.all(width == np.inf) and not np.any(estimate):
                    overflowed += 1
                    continue
                usable = np.isfinite(estimate) & np.isfinite(width)
                assert np.array_equal(usable, ~unproven), spec
                assert np.array_equal(np.isnan(estimate), unproven), spec
    assert unproven_rows > 0
    assert overflowed == 0


@pytest.mark.parametrize("case", ("gaussian-0", "very-tall"))
@pytest.mark.parametrize("ident", ("res-two", "res-frobenius"))
def test_a_residual_pass_takes_a_qr_only_for_its_basis(ident, case, monkeypatch):
    # the prefixes are reflected in a tree, so the only QR left is the R of a
    # tall A's own QR, taken once per pass; a wide A needs none
    callers = []
    real = np.linalg.qr

    def recording(a, mode="reduced"):
        callers.append((sys._getframe(1).f_code.co_name, mode))
        return real(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    make, k = CASES[case]
    spec = parse_criterion(ident)
    assert _select_outcome(DenseMatrix(make()), k, spec) == _expected(case, spec)
    assert callers == ([("_residual_basis", "r")] if case == "very-tall" else [])


@pytest.mark.parametrize("ident, estimator", _by_estimator(
    ("pinv-norm-two", "pinv-norm:p=4", "cond-two", "cond:p=4", "cond-mixed"), ("eigvalsh",))
    + _by_estimator(("pinv-norm:p=4", "cond:p=4"), ("cholesky-inverse",)))
def test_rank_deficient_best_estimate_is_not_the_witness(ident, estimator):
    # columns 0 and 1 are equal, so the first rows of the first chunk are
    # rank-deficient; their estimates prove nothing, and their NaN bands
    # become (0, inf) in the screen: they are certified, found invalid, and
    # must neither win nor set the cut
    make, k = CASES["duplicated"]
    matrix = DenseMatrix(make())
    spec = parse_criterion(ident)
    idx = next(index_chunks(matrix.cols, k, 2048))
    spectrum = _estimates(matrix, idx, estimator)
    estimate, _ = screen.batch_bands(spec, spectrum, matrix.column_norms()[idx])
    ((_, valid),) = _batch_scores(matrix.array, matrix.column_norms(), idx, [spec])
    assert not valid[int(np.argmin(estimate))]
    expected = _expected("duplicated", spec)
    assert expected[0] == "ok"
    assert _select_outcome(matrix, k, spec) == expected


@pytest.mark.parametrize("ident", ("res-two", "res-frobenius"))
def test_rank_deficient_rows_are_certified_for_the_residuals(ident, monkeypatch):
    # batch_residuals truncates a rank-deficient C, the QR estimate does not:
    # such a row gets an infinite width, so every chunk certifies it
    make, k = CASES["duplicated"]
    matrix = DenseMatrix(make())
    certified = set()
    real = selectors._batch_scores

    def recording(a, col_norms, idx, specs, *exponent):
        certified.update(map(tuple, idx.tolist()))
        return real(a, col_norms, idx, specs, *exponent)

    monkeypatch.setattr(selectors, "_batch_scores", recording)
    spec = parse_criterion(ident)
    assert _select_outcome(matrix, k, spec) == _expected("duplicated", spec)
    deficient = set()
    for idx in index_chunks(matrix.cols, k, 2048):
        _, full = batch_svd(gather_columns(matrix.array, idx))
        deficient.update(map(tuple, idx[~full].tolist()))
    assert deficient and deficient <= certified
    assert len(certified) < math.comb(matrix.cols, k)


def _chunk_of(chunks, subset):
    """The position in ``chunks`` of the one chunk that holds ``subset``."""
    (found,) = [i for i, idx in enumerate(chunks) if (idx == subset).all(axis=1).any()]
    return found


@pytest.mark.parametrize("threads", (3, 4))
@pytest.mark.parametrize("case", sorted(CASES) + sorted(LARGE_CASES))
def test_shared_pass_equals_scoring_every_subset_at_more_threads(case, threads, monkeypatch):
    # CASES fill one or two chunks, so the workers are capped at the chunks;
    # LARGE_CASES give every worker chunks of its own
    make, k = {**CASES, **LARGE_CASES}[case]
    chunks = recording_chunks(monkeypatch)
    assert exact_optima(DenseMatrix(make()), k, registry(), threads=threads) == _oracle(case, registry())
    if case in LARGE_CASES:
        assert len(chunks) >= threads


@pytest.mark.parametrize("threads", (1, 2, 3, 4))
@pytest.mark.parametrize("case", sorted(TIE_CASES))
def test_exact_ties_across_chunks_go_to_the_smallest_witness(case, threads, monkeypatch):
    make, k = TIE_CASES[case]
    matrix = DenseMatrix(make())
    best, _ = expected = _oracle(case, registry())
    chunks = recording_chunks(monkeypatch)
    assert exact_optima(matrix, k, registry(), threads=threads) == expected
    # the ties are real and cross chunks: a witness in the first copy of B
    # scores exactly what its copy in the last chunk does
    ties = 0
    for spec, (value, idx) in zip(registry(), best):
        if max(idx) < 12:
            copy = tuple(i + 12 for i in idx)
            ((vals, _),) = _batch_scores(matrix.array, matrix.column_norms(), np.array([idx, copy]),
                                         [spec])
            ties += vals[0] == vals[1] == value and _chunk_of(chunks, idx) != _chunk_of(chunks, copy)
    assert ties >= 1


@pytest.mark.parametrize("ident", ("res-two", "res-frobenius"))
def test_ill_conditioned_subsets_next_to_the_residual_optimum(ident):
    # the witness holds 2 and 11; swapping 11 for 6 gives a subset within a
    # relative 1e-5 of the optimum at a condition number above 1e11, whose
    # rank the tree does not prove, so its band is infinite and it is
    # certified, whatever the rounding term of the widths
    make, k = CASES["spanning-near-duplicate"]
    matrix = DenseMatrix(make())
    spec = parse_criterion(ident)
    expected = _expected("spanning-near-duplicate", spec)
    _, witness, value, _ = expected
    assert {2, 11} <= set(witness)
    idx = np.array([sorted(set(witness) - {11} | {6})], dtype=np.intp)
    sigma = np.linalg.svd(matrix.array[:, idx[0]], compute_uv=False)
    assert sigma[0] / sigma[-1] >= 1e11
    ((vals, _),) = _batch_scores(matrix.array, matrix.column_norms(), idx, [spec])
    assert 0.0 < vals[0] - value <= 1e-5 * value
    bands, _ = _tree(matrix, idx, {spec.residual_norm})
    assert bands[spec.residual_norm][1][0] == np.inf
    assert _select_outcome(matrix, k, spec) == expected


@pytest.mark.parametrize("ident", ("res-two", "res-frobenius"))
def test_residual_widths_hold_the_rounding_of_the_condition_number(ident):
    # columns 2 and 6 differ by 1e-4 z: condition numbers near 1e5 that the
    # tree still proves, where ROUNDING * k * kappa^2 exceeds RESIDUAL_SLACK
    # and so sets the width
    a = _gaussian(3)
    a[:, 6] = a[:, 2] + 1e-4 * np.random.default_rng(4).standard_normal(len(a))
    matrix, k = DenseMatrix(a), 5
    spec = parse_criterion(ident)
    unit, _ = screen.unit_scaled(a)
    dominant = 0
    for idx in index_chunks(matrix.cols, k, 2048):
        bands, kappa = _tree(matrix, idx, {spec.residual_norm})
        _, width = bands[spec.residual_norm]
        sigma, _ = batch_svd(gather_columns(a, idx))
        proven = np.isfinite(kappa)
        norm = np.linalg.norm(unit)
        rounding = norm * screen._rounding(k, sigma[:, 0] / sigma[:, -1])
        assert np.all(width[proven] >= rounding[proven])
        dominant += np.count_nonzero(proven & (rounding > norm * screen.RESIDUAL_SLACK))
    assert dominant > 0
    (best,), seen = oracle_optima(matrix, k, [spec])
    assert _select_outcome(matrix, k, spec) == ("ok", best[1], best[0], seen)


def _recording_levels(monkeypatch):
    """(rows of T, columns reflected) of every ``_reflected`` call from now on."""
    levels = []
    real = screen._reflected

    def recording(t, cols):
        levels.append((t.shape[1], cols.tolist()))
        return real(t, cols)

    monkeypatch.setattr(screen, "_reflected", recording)
    return levels


@pytest.mark.parametrize("ident", ("res-two", "res-frobenius"))
def test_tall_input_keeps_every_level_at_n_rows(ident, monkeypatch):
    # 200 x 10: A is replaced by the R of its own QR before the chunks, so no
    # level of the prefix tree reflects a T of more than n rows
    make, k = CASES["very-tall"]
    matrix = DenseMatrix(make())
    spec = parse_criterion(ident)
    levels = _recording_levels(monkeypatch)
    assert _select_outcome(matrix, k, spec) == _expected("very-tall", spec)
    assert levels and max(rows for rows, _ in levels) <= matrix.cols


def _unit_column(seed, m=6, n=9):
    # column 0 is e_1 plus 1e-6 z: at k = 1 its x lies next to e_1, where a
    # reflection of the wrong sign cancels
    a = _gaussian(seed, m, n)
    a[:, 0] = np.eye(m)[0] + 1e-6 * np.random.default_rng(seed + 1).standard_normal(m)
    return a


# name -> (matrix by seed, k): the 6 x 9 inputs have m' = 6 rows of B
PREFIX_FAMILIES = {
    "k-1": (_unit_column, 1),
    "k-m'-1": (_unit_column, 5),
    "k-m'": (_unit_column, 6),
    "k-above-m'": (_unit_column, 7),
    "very-tall": (lambda seed: _gaussian(seed, 200, 10), 4),
}


def _splits_a_run(first):
    """Whether the subset before ``first`` in lexicographic order has its (k - 1)-prefix."""
    return first[-1] > (first[-2] + 1 if len(first) > 1 else 0)


@pytest.mark.parametrize("scale", (1.0, 1e-100, 1e100), ids="{:g}".format)
@pytest.mark.parametrize("family", sorted(PREFIX_FAMILIES))
def test_residual_bands_hold_the_value_across_split_prefix_runs(family, scale):
    # chunks of 7 rows cut runs of one (k - 1)-prefix in two; every row whose
    # full rank the estimates prove has a finite band holding its value, and
    # for k above m' no row is proven
    make, k = PREFIX_FAMILIES[family]
    specs = _specs("res-two", "res-frobenius")
    proven = split = 0
    for seed in range(2):
        matrix = DenseMatrix(make(seed) * scale)
        a, col_norms, exponent = _unit(matrix)
        for i, idx in enumerate(index_chunks(matrix.cols, k, 7)):
            split += i > 0 and _splits_a_run(idx[0])
            bands, kappa = _tree(matrix, idx)
            finite = np.isfinite(kappa)
            for spec, (vals, _) in zip(specs, _batch_scores(a, col_norms, idx, specs)):
                estimate, width = bands[spec.residual_norm]
                assert np.all(np.isfinite(estimate[finite]) & np.isfinite(width[finite])), spec
                assert np.all(np.abs(vals[finite] - estimate[finite]) <= width[finite]), spec
                assert np.all(width[~finite] == np.inf), spec
            proven += np.count_nonzero(finite)
    assert split > 0
    assert (proven == 0) == (family == "k-above-m'")


PREFIX_CASES = ("gaussian-0", "duplicated", "k-equals-m", "very-tall")


def _split_budget(matrix, k, specs, rows=50):
    """A ``_CHUNK_BYTES`` that cuts the pass into chunks of ``rows`` subsets."""
    return screen.ChunkScreen(matrix.array, specs, k).chunk_bytes(rows)


@pytest.mark.parametrize("threads", (1, 2, 3))
@pytest.mark.parametrize("case", PREFIX_CASES)
def test_shared_pass_equals_scoring_every_subset_with_split_prefix_runs(case, threads,
                                                                        monkeypatch):
    make, k = CASES[case]
    matrix = DenseMatrix(make())
    monkeypatch.setattr(selectors, "_CHUNK_BYTES", _split_budget(matrix, k, registry()))
    chunks = recording_chunks(monkeypatch)
    assert exact_optima(matrix, k, registry(), threads=threads) == _oracle(case, registry())
    assert any(_splits_a_run(idx[0]) for idx in chunks if idx[0].tolist() != list(range(k)))


def _distinct_prefixes(idx, length):
    """The last columns of ``idx``'s distinct ``length``-prefixes, in order."""
    return [p[-1] for p in dict.fromkeys(tuple(row[:length]) for row in idx.tolist())]


@pytest.mark.parametrize("case", PREFIX_CASES + ("k-above-m",))
def test_each_chunk_reflects_each_prefix_once(case, monkeypatch):
    # level l of a chunk's prefix tree reflects each distinct (l + 1)-prefix
    # once, by its last column, not once per subset
    make, k = CASES[case]
    matrix = DenseMatrix(make())
    specs = _specs("res-two", "res-frobenius")
    monkeypatch.setattr(selectors, "_CHUNK_BYTES", _split_budget(matrix, k, specs))
    chunks = recording_chunks(monkeypatch)
    levels = _recording_levels(monkeypatch)
    exact_optima(matrix, k, specs)
    assert len(chunks) > 1
    assert [cols for _, cols in levels] == [_distinct_prefixes(idx, length) for idx in chunks
                                            for length in range(1, k)]
    last = [len(cols) for _, cols in levels[k - 2::k - 1]]
    assert sum(last) < sum(map(len, chunks))


def _ones(m, n):
    return DenseMatrix(np.ones((m, n)))


@pytest.mark.parametrize("select", (
    lambda: exact_optima(_ones(1, 70), 35, registry(), allow_large=True),
    lambda: select_exact(_ones(1, 70), 35, parse_criterion("vol"), allow_large=True),
), ids=("exact_optima", "select_exact"))
def test_enumeration_beyond_int64_ranks_is_rejected_up_front(select, monkeypatch):
    # C(70, 35) > 2**63: rejected before the scaled copy, the Gram matrix or
    # any chunk is made, rather than running without end
    def unreachable(*args, **kwargs):
        raise AssertionError("the enumeration started")

    for module, name in ((screen, "unit_scaled"), (selectors, "_index_chunks")):
        monkeypatch.setattr(module, name, unreachable)
    with pytest.raises(InvalidParameterError, match="C\\(70, 35\\)"):
        select()


def test_unranking_stays_in_int64_where_binomials_overflow_it():
    # C(69, 35) > 2**63 sits in the unranking table of C(70, 69) = 70 subsets
    matrix = DenseMatrix(np.random.default_rng(0).standard_normal((3, 70)))
    result = select_exact(matrix, 69, parse_criterion("vol"), allow_large=True)
    assert result.subset.indices == tuple(range(69))
    assert result.value.value == 0.0
    assert result.subsets_evaluated == 70


def test_bands_that_overflow_have_infinite_widths():
    # sopt's value multiplies the column norms, which overflows on these; its
    # band is still a band, every width infinite, while rvol, which reads no
    # norm, keeps finite widths from the same spectrum
    spectrum = GramSpectrum(np.full(4, 1e-12), 6, eigenvalues=np.ones((4, 6)))
    norms = np.full((4, 6), 1e100)
    estimate, width = screen.batch_bands(parse_criterion("sopt"), spectrum, norms)
    assert estimate.shape == width.shape == (4,)
    assert np.all(width == np.inf)
    _, width = screen.batch_bands(parse_criterion("rvol"), spectrum, norms)
    assert np.all(np.isfinite(width))


# A pass that solves for the blocks' eigenvalues solves once per group of a
# chunk's rows whose blocks are equal up to the order of their columns, where
# the Gram's entries off the diagonal repeat (``screen._gram_codes``): the
# reduction's blocks are (3 I + N) / 3, N the triples' overlap counts
SPECTRAL = tuple(equivalence_criteria())


def _zero_one(seed=20, m=12, n=20):
    return np.random.default_rng(seed).integers(0, 2, (m, n)).astype(float)


def _ungrouped(monkeypatch):
    """Switch grouping off for every pass formed from now on."""
    monkeypatch.setattr(screen, "_gram_codes", lambda gram: None)


def _recording_groups(monkeypatch):
    """(rows, groups) of every chunk ``_equal_blocks`` groups from now on."""
    seen = []
    real = screen._equal_blocks

    def recording(codes, idx):
        reps, inverse = real(codes, idx)
        seen.append((len(idx), len(reps)))
        return reps, inverse

    monkeypatch.setattr(screen, "_equal_blocks", recording)
    return seen


@pytest.mark.parametrize("m", range(3, 9))
def test_reduction_passes_group_their_blocks(m):
    a = _reduction(x3c.generate_true(m, m, m))
    chunk = screen.ChunkScreen(a, SPECTRAL, m)
    assert chunk.codes is not None and chunk.grouping
    idx = next(index_chunks(a.shape[1], m, 2048))
    reps, inverse = screen._equal_blocks(chunk.codes, idx)
    assert len(reps) < len(idx) and inverse.max() == len(reps) - 1


@pytest.mark.parametrize("make, groups", [(_zero_one, True), (lambda: _twice(1.0), True),
                                          (lambda: _gaussian(0, 12, 20), False)],
                         ids=("zero-one", "twice", "gaussian"))
def test_only_passes_whose_gram_repeats_off_the_diagonal_group(make, groups):
    a = make()
    assert (screen.ChunkScreen(a, SPECTRAL, 4).codes is not None) == groups
    # a factored pass, and a pass of single columns, never group
    assert screen.ChunkScreen(a, [parse_criterion("vol")], 4).codes is None
    assert screen.ChunkScreen(a, SPECTRAL, 1).codes is None


def test_grouping_stops_after_a_chunk_of_too_few_equal_blocks(monkeypatch):
    # the 0/1 matrix's 38,760 blocks rarely repeat: its first chunk groups,
    # finds more groups than two thirds of its rows, and the pass's other
    # chunks solve every block, one by one
    groups = _recording_groups(monkeypatch)
    chunks = recording_chunks(monkeypatch)
    matrix = DenseMatrix(_zero_one())
    outcome = exact_optima(matrix, 6, [parse_criterion("norm:p=3")])
    assert len(chunks) > 1 and len(groups) == 1
    rows, found = groups[0]
    assert 3 * found > 2 * rows
    _ungrouped(monkeypatch)
    assert exact_optima(matrix, 6, [parse_criterion("norm:p=3")]) == outcome


def test_a_chunk_of_rarer_repeats_does_not_stop_the_grouping(monkeypatch):
    # 100-row chunks of an M = 6 reduction: some have more groups than two
    # thirds of their rows, but the pass's groups stay below two thirds of
    # the rows it grouped, so every chunk groups
    matrix = x3c.reduce(x3c.generate_false(6, 18, 4)).matrix
    monkeypatch.setattr(selectors, "_CHUNK_BYTES",
                        screen.ChunkScreen(matrix.array, SPECTRAL, 6).chunk_bytes(100))
    groups = _recording_groups(monkeypatch)
    chunks = recording_chunks(monkeypatch)
    outcome = exact_optima(matrix, 6, SPECTRAL)
    assert len(groups) == len(chunks) > 100
    assert any(3 * found > 2 * rows for rows, found in groups[:-1])
    assert 3 * sum(found for _, found in groups) <= 2 * sum(rows for rows, _ in groups)
    _ungrouped(monkeypatch)
    assert exact_optima(matrix, 6, SPECTRAL) == outcome


@pytest.mark.parametrize("make, k", [(lambda: _reduction(x3c.generate_false(5, 14, 1)), 5),
                                     (lambda: _reduction(x3c.generate_false(6, 18, 7)), 6),
                                     (lambda: _reduction(x3c.generate_true(8, 8, 2)), 8),
                                     (_zero_one, 6), (lambda: _twice(1e100), 4)],
                         ids=("x3c-5", "x3c-6", "x3c-8", "zero-one", "twice-1e100"))
def test_grouped_eigenvalues_hold_the_bound_of_each_rows_own_block(make, k):
    a = make()
    unit, _ = screen.unit_scaled(a)
    gram = unit.T @ unit
    codes = screen._gram_codes(gram)
    idx = next(index_chunks(a.shape[1], k, 2048))
    reps, inverse = screen._equal_blocks(codes, idx)
    own = np.linalg.eigvalsh(np.moveaxis(screen._blocks(gram, idx), -1, 0))
    grouped = np.linalg.eigvalsh(np.moveaxis(screen._blocks(gram, reps), -1, 0))[inverse]
    bound = screen.ROUNDING * (a.shape[0] + k) * k * own[:, -1:]
    assert np.all(np.abs(grouped - own) <= bound)
    # a group's canonical block holds each of its rows' entries, reordered
    assert np.array_equal(np.sort(gram[reps[inverse][:, :, None], reps[inverse][:, None, :]]
                                  .reshape(len(idx), -1), axis=1),
                          np.sort(gram[idx[:, :, None], idx[:, None, :]].reshape(len(idx), -1),
                                  axis=1))
    # the estimates through the groups are those of _gram_estimates' bound
    spectrum = screen._gram_estimates(gram, a.shape[0], idx, (reps, inverse))
    plain = screen._gram_estimates(gram, a.shape[0], idx)
    finite = np.isfinite(plain.rel)
    assert np.array_equal(finite, np.isfinite(spectrum.rel))
    assert np.all(np.abs(spectrum.top - plain.top)[finite] <= bound[finite, 0])


@pytest.mark.parametrize("threads", (1, 3))
@pytest.mark.parametrize("m, n, seed", [(3, 8, 1), (4, 11, 2), (5, 14, 3), (6, 18, 4)])
def test_grouped_x3c_passes_equal_ungrouped_ones(m, n, seed, threads, monkeypatch):
    matrix = x3c.reduce(x3c.generate_false(m, n, seed)).matrix
    gap = [spec for spec, _, _ in x3c._gap_rows(m)]
    groups = _recording_groups(monkeypatch)
    grouped = [exact_optima(matrix, m, specs, threads=threads) for specs in (gap, SPECTRAL)]
    assert groups and all(3 * found <= 2 * rows for rows, found in groups)
    _ungrouped(monkeypatch)
    groups.clear()
    assert [exact_optima(matrix, m, specs, threads=threads) for specs in (gap, SPECTRAL)] == grouped
    assert not groups
