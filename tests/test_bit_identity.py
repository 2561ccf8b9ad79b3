"""Scalar and batched evaluation agree bit for bit on every registered criterion."""

import io

import numpy as np
import pytest

from colsel.cli import main
from colsel.criteria import _KINDS, batch_values, evaluate, parse_criterion, registry
from colsel.errors import InvalidInputError, RankDeficiencyError
from colsel.matrixkit import DenseMatrix, batch_svd
from colsel.selectors import select_exact, select_greedy_forward

SHAPES = [(5, 8, 3), (6, 9, 4), (4, 7, 2), (3, 6, 3), (7, 10, 5), (4, 8, 4)]


def seeded(seed):
    m, n, k = SHAPES[seed]
    return DenseMatrix(np.random.default_rng(seed).standard_normal((m, n))), k


@pytest.mark.parametrize("spec", registry(), ids=str)
def test_exact_value_equals_scalar_reevaluation(spec):
    for seed in range(len(SHAPES)):
        a, k = seeded(seed)
        result = select_exact(a, k, spec)
        again = evaluate(spec, a.columns(result.subset), full_matrix=a)
        assert result.value.value == again.value, (seed, result.subset)


@pytest.mark.parametrize("spec", registry(), ids=str)
def test_greedy_value_equals_scalar_reevaluation(spec):
    a, k = seeded(1)
    result = select_greedy_forward(a, k, spec)
    again = evaluate(spec, a.columns(result.subset), full_matrix=a)
    assert result.value.value == again.value


@pytest.mark.parametrize("spec", [s for s in registry() if s.residual_norm is None], ids=str)
def test_batch_values_equal_scalar_on_every_row(spec):
    a, k = seeded(4)
    idx = np.array([[0, 1, 2, 3, 4], [2, 4, 5, 8, 9], [1, 3, 6, 7, 9]], dtype=np.intp)
    sub = np.stack([a.array[:, row] for row in idx])
    sigma = np.linalg.svd(sub, compute_uv=False)
    vals, valid = batch_values(spec, sigma, a.column_norms()[idx], np.ones(len(idx), dtype=bool))
    assert valid.all()
    for row, value in zip(idx, vals):
        assert value == evaluate(spec, a.columns(row)).value


@pytest.mark.parametrize("criterion", ["rvol", "cond-two"])
def test_exact_value_equals_scalar_at_subnormal_scale(criterion):
    # the scalar and batched rank tests share one unfloored tolerance, so a
    # subset the enumerator scores as full rank also evaluates as full rank
    spec = parse_criterion(criterion)
    a = DenseMatrix(np.random.default_rng(0).standard_normal((4, 5)) * 1e-310)
    result = select_exact(a, 2, spec)
    assert result.value.value == evaluate(spec, a.columns(result.subset)).value


def _rank_stack():
    """A (4, 5, 3) stack: the zero matrix, one with a duplicated column, and
    two of full rank."""
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 3))
    duplicated = np.column_stack([g[:, :2], g[:, 1]])
    return np.stack([np.zeros((5, 3)), duplicated, g, rng.standard_normal((5, 3))])


@pytest.mark.parametrize("spec", [s for s in registry() if s.residual_norm is None], ids=str)
def test_batch_values_follow_the_rank_rules_as_evaluate_does(spec):
    # the zero matrix scores 0 for the rank rule "any" (norm, srank) as for
    # "zero" (vol); a rank-required criterion rejects both deficient matrices
    stack = _rank_stack()
    sigma, full = batch_svd(stack)
    vals, valid = batch_values(spec, sigma, np.linalg.norm(stack, axis=1), full)
    assert valid[0] == (_KINDS[spec.kind].rank != "required")
    assert not valid[0] or vals[0] == 0.0
    for b, c in enumerate(stack):
        try:
            want = evaluate(spec, DenseMatrix(c)).value
        except (InvalidInputError, RankDeficiencyError):
            assert not valid[b], b
            continue
        assert valid[b], b
        assert np.float64(vals[b]).tobytes() == np.float64(want).tobytes(), b


@pytest.mark.parametrize("method", ["exact", "greedy"])
@pytest.mark.parametrize("spec", [s for s in registry() if s.kind in ("norm", "srank")
                                  or s.residual_norm is not None], ids=str)
def test_the_zero_matrix_selects_its_first_columns_at_zero(spec, method, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0,0,0\n0,0,0\n"))
    code = main(["select", "--method", method, "--k", "2", "--criterion", str(spec)])
    out = capsys.readouterr().out
    assert code == 0
    assert "value=0.0 subset=0,1 " in out
