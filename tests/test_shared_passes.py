"""One enumeration per ``verify_equivalence``, one SVD per residual batch, and
verification of instances with fewer sets than M."""

import io

import numpy as np
import pytest

from colsel import x3c
from colsel.cli import main
from colsel.criteria import equivalence_criteria, parse_criterion
from colsel.matrixkit import DenseMatrix
from colsel.selectors import select_exact
from colsel.x3c import X3CInstance, generate_false, generate_true, verify_equivalence


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("instance", [
    generate_true(3, 4, seed=1),
    generate_false(3, 8, seed=2),
    generate_false(4, 10, seed=3),
], ids=["true", "false-3", "false-4"])
def test_verify_makes_one_exact_optima_call(monkeypatch, instance):
    calls = counting(monkeypatch, x3c, "exact_optima")
    assert verify_equivalence(instance) is True
    assert len(calls) == 1
    assert len(calls[0][2]) == len(equivalence_criteria())


class TestFewerSetsThanM:
    instance = X3CInstance(3, ((1, 2, 3), (4, 5, 6)))

    def test_no_cover_and_agreement(self):
        assert x3c.solve_exact(self.instance) is None
        assert verify_equivalence(self.instance) is True

    def test_cli_reports_agreement(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n1 2 3\n4 5 6\n"))
        code = main(["x3c", "verify"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, "solvable=no agreement=yes\n", "")


@pytest.mark.parametrize("ident, svds", [("res-frobenius", 1), ("res-two", 2), ("rvol", 1)])
def test_batched_svds_per_chunk(monkeypatch, ident, svds):
    """Residuals take the SVD with U and no values-only SVD besides; res-two
    adds the SVD of the residual block for its two-norm."""
    a = DenseMatrix(np.random.default_rng(3).standard_normal((6, 8)))
    calls = counting(monkeypatch, np.linalg, "svd")
    result = select_exact(a, 3, parse_criterion(ident))
    assert result.subsets_evaluated == 56  # a single chunk
    assert len(calls) == svds
