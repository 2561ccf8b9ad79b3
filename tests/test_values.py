"""``values`` scores many criteria from one SVD, bit for bit as ``evaluate`` does."""

import numpy as np
import pytest

from colsel import criteria
from colsel.criteria import evaluate, parse_criterion, registry, values
from colsel.errors import InvalidInputError
from colsel.matrixkit import DenseMatrix

# every singular-value criterion in the registry, plus the Schatten
# parameters the lemma suite uses wherever the criterion's domain allows them
SPECS = [spec for spec in registry() if spec.residual_norm is None]
SPECS += [parse_criterion(ident, p) for ident in ("norm", "pinv-norm", "cond", "cond-mixed")
          for p in (1, 1.5, 3, 4, 6)]
SPECS += [parse_criterion("srank", p) for p in (3, 4, 6)]


def _matrices():
    rng = np.random.default_rng(11)
    cases = {f"gaussian-{m}x{k}": DenseMatrix(rng.standard_normal((m, k)))
             for m, k in ((5, 3), (4, 4), (7, 1), (3, 5))}
    g = rng.standard_normal((5, 3))
    cases["duplicated-column"] = DenseMatrix(np.column_stack([g, g[:, 1]]))
    cases["zero"] = DenseMatrix(np.zeros((4, 3)))
    g[:, 2] = 0.0
    cases["zero-column"] = DenseMatrix(g)
    return cases


MATRICES = _matrices()


def outcome(fn):
    """The value ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_one_spec_matches_evaluate(spec, name):
    c = MATRICES[name]
    want = outcome(lambda: evaluate(spec, c).value)
    got = outcome(lambda: values(c, [spec])[0])
    assert got == want
    if isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("name", MATRICES)
def test_all_specs_at_once_match_evaluate(name):
    c = MATRICES[name]
    want = [outcome(lambda spec=spec: evaluate(spec, c).value) for spec in SPECS]
    got = outcome(lambda: values(c, SPECS))
    failed = [w for w in want if isinstance(w, type)]
    # one failing spec fails the whole call, with the first failure's error
    assert got == (failed[0] if failed else want)


def test_zero_column_error_comes_before_the_rank_test():
    specs = [parse_criterion(ident) for ident in ("vol", "sopt", "rvol")]
    with pytest.raises(InvalidInputError, match="zero column"):
        values(MATRICES["zero-column"], specs)


def test_one_svd_and_one_norm_pass_per_call(monkeypatch):
    calls = {"svd": 0, "norms": 0}
    original_svd, original_norms = criteria.svd, DenseMatrix.column_norms

    def counted_svd(c):
        calls["svd"] += 1
        return original_svd(c)

    def counted_norms(c):
        calls["norms"] += 1
        return original_norms(c)

    monkeypatch.setattr(criteria, "svd", counted_svd)
    monkeypatch.setattr(DenseMatrix, "column_norms", counted_norms)
    values(MATRICES["gaussian-5x3"], SPECS + SPECS)
    assert calls == {"svd": 1, "norms": 1}


@pytest.mark.parametrize("spec", [s for s in registry() if s.residual_norm is not None], ids=str)
def test_residuals_measure_against_the_parent(spec):
    a = MATRICES["gaussian-4x4"]
    c = a.columns([0, 2])
    assert values(c, [spec], full_matrix=a) == [evaluate(spec, c, full_matrix=a).value]
    assert outcome(lambda: values(c, [spec])) is outcome(lambda: evaluate(spec, c))
