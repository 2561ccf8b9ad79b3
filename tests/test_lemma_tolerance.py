"""The partitioned pseudo-inverse check (l_pi0) measures error relative to max|C+|."""

from colsel import lemmas
from colsel.lemmas import run_suite
from colsel.matrixkit import DenseMatrix, PartitionedPinv


def l_pi0(reports):
    return next(rep for rep in reports if rep.lemma_id == "l_pi0")


def test_ill_conditioned_draws_pass():
    # seed 131 draws a C with max|C+| ~ 3.3e3: absolute error 7.3e-9,
    # relative error 2.2e-12
    assert l_pi0(run_suite(seed=131, trials=25)).failures == 0


def test_relative_perturbation_still_fails(monkeypatch):
    original = lemmas.partitioned_pinv

    def perturbed(c1, c2):
        parts = original(c1, c2)
        return PartitionedPinv(
            m1_pinv=DenseMatrix(parts.m1_pinv.array * (1.0 + 1e-6)),
            m2_pinv=DenseMatrix(parts.m2_pinv.array * (1.0 + 1e-6)),
            schur1=parts.schur1,
            schur2=parts.schur2,
        )

    monkeypatch.setattr(lemmas, "partitioned_pinv", perturbed)
    report = l_pi0(run_suite(seed=0, trials=5))
    assert report.failures == report.trials == 5
    assert report.worst_violation > 0.0
