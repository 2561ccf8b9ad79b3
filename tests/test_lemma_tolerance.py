"""The partitioned pseudo-inverse check (l_pi0) measures error relative to max|C+|."""

from colsel import lemmas
from colsel.lemmas import run_suite


def l_pi0(reports):
    return next(rep for rep in reports if rep.lemma_id == "l_pi0")


def test_ill_conditioned_draws_pass():
    # seed 131 draws a C with max|C+| ~ 3.3e3: absolute error 7.3e-9,
    # relative error 2.2e-12
    assert l_pi0(run_suite(seed=131, trials=25)).failures == 0


def test_relative_perturbation_still_fails(monkeypatch):
    # M1 = P2 C1 and M2 = P1 C2 shrunk by 1e-6 grow their pseudo-inverses,
    # the blocks of C+, by about as much
    original = lemmas.batch_projected

    def perturbed(p, c):
        blocks, schurs = original(p, c)
        return blocks / (1.0 + 1e-6), schurs

    monkeypatch.setattr(lemmas, "batch_projected", perturbed)
    report = l_pi0(run_suite(seed=0, trials=5))
    assert report.failures == report.trials == 5
    assert report.worst_violation > 0.0
