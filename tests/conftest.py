import pytest

import hopfcheck.campaign


@pytest.fixture
def serre_fault(monkeypatch):
    """Make the campaign's next decisive Serre verdict wrong.

    The first verdict over an involutory entry whose tensor product is
    semisimple and whose n has invertible rank gets conclusion_m = False, a
    claimed counterexample to the theorem.  Returns the list of corrupted
    verdicts, so a test can check that the fault really was injected.
    """
    real = hopfcheck.campaign.verify_serre
    injected = []

    def faulty(m, n, cache=None):
        verdict = real(m, n, cache=cache)
        if not injected and verdict.involutory and verdict.hypothesis_holds and verdict.rank_invertible_n:
            verdict = verdict._replace(conclusion_m=False)
            injected.append(verdict)
        return verdict

    monkeypatch.setattr(hopfcheck.campaign, "verify_serre", faulty)
    return injected
