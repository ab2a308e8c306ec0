"""Tests for the analysis layer: hot paths without re-embedding, budgets."""

import pytest

from mtlab import analysis, mazurtate, modsym, padic
from mtlab.errors import OutOfBudget


def normalized(level, weight, p, M=8):
    f = modsym.cuspidal_eigensymbols(modsym.ManinSymbolSpace(level, weight),
                                     1)[0]
    return modsym.normalize(f, padic.primes_above(f.field, p, M)[0])


def count_local(monkeypatch):
    """The number of PAdicEmbedding.local calls made from now on."""
    calls = []
    local = padic.PAdicEmbedding.local

    def counted(self, x):
        calls.append(x)
        return local(self, x)

    monkeypatch.setattr(padic.PAdicEmbedding, "local", counted)
    return calls


def test_mazur_tate_element_embeds_nothing(monkeypatch):
    norm = normalized(11, 2, 5)
    calls = count_local(monkeypatch)
    theta = mazurtate.mazur_tate(norm, 3)
    assert len(theta.coeffs) == 100
    assert calls == []


def test_mu_min_embeds_nothing(monkeypatch):
    norm = normalized(11, 4, 3)
    calls = count_local(monkeypatch)
    assert analysis.mu_min(norm) >= 0
    assert calls == []


@pytest.mark.parametrize("entry", ["invariant_table", "verify_congruence",
                                   "verify_weight2_patterns"])
def test_budget_is_checked_before_any_element(entry, monkeypatch):
    norm = normalized(11, 2, 5)
    built = []
    monkeypatch.setattr(mazurtate, "mazur_tate_values",
                        lambda *args: built.append(args))
    run = {
        "invariant_table": lambda: analysis.invariant_table(norm, 7),
        "verify_congruence": lambda: analysis.verify_congruence(
            norm, norm, 7, "medweight"),
        "verify_weight2_patterns": lambda: analysis.verify_weight2_patterns(
            norm, 7),
    }[entry]
    # level 8: 4 * 5^7 = 312500 units, 8 steps each
    with pytest.raises(OutOfBudget, match="2500000 evaluations.*500000"):
        run()
    assert built == []


def test_check_budget_bounds():
    mazurtate.check_budget(5, 6)  # 12500 units x 6 = 75000
    mazurtate.check_budget(5, 7)  # 62500 units x 7 = 437500
    with pytest.raises(OutOfBudget):
        mazurtate.check_budget(5, 8)
    with pytest.raises(OutOfBudget):
        mazurtate.check_budget(3, 11)  # 118098 units x 11
    mazurtate.check_budget(3, 0)
