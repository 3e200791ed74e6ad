import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from motetrust.beliefs import (
    EvidenceCounts,
    bayes_posterior2,
)
from motetrust.beliefs import _conditional


def table_from(rows):
    """rows: (hypothesis, d1, d2, count)."""
    c = EvidenceCounts()
    for h, d1, d2, times in rows:
        c.record(h, d1, d2, times=times)
    return c


class TestEvidenceCounts:
    def test_record_and_marginals(self):
        c = table_from([(True, True, True, 3), (True, False, True, 1), (False, True, False, 2)])
        assert c.count() == 6
        assert c.count(hypothesis=True) == 4
        assert c.count(d1=True) == 5
        assert c.count(hypothesis=True, d1=True) == 3
        assert c.count(d2=False) == 2
        assert c.count(hypothesis=True, d1=True, d2=True) == 3

    def test_rejects_non_bool(self):
        c = EvidenceCounts()
        with pytest.raises(ValueError):
            c.record(1, True, True)
        with pytest.raises(ValueError):
            c.record(True, True, True, times=-1)


class TestBayesPosterior:
    def test_smoothing_off_empty_table_raises(self):
        with pytest.raises(ValueError):
            bayes_posterior2(EvidenceCounts(), smoothing=False)

    def test_two_evidence_example(self):
        c = table_from([(True, True, True, 8), (False, True, True, 2), (True, False, True, 4)])
        assert bayes_posterior2(c, smoothing=False) == pytest.approx(0.8)
        assert bayes_posterior2(c) == pytest.approx(9 / 12)

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=8, max_size=8))
    @example([0, 0, 0, 1, 0, 0, 1, 0])  # c(H=T, D2=T) = 0: outside the factored form's domain
    @example([0, 0, 0, 1, 0, 1, 0, 0])  # valid, with c(H=T, D1=T) = 0
    @settings(max_examples=100)
    def test_matches_factored_form(self, counts):
        c = EvidenceCounts()
        i = 0
        # counts[i] is the cell i = 4*h + 2*d1 + d2
        for h in (False, True):
            for d1 in (False, True):
                for d2 in (False, True):
                    if counts[i]:
                        c.record(h, d1, d2, times=counts[i])
                    i += 1
        # the smoothed posterior, checked before the assumptions below filter any table out
        assert bayes_posterior2(c) == (c.count(True, True, True) + 1) / (c.count(d1=True, d2=True) + 2)
        # the factored form divides by c(H=T, D2=T), c(D2=T) and c(D1=T, D2=T);
        # c(D2=T) >= c(H=T, D2=T), so two checks cover all three
        assume(c.count(hypothesis=True, d2=True) > 0)
        assume(c.count(d1=True, d2=True) > 0)
        # p(H | D1, D2) recomputed through the chain-rule factorisation
        p_d1_given_h_d2 = c.count(hypothesis=True, d1=True, d2=True) / c.count(hypothesis=True, d2=True)
        p_h_given_d2 = c.count(hypothesis=True, d2=True) / c.count(d2=True)
        p_d1_given_d2 = c.count(d1=True, d2=True) / c.count(d2=True)
        expected = p_d1_given_h_d2 * p_h_given_d2 / p_d1_given_d2
        assert bayes_posterior2(c, smoothing=False) == pytest.approx(expected, abs=1e-12)

    @given(st.data())
    @settings(max_examples=60)
    def test_conditional_independence_collapses_to_single_evidence(self, data):
        # counts built as c(h, d1, d2) = a[h][d2] * b[d1][d2]: D1 and H independent given D2
        a = data.draw(st.lists(st.integers(1, 9), min_size=4, max_size=4))
        b = data.draw(st.lists(st.integers(1, 9), min_size=4, max_size=4))
        two = EvidenceCounts()
        for hi, h in enumerate((False, True)):
            for d2i, d2 in enumerate((False, True)):
                for d1i, d1 in enumerate((False, True)):
                    two.record(h, d1, d2, times=a[2 * hi + d2i] * b[2 * d1i + d2i])
        # P(H | D2) straight from the weights a[2 * h + d2], taken at d2 = 1
        p_h_given_d2 = a[3] / (a[1] + a[3])
        assert bayes_posterior2(two, smoothing=False) == pytest.approx(p_h_given_d2, abs=1e-12)

    def test_half_prior_when_two_evidence_table_empty(self):
        assert bayes_posterior2(EvidenceCounts()) == pytest.approx(0.5)

    def test_equal_counts_share_one_posterior(self):
        tables = [EvidenceCounts() for _ in range(2)]
        for table in tables:
            table.record(True, True, True, times=5)
            table.record(False, True, True, times=2)
        assert bayes_posterior2(tables[0]) is bayes_posterior2(tables[1])
        assert 0 < _conditional.cache_info().maxsize < math.inf
