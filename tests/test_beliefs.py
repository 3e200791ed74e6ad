import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from motetrust.beliefs import (
    MAX_FRAME_SIZE,
    VACUOUS_OPINION,
    BeliefMass,
    EvidenceCounts,
    Frame,
    Opinion,
    bayes_posterior,
    bayes_posterior2,
    consensus,
)
from motetrust.beliefs import _conditional

GB = Frame(("good", "bad"))


def goodbad_mass(good, bad, both):
    return BeliefMass(GB, {("good",): good, ("bad",): bad, ("good", "bad"): both})


@st.composite
def random_masses(draw):
    """Integer-weighted mass over the non-empty subsets of a small frame."""
    size = draw(st.integers(min_value=1, max_value=4))
    frame = Frame(tuple(range(size)))
    subsets = []
    for mask in range(1, 1 << size):
        subsets.append(tuple(i for i in range(size) if mask >> i & 1))
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=20), min_size=len(subsets), max_size=len(subsets)).filter(
            lambda ws: sum(ws) > 0
        )
    )
    total = sum(weights)
    assignment = {s: w / total for s, w in zip(subsets, weights) if w > 0}
    return BeliefMass(frame, assignment)


class TestFrame:
    def test_rejects_empty_and_oversized(self):
        with pytest.raises(ValueError):
            Frame(())
        with pytest.raises(ValueError):
            Frame(tuple(range(MAX_FRAME_SIZE + 1)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Frame(("a", "a"))

    def test_subset_mask_is_order_insensitive(self):
        f = Frame(("a", "b", "c"))
        assert f.subset_mask(("c", "a")) == f.subset_mask(("a", "c"))

    def test_subset_mask_rejects_foreign_elements(self):
        with pytest.raises(ValueError):
            GB.subset_mask(("ugly",))

    def test_full_mask(self):
        assert Frame(("a", "b", "c")).full_mask == 0b111


class TestBeliefMass:
    def test_rejects_bad_sums(self):
        with pytest.raises(ValueError):
            goodbad_mass(0.6, 0.1, 0.2)

    def test_rejects_mass_on_empty_set(self):
        with pytest.raises(ValueError):
            BeliefMass(GB, {(): 0.5, ("good",): 0.5})

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            goodbad_mass(1.2, -0.2, 0.0)

    def test_rejects_duplicate_subsets(self):
        with pytest.raises(ValueError):
            BeliefMass(GB, {("good", "bad"): 0.5, ("bad", "good"): 0.5})

    def test_binary_frame_example(self):
        m = goodbad_mass(0.6, 0.1, 0.3)
        assert m.belief(("good",)) == pytest.approx(0.6)
        assert m.disbelief(("good",)) == pytest.approx(0.1)
        op = m.opinion_of(("good",))
        assert op.uncertainty == pytest.approx(0.3)

    def test_belief_counts_all_contained_subsets(self):
        f = Frame(("a", "b", "c"))
        m = BeliefMass(f, {("a",): 0.2, ("b",): 0.1, ("a", "b"): 0.4, ("a", "b", "c"): 0.3})
        assert m.belief(("a", "b")) == pytest.approx(0.7)
        assert m.disbelief(("c",)) == pytest.approx(0.7)
        assert m.opinion_of(("c",)).belief == pytest.approx(0.0)

    def test_opinion_of_rejects_empty_subset(self):
        m = goodbad_mass(0.6, 0.1, 0.3)
        with pytest.raises(ValueError):
            m.opinion_of(())

    @given(random_masses())
    @settings(max_examples=100)
    def test_opinion_components_always_balance(self, m):
        full = tuple(m.frame.elements)
        for element in m.frame.elements:
            op = m.opinion_of((element,))
            assert 0 <= op.belief <= 1 + 1e-9
            assert op.belief + op.disbelief + op.uncertainty == pytest.approx(1.0)
        # belief in the whole frame is total mass; nothing is disbelieved
        assert m.belief(full) == pytest.approx(1.0)
        assert m.disbelief(full) == pytest.approx(0.0)

    @given(random_masses())
    @settings(max_examples=100)
    def test_belief_monotone_under_superset(self, m):
        elements = list(m.frame.elements)
        for cut in range(1, len(elements)):
            small, big = tuple(elements[:cut]), tuple(elements[: cut + 1])
            assert m.belief(small) <= m.belief(big) + 1e-12


class TestOpinion:
    def test_validation(self):
        with pytest.raises(ValueError):
            Opinion(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            Opinion(-0.1, 0.6, 0.5)

    def test_vacuous_constant(self):
        assert VACUOUS_OPINION == Opinion(0.0, 0.0, 1.0)


class TestConsensus:
    def test_vacuous_is_identity(self):
        op = Opinion(0.6, 0.1, 0.3)
        merged = consensus(op, VACUOUS_OPINION)
        assert merged.belief == pytest.approx(0.6)
        assert merged.disbelief == pytest.approx(0.1)
        assert merged.uncertainty == pytest.approx(0.3)

    def test_two_equal_observers(self):
        op = Opinion(0.6, 0.1, 0.3)
        merged = consensus(op, op)
        assert merged.belief == pytest.approx(12 / 17, abs=1e-9)
        assert merged.disbelief == pytest.approx(2 / 17, abs=1e-9)
        assert merged.uncertainty == pytest.approx(3 / 17, abs=1e-9)

    def test_dogmatic_pair_rejected(self):
        dog = Opinion(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            consensus(dog, Opinion(0.0, 1.0, 0.0))

    opinions = st.tuples(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0.01, max_value=1),
    ).map(lambda t: Opinion(t[0] / (sum(t)), t[1] / sum(t), t[2] / sum(t)))

    @given(opinions, opinions)
    @settings(max_examples=150)
    def test_commutative_and_valid(self, a, b):
        ab, ba = consensus(a, b), consensus(b, a)
        assert ab.belief == pytest.approx(ba.belief, abs=1e-9)
        assert ab.uncertainty == pytest.approx(ba.uncertainty, abs=1e-9)
        assert ab.belief + ab.disbelief + ab.uncertainty == pytest.approx(1.0)

    @given(opinions, opinions)
    @settings(max_examples=150)
    def test_merging_never_raises_uncertainty(self, a, b):
        merged = consensus(a, b)
        assert merged.uncertainty <= min(a.uncertainty, b.uncertainty) + 1e-9


def table_from(rows):
    """rows: (hypothesis, d1, count) or (hypothesis, d1, d2, count)."""
    arity = len(rows[0]) - 2
    c = EvidenceCounts(evidence_arity=arity)
    for row in rows:
        *vals, times = row
        c.record(vals[0], *vals[1:], times=times)
    return c


class TestEvidenceCounts:
    def test_record_and_marginals(self):
        c = table_from([(True, True, 3), (True, False, 1), (False, True, 2)])
        assert c.total() == 6
        assert c.count(hypothesis=True) == 4
        assert c.count(d1=True) == 5
        assert c.count(hypothesis=True, d1=True) == 3

    def test_rejects_non_bool(self):
        c = EvidenceCounts(evidence_arity=1)
        with pytest.raises(ValueError):
            c.record(1, True)
        with pytest.raises(ValueError):
            c.record(True, True, times=-1)

    def test_arity_enforced(self):
        c = EvidenceCounts(evidence_arity=1)
        with pytest.raises(ValueError):
            c.record(True, True, False)
        with pytest.raises(ValueError):
            bayes_posterior2(c)


class TestBayesPosterior:
    def test_empty_table_defaults_to_half(self):
        assert bayes_posterior(EvidenceCounts(evidence_arity=1)) == pytest.approx(0.5)

    def test_smoothing_off_empty_table_raises(self):
        with pytest.raises(ValueError):
            bayes_posterior(EvidenceCounts(evidence_arity=1), smoothing=False)

    def test_frequency_example(self):
        c = table_from([(True, True, 30), (False, True, 10), (True, False, 5)])
        assert bayes_posterior(c, smoothing=False) == pytest.approx(0.75)
        assert bayes_posterior(c) == pytest.approx(31 / 42)

    def test_two_evidence_example(self):
        c = table_from([(True, True, True, 8), (False, True, True, 2), (True, False, True, 4)])
        assert bayes_posterior2(c, smoothing=False) == pytest.approx(0.8)
        assert bayes_posterior2(c) == pytest.approx(9 / 12)

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=8, max_size=8))
    @example([0, 0, 0, 1, 0, 0, 1, 0])  # c(H=T, D2=T) = 0: outside the factored form's domain
    @example([0, 0, 0, 1, 0, 1, 0, 0])  # valid, with c(H=T, D1=T) = 0
    @settings(max_examples=100)
    def test_matches_factored_form(self, counts):
        c = EvidenceCounts(evidence_arity=2)
        i = 0
        # counts[i] is the cell i = 4*h + 2*d1 + d2
        for h in (False, True):
            for d1 in (False, True):
                for d2 in (False, True):
                    if counts[i]:
                        c.record(h, d1, d2, times=counts[i])
                    i += 1
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
        two = EvidenceCounts(evidence_arity=2)
        one = EvidenceCounts(evidence_arity=1)
        for hi, h in enumerate((False, True)):
            for d2i, d2 in enumerate((False, True)):
                one.record(h, d2, times=a[2 * hi + d2i])
                for d1i, d1 in enumerate((False, True)):
                    two.record(h, d1, d2, times=a[2 * hi + d2i] * b[2 * d1i + d2i])
        assert bayes_posterior2(two, smoothing=False) == pytest.approx(
            bayes_posterior(one, smoothing=False), abs=1e-12
        )

    def test_half_prior_when_two_evidence_table_empty(self):
        assert bayes_posterior2(EvidenceCounts(evidence_arity=2)) == pytest.approx(0.5)

    def test_equal_counts_share_one_posterior(self):
        tables = [EvidenceCounts(evidence_arity=2) for _ in range(2)]
        for table in tables:
            table.record(True, True, True, times=5)
            table.record(False, True, True, times=2)
        assert bayes_posterior2(tables[0]) is bayes_posterior2(tables[1])
        assert 0 < _conditional.cache_info().maxsize < math.inf
