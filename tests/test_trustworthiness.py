import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motetrust.trustworthiness import (
    BehaviorCounts,
    Outcome,
    TrustRecord,
    TrustworthinessParams,
    confidence,
    trust_stddev,
    trust_value,
    trustworthiness,
    update_counts,
)

counts_values = st.floats(min_value=1, max_value=500)
unit = st.floats(min_value=0, max_value=1)


def beta_stddev_by_integration(a, b):
    """Numerical moments of Beta(a, b) on a fine grid, no closed form used."""
    p = np.linspace(0.0, 1.0, 200_001)
    # unnormalized density; 0**0 at the endpoints is fine for a, b >= 1
    w = p ** (a - 1) * (1 - p) ** (b - 1)
    norm = np.trapezoid(w, p)
    mean = np.trapezoid(p * w, p) / norm
    second = np.trapezoid(p * p * w, p) / norm
    return math.sqrt(second - mean * mean)


class TestBehaviorCounts:
    def test_floor_is_one(self):
        with pytest.raises(ValueError):
            BehaviorCounts(normal=0.5, misbehavior=1.0)
        with pytest.raises(ValueError):
            BehaviorCounts(normal=1.0, misbehavior=0.0)

    def test_update_returns_new_instance(self):
        c = BehaviorCounts()
        up = update_counts(c, Outcome.NORMAL)
        down = update_counts(c, Outcome.MISBEHAVIOR)
        assert (up.normal, up.misbehavior) == (2.0, 1.0)
        assert (down.normal, down.misbehavior) == (1.0, 2.0)
        assert (c.normal, c.misbehavior) == (1.0, 1.0)


class TestTrustValue:
    def test_uninformed_prior_is_half(self):
        assert trust_value(BehaviorCounts()) == 0.5

    def test_nine_one(self):
        assert trust_value(BehaviorCounts(9, 1)) == pytest.approx(0.9)

    @given(counts_values, counts_values)
    @settings(max_examples=100)
    def test_in_unit_interval(self, a, b):
        assert 0.0 < trust_value(BehaviorCounts(a, b)) < 1.0


class TestTrustStddev:
    def test_uniform_prior(self):
        assert trust_stddev(BehaviorCounts()) == pytest.approx(math.sqrt(1 / 12), abs=1e-12)

    def test_nine_one(self):
        assert trust_stddev(BehaviorCounts(9, 1)) == pytest.approx(0.09045340337332909, abs=1e-12)

    @pytest.mark.parametrize("a", [1, 2, 5, 10, 50])
    @pytest.mark.parametrize("b", [1, 2, 5, 10, 50])
    def test_against_numerical_integration(self, a, b):
        expected = beta_stddev_by_integration(a, b)
        assert trust_stddev(BehaviorCounts(a, b)) == pytest.approx(expected, abs=1e-6)


class TestConfidence:
    def test_uniform_prior_has_none(self):
        assert confidence(BehaviorCounts()) == 0.0

    def test_frozen_values(self):
        assert confidence(BehaviorCounts(9, 1)) == pytest.approx(0.686660219279744, abs=1e-12)
        assert confidence(BehaviorCounts(50, 50)) == pytest.approx(0.8276545031135722, abs=1e-12)

    @given(counts_values, counts_values)
    @settings(max_examples=100)
    def test_ties_to_stddev(self, a, b):
        c = BehaviorCounts(a, b)
        assert confidence(c) == pytest.approx(1.0 - math.sqrt(12.0) * trust_stddev(c), abs=1e-9)

    @given(counts_values, counts_values)
    @settings(max_examples=100)
    def test_more_evidence_never_hurts(self, a, b):
        c = BehaviorCounts(a, b)
        grown = BehaviorCounts(a * 2, b * 2)
        assert confidence(grown) >= confidence(c) - 1e-12


class TestTrustworthiness:
    def test_ideal_and_worst_corners(self):
        assert trustworthiness(1.0, 1.0) == 1.0
        assert trustworthiness(0.0, 0.0) == 0.0

    def test_frozen_values(self):
        assert trustworthiness(1.0, 0.0) == pytest.approx(0.5735985672887791, abs=1e-12)
        assert trustworthiness(0.0, 1.0) == pytest.approx(0.095465966266709, abs=1e-12)
        assert trustworthiness(0.9, 0.5) == pytest.approx(0.7684047417662364, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            trustworthiness(1.2, 0.5)
        with pytest.raises(ValueError):
            trustworthiness(0.5, -0.1)

    def test_custom_params(self):
        # equal scales make the two inputs symmetric
        p = TrustworthinessParams(trust_scale=1.0, confidence_scale=1.0)
        assert trustworthiness(0.3, 0.8, p) == pytest.approx(trustworthiness(0.8, 0.3, p), abs=1e-12)

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError):
            TrustworthinessParams(trust_scale=0.0)

    @given(unit, unit)
    @settings(max_examples=150)
    def test_in_unit_interval(self, t, c):
        assert 0.0 <= trustworthiness(t, c) <= 1.0

    @given(unit, unit, unit)
    @settings(max_examples=150)
    def test_monotone_in_each_argument(self, t, c, bump):
        base = trustworthiness(t, c)
        assert trustworthiness(min(1.0, t + bump), c) >= base - 1e-12
        assert trustworthiness(t, min(1.0, c + bump)) >= base - 1e-12

    def test_trust_moves_the_needle_more_than_confidence(self):
        # along the diagonal the default scales weight trust strictly higher
        h = 1e-6
        for v in [0.1, 0.3, 0.5, 0.7, 0.9]:
            dt = trustworthiness(v + h, v) - trustworthiness(v, v)
            dc = trustworthiness(v, v + h) - trustworthiness(v, v)
            assert dt > dc > 0


class TestTrustRecord:
    def test_from_counts_is_coherent(self):
        c = BehaviorCounts(9, 1)
        r = TrustRecord.from_counts(c)
        assert r.trust == pytest.approx(trust_value(c))
        assert r.confidence == pytest.approx(confidence(c))
        assert r.combined == pytest.approx(trustworthiness(r.trust, r.confidence))

    def test_equal_counts_share_one_record(self):
        first = TrustRecord.from_counts(BehaviorCounts(7, 2))
        assert TrustRecord.from_counts(BehaviorCounts(7.0, 2.0)) is first
        assert TrustRecord.from_counts(BehaviorCounts(2, 7)) is not first
        with pytest.raises(AttributeError):
            first.trust = 0.0  # shared, so frozen

    def test_subclass_gets_its_own_class(self):
        class Tagged(TrustRecord):
            pass

        counts = BehaviorCounts(4, 3)
        tagged = Tagged.from_counts(counts)
        assert type(tagged) is Tagged and type(TrustRecord.from_counts(counts)) is TrustRecord
        assert tagged == Tagged(*dataclasses.astuple(TrustRecord.from_counts(counts)))

    def test_record_cache_is_bounded(self):
        assert 0 < TrustRecord.from_counts.cache_info().maxsize < math.inf
