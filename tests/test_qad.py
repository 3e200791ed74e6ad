import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from motetrust.qad import (
    SCALE_VALUES,
    AssessmentMatrix,
    OperatorChoice,
    apply_operator,
    quantize_observation,
    rate_of_change,
    step_society,
)

OPT = OperatorChoice.MODERATE_OPTIMISTIC
PES = OperatorChoice.MODERATE_PESSIMISTIC
CON = OperatorChoice.CONSENSUS_SEEKER
HOP = OperatorChoice.ASSESSMENT_HOPPING

assessments = st.one_of(st.none(), st.integers(-2, 2))


@st.composite
def matrices(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return AssessmentMatrix([[draw(assessments) for _ in range(n)] for _ in range(n)])


@st.composite
def matrix_pairs(draw, max_n=5):
    """Two matrices of one size; each entry of the second keeps the first's or takes a fresh draw."""
    a = draw(matrices(max_n))
    rows = [[a.entry(i, j) if draw(st.booleans()) else draw(assessments) for j in range(a.n)] for i in range(a.n)]
    return a, AssessmentMatrix(rows)


@st.composite
def sparse_matrices(draw, max_n=40):
    """Up to ``max_n`` agents, most rows holding 0-3 defined cells; some rows and columns stay wholly absent."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    absent = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))  # columns no one assesses
    rows = [[None] * n for _ in range(n)]
    for row in rows:
        for j in draw(st.lists(st.integers(0, n - 1), max_size=3 if draw(st.integers(0, 9)) else n)):
            if j not in absent:
                row[j] = draw(st.integers(-2, 2))
    return AssessmentMatrix(rows)


def single_entry(value, column_rest):
    """A matrix whose column 0 is (value, *column_rest); entry (0, 0) under test."""
    n = 1 + len(column_rest)
    rows = [[None] * n for _ in range(n)]
    rows[0][0] = value
    for i, v in enumerate(column_rest, start=1):
        rows[i][0] = v
    return AssessmentMatrix(rows)


class TestAssessmentMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AssessmentMatrix([])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            AssessmentMatrix([[0, 1], [0]])
        with pytest.raises(ValueError):
            AssessmentMatrix(row for row in [[0, 1], [0]])

    def test_rows_may_come_from_a_generator(self):
        m = AssessmentMatrix([v, None] for v in (1, -2))
        assert (m.row(0), m.row(1)) == ((1, None), (-2, None))

    def test_rejects_out_of_scale(self):
        with pytest.raises(ValueError):
            AssessmentMatrix([[3]])
        with pytest.raises(ValueError):
            AssessmentMatrix([[True]])

    def test_index_errors(self):
        m = AssessmentMatrix.filled(2)
        with pytest.raises(IndexError):
            m.entry(2, 0)
        with pytest.raises(IndexError):
            m.column_subvector(-1)

    def test_column_subvector_skips_undefined(self):
        m = AssessmentMatrix([[1, None, 2], [None, None, 0], [-2, None, None]])
        assert m.column_subvector(0) == [1, -2]
        assert m.column_subvector(1) == []
        assert m.column_subvector(2) == [2, 0]

    def test_copy_is_independent(self):
        m = AssessmentMatrix.filled(2, 0)
        c = m.copy()
        c.set_entry(0, 0, 2)
        assert m.entry(0, 0) == 0
        m.set_entry(1, 1, -1)
        assert c.entry(1, 1) == 0

    def test_checked_accessors_reject_bad_indices(self):
        m = AssessmentMatrix.filled(2, 0)
        for bad in (-1, 2):
            with pytest.raises(IndexError):
                m.set_entry(0, bad, 1)
            with pytest.raises(IndexError):
                m.set_entry(bad, 0, 1)
            with pytest.raises(IndexError):
                m.row(bad)
        with pytest.raises(ValueError):
            m.set_entry(0, 0, 3)


class TestOperators:
    def test_optimistic_steps_up(self):
        m = single_entry(0, [1, 2, 1])  # column mean 1 > 0
        assert apply_operator(m, 0, 0, OPT) == 1
        m2 = single_entry(1, [2, 1])  # column (1, 2, 1), mean 4/3 > 1
        assert apply_operator(m2, 0, 0, OPT) == 2

    def test_optimistic_keeps_when_mean_at_or_below(self):
        m = single_entry(1, [1, 1])
        assert apply_operator(m, 0, 0, OPT) == 1
        m = single_entry(2, [-2, -2])
        assert apply_operator(m, 0, 0, OPT) == 2

    def test_pessimistic_steps_down(self):
        m = single_entry(0, [-1, -2])  # mean -1 < 0
        assert apply_operator(m, 0, 0, PES) == -1

    def test_pessimistic_keeps_when_mean_at_or_above(self):
        m = single_entry(-1, [0, 2])
        assert apply_operator(m, 0, 0, PES) == -1

    def test_consensus_rounds_toward_zero(self):
        m = single_entry(0, [-2, -1, -1])
        # column (0, -2, -1, -1), mean -1: exact
        assert apply_operator(m, 0, 0, CON) == -1
        m = single_entry(1, [2])  # mean 1.5 -> floor 1
        assert apply_operator(m, 0, 0, CON) == 1
        m = single_entry(-2, [-1, 0, 0])  # mean -3/4 -> ceil -0
        assert apply_operator(m, 0, 0, CON) == 0

    def test_consensus_ignores_current_value(self):
        # same column, different holders: the consensus seeker lands on one value
        m = AssessmentMatrix([[2, None], [-1, None]])
        assert apply_operator(m, 0, 0, CON) == apply_operator(m, 1, 0, CON) == 0

    def test_undefined_absorbs_every_operator(self):
        m = AssessmentMatrix([[None, 1], [2, 1]])
        rng = random.Random(0)
        for op in OperatorChoice:
            assert apply_operator(m, 0, 0, op, rng) is None

    def test_hopping_requires_rng(self):
        m = AssessmentMatrix.filled(1, 0)
        with pytest.raises(ValueError):
            apply_operator(m, 0, 0, HOP)

    def test_hopping_ignores_column(self):
        m = AssessmentMatrix([[2, None], [2, None]])
        seen = {apply_operator(m, 0, 0, HOP, random.Random(s)) for s in range(40)}
        assert seen == set(SCALE_VALUES)


class TestStepSociety:
    def test_synchronous_reads_the_pre_step_matrix(self):
        # sequential application would give entry (1, 0) a different column mean
        m = AssessmentMatrix([[2, None], [0, None]])
        out = step_society(m, [CON, CON])
        assert out.entry(0, 0) == 1  # mean of (2, 0) is 1
        assert out.entry(1, 0) == 1  # same pre-step column, not (1, 0)'s updated view

    def test_input_untouched(self):
        m = AssessmentMatrix([[0, 1], [1, 0]])
        step_society(m, [OPT, OPT])
        assert m == AssessmentMatrix([[0, 1], [1, 0]])

    def test_assignment_length_checked(self):
        with pytest.raises(ValueError):
            step_society(AssessmentMatrix.filled(2), [OPT])

    def test_deterministic_given_seed(self):
        m = AssessmentMatrix([[1, -1, 0], [2, None, 1], [0, 0, -2]])
        a = step_society(m, [HOP, HOP, HOP], random.Random(99))
        b = step_society(m, [HOP, HOP, HOP], random.Random(99))
        assert a == b

    @given(matrices(), st.data())
    @settings(max_examples=120)
    def test_closure_and_absorption(self, m, data):
        ops = data.draw(st.lists(st.sampled_from(list(OperatorChoice)), min_size=m.n, max_size=m.n))
        out = step_society(m, ops, random.Random(7))
        for i in range(m.n):
            for j in range(m.n):
                before, after = m.entry(i, j), out.entry(i, j)
                if before is None:
                    assert after is None
                else:
                    assert after is not None and -2 <= after <= 2

    @given(matrices())
    @settings(max_examples=120)
    def test_moderate_monotonicity(self, m):
        for i in range(m.n):
            for j in range(m.n):
                before = m.entry(i, j)
                if before is None:
                    continue
                up = apply_operator(m, i, j, OPT)
                down = apply_operator(m, i, j, PES)
                assert up in (before, before + 1)
                assert down in (before, before - 1)


class TestStepSocietyOracle:
    """step_society must give every entry what apply_operator gives it, drawing in row-major order."""

    # small dense matrices, and wide sparse ones as in a society matrix, where whole rows and columns are absent
    @given(st.one_of(matrices(max_n=7), sparse_matrices()), st.data(), st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_matches_apply_operator_cell_by_cell(self, m, data, seed):
        ops = data.draw(st.lists(st.sampled_from(list(OperatorChoice)), min_size=m.n, max_size=m.n))
        rng = random.Random(seed)
        expected = AssessmentMatrix(
            [[apply_operator(m, i, j, ops[i], rng) for j in range(m.n)] for i in range(m.n)]
        )
        step_rng = random.Random(seed)
        assert step_society(m, ops, step_rng) == expected
        assert step_rng.getstate() == rng.getstate()  # the same draws, no more

    @given(sparse_matrices(), st.data())
    @settings(max_examples=50)
    def test_the_result_shares_no_row_with_the_input(self, m, data):
        ops = data.draw(st.lists(st.sampled_from(list(OperatorChoice)), min_size=m.n, max_size=m.n))
        before = m.copy()
        out = step_society(m, ops, random.Random(3))
        for i in range(m.n):
            for j in range(m.n):
                out.set_entry(i, j, 2 if m.entry(i, j) != 2 else -2)
        assert m == before

    def test_hopping_without_rng_fails_only_on_a_defined_entry(self):
        with pytest.raises(ValueError):
            step_society(AssessmentMatrix([[None, 1], [None, None]]), [HOP, HOP])
        out = step_society(AssessmentMatrix([[None, None], [0, None]]), [HOP, CON])
        assert out == AssessmentMatrix([[None, None], [0, None]])


class TestRateOfChange:
    def test_frozen_fractions(self):
        a = AssessmentMatrix([[0, 1, None], [2, None, -1], [1, 1, 1]])
        b = a.copy()
        assert rate_of_change(a, b) == 1
        b.set_entry(0, 0, 1)
        b.set_entry(2, 2, None)  # defined -> undefined counts as a change
        assert rate_of_change(a, b) == 3  # 2 of 9 changed: 1 + floor(2)

    def test_every_entry_changed_saturates(self):
        a = AssessmentMatrix([[0, 1, None], [2, None, -1], [1, 1, 1]])
        b = AssessmentMatrix(
            [[2 if a.entry(i, j) != 2 else 1 for j in range(3)] for i in range(3)]
        )
        assert rate_of_change(a, b) == 10

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            rate_of_change(AssessmentMatrix.filled(2), AssessmentMatrix.filled(3))

    @given(matrix_pairs())
    @settings(max_examples=200)
    def test_matches_an_entry_by_entry_count(self, pair):
        a, b = pair
        changed = sum(1 for i in range(a.n) for j in range(a.n) if a.entry(i, j) != b.entry(i, j))
        assert rate_of_change(a, b) == max(1, min(10, 1 + (9 * changed) // (a.n * a.n)))

    @given(matrices())
    @settings(max_examples=60)
    def test_bounds(self, m):
        assert rate_of_change(m, m) == 1
        flipped = AssessmentMatrix(
            [[1 if m.entry(i, j) != 1 else 2 for j in range(m.n)] for i in range(m.n)]
        )
        assert rate_of_change(m, flipped) == 10


class TestQuantizeObservation:
    @pytest.mark.parametrize(
        "score,expected",
        [
            (0.0, -2),
            (0.19, -2),
            (0.2, -1),
            (0.39, -1),
            (0.4, 0),
            (0.55, 0),
            (0.6, 1),
            (0.79, 1),
            (0.8, 2),
            (1.0, 2),
        ],
    )
    def test_quintiles(self, score, expected):
        assert quantize_observation(score) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_observation(-0.01)
        with pytest.raises(ValueError):
            quantize_observation(1.01)


class TestHoppingUniformity:
    def test_ten_thousand_draws_are_uniform(self):
        m = AssessmentMatrix.filled(1, 0)
        rng = random.Random(0)
        draws = [apply_operator(m, 0, 0, HOP, rng) for _ in range(10_000)]
        counts = [draws.count(v) for v in SCALE_VALUES]
        for c in counts:
            assert 0.17 <= c / 10_000 <= 0.23
        assert stats.chisquare(counts).pvalue >= 0.01
