import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motetrust.qad import AssessmentMatrix, OperatorChoice, step_society
from motetrust.rwp import (
    MAX_SOCIETY_SIZE,
    AddressedMatrix,
    RwpPhase,
    RwpState,
    aggregate_major,
    compute_pcp,
    election_order,
    failover,
    handle_query,
    is_legal_transition,
    next_interval,
    trust_relation_count,
)

CYCLE = [RwpPhase.MONITORING, RwpPhase.ANNOUNCING, RwpPhase.ELECTING, RwpPhase.SERVING]


def make_state(addr=7, theta=60.0):
    return RwpState(addr=addr, theta=theta, a_minor=AddressedMatrix([addr]))


class TestPhases:
    def test_only_cycle_transitions_are_legal(self):
        for current, nxt in itertools.product(CYCLE, CYCLE):
            expected = CYCLE[(CYCLE.index(current) + 1) % 4] is nxt
            assert is_legal_transition(current, nxt) is expected

    def test_begin_phase_walks_the_cycle(self):
        s = make_state()
        for phase in CYCLE[1:] + [CYCLE[0]]:
            s.begin_phase(phase, hacp_addr=3, backup_hacp=5)
            assert s.phase is phase

    def test_begin_phase_rejects_shortcuts(self):
        s = make_state()
        with pytest.raises(ValueError):
            s.begin_phase(RwpPhase.SERVING)
        with pytest.raises(ValueError):
            s.begin_phase(RwpPhase.MONITORING)

    def test_host_addresses_held_only_while_serving(self):
        s = make_state()
        s.begin_phase(RwpPhase.ANNOUNCING)
        s.begin_phase(RwpPhase.ELECTING)
        s.begin_phase(RwpPhase.SERVING, hacp_addr=3, backup_hacp=5)
        assert (s.hacp_addr, s.backup_hacp) == (3, 5)
        s.begin_phase(RwpPhase.MONITORING)
        assert (s.hacp_addr, s.backup_hacp) == (None, None)


class TestComputePcp:
    def test_projection_with_harvest(self):
        # residual 20% plus harvested 25% of capacity projects to 45%: band 5
        assert compute_pcp(20.0, 0.25, 100.0, 100.0) == 5

    def test_saturates_at_capacity(self):
        assert compute_pcp(90.0, 1.0, 100.0, 100.0) == 10

    def test_empty_battery_still_reports_one(self):
        assert compute_pcp(0.0, 0.0, 60.0, 100.0) == 1

    def test_exact_band_edges(self):
        assert compute_pcp(10.0, 0.0, 60.0, 100.0) == 1
        assert compute_pcp(10.000001, 0.0, 60.0, 100.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_pcp(1.0, 0.0, 60.0, 0.0)
        with pytest.raises(ValueError):
            compute_pcp(-1.0, 0.0, 60.0, 100.0)
        with pytest.raises(ValueError):
            compute_pcp(1.0, 0.0, 0.0, 100.0)

    @given(
        st.floats(min_value=0, max_value=200),
        st.floats(min_value=0, max_value=5),
        st.floats(min_value=1, max_value=600),
    )
    @settings(max_examples=150)
    def test_always_a_band(self, residual, harvest, theta):
        assert 1 <= compute_pcp(residual, harvest, theta, 100.0) <= 10


class TestElection:
    def test_highest_pcp_wins(self):
        assert election_order([(4, 3), (2, 9), (8, 7)])[0] == 2

    def test_tie_breaks_to_lowest_address(self):
        assert election_order([(9, 10), (3, 10), (5, 10)])[0] == 3

    def test_order_is_full_ranking(self):
        assert election_order([(4, 3), (2, 9), (8, 7), (1, 3)]) == [2, 8, 1, 4]

    def test_empty_and_duplicates_rejected(self):
        with pytest.raises(ValueError):
            election_order([])
        with pytest.raises(ValueError):
            election_order([(1, 5), (1, 6)])

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 10)), min_size=1, max_size=12, unique_by=lambda t: t[0]))
    @settings(max_examples=100)
    def test_permutation_invariant(self, announcements):
        expected = election_order(announcements)
        shuffled = announcements[::-1]
        assert election_order(shuffled) == expected


class TestNextInterval:
    def test_mean_roc_scales_linearly(self):
        assert next_interval([4, 6], 100.0, 10.0, 1000.0) == pytest.approx(60.0)

    def test_calm_society_restores_base(self):
        assert next_interval([1, 1, 1], 100.0, 10.0, 100.0) == pytest.approx(100.0)

    def test_frantic_society_clamps_to_min(self):
        assert next_interval([10, 10], 100.0, 15.0, 1000.0) == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            next_interval([], 100.0, 10.0, 1000.0)
        with pytest.raises(ValueError):
            next_interval([0], 100.0, 10.0, 1000.0)
        with pytest.raises(ValueError):
            next_interval([1], 100.0, 200.0, 1000.0)
        with pytest.raises(ValueError):
            next_interval([1], 100.0, 10.0, 90.0)  # base above max

    @given(st.lists(st.integers(1, 10), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_stays_in_bounds(self, rocs):
        theta = next_interval(rocs, 60.0, 6.0, 600.0)
        assert 6.0 <= theta <= 600.0


class TestAggregateMajor:
    def test_two_mote_example(self):
        a = AddressedMatrix([1, 2])
        a.set(1, 1, 2)
        a.set(1, 2, 1)
        b = AddressedMatrix([1, 2])
        b.set(2, 2, 2)
        b.set(2, 1, -1)
        major = aggregate_major(
            [(1, a, OperatorChoice.CONSENSUS_SEEKER), (2, b, OperatorChoice.CONSENSUS_SEEKER)],
            society=[1, 2],
        )
        # columns before revision: (2, -1) and (1, 2); consensus lands on floor-toward-zero means
        assert major.entry(0, 0) == 0
        assert major.entry(0, 1) == 1
        assert major.entry(1, 0) == 0
        assert major.entry(1, 1) == 1

    def test_unassessed_subject_keeps_absent_column(self):
        a = AddressedMatrix([1])
        a.set(1, 1, 2)
        major = aggregate_major([(1, a, OperatorChoice.MODERATE_OPTIMISTIC)], society=[1, 5])
        assert major.entry(0, 1) is None
        assert major.entry(1, 0) is None
        assert major.entry(1, 1) is None

    def test_matches_direct_society_step(self):
        rng = random.Random(31)
        society = list(range(5))
        rows = [[rng.choice([None, -2, -1, 0, 1, 2]) for _ in society] for _ in society]
        for i in society:
            if rows[i][i] is None:
                rows[i][i] = 0
        ops = [rng.choice([OperatorChoice.MODERATE_OPTIMISTIC, OperatorChoice.MODERATE_PESSIMISTIC, OperatorChoice.CONSENSUS_SEEKER]) for _ in society]
        minors = []
        for i in society:
            m = AddressedMatrix(society)
            for j, v in enumerate(rows[i]):
                m.set(i, j, v)
            minors.append((i, m, ops[i]))
        major = aggregate_major(minors, society)
        assert major == step_society(AssessmentMatrix(rows), ops)

    def test_owner_must_belong_and_be_unique(self):
        m = AddressedMatrix([1])
        with pytest.raises(ValueError):
            aggregate_major([(9, m, OperatorChoice.CONSENSUS_SEEKER)], society=[1, 2])
        ok = (1, m, OperatorChoice.CONSENSUS_SEEKER)
        with pytest.raises(ValueError):
            aggregate_major([ok, ok], society=[1, 2])

    def test_minor_subjects_must_belong(self):
        m = AddressedMatrix([1, 99])
        with pytest.raises(ValueError):
            aggregate_major([(1, m, OperatorChoice.CONSENSUS_SEEKER)], society=[1, 2])

    def test_minor_must_cover_its_owner(self):
        m = AddressedMatrix([2])
        with pytest.raises(ValueError, match="minor of 1 "):
            aggregate_major([(1, m, OperatorChoice.CONSENSUS_SEEKER)], society=[1, 2])


class TestHandleQuery:
    def make_major(self):
        return AssessmentMatrix([[2, 1, None], [0, None, None], [-1, 1, None]])

    def test_column_and_mean(self):
        q = handle_query(self.make_major(), 10, [10, 20, 30])
        assert q.values == (2, 0, -1)
        assert q.n1 == 3
        assert q.mean == pytest.approx(1 / 3)

    def test_partial_column(self):
        q = handle_query(self.make_major(), 20, [10, 20, 30])
        assert q.values == (1, 1)
        assert q.n1 == 2

    def test_empty_column_has_no_mean(self):
        q = handle_query(self.make_major(), 30, [10, 20, 30])
        assert q.values == ()
        assert q.n1 == 0
        assert q.mean is None

    def test_unknown_subject(self):
        with pytest.raises(IndexError):
            handle_query(self.make_major(), 99, [10, 20, 30])


class TestFailover:
    def test_primary_preferred(self):
        assert failover(1, 2, lambda a: True) == 1

    def test_backup_when_primary_down(self):
        assert failover(1, 2, lambda a: a != 1) == 2

    def test_nobody_left(self):
        assert failover(1, 2, lambda a: False) is None
        assert failover(1, None, lambda a: False) is None


def relations_by_enumeration(n):
    """Count ordered pairs of non-empty mote subsets directly."""
    motes = range(n)
    coalitions = [
        c for size in range(1, n + 1) for c in itertools.combinations(motes, size)
    ]
    return sum(1 for _ in itertools.product(coalitions, coalitions))


class TestTrustRelationCount:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
    def test_matches_enumeration(self, n):
        assert trust_relation_count(n) == relations_by_enumeration(n)

    def test_frozen_values(self):
        assert trust_relation_count(1) == 1
        assert trust_relation_count(2) == 9
        assert trust_relation_count(10) == 1_046_529

    def test_bounds(self):
        with pytest.raises(ValueError):
            trust_relation_count(0)
        with pytest.raises(ValueError):
            trust_relation_count(MAX_SOCIETY_SIZE + 1)
        assert trust_relation_count(MAX_SOCIETY_SIZE) == (2**MAX_SOCIETY_SIZE - 1) ** 2


class TestAddressedMatrix:
    def test_defaults_to_all_absent(self):
        m = AddressedMatrix([3, 1])
        assert m.get(3, 1) is None
        assert m.row(3) == {}

    def test_set_get_row(self):
        m = AddressedMatrix([3, 1])
        m.set(3, 1, -2)
        m.set(3, 3, 2)
        assert m.get(3, 1) == -2
        assert m.row(3) == {3: 2, 1: -2}

    def test_unknown_address(self):
        m = AddressedMatrix([3, 1])
        with pytest.raises(IndexError):
            m.get(4, 1)

    def test_duplicate_addresses_rejected(self):
        with pytest.raises(ValueError):
            AddressedMatrix([1, 1])
