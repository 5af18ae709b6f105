"""Signal model: profiles, posteriors, binarization, signal-space enumeration."""

from __future__ import annotations

from itertools import product
from math import fsum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jurymarkets import (
    ENUMERATION_CAP,
    STATE_A,
    STATE_B,
    BeliefProfile,
    CompetenceProfile,
    Decision,
    SignalProfile,
    beliefs_from_signals,
    enumerate_signal_space,
    posterior_belief,
    signal_matrix,
)

competences = st.lists(
    st.floats(min_value=0.501, max_value=0.999), min_size=1, max_size=8
).map(tuple)


class TestProfiles:
    def test_competence_accepts_open_interval(self):
        q = CompetenceProfile((0.51, 0.99, 0.75))
        assert q.n == 3
        assert q.q == (0.51, 0.99, 0.75)

    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.3, 1.2, -0.1])
    def test_competence_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="strictly between 0.5 and 1"):
            CompetenceProfile((0.7, bad))

    def test_competence_rejects_empty(self):
        with pytest.raises(ValueError):
            CompetenceProfile(())

    def test_belief_accepts_open_unit_interval(self):
        b = BeliefProfile((0.001, 0.999, 0.5))
        assert b.n == 3

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_belief_rejects_boundary(self, bad):
        with pytest.raises(ValueError):
            BeliefProfile((0.4, bad))

    def test_signal_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            SignalProfile(("A", "C"))

    def test_signal_accepts_states(self):
        assert SignalProfile(("A", "B", "B")).n == 3


class TestPosterior:
    def test_matching_signal_returns_competence(self):
        assert posterior_belief(0.9, STATE_A) == 0.9

    def test_opposing_signal_returns_complement_exactly(self):
        # 1 - 0.6 is exactly representable, so this equality is bitwise.
        assert posterior_belief(0.6, STATE_B) == 0.4

    @given(st.floats(min_value=0.501, max_value=0.999))
    def test_posteriors_complementary(self, q):
        assert posterior_belief(q, STATE_A) + posterior_belief(q, STATE_B) == pytest.approx(1.0)


class TestBinarize:
    """The decisions a binarised vote, margin or price maps to."""

    def test_members_sets(self):
        assert Decision.A.members == frozenset({"A"})
        assert Decision.B.members == frozenset({"B"})
        assert Decision.TIE.members == frozenset({"A", "B"})


class TestBeliefsFromSignals:
    def test_worked_example_1(self, example1):
        _, _, b = example1
        assert b.b == (0.9, 1.0 - 0.7, 0.4, 0.4, 0.6)

    def test_worked_example_2(self, example2):
        _, _, b = example2
        assert b.b == (0.8, 0.4, 0.4, 0.4)

    def test_length_mismatch(self):
        q = CompetenceProfile((0.6, 0.7))
        with pytest.raises(ValueError, match="2 agents but signal profile has 1"):
            beliefs_from_signals(q, SignalProfile(("A",)))


class TestEnumerateSignalSpace:
    def test_probabilities_sum_to_one(self):
        q = CompetenceProfile((0.9, 0.7, 0.6))
        space = enumerate_signal_space(q, STATE_A)
        assert len(space) == 8
        assert fsum(p for _, p in space) == pytest.approx(1.0, abs=1e-12)

    def test_lexicographic_order(self):
        q = CompetenceProfile((0.6, 0.6))
        profiles = [y.y for y, _ in enumerate_signal_space(q, STATE_A)]
        assert profiles == [("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")]

    def test_probability_is_product_of_likelihoods(self):
        q = CompetenceProfile((0.9, 0.7))
        space = dict((y.y, p) for y, p in enumerate_signal_space(q, STATE_B))
        assert space[("A", "B")] == pytest.approx((1 - 0.9) * 0.7, abs=1e-15)
        assert space[("B", "B")] == pytest.approx(0.9 * 0.7, abs=1e-15)

    def test_signal_matrix_matches_product_order(self):
        for n in (1, 3, 6):
            rows = [
                tuple(STATE_A if s else STATE_B for s in row)
                for row in signal_matrix(n).tolist()
            ]
            assert rows == list(product((STATE_A, STATE_B), repeat=n))

    def test_probabilities_equal_scalar_running_product(self):
        q = CompetenceProfile((0.9, 0.7, 0.55, 0.65))
        for state in (STATE_A, STATE_B):
            for y, p in enumerate_signal_space(q, state):
                prob = 1.0
                for qi, yi in zip(q.q, y.y):
                    prob *= qi if yi == state else 1.0 - qi
                assert p == prob

    def test_cap_enforced(self):
        q = CompetenceProfile((0.6,) * (ENUMERATION_CAP + 1))
        with pytest.raises(ValueError, match=str(ENUMERATION_CAP)):
            enumerate_signal_space(q, STATE_A)

    @given(competences, st.sampled_from((STATE_A, STATE_B)))
    def test_mass_one_and_positive(self, q, state):
        space = enumerate_signal_space(CompetenceProfile(q), state)
        assert len(space) == 2 ** len(q)
        assert fsum(p for _, p in space) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0.0 for _, p in space)

    def test_state_flip_symmetry(self):
        # P(y | A) equals P(flip(y) | B) factor by factor, hence bit-exactly.
        q = CompetenceProfile((0.9, 0.7, 0.55))
        by_a = dict((y.y, p) for y, p in enumerate_signal_space(q, STATE_A))
        by_b = dict((y.y, p) for y, p in enumerate_signal_space(q, STATE_B))
        flip = {"A": "B", "B": "A"}
        for y in product((STATE_A, STATE_B), repeat=3):
            assert by_a[y] == by_b[tuple(flip[s] for s in y)]
