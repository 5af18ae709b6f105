"""Weighted-majority elections: margins, decisions, weight schemes."""

from __future__ import annotations

from math import log

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jurymarkets import (
    BeliefProfile,
    CompetenceProfile,
    Decision,
    VotingProfile,
    WeightProfile,
    votes_from_beliefs,
    weighted_majority,
    weighted_margin,
    weights_egalitarian,
    weights_linear,
    weights_log_odds,
)

weight_lists = st.lists(
    st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8
).map(tuple)
vote_bits = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=8)


class TestProfiles:
    def test_votes_accept_bits(self):
        assert VotingProfile((1, 0, 1)).n == 3

    def test_votes_reject_other_values(self):
        with pytest.raises(ValueError):
            VotingProfile((1, 2))

    def test_weights_reject_negative(self):
        with pytest.raises(ValueError):
            WeightProfile((1.0, -0.5))

    def test_weights_reject_all_zero(self):
        with pytest.raises(ValueError):
            WeightProfile((0.0, 0.0))

    def test_weights_reject_non_finite(self):
        with pytest.raises(ValueError):
            WeightProfile((1.0, float("inf")))


class TestMargin:
    def test_equal_weights_balanced_split_is_exact_zero(self):
        votes = VotingProfile((1, 1, 1, 0, 0, 0))
        assert weighted_margin(votes, weights_egalitarian(6)) == 0.0

    def test_expert_vs_three_balances_exactly(self):
        # 0.6 against 0.2 + 0.2 + 0.2: exact summation makes this a true zero
        # even though the individual weights are not dyadic.
        votes = VotingProfile((1, 0, 0, 0))
        weights = WeightProfile((0.6, 0.2, 0.2, 0.2))
        assert weighted_margin(votes, weights) == 0.0

    def test_positive_margin(self):
        votes = VotingProfile((1, 1, 0))
        assert weighted_margin(votes, weights_egalitarian(3)) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="2 votes but 3 weights"):
            weighted_margin(VotingProfile((1, 0)), weights_egalitarian(3))

    @given(vote_bits, st.data())
    def test_complement_antisymmetry(self, bits, data):
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0),
                min_size=len(bits),
                max_size=len(bits),
            ).map(tuple)
        )
        votes = VotingProfile(tuple(bits))
        flipped = VotingProfile(tuple(1 - v for v in bits))
        w = WeightProfile(weights)
        assert weighted_margin(votes, w) + weighted_margin(flipped, w) == pytest.approx(
            0.0, abs=1e-12
        )


class TestMajority:
    def test_majority_a(self):
        assert weighted_majority(VotingProfile((1, 1, 0)), weights_egalitarian(3)) is Decision.A

    def test_majority_b(self):
        assert weighted_majority(VotingProfile((1, 0, 0)), weights_egalitarian(3)) is Decision.B

    def test_exact_tie(self):
        assert (
            weighted_majority(VotingProfile((1, 0, 0, 0)), WeightProfile((0.6, 0.2, 0.2, 0.2)))
            is Decision.TIE
        )

    def test_near_tie_is_read_as_tie(self):
        # Log-odds weights balance algebraically here, but the computed margin
        # is -2.2e-16; every decision rule reads it as a tie.
        votes = VotingProfile((1, 1, 0))
        weights = weights_log_odds(CompetenceProfile((2 / 3, 2 / 3, 0.8)))
        assert weighted_margin(votes, weights) != 0.0
        assert weighted_majority(votes, weights) is Decision.TIE

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item J")
    def test_near_tie_decision_is_scale_free(self):
        # The margin is 1e-12 * 2^e: the absolute tie band reads a tie for
        # e <= 0 and A for e >= 1, although scaling the weights by a power of
        # two changes no comparison.
        votes = VotingProfile((1, 0))
        decisions = {
            weighted_majority(votes, WeightProfile(((1 + 2e-12) * 2.0**e, 2.0**e)))
            for e in range(-3, 4)
        }
        assert len(decisions) == 1, decisions

    def test_single_expert_outvotes_low_weights(self):
        votes = VotingProfile((1, 0, 0, 0))
        weights = WeightProfile((0.7, 0.2, 0.2, 0.2))
        assert weighted_majority(votes, weights) is Decision.A

    @given(vote_bits, st.data(), st.integers(min_value=-3, max_value=3))
    def test_scaling_by_powers_of_two_preserves_decision(self, bits, data, exponent):
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0),
                min_size=len(bits),
                max_size=len(bits),
            ).map(tuple)
        )
        votes = VotingProfile(tuple(bits))
        scaled = WeightProfile(tuple(w * 2.0**exponent for w in weights))
        assert weighted_majority(votes, WeightProfile(weights)) is weighted_majority(
            votes, scaled
        )

    @given(vote_bits, st.data())
    def test_decision_mirrors_under_complement(self, bits, data):
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0),
                min_size=len(bits),
                max_size=len(bits),
            ).map(tuple)
        )
        w = WeightProfile(weights)
        votes = VotingProfile(tuple(bits))
        flipped = VotingProfile(tuple(1 - v for v in bits))
        margin = weighted_margin(votes, w)
        if abs(margin) < 1e-9:
            return  # float noise could land either side of an exact tie
        mirror = {Decision.A: Decision.B, Decision.B: Decision.A}
        assert weighted_majority(flipped, w) is mirror[weighted_majority(votes, w)]


class TestWeightSchemes:
    def test_egalitarian(self):
        assert weights_egalitarian(3).w == (1.0, 1.0, 1.0)

    def test_egalitarian_needs_an_agent(self):
        with pytest.raises(ValueError, match="at least one agent"):
            weights_egalitarian(0)

    def test_linear(self):
        q = CompetenceProfile((0.9, 0.6))
        w = weights_linear(q)
        assert w.w == (2 * 0.9 - 1, 2 * 0.6 - 1)

    def test_log_odds(self):
        q = CompetenceProfile((0.9, 0.75))
        w = weights_log_odds(q)
        assert w.w[0] == pytest.approx(log(9.0), abs=1e-15)
        assert w.w[1] == pytest.approx(log(3.0), abs=1e-15)

    @given(st.lists(st.floats(min_value=0.501, max_value=0.999), min_size=1, max_size=8))
    def test_all_schemes_positive(self, qs):
        q = CompetenceProfile(tuple(qs))
        for w in (weights_egalitarian(q.n), weights_linear(q), weights_log_odds(q)):
            assert all(x > 0.0 for x in w.w)

    @given(st.floats(min_value=0.501, max_value=0.999), st.floats(min_value=0.501, max_value=0.999))
    def test_log_odds_orders_like_competence(self, q1, q2):
        w = weights_log_odds(CompetenceProfile((q1, q2)))
        if q1 > q2:
            assert w.w[0] > w.w[1]
        elif q1 < q2:
            assert w.w[0] < w.w[1]


class TestVotesFromBeliefs:
    def test_binarizes(self):
        votes = votes_from_beliefs(BeliefProfile((0.9, 0.3, 0.6)))
        assert votes.v == (1, 0, 1)

    def test_rejects_exact_half(self):
        with pytest.raises(ValueError, match="0.5"):
            votes_from_beliefs(BeliefProfile((0.9, 0.5)))
