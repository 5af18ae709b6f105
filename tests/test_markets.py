"""Market solvers: utilities, best responses, and equilibria for all three trader models."""

from __future__ import annotations

import random
from math import fsum, isclose, log

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jurymarkets import markets
from jurymarkets import (
    INDIFFERENT,
    BeliefProfile,
    BracketingError,
    InvestmentProfile,
    MarketKind,
    UndefinedPriceError,
    clearing_price,
    full_investment_equivalence,
    grid_equilibrium_search,
    kelly_best_response,
    kelly_equilibrium,
    kelly_utility,
    naive_best_response,
    naive_equilibrium,
    naive_utility,
    payout,
    tax_function,
    taxed_best_response,
    taxed_best_response_asymptotic,
    taxed_equilibrium_asymptotic,
    taxed_equilibrium_finite,
    taxed_foc_residual,
    taxed_utility,
)
from tests.conftest import random_beliefs

interior = st.floats(min_value=0.02, max_value=0.98)
belief_lists = st.lists(
    st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=9
).map(tuple)


def security_residual(profile: InvestmentProfile, price: float) -> float:
    return fsum(profile.sA) / price - fsum(profile.sB) / (1.0 - price)


def lattice_panels(seed: int, per_n: int):
    """Belief panels for n = 2..8 drawn, with repeats, from {i/n} or {j/(2n)}.

    On these lattices beliefs sit on or halfway between the split prices
    i/n, so the naive solver's full-split and marginal cases meet exactly.
    """
    rng = random.Random(seed)
    for n in range(2, 9):
        for denominator in (n, 2 * n):
            lattice = [i / denominator for i in range(1, denominator)]
            for _ in range(per_n):
                yield tuple(rng.choice(lattice) for _ in range(n))


class TestInvestmentProfile:
    def test_rejects_agent_on_both_sides(self):
        with pytest.raises(ValueError, match="both sides"):
            InvestmentProfile((0.5, 0.0), (0.1, 1.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            InvestmentProfile((1.5, 0.0), (0.0, 0.0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            InvestmentProfile((1.0,), (0.0, 0.0))


class TestClearingPrice:
    def test_balanced_pair(self):
        assert clearing_price(InvestmentProfile((1.0, 0.0), (0.0, 1.0))) == 0.5

    def test_worked_example_split(self):
        profile = InvestmentProfile((1.0, 0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0, 0.0))
        assert clearing_price(profile) == 0.4

    def test_one_sided_book_has_no_price(self):
        with pytest.raises(UndefinedPriceError):
            clearing_price(InvestmentProfile((1.0, 1.0), (0.0, 0.0)))


class TestPayout:
    def test_winner_redeems_and_keeps_cash(self):
        assert payout(0.4, 0.5, won=True) == pytest.approx(0.5 / 0.4 + 0.5)

    def test_loser_keeps_unspent_endowment(self):
        assert payout(0.4, 0.5, won=False) == 0.5

    def test_full_stake_winner(self):
        assert payout(0.25, 1.0, won=True) == 4.0

    def test_rejects_bad_price(self):
        with pytest.raises(ValueError):
            payout(1.0, 0.5, won=True)


class TestNaive:
    def test_utility_is_expected_wealth(self):
        assert naive_utility(0.4, 0.9, 1.0) == pytest.approx(0.9 * 2.5)
        assert naive_utility(0.4, 0.9, 0.0) == 1.0

    def test_best_response_all_in_above_price(self):
        a_side, b_side = naive_best_response(0.9, 0.4)
        assert a_side == frozenset({1.0}) and b_side == frozenset({0.0})

    def test_best_response_all_in_below_price(self):
        a_side, b_side = naive_best_response(0.3, 0.4)
        assert a_side == frozenset({0.0}) and b_side == frozenset({1.0})

    def test_indifferent_at_price(self):
        assert naive_best_response(0.4, 0.4) == (INDIFFERENT, INDIFFERENT)

    @given(interior, interior, st.floats(min_value=0.0, max_value=1.0))
    def test_best_response_dominates_grid(self, b, p, s):
        a_side, b_side = naive_best_response(b, p)
        if a_side is INDIFFERENT:
            return
        best = max(
            naive_utility(p, b, next(iter(a_side))),
            naive_utility(1.0 - p, 1.0 - b, next(iter(b_side))),
        )
        assert best >= naive_utility(p, b, s) - 1e-12
        assert best >= naive_utility(1.0 - p, 1.0 - b, s) - 1e-12

    def test_equilibrium_full_split(self, example1):
        _, _, beliefs = example1
        result = naive_equilibrium(beliefs)
        assert result.price == 0.4
        assert result.kind is MarketKind.NAIVE
        assert result.profile.sA == (1.0, 0.0, 0.0, 0.0, 1.0)
        assert result.profile.sB == (0.0, 1.0, 1.0, 1.0, 0.0)
        assert result.diagnostics.residual == 0.0

    def test_equilibrium_partial_marginal_agent(self, example2):
        _, _, beliefs = example2
        result = naive_equilibrium(beliefs)
        assert result.price == 0.4  # the marginal agent's belief, exactly
        assert result.profile.sA[0] == 1.0
        # The marginal stake solves (1 + x)/0.4 = 2/0.6; with double inputs
        # the solution sits within one ulp of 1/3.
        assert result.profile.sA[1] == pytest.approx(1.0 / 3.0, abs=2e-16)
        assert result.profile.sB[2:] == (1.0, 1.0)
        assert abs(result.diagnostics.residual) < 1e-12

    def test_equilibrium_pair_balances_on_b_side(self):
        result = naive_equilibrium(BeliefProfile((0.6, 0.6)))
        assert result.price == 0.6
        assert result.profile.sA == (1.0, 0.0)
        assert result.profile.sB[0] == 0.0
        assert result.profile.sB[1] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_single_agent_degenerate(self):
        result = naive_equilibrium(BeliefProfile((0.7,)))
        assert result.diagnostics.degenerate
        assert result.price == 0.7
        assert result.profile.sA == (0.0,) and result.profile.sB == (0.0,)

    def test_ranking_breaks_ties_by_index(self):
        result = naive_equilibrium(BeliefProfile((0.4, 0.8, 0.4, 0.4)))
        # Among the three equal beliefs the lowest index becomes marginal.
        assert result.profile.sA[2] == 0.0
        assert 0.0 < result.profile.sA[0] < 1.0

    @given(belief_lists)
    @settings(max_examples=60, deadline=None)
    def test_equilibrium_is_best_response_consistent(self, b):
        beliefs = BeliefProfile(b)
        result = naive_equilibrium(beliefs)
        p = result.price
        for bi, sa, sb in zip(b, result.profile.sA, result.profile.sB):
            if bi > p:
                assert sa == 1.0 and sb == 0.0
            elif bi < p:
                assert sa == 0.0 and sb == 1.0
        assert abs(security_residual(result.profile, p)) < 1e-9

    @given(belief_lists)
    @settings(max_examples=60, deadline=None)
    def test_quantile_sandwich(self, b):
        # At the clearing price, the count of beliefs strictly above it and
        # at-or-above it sandwich n*p (slack covers float products).
        p = naive_equilibrium(BeliefProfile(b)).price
        n = len(b)
        assert sum(bi > p for bi in b) <= n * p + 1e-9
        assert n * p <= sum(bi >= p for bi in b) + 1e-9

    def test_lattice_beliefs_against_grid_oracle(self):
        for b in lattice_panels(seed=5, per_n=12):
            result = naive_equilibrium(BeliefProfile(b))
            p, n = result.price, len(b)
            for bi, sa, sb in zip(b, result.profile.sA, result.profile.sB):
                if bi > p:
                    assert sa == 1.0 and sb == 0.0, b
                elif bi < p:
                    assert sa == 0.0 and sb == 1.0, b
            assert sum(bi > p for bi in b) <= n * p + 1e-9, b
            assert n * p <= sum(bi >= p for bi in b) + 1e-9, b
            assert abs(security_residual(result.profile, p)) < 1e-9, b
            intervals = grid_equilibrium_search(BeliefProfile(b), MarketKind.NAIVE)
            assert len(intervals) == 1 and intervals[0][0] <= p <= intervals[0][1], (
                b, p, intervals,
            )


class TestKelly:
    def test_utility_minus_infinity_at_full_stake(self):
        assert kelly_utility(0.4, 0.9, 1.0) == float("-inf")

    def test_best_response_gap_formula(self):
        r = kelly_best_response(0.9, 0.4)
        assert r.side == "A"
        assert r.fraction == pytest.approx((0.9 - 0.4) / 0.6, abs=1e-15)

    def test_best_response_mirror(self):
        r = kelly_best_response(0.3, 0.4)
        assert r.side == "B"
        assert r.fraction == pytest.approx((0.4 - 0.3) / 0.4, abs=1e-15)

    def test_no_trade_at_price(self):
        assert kelly_best_response(0.4, 0.4).side is None

    @given(interior, interior, st.floats(min_value=0.0, max_value=0.999))
    def test_best_response_dominates_grid(self, b, p, s):
        r = kelly_best_response(b, p)
        sa, sb = r.as_legs()
        best = max(kelly_utility(p, b, sa), kelly_utility(1.0 - p, 1.0 - b, sb))
        assert best >= kelly_utility(p, b, s) - 1e-9
        assert best >= kelly_utility(1.0 - p, 1.0 - b, s) - 1e-9

    def test_equilibrium_is_mean_belief(self, example1):
        _, _, beliefs = example1
        result = kelly_equilibrium(beliefs)
        assert result.price == 0.52  # fsum of the worked beliefs is exactly 2.6
        assert abs(result.diagnostics.residual) < 1e-12

    def test_equilibrium_tie_case(self, example2):
        _, _, beliefs = example2
        assert kelly_equilibrium(beliefs).price == 0.5

    @given(belief_lists)
    @settings(max_examples=100, deadline=None)
    def test_price_is_arithmetic_mean(self, b):
        result = kelly_equilibrium(BeliefProfile(b))
        assert result.price == pytest.approx(fsum(b) / len(b), abs=1e-15)
        assert abs(security_residual(result.profile, result.price)) < 1e-12

    def test_stakes_are_best_responses_at_the_price(self):
        rng = random.Random(11)
        panels = [random_beliefs(rng, rng.randint(1, 9)).b for _ in range(50)]
        for b in panels + list(lattice_panels(seed=7, per_n=3)):
            result = kelly_equilibrium(BeliefProfile(b))
            for bi, sa, sb in zip(b, result.profile.sA, result.profile.sB):
                assert kelly_best_response(bi, result.price).as_legs() == (sa, sb), b

    def test_all_equal_beliefs_trade_nothing(self):
        result = kelly_equilibrium(BeliefProfile((0.7, 0.7)))
        assert result.diagnostics.degenerate
        assert result.profile.sA == (0.0, 0.0)


class TestTaxFunction:
    def test_zero_at_zero(self):
        assert tax_function(0.0, 0.4, 2.0) == 0.0

    def test_approaches_identity_as_k_vanishes(self):
        for x in (0.1, 0.5, 2.0):
            assert tax_function(x, 0.4, 1e-8) == pytest.approx(x, rel=1e-6)

    def test_monotone_and_concave(self):
        xs = np.linspace(0.0, 3.0, 50)
        ys = [tax_function(x, 0.3, 5.0) for x in xs]
        diffs = np.diff(ys)
        assert np.all(diffs > 0.0)
        assert np.all(np.diff(diffs) < 1e-12)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="positive"):
            tax_function(1.0, 0.4, 0.0)


class TestTaxedBestResponse:
    def test_matches_kelly_for_tiny_k(self):
        r = taxed_best_response(0.9, 0.4, 1e-6)
        assert r.side == "A"
        assert r.fraction == pytest.approx((0.9 - 0.4) / 0.6, abs=1e-5)

    def test_first_order_condition_holds(self):
        r = taxed_best_response(0.8, 0.45, 3.0)
        assert abs(taxed_foc_residual(r.fraction, 0.8, 0.45, 3.0)) < 1e-8

    def test_mirror_symmetry_is_bitwise(self):
        high = taxed_best_response(0.8, 0.45, 3.0)
        low = taxed_best_response(0.2, 0.55, 3.0)
        assert high.side == "A" and low.side == "B"
        assert high.fraction == low.fraction

    def test_no_trade_at_price(self):
        assert taxed_best_response(0.45, 0.45, 3.0).side is None

    def test_heavy_tax_shrinks_stake_like_log_odds(self):
        # At a balanced price, stake * k approaches the belief's log-odds
        # as the tax grows.
        for b in (0.6, 0.7, 0.8, 0.9):
            r = taxed_best_response(b, 0.5, 100.0)
            assert r.fraction * 100.0 == pytest.approx(log(b / (1 - b)), rel=2e-2)

    def test_bracketing_error_when_optimum_exceeds_grid(self):
        with pytest.raises(BracketingError):
            taxed_best_response(1.0 - 1e-13, 0.5, 1e-4)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_dominates_stake_grid(self, b, p, k):
        r = taxed_best_response(b, p, k)
        sa, sb = r.as_legs()
        best = max(taxed_utility(p, b, sa, k), taxed_utility(1.0 - p, 1.0 - b, sb, k))
        for s in np.linspace(0.0, 0.999, 41):
            assert best >= taxed_utility(p, b, float(s), k) - 1e-9
            assert best >= taxed_utility(1.0 - p, 1.0 - b, float(s), k) - 1e-9

    def test_asymptotic_formula(self):
        r = taxed_best_response_asymptotic(0.8, 0.5, 10.0)
        assert r.side == "A"
        assert r.fraction == pytest.approx(log(0.8 / 0.2) / 10.0, abs=1e-15)
        mirrored = taxed_best_response_asymptotic(0.2, 0.5, 10.0)
        assert mirrored.side == "B"
        assert mirrored.fraction == pytest.approx(r.fraction, abs=1e-15)


class TestTaxedUtility:
    def test_minus_infinity_at_full_stake(self):
        assert taxed_utility(0.4, 0.9, 1.0, 2.0) == float("-inf")

    def test_approaches_kelly_as_k_vanishes(self):
        for s in (0.1, 0.4, 0.8):
            assert taxed_utility(0.4, 0.9, s, 1e-9) == pytest.approx(
                kelly_utility(0.4, 0.9, s), abs=1e-6
            )

    def test_tax_always_reduces_utility(self):
        for k in (0.5, 2.0, 10.0):
            assert taxed_utility(0.4, 0.9, 0.5, k) < kelly_utility(0.4, 0.9, 0.5)


class TestTaxedEquilibrium:
    def test_asymptotic_price_is_logistic_mean_log_odds(self, example1, example2):
        _, _, b1 = example1
        _, _, b2 = example2
        assert taxed_equilibrium_asymptotic(b1) == 0.5470831684550894
        assert taxed_equilibrium_asymptotic(b2) == 0.5106170936515774

    def test_asymptotic_balanced_profile_is_half(self):
        assert taxed_equilibrium_asymptotic(BeliefProfile((0.8, 0.2))) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_finite_solver_clears_the_books(self, example1):
        _, _, beliefs = example1
        for k in (0.5, 2.0, 10.0):
            result = taxed_equilibrium_finite(beliefs, k)
            assert abs(result.diagnostics.residual) <= 1e-9
            assert result.diagnostics.iterations > 0
            assert result.diagnostics.inner_iterations > result.diagnostics.iterations
            assert 0.0 <= result.diagnostics.price_bracket_width <= markets.PRICE_TOLERANCE
            assert result.k == k
            assert 0.0 < result.price < 1.0

    def test_finite_price_approaches_kelly_for_tiny_k(self, example1):
        _, _, beliefs = example1
        price = taxed_equilibrium_finite(beliefs, 1e-4).price
        assert abs(price - kelly_equilibrium(beliefs).price) < 1e-3

    def test_stakes_shrink_with_k(self, example1):
        _, _, beliefs = example1
        totals = [
            fsum(taxed_equilibrium_finite(beliefs, k).profile.sA) for k in (1.0, 10.0, 100.0)
        ]
        assert totals[0] > totals[1] > totals[2]

    @given(belief_lists)
    @settings(max_examples=25, deadline=None)
    def test_each_stake_satisfies_first_order_condition(self, b):
        beliefs = BeliefProfile(b)
        result = taxed_equilibrium_finite(beliefs, 5.0)
        p = result.price
        for bi, sa, sb in zip(b, result.profile.sA, result.profile.sB):
            if sa > 0.0:
                assert abs(taxed_foc_residual(sa, bi, p, 5.0)) < 1e-6
            elif sb > 0.0:
                assert abs(taxed_foc_residual(sb, 1.0 - bi, 1.0 - p, 5.0)) < 1e-6

    def test_rejects_nonpositive_k(self, example1):
        _, _, beliefs = example1
        with pytest.raises(ValueError, match="positive"):
            taxed_equilibrium_finite(beliefs, -1.0)

    @pytest.mark.parametrize("k", [float("inf"), float("nan")])
    def test_rejects_non_finite_k(self, example1, k):
        _, _, beliefs = example1
        for call in (
            lambda: taxed_equilibrium_finite(beliefs, k),
            lambda: tax_function(1.0, 0.4, k),
            lambda: taxed_utility(0.4, 0.6, 0.1, k),
            lambda: taxed_best_response(0.6, 0.4, k),
            lambda: taxed_best_response_asymptotic(0.6, 0.4, k),
        ):
            with pytest.raises(ValueError, match="finite positive k"):
                call()


# Beliefs within 1e-12 of 0 or 1, for the hostile-input fuzz.
near_edge = st.floats(min_value=5e-324, max_value=1e-12)
edge_beliefs = st.one_of(near_edge, near_edge.map(lambda x: 1.0 - x)).filter(
    lambda x: 0.0 < x < 1.0
)
hostile_panels = st.one_of(
    st.lists(edge_beliefs, min_size=1, max_size=1),
    st.lists(st.one_of(edge_beliefs, st.floats(1e-6, 1.0 - 1e-6)), min_size=1, max_size=6),
    st.lists(st.one_of(edge_beliefs, st.floats(0.5, 1.0 - 1e-6)), min_size=2, max_size=6).filter(
        lambda panel: all(x > 0.5 for x in panel)
    ),
)


class TestTaxedSolverContract:
    """The taxed solver returns a certified answer or raises; it never returns
    an unconverged one."""

    TAX_RATES = (1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5, 1e7)

    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_default_solve_matches_tight_solve(self, n):
        beliefs = random_beliefs(random.Random(n), n)
        for k in self.TAX_RATES:
            default = taxed_equilibrium_finite(beliefs, k)
            tight = taxed_equilibrium_finite(beliefs, k, price_tol=1e-15, response_tol=1e-15)
            width = tight.diagnostics.price_bracket_width
            assert width <= 1e-15 + markets.ROUNDING_ULPS * tight.price, (k, width)
            assert abs(default.price - tight.price) <= 1e-12, k

    def test_exhausted_newton_steps_raise(self, monkeypatch, example1):
        _, _, beliefs = example1
        monkeypatch.setattr(markets, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(BracketingError, match="Newton steps"):
            taxed_best_response(0.8, 0.45, 3.0)
        with pytest.raises(BracketingError, match="Newton steps"):
            taxed_equilibrium_finite(beliefs, 3.0)

    def test_exhausted_price_probes_raise(self, monkeypatch, example1):
        _, _, beliefs = example1
        monkeypatch.setattr(markets, "MAX_PRICE_PROBES", 1)
        with pytest.raises(BracketingError, match="probes"):
            taxed_equilibrium_finite(beliefs, 3.0)

    @given(hostile_panels, st.floats(min_value=1e-9, max_value=1e7))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_hostile_inputs_converge_or_raise(self, panel, k):
        try:
            result = taxed_equilibrium_finite(BeliefProfile(tuple(panel)), k)
        except (BracketingError, UndefinedPriceError):
            return
        p = result.price
        assert 0.0 < p < 1.0
        assert result.diagnostics.price_bracket_width <= (
            markets.PRICE_TOLERANCE + markets.ROUNDING_ULPS * p
        )
        for b, sa, sb in zip(panel, result.profile.sA, result.profile.sB):
            s, bb, pp = (sa, b, p) if sa > 0.0 else (sb, 1.0 - b, 1.0 - p)
            if s == 0.0:
                continue
            # The first-order condition changes sign across the stake.
            t = 1e-9 * s + 1e-12 * min(1.0, 1.0 / k)
            assert taxed_foc_residual(max(s - t, 0.0), bb, pp, k) >= 0.0
            assert taxed_foc_residual(s + t, bb, pp, k) <= 0.0


class TestFullInvestmentEquivalence:
    def test_worked_pair(self):
        u_full, u_single = full_investment_equivalence(0.7, 0.4)
        assert u_full == pytest.approx(u_single, abs=1e-12)
        assert u_full == pytest.approx(0.7 * log(0.7 / 0.4) + 0.3 * log(0.3 / 0.6), abs=1e-12)

    def test_symmetric_b_side_pair(self):
        u_full, u_single = full_investment_equivalence(0.3, 0.6)
        assert u_full == pytest.approx(u_single, abs=1e-12)
        mirrored_full, _ = full_investment_equivalence(0.7, 0.4)
        assert u_full == pytest.approx(mirrored_full, abs=1e-12)

    def test_no_edge_at_equal_belief_and_price(self):
        u_full, u_single = full_investment_equivalence(0.6, 0.6)
        assert u_full == pytest.approx(0.0, abs=1e-15)
        assert u_single == 0.0

    @given(interior, interior)
    def test_utilities_agree(self, b, p):
        u_full, u_single = full_investment_equivalence(b, p)
        assert isclose(u_full, u_single, rel_tol=0.0, abs_tol=1e-12)


class TestDeterminism:
    def test_solvers_are_reproducible(self):
        rng = random.Random(7)
        for _ in range(5):
            beliefs = random_beliefs(rng, 5)
            first = taxed_equilibrium_finite(beliefs, 3.0)
            second = taxed_equilibrium_finite(beliefs, 3.0)
            assert first == second
            assert naive_equilibrium(beliefs) == naive_equilibrium(beliefs)
            assert kelly_equilibrium(beliefs) == kelly_equilibrium(beliefs)


class TestDecisionConsistency:
    def test_prices_binarize_to_expected_decisions(self, example1):
        _, _, beliefs = example1
        assert naive_equilibrium(beliefs).price < 0.5
        assert kelly_equilibrium(beliefs).price > 0.5
        assert taxed_equilibrium_asymptotic(beliefs) > 0.5
