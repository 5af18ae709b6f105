"""Market solvers: utilities, best responses, and equilibria for all three trader models."""

from __future__ import annotations

import contextlib
import json
import random
import sys
import warnings
from math import copysign, exp, fsum, isclose, isfinite, log
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jurymarkets import markets
from jurymarkets import (
    BeliefProfile,
    BracketingError,
    CompetenceProfile,
    Decision,
    EquilibriumResult,
    GridSpec,
    MarketKind,
    SideInvestment,
    SignalProfile,
    UndefinedPriceError,
    beliefs_from_signals,
    clearing_price,
    decision_from_offset,
    full_investment_equivalence,
    grid_equilibrium_search,
    kelly_best_response,
    kelly_equilibrium,
    kelly_utility,
    market_aggregator,
    naive_best_response,
    naive_equilibrium,
    naive_utility,
    solve_market,
    tax_function,
    taxed_best_response,
    taxed_best_response_asymptotic,
    taxed_equilibrium_asymptotic,
    taxed_equilibrium_finite,
    taxed_foc_residual,
    taxed_utility,
)
from conftest import random_beliefs

# Every belief a profile accepts, from the smallest subnormal to 1 - 2**-53.
VALID_BELIEF = st.floats(min_value=5e-324, max_value=1.0 - 2.0**-53)

interior = st.floats(min_value=0.02, max_value=0.98)
belief_lists = st.lists(
    st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=9
).map(tuple)


def legs(stake: float) -> tuple[float, float]:
    """(stake on A, stake on B) of one signed stake."""
    return (stake, 0.0) if stake > 0.0 else (0.0, abs(stake))


def security_residual(stakes: tuple[float, ...], price: float) -> float:
    on_a = fsum(s for s in stakes if s > 0.0)
    on_b = fsum(-s for s in stakes if s < 0.0)
    return on_a / price - on_b / (1.0 - price)


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


SOLVERS = {
    "naive": naive_equilibrium,
    "kelly": kelly_equilibrium,
    "taxed_k0.1": lambda b: taxed_equilibrium_finite(b, 0.1),
    "taxed_k10": lambda b: taxed_equilibrium_finite(b, 10.0),
    "taxed_k1e5": lambda b: taxed_equilibrium_finite(b, 1e5),
}


class TestSignedStakes:
    """Solvers report one signed stake vector; its split by sign into A- and
    B-stakes, the investment profile, is what prices it."""

    @pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
    def test_profile_is_the_split_of_the_stakes(self, solve):
        rng = random.Random(23)
        panels = [random_beliefs(rng, n).b for n in range(1, 13) for _ in range(4)]
        for panel in panels + list(lattice_panels(seed=29, per_n=3)):
            result = solve(BeliefProfile(panel))
            stakes = result.stakes
            assert type(stakes) is tuple and len(stakes) == len(panel)
            assert all(type(s) is float for s in stakes)
            split = [legs(s) for s in stakes]
            assert markets._side_sums(stakes) == (
                fsum(sa for sa, _ in split), fsum(sb for _, sb in split)
            ), panel
            expected = 0.0 if result.diagnostics.degenerate else security_residual(
                stakes, result.price
            )
            assert result.diagnostics.residual == expected

    def test_result_names_the_bad_stake(self):
        for signed, message in [
            ([0.5, float("nan"), 2.0], r"^stake 1=nan outside \[-1, 1\]$"),
            ([-0.25, 0.0, -1.5], r"^stake 2=-1.5 outside \[-1, 1\]$"),
            ([1.0000000000000002], r"^stake 0=1.0000000000000002 outside \[-1, 1\]$"),
            ([0.1, float("-inf")], r"^stake 1=-inf outside \[-1, 1\]$"),
        ]:
            with pytest.raises(ValueError, match=message):
                markets._result(signed, 0.5, MarketKind.KELLY)

    @pytest.mark.parametrize(
        "stake, side, legs",
        [
            (0.25, "A", (0.25, 0.0)),
            (-0.25, "B", (0.0, 0.25)),
            (1.0, "A", (1.0, 0.0)),
            (-1.0, "B", (0.0, 1.0)),
            (0.0, None, (0.0, 0.0)),
            (-0.0, None, (0.0, 0.0)),
        ],
    )
    def test_side_investment_reads_side_fraction_and_legs(self, stake, side, legs):
        r = SideInvestment(stake)
        assert r.side == side
        assert r.fraction == abs(stake) and copysign(1.0, r.fraction) == 1.0
        sums = markets._side_sums([stake])
        assert sums == legs and all(copysign(1.0, x) == 1.0 for x in sums)
        rebuilt = {"A": r.fraction, "B": -r.fraction, None: 0.0}[r.side]
        assert rebuilt == stake and markets._side_sums([rebuilt]) == legs

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_side_investment_round_trips(self, stake):
        r = SideInvestment(stake)
        sa, sb = markets._side_sums([stake])
        assert sa - sb == stake and (sa == 0.0 or sb == 0.0)
        assert r.fraction == sa + sb
        assert r.side == ("A" if sa > 0.0 else "B" if sb > 0.0 else None)

    def test_result_accepts_full_stakes(self):
        result = markets._result([1.0, -1.0, -0.0, 0.0], 0.5, MarketKind.NAIVE)
        assert result.stakes == (1.0, -1.0, -0.0, 0.0)
        assert markets._side_sums(result.stakes) == (1.0, 1.0)
        assert result.diagnostics.residual == 0.0 and not result.diagnostics.degenerate


class TestClearingPrice:
    """clearing_price reads signed stakes and checks them as _result does."""

    def test_balanced_pair(self):
        assert clearing_price((1.0, -1.0)) == 0.5

    def test_worked_example_split(self):
        assert clearing_price((1.0, -1.0, -1.0, -1.0, 1.0)) == 0.4

    def test_one_sided_book_has_no_price(self):
        for stakes in [(1.0, 1.0), (-0.5, 0.0), (0.0, -0.0)]:
            with pytest.raises(UndefinedPriceError):
                clearing_price(stakes)

    def test_rejects_out_of_range(self):
        for stakes in [(1.5, -1.0), (0.5, -1.0000000000000002)]:
            with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
                clearing_price(stakes)

    @pytest.mark.parametrize("vector", [tuple, lambda xs: np.array(xs, dtype=float)],
                             ids=["tuple", "array"])
    def test_names_the_first_bad_index(self, vector):
        cases = [
            ((0.5, float("nan"), 2.0), ValueError, r"^stake 1=nan outside \[-1, 1\]$"),
            ((0.5, -0.25, -1.5), ValueError, r"^stake 2=-1.5 outside \[-1, 1\]$"),
            ((float("-inf"), 0.5), ValueError, r"^stake 0=-inf outside \[-1, 1\]$"),
            ((), UndefinedPriceError, "^no stake on A-side: clearing ratio undefined$"),
        ]
        for stakes, error, message in cases:
            with pytest.raises(error, match=message):
                clearing_price(vector(stakes))

    def test_reads_any_float_sequence(self):
        for stakes in [
            (1, -1, 0),
            [True, -0.5],
            np.array([0.25, -0.5, 0.0, -0.0]),
            [np.float64(0.25), -0.5],
        ]:
            price = clearing_price(stakes)
            assert type(price) is float
            assert price == clearing_price(tuple(map(float, stakes)))

    @pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
    def test_reprices_solved_stakes(self, solve):
        rng = random.Random(41)
        for n in range(2, 13):
            result = solve(random_beliefs(rng, n))
            if result.diagnostics.degenerate:
                with pytest.raises(UndefinedPriceError):
                    clearing_price(result.stakes)
            else:
                assert abs(clearing_price(result.stakes) - result.price) <= 1e-9


class TestNaive:
    def test_utility_is_expected_wealth(self):
        assert naive_utility(0.4, 0.9, 1.0) == pytest.approx(0.9 * 2.5)
        assert naive_utility(0.4, 0.9, 0.0) == 1.0

    def test_best_response_all_in_above_price(self):
        r = naive_best_response(0.9, 0.4)
        assert r == SideInvestment(1.0)
        assert r.stake == 1.0 and r.side == "A"

    def test_best_response_all_in_below_price(self):
        r = naive_best_response(0.3, 0.4)
        assert r == SideInvestment(-1.0)
        assert r.stake == -1.0 and r.side == "B"

    def test_indifferent_at_price(self):
        assert naive_best_response(0.4, 0.4) is None

    @given(interior, interior)
    @example(b=0.4, p=0.4)
    def test_best_response_is_all_in_or_none(self, b, p):
        r = naive_best_response(b, p)
        if b == p:
            assert r is None
        else:
            assert r.stake == (1.0 if b > p else -1.0)

    @given(interior, interior, st.floats(min_value=0.0, max_value=1.0))
    def test_best_response_dominates_grid(self, b, p, s):
        r = naive_best_response(b, p)
        if r is None:
            return
        sa, sb = legs(r.stake)
        best = max(naive_utility(p, b, sa), naive_utility(1.0 - p, 1.0 - b, sb))
        assert best >= naive_utility(p, b, s) - 1e-12
        assert best >= naive_utility(1.0 - p, 1.0 - b, s) - 1e-12

    def test_equilibrium_full_split(self, example1):
        _, _, beliefs = example1
        result = naive_equilibrium(beliefs)
        assert result.price == 0.4
        assert result.kind is MarketKind.NAIVE
        assert result.stakes == (1.0, -1.0, -1.0, -1.0, 1.0)
        assert result.diagnostics.residual == 0.0

    def test_equilibrium_partial_marginal_agent(self, example2):
        _, _, beliefs = example2
        result = naive_equilibrium(beliefs)
        assert result.price == 0.4  # the marginal agent's belief, exactly
        assert result.stakes[0] == 1.0
        # The marginal stake solves (1 + x)/0.4 = 2/0.6; with double inputs
        # the solution sits within one ulp of 1/3.
        assert result.stakes[1] == pytest.approx(1.0 / 3.0, abs=2e-16)
        assert result.stakes[2:] == (-1.0, -1.0)
        assert abs(result.diagnostics.residual) < 1e-12

    def test_equilibrium_pair_balances_on_b_side(self):
        result = naive_equilibrium(BeliefProfile((0.6, 0.6)))
        assert result.price == 0.6
        assert result.stakes[0] == 1.0
        assert result.stakes[1] == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_single_agent_degenerate(self):
        result = naive_equilibrium(BeliefProfile((0.7,)))
        assert result.diagnostics.degenerate
        assert result.price == 0.7
        assert result.stakes == (0.0,)

    def test_ranking_breaks_ties_by_index(self):
        result = naive_equilibrium(BeliefProfile((0.4, 0.8, 0.4, 0.4)))
        # Among the three equal beliefs the lowest index becomes marginal.
        assert result.stakes[2] <= 0.0
        assert 0.0 < result.stakes[0] < 1.0

    @given(belief_lists)
    @settings(max_examples=60, deadline=None)
    def test_equilibrium_is_best_response_consistent(self, b):
        beliefs = BeliefProfile(b)
        result = naive_equilibrium(beliefs)
        p = result.price
        for bi, (sa, sb) in zip(b, map(legs, result.stakes)):
            if bi > p:
                assert sa == 1.0 and sb == 0.0
            elif bi < p:
                assert sa == 0.0 and sb == 1.0
        assert abs(security_residual(result.stakes, p)) < 1e-9

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
            for bi, (sa, sb) in zip(b, map(legs, result.stakes)):
                if bi > p:
                    assert sa == 1.0 and sb == 0.0, b
                elif bi < p:
                    assert sa == 0.0 and sb == 1.0, b
            assert sum(bi > p for bi in b) <= n * p + 1e-9, b
            assert n * p <= sum(bi >= p for bi in b) + 1e-9, b
            assert abs(security_residual(result.stakes, p)) < 1e-9, b
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
        sa, sb = legs(r.stake)
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
        assert abs(security_residual(result.stakes, result.price)) < 1e-12

    def test_stakes_are_best_responses_at_the_price(self):
        rng = random.Random(11)
        panels = [random_beliefs(rng, rng.randint(1, 9)).b for _ in range(50)]
        for b in panels + list(lattice_panels(seed=7, per_n=3)):
            result = kelly_equilibrium(BeliefProfile(b))
            for bi, s in zip(b, result.stakes):
                assert kelly_best_response(bi, result.price).stake == s, b

    def test_all_equal_beliefs_trade_nothing(self):
        result = kelly_equilibrium(BeliefProfile((0.7, 0.7)))
        assert result.diagnostics.degenerate
        assert result.stakes == (0.0, 0.0)


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
        # Mirrored, a belief of 1e-20 is 1 in floating point, so its B-stake
        # optimum, about 1 - 2e-20, lies past the largest double below 1.
        with pytest.raises(BracketingError):
            taxed_best_response(1e-20, 0.5, 1e-4)

    @pytest.mark.parametrize(
        "q, k",
        [
            (1.0 - 1e-10, 1e-3),
            (1.0 - 1e-10, 1.0),
            (1.0 - 1e-14, 10.0),
            (1.0 - 2.0**-53, 1e-6),
            (1.0 - 2.0**-53, 1e-3),
            (1.0 - 2.0**-53, 10.0),
        ],
    )
    def test_competence_near_one_is_priced(self, q, k):
        # Each of these optima lies within 1e-9 of staking everything.
        beliefs = np.array([q, 0.6, 0.7])
        stakes, _ = markets._taxed_stakes_signed(beliefs, 0.5, k)
        assert stakes[0] > 1.0 - 1e-9
        for b, s in zip(beliefs.tolist(), stakes.tolist()):
            assert 0.0 < s < 1.0
            assert taxed_best_response(b, 0.5, k).stake == s
            # The first-order condition changes sign across the stake; the
            # optimum lies below 1, so an upper end at or past 1 bounds it.
            t = 1e-9 * s + 1e-12 * min(1.0, 1.0 / k)
            assert taxed_foc_residual(s - t, b, 0.5, k) >= 0.0
            assert s + t >= 1.0 or taxed_foc_residual(s + t, b, 0.5, k) <= 0.0
        weights = markets.taxed_half_price_weights(beliefs, k)
        assert np.isfinite(weights).all() and (weights > 0.0).all()

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_dominates_stake_grid(self, b, p, k):
        r = taxed_best_response(b, p, k)
        sa, sb = legs(r.stake)
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
        assert taxed_best_response_asymptotic(0.8, 0.8, 10.0).stake == 0.0


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

    @given(st.lists(VALID_BELIEF, min_size=1, max_size=8), VALID_BELIEF)
    @example([5e-324], 0.5)
    @example([0.5], 1e-310)
    @example([5e-324] + [1.0 - 2.0**-53] * 20, 0.5)
    def test_asymptotic_limits_stay_finite(self, beliefs, p):
        # The one-log forms below overflow for beliefs or prices near 0;
        # where they do not, the limits keep their bits.
        def one_log_ratio(b: float, p: float) -> float:
            if b > p:
                return log((1.0 - p) / p * b / (1.0 - b))
            return -log(p / (1.0 - p) * (1.0 - b) / b) if b < p else 0.0

        price = taxed_equilibrium_asymptotic(BeliefProfile(beliefs))
        assert 0.0 < price < 1.0
        mean_log_odds = fsum(log(b / (1.0 - b)) for b in beliefs) / len(beliefs)
        with contextlib.suppress(OverflowError):  # exp overflows when every belief is near 0
            assert price == 1.0 / (1.0 + exp(-mean_log_odds))
        for q in (price, p):
            stakes = [taxed_best_response_asymptotic(b, q, 1.0).stake for b in beliefs]
            assert stakes == markets._asymptotic_log_ratios(beliefs, q)
            for b, stake in zip(beliefs, stakes):
                assert isfinite(stake)
                if isfinite(one_log_ratio(b, q)):
                    assert stake == one_log_ratio(b, q)

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

    @staticmethod
    def quantity_limit_price(b: tuple[float, ...]) -> float:
        """The finite solver's k -> inf price, by bisection: at large k each
        stake is (L_i - L_p)/k in log-odds L, so the books clear where
        (1-p)·Σ_{L_i>L_p} (L_i - L_p) = p·Σ_{L_i<L_p} (L_p - L_i)."""
        logits = [log(x / (1.0 - x)) for x in b]

        def excess(p: float) -> float:
            lp = log(p / (1.0 - p))
            above = fsum(max(x - lp, 0.0) for x in logits)
            return (1.0 - p) * above - p * fsum(max(lp - x, 0.0) for x in logits)

        lo, hi = min(b), max(b)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
        return mid

    def test_finite_price_converges_to_its_quantity_limit(self):
        # Criterion 6's profiles.  Its closed-form k -> inf price balances stake
        # log-odds, a different limit; against the solver's own limit the gap
        # shrinks with k.
        rng = np.random.default_rng(600)
        for _ in range(50):
            b = tuple(float(x) for x in rng.uniform(0.05, 0.95, int(rng.integers(2, 7))))
            limit = self.quantity_limit_price(b)
            gaps = [
                abs(taxed_equilibrium_finite(BeliefProfile(b), k).price - limit)
                for k in (10.0, 100.0, 1000.0)
            ]
            assert gaps[0] >= gaps[1] >= gaps[2], (b, gaps)
            assert gaps[2] < 2e-4, (b, gaps)

    def test_stakes_shrink_with_k(self, example1):
        _, _, beliefs = example1
        totals = [
            markets._side_sums(taxed_equilibrium_finite(beliefs, k).stakes)[0]
            for k in (1.0, 10.0, 100.0)
        ]
        assert totals[0] > totals[1] > totals[2]

    @given(belief_lists)
    @settings(max_examples=25, deadline=None)
    def test_each_stake_satisfies_first_order_condition(self, b):
        beliefs = BeliefProfile(b)
        result = taxed_equilibrium_finite(beliefs, 5.0)
        p = result.price
        for bi, (sa, sb) in zip(b, map(legs, result.stakes)):
            if sa > 0.0:
                assert abs(taxed_foc_residual(sa, bi, p, 5.0)) < 1e-6
            elif sb > 0.0:
                assert abs(taxed_foc_residual(sb, 1.0 - bi, 1.0 - p, 5.0)) < 1e-6

    def test_rejects_nonpositive_k(self, example1):
        _, _, beliefs = example1
        for k in (-1.0, 0.0):
            for call in self.taxed_entry_points(beliefs, k):
                with pytest.raises(ValueError, match="positive"):
                    call()

    @staticmethod
    def taxed_entry_points(beliefs, k):
        return (
            lambda: taxed_equilibrium_finite(beliefs, k),
            lambda: tax_function(1.0, 0.4, k),
            lambda: taxed_utility(0.4, 0.6, 0.1, k),
            lambda: taxed_best_response(0.6, 0.4, k),
            lambda: taxed_best_response_asymptotic(0.6, 0.4, k),
            lambda: taxed_foc_residual(0.1, 0.7, 0.5, k),
            lambda: solve_market(beliefs, MarketKind.TAXED_FINITE, k),
            lambda: market_aggregator(MarketKind.TAXED_FINITE, k),
            # The brute-force oracle keeps its own check, with the same range.
            lambda: grid_equilibrium_search(
                beliefs, MarketKind.TAXED_FINITE, k, GridSpec(101, 101)
            ),
        )

    @pytest.mark.parametrize(
        "k", [float("inf"), float("nan"), pytest.param(10**400, id="int_1e400")]
    )
    def test_rejects_non_finite_k(self, example1, k):
        _, _, beliefs = example1
        for call in self.taxed_entry_points(beliefs, k):
            with pytest.raises(ValueError, match="finite positive k"):
                call()

    @pytest.mark.parametrize("k", [5e-324, 1e-310])
    def test_rejects_subnormal_k(self, example1, k):
        # Below the smallest normal float, k * b loses the belief's digits.
        _, _, beliefs = example1
        for call in self.taxed_entry_points(beliefs, k):
            with pytest.raises(ValueError, match="finite positive k >= 2.2250738585072014e-308"):
                call()

    def test_accepts_the_smallest_normal_k(self, example1):
        _, _, beliefs = example1
        k = sys.float_info.min
        assert k == 2.2250738585072014e-308
        for call in self.taxed_entry_points(beliefs, k):
            call()
        # So tiny a tax leaves the Kelly market.
        result = taxed_equilibrium_finite(beliefs, k)
        kelly = kelly_equilibrium(beliefs)
        assert abs(result.price - kelly.price) <= 1e-12
        assert max(abs(s - t) for s, t in zip(result.stakes, kelly.stakes)) <= 1e-12


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
    # Excess demands and their slopes shrink like 1/k, and past k of about
    # 1e154 the stake solver's Newton slope overflows.
    HUGE_TAX_RATES = (1e106, 1e150, 1e300)

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

    @staticmethod
    def assert_certified_or_raised(panel: list[float], k: float):
        """The certified result, or None when the solver raised a typed error."""
        try:
            result = taxed_equilibrium_finite(BeliefProfile(tuple(panel)), k)
        except (BracketingError, UndefinedPriceError):
            return None
        p = result.price
        assert 0.0 < p < 1.0
        assert result.diagnostics.price_bracket_width <= (
            markets.PRICE_TOLERANCE + markets.ROUNDING_ULPS * p
        )
        for b, (sa, sb) in zip(panel, map(legs, result.stakes)):
            s, bb, pp = (sa, b, p) if sa > 0.0 else (sb, 1.0 - b, 1.0 - p)
            if s == 0.0:
                continue
            # The first-order condition changes sign across the stake.  The
            # optimum lies below 1, so an upper end at or past 1 bounds it.
            t = 1e-9 * s + 1e-12 * min(1.0, 1.0 / k)
            assert taxed_foc_residual(max(s - t, 0.0), bb, pp, k) >= 0.0
            assert s + t >= 1.0 or taxed_foc_residual(s + t, bb, pp, k) <= 0.0
        return result

    @given(hostile_panels, st.floats(min_value=1e-9, max_value=1e7))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_hostile_inputs_converge_or_raise(self, panel, k):
        self.assert_certified_or_raised(panel, k)

    @given(
        hostile_panels,
        st.integers(min_value=1_000, max_value=100_000),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1e-9, max_value=1e7),
    )
    @example(hostile=[1e-12, 1.0 - 1e-12], n=100_000, seed=0, k=1e7)
    @example(hostile=[0.5 + 1e-16], n=100_000, seed=1, k=1e-9)
    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_large_hostile_panels_converge_or_raise(self, hostile, n, seed, k):
        # Hostile beliefs scattered through n = 1e3..1e5 ordinary ones.
        rng = np.random.default_rng(seed)
        panel = rng.uniform(1e-6, 1.0 - 1e-6, n)
        panel[rng.choice(n, len(hostile), replace=False)] = hostile
        self.assert_certified_or_raised(panel.tolist(), k)

    def test_overflowing_tax_scale_raises_at_once(self, example1):
        # At k = 1e308, a = k p/(1-p) overflows at the probes above p of about
        # 0.64, where a lone agent believing 0.8 stakes on A.  Such a probe
        # cannot certify, so it raises before any Newton step.
        with pytest.raises(BracketingError, match=r"k p/\(1-p\) overflows at p=.*, k=1e\+308"):
            taxed_equilibrium_finite(BeliefProfile((0.8,)), 1e308)
        _, _, beliefs = example1
        result = self.assert_certified_or_raised(list(beliefs.b), 1e308)
        assert result is not None and result.price > 0.5

    @pytest.mark.xfail(strict=True, raises=BracketingError, reason="ROADMAP item P")
    @pytest.mark.parametrize(
        "beliefs, k",
        [(b, k) for b in ((1e-20, 0.9), (1e-17, 0.6, 0.7), (0.3, 1e-300)) for k in (1e-3, 10.0)],
    )
    def test_every_valid_panel_prices(self, beliefs, k):
        # A B-staker's mirrored belief 1 - b rounds to 1, so the stake
        # bracket's top shows no sign change.
        result = taxed_equilibrium_finite(BeliefProfile(beliefs), k)
        assert all(-1.0 <= s <= 1.0 for s in result.stakes)

    @pytest.mark.parametrize("k", [1e-6, 1.0, 10.0, 1e3])
    def test_competences_near_one_price(self, k):
        # The price lies past 1 - 1e-9, where a fixed price bracket would end.
        beliefs = [1.0 - 1e-10, 1.0 - 1e-11, 1.0 - 1e-12]
        result = self.assert_certified_or_raised(beliefs, k)
        assert result is not None
        assert beliefs[0] < result.price < beliefs[-1]

    @pytest.mark.parametrize("k", HUGE_TAX_RATES)
    def test_huge_k_solves_ordinary_panels(self, k):
        rng = random.Random(31)
        panels = [random_beliefs(rng, n).b for n in range(1, 13) for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for panel in panels + list(lattice_panels(seed=37, per_n=1)):
                result = self.assert_certified_or_raised(panel, k)
                assert result is not None, panel
                assert result.diagnostics.iterations <= 30, (panel, result.diagnostics)

    @given(hostile_panels, st.sampled_from(HUGE_TAX_RATES))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_huge_k_hostile_inputs_converge_or_raise(self, panel, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_certified_or_raised(panel, k)


class TestTaxedPriceSearch:
    """The price search's work, counted, and the slope its Newton steps read."""

    TAX_RATES = (0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)

    @staticmethod
    def panels(n: int, count: int) -> list[BeliefProfile]:
        rng = random.Random(f"price search n={n}")
        return [BeliefProfile(tuple(rng.uniform(0.02, 0.98) for _ in range(n)))
                for _ in range(count)]

    def test_probes_and_newton_steps_per_solve(self):
        # Counts of work, the same on every host: every probe, the first at
        # the Kelly price included, and the stake solver's Newton steps.
        small = [taxed_equilibrium_finite(b, k).diagnostics
                 for b in self.panels(10, 20) for k in self.TAX_RATES]
        large = [taxed_equilibrium_finite(b, 10.0).diagnostics for b in self.panels(1000, 4)]
        for solves in (small, large):
            probes = [d.iterations for d in solves]
            assert fsum(probes) / len(probes) <= 5.0 and max(probes) <= 8, probes
        assert fsum(d.inner_iterations for d in small) / len(small) <= 20.0

    def test_a_bracket_of_one_double_raises_at_once(self, monkeypatch):
        # At 5e-324 the bracket [min b, max b] is one double and no step
        # moves the probe off it; at 1e-323 there is room to solve.
        probes = 0
        solve_stakes = markets._taxed_stakes_signed

        def counted(*args, **kwargs):
            nonlocal probes
            probes += 1
            return solve_stakes(*args, **kwargs)

        monkeypatch.setattr(markets, "_taxed_stakes_signed", counted)
        for beliefs in ((5e-324,), (5e-324,) * 3):
            probes = 0
            with pytest.raises(BracketingError, match="cannot move"):
                taxed_equilibrium_finite(BeliefProfile(beliefs), 1.0)
            assert probes <= 3, (beliefs, probes)
        probes = 0
        result = taxed_equilibrium_finite(BeliefProfile((1e-323,)), 1.0)
        assert probes == result.diagnostics.iterations == 2

    def test_price_slope_matches_a_central_difference(self):
        rng = random.Random(29)

        def stake(b: float, p: float, k: float) -> float:
            return float(markets._taxed_stakes_signed(np.array([b]), p, k, 1e-15)[0][0])

        def g(b: float, p: float, k: float) -> float:
            s = stake(b, p, k)
            return (1.0 - p) * s if s > 0.0 else p * s

        for _ in range(300):
            b, p = rng.uniform(1e-3, 1.0 - 1e-3), rng.uniform(1e-3, 1.0 - 1e-3)
            if abs(b - p) < 1e-3:
                continue
            k = 10.0 ** rng.uniform(-6.0, 7.0)
            h = 1e-4 * min(p, 1.0 - p, abs(b - p))
            numeric = (g(b, p - h, k) - g(b, p + h, k)) / (2.0 * h)
            bb, pp = (b, p) if b > p else (1.0 - b, 1.0 - p)
            implicit = markets._price_slopes(abs(stake(b, p, k)), bb, pp, k)
            assert implicit == pytest.approx(numeric, rel=1e-6), (b, p, k)

    def test_half_price_weights_keep_their_own_slope_bits(self):
        # S = -G'(1/2) read from _price_slopes, against its closed form at 1/2.
        q = np.concatenate([np.linspace(0.5 + 1e-9, 1.0 - 2.0**-53, 50),
                            1.0 - np.logspace(-16.0, -0.31, 50)])
        for k in np.logspace(-6.0, 300.0, 154):
            w = markets._taxed_stakes_signed(q, 0.5, k)[0]
            terms = w + 2.0 * (1.0 - q) * np.exp(k * w) / (k * q * (1.0 - w) + 1.0)
            slope = fsum(terms.tolist())
            assert np.array_equal(markets.taxed_half_price_weights(q, k), w * (q.size / slope)), k


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


class TestBestResponseMonotonicity:
    """A-stakes never rise with the price and B-stakes never fall, the premise
    of deciding each market by its stakes at price 1/2."""

    PRICES = np.linspace(0.005, 0.995, 199).tolist()

    @staticmethod
    def assert_monotone(legs: list[tuple[float, float]], rel: float = 0.0) -> None:
        a, b = np.array(legs).T
        assert (np.diff(a) <= rel * a[:-1]).all(), a
        assert (np.diff(b) >= -rel * b[1:]).all(), b

    def test_on_price_grids(self):
        rng = random.Random(13)
        for _ in range(40):
            belief, k = rng.uniform(0.02, 0.98), 10.0 ** rng.uniform(-6.0, 7.0)
            naive = [naive_best_response(belief, p) for p in self.PRICES if p != belief]
            self.assert_monotone([legs(r.stake) for r in naive])
            self.assert_monotone([legs(kelly_best_response(belief, p).stake) for p in self.PRICES])
            self.assert_monotone(
                [legs(taxed_best_response(belief, p, k).stake) for p in self.PRICES],
                rel=markets.RESPONSE_TOLERANCE,
            )


DECISION_CODES = {Decision.A: 1, Decision.B: -1, Decision.TIE: 0}

# Competence panels with signals whose markets clear at or next to 1/2.
NEAR_TIES = [
    ((0.7, 0.7), "AB"),
    ((0.6, 0.9, 0.6, 0.9), "ABBA"),
    ((2 / 3, 2 / 3, 0.8), "AAB"),
    ((0.9, 0.5000000000001, 0.9), "AAB"),
    ((0.6 + 4e-12, 0.6, 0.7, 0.7), "ABAB"),
    ((0.55,) * 6, "AAABBB"),
]


def half_price_panels(seed: int):
    """(competences, signals): random, from the belief lattices, and near ties."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 11)
        yield (
            tuple(rng.uniform(0.51, 0.99) for _ in range(n)),
            "".join(rng.choice("AB") for _ in range(n)),
        )
    for b in lattice_panels(seed, per_n=2):
        if 0.5 not in b:
            yield tuple(max(x, 1.0 - x) for x in b), "".join("A" if x > 0.5 else "B" for x in b)
    for _ in range(4):
        yield from NEAR_TIES


def solved_offset(q: tuple[float, ...], y: str, kind: MarketKind, k: float) -> float:
    beliefs = beliefs_from_signals(CompetenceProfile(q), SignalProfile(tuple(y)))
    return solve_market(beliefs, kind, k).offset


class TestHalfPriceDecisions:
    """Every market decides as the weighted majority of its stakes at 1/2."""

    @pytest.mark.parametrize("kind", list(MarketKind))
    def test_half_price_decision_is_the_solved_decision(self, kind):
        rng = random.Random(17)
        for q, y in half_price_panels(seed=3):
            k = 10.0 ** rng.uniform(-6.0, 7.0)
            agg = market_aggregator(kind, k if kind is MarketKind.TAXED_FINITE else None)
            decided = agg.decide(CompetenceProfile(q), np.array([[s == "A" for s in y]]))
            solved = decision_from_offset(solved_offset(q, y, kind, k))
            assert int(decided[0]) == DECISION_CODES[solved], (q, y, k)

    def test_scaled_taxed_margin_is_n_times_the_price_offset(self):
        rng = random.Random(19)
        panels = list(half_price_panels(seed=4))
        for _ in range(40):  # mirrored pairs, one competence nudged
            pairs = [rng.uniform(0.51, 0.99) for _ in range(rng.randint(1, 5))]
            nudged = pairs[0] + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -3.0)
            panels.append(((nudged, *pairs[1:], *pairs), "A" * len(pairs) + "B" * len(pairs)))
        checked = 0
        for q, y in panels:
            k = 10.0 ** rng.uniform(-6.0, 7.0)
            offset = solved_offset(q, y, MarketKind.TAXED_FINITE, k)
            if abs(offset) >= 0.02:
                continue
            w = markets.taxed_half_price_weights(np.array(q), k)
            margin = fsum(w[np.array([s == "A" for s in y])].tolist()) - 0.5 * fsum(w.tolist())
            # n * PRICE_TOLERANCE is how far the solved offset itself may be off.
            assert abs(margin - offset) <= 1e-3 * abs(offset) + len(q) * markets.PRICE_TOLERANCE, (
                q, y, k, margin, offset,
            )
            checked += 1
        assert checked >= 50


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestResultOffset:
    """solve_market returns a result for every kind, whose offset reads its decision."""

    @staticmethod
    def documented_offset(kind: MarketKind, price: float, n: int) -> float:
        if kind is MarketKind.NAIVE:
            return float(np.sign(price - 0.5))
        if kind is MarketKind.TAXED_ASYMPTOTIC:
            return (n / 2) * log(price / (1.0 - price))
        return n * (price - 0.5)

    @pytest.mark.parametrize("kind", list(MarketKind))
    def test_offset_is_the_documented_rule(self, kind):
        rng = random.Random(43)
        for q, y in half_price_panels(seed=5):
            k = 10.0 ** rng.uniform(-6.0, 7.0) if kind is MarketKind.TAXED_FINITE else None
            beliefs = beliefs_from_signals(CompetenceProfile(q), SignalProfile(tuple(y)))
            result = solve_market(beliefs, kind, k)
            assert type(result) is EquilibriumResult and result.kind is kind
            assert len(result.stakes) == len(q)
            expected = self.documented_offset(kind, result.price, len(q))
            assert type(result.offset) is float
            assert result.offset == expected and copysign(1.0, result.offset) == copysign(
                1.0, expected
            ), (q, y, k)

    def test_asymptotic_result_matches_the_golden(self, example1):
        _, _, beliefs = example1
        golden = json.loads((GOLDEN / "solve_example1_taxed_asymptotic.json").read_text())
        result = solve_market(beliefs, MarketKind.TAXED_ASYMPTOTIC, None)
        assert result.stakes == (0.0,) * beliefs.n
        assert result.price == golden["price"] == taxed_equilibrium_asymptotic(beliefs)
        assert result.k is golden["k"] is None
        assert result.diagnostics == markets.Diagnostics()
        assert result.diagnostics.residual == golden["clearing_residual"]
        assert result.diagnostics.iterations == golden["iterations"]
        assert result.diagnostics.degenerate is golden["degenerate"] is False
        assert str(decision_from_offset(result.offset)) == golden["decision"]
        for agent, s in zip(golden["agents"], result.stakes):
            assert (agent["side"], agent["fraction"], agent["sA"], agent["sB"]) == (
                None, s, s, s,
            )


DYADIC = (0.125, 0.25, 0.375, 0.625, 0.75, 0.875)
FINITE_KS = (1e-6, 10.0, 1e7)


def price_only_panels():
    """Seeded, one-agent, tied and dyadic, and near-0/1 belief panels."""
    rng = random.Random(20)
    for n in range(1, 13):
        for _ in range(3):
            yield random_beliefs(rng, n).b
    yield from ((0.5,), (0.125,), (0.875,), (1e-13,), (1.0 - 1e-13,))
    for n in range(2, 11):
        for _ in range(4):
            yield tuple(rng.choice(DYADIC) for _ in range(n))
    yield from ((0.75,) * 4, (0.25,) * 3, (0.625, 0.625, 0.375, 0.375), DYADIC, DYADIC[::-1])
    yield from lattice_panels(seed=20, per_n=2)
    yield from ((1e-13, 0.9), (5e-13, 0.3, 0.8), (1.0 - 1e-13, 0.2), (1.0 - 5e-13, 0.7, 0.1),
                (1e-12, 1.0 - 1e-12), (1e-13, 1e-13, 1.0 - 1e-13))


class TestPriceWithoutStakes:
    """market_price and price_offset give solve_market's price and offset bits."""

    @pytest.mark.parametrize(
        "kind, k",
        [(kind, None) for kind in MarketKind if kind is not MarketKind.TAXED_FINITE]
        + [(MarketKind.TAXED_FINITE, k) for k in FINITE_KS],
    )
    def test_price_and_offset_are_the_solved_bits(self, kind, k):
        raised = 0
        for beliefs in price_only_panels():
            b = BeliefProfile(beliefs)
            try:
                result = solve_market(b, kind, k)
            except (BracketingError, UndefinedPriceError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    markets.market_price(b, kind, k)
                raised += 1
                continue
            price = markets.market_price(b, kind, k)
            assert type(price) is float and price.hex() == result.price.hex(), (beliefs, k)
            offset = markets.price_offset(kind, price, b.n)
            assert type(offset) is float and offset.hex() == result.offset.hex(), (beliefs, k)
        assert raised == 0 or kind is MarketKind.TAXED_FINITE

    @pytest.mark.parametrize(
        "beliefs, k", [((1e-20, 0.9), 10.0), ((0.3, 1e-300), 1e-3), ((0.6, 0.7), None)]
    )
    def test_a_finite_solve_that_raises_raises_the_same(self, beliefs, k):
        b = BeliefProfile(beliefs)
        with pytest.raises(Exception) as solved:
            solve_market(b, MarketKind.TAXED_FINITE, k)
        with pytest.raises(solved.type):
            markets.market_price(b, MarketKind.TAXED_FINITE, k)

    def test_naive_split_price_puts_every_agent_all_in(self):
        # The crossing counts a rank whose belief equals its split (j+1)/n, so
        # a price on a split i/n is a full split, never a marginal agent's.
        splits = 0
        for beliefs in price_only_panels():
            n = len(beliefs)
            result = naive_equilibrium(BeliefProfile(beliefs))
            if any(result.price == i / n for i in range(1, n)):
                splits += 1
                assert set(result.stakes) <= {1.0, -1.0}, beliefs
        assert splits >= 20


class TestKindIsAMarketKind:
    """A kind that is not a MarketKind, such as its value's string, is named, not
    priced as the last kind each function handles."""

    BELIEFS = BeliefProfile((0.9, 0.3, 0.4))

    def test_solve_market(self):
        with pytest.raises(ValueError, match="market kind 'naive' is not a MarketKind"):
            solve_market(self.BELIEFS, "naive", None)

    def test_market_price(self):
        with pytest.raises(ValueError, match="market kind 'naive' is not a MarketKind"):
            markets.market_price(self.BELIEFS, "naive", None)

    def test_price_offset(self):
        with pytest.raises(ValueError, match="market kind 'naive' is not a MarketKind"):
            markets.price_offset("naive", 0.4, 3)
