"""Grid-search and enumeration oracles versus the closed-form solvers."""

from __future__ import annotations

import random
from math import inf, nan

import numpy as np
import pytest

from jurymarkets import (
    BeliefProfile,
    CompetenceProfile,
    Decision,
    GridSpec,
    MarketKind,
    SignalProfile,
    beliefs_from_signals,
    decision_from_offset,
    exact_accuracy,
    exhaustive_accuracy_oracle,
    exhaustive_state_conditional_accuracies,
    grid_equilibrium_search,
    kelly_equilibrium,
    majority_aggregator,
    market_aggregator,
    naive_equilibrium,
    solve_market,
    taxed_equilibrium_finite,
)
from tests.conftest import random_beliefs, random_competences

COARSE = GridSpec(resolution=2_001, strategy_resolution=501)


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.resolution == 10_001
        assert spec.strategy_resolution == 1_001
        assert spec.tolerance == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution": 2},
            {"strategy_resolution": 1},
            {"tolerance": 0.0},
            {"tolerance": -1e-9},
        ],
    )
    def test_rejects_degenerate_specs(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestNaiveGrid:
    def test_worked_example_single_candidate(self, example1):
        _, _, beliefs = example1
        intervals = grid_equilibrium_search(beliefs, MarketKind.NAIVE)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo <= 0.4 <= hi

    def test_second_example_single_candidate(self, example2):
        _, _, beliefs = example2
        intervals = grid_equilibrium_search(beliefs, MarketKind.NAIVE)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo <= 0.4 <= hi

    def test_identical_pair_clears_at_shared_belief(self):
        intervals = grid_equilibrium_search(BeliefProfile((0.6, 0.6)), MarketKind.NAIVE)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo <= 0.6 <= hi

    def test_uniqueness_and_containment_random_sweep(self):
        rng = random.Random(2024)
        step = 1.0 / (GridSpec().resolution - 1)
        for _ in range(200):
            beliefs = random_beliefs(rng, rng.randint(2, 6))
            price = naive_equilibrium(beliefs).price
            intervals = grid_equilibrium_search(beliefs, MarketKind.NAIVE)
            assert len(intervals) == 1, (beliefs, intervals)
            lo, hi = intervals[0]
            assert lo <= price <= hi, (beliefs, price, intervals)
            assert hi - lo < 3 * step


class TestLogUtilityGrids:
    def test_kelly_worked_example(self, example1):
        _, _, beliefs = example1
        intervals = grid_equilibrium_search(beliefs, MarketKind.KELLY)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo <= 0.52 <= hi

    def test_kelly_identical_pair(self):
        intervals = grid_equilibrium_search(BeliefProfile((0.6, 0.6)), MarketKind.KELLY)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo <= 0.6 <= hi

    def test_kelly_containment_random_sweep(self):
        rng = random.Random(11)
        for _ in range(15):
            beliefs = random_beliefs(rng, rng.randint(2, 6))
            price = kelly_equilibrium(beliefs).price
            intervals = grid_equilibrium_search(beliefs, MarketKind.KELLY, grid=COARSE)
            assert any(lo <= price <= hi for lo, hi in intervals), (beliefs, price, intervals)
            assert len(intervals) == 1

    def test_taxed_containment(self, example1):
        _, _, beliefs = example1
        for k in (1.0, 10.0):
            price = taxed_equilibrium_finite(beliefs, k).price
            intervals = grid_equilibrium_search(
                beliefs, MarketKind.TAXED_FINITE, k=k, grid=COARSE
            )
            assert any(lo <= price <= hi for lo, hi in intervals), (k, price, intervals)

    @pytest.mark.parametrize("k", [None, 0.0, -1.0, nan, inf, 5e-324, 1e-310])
    def test_taxed_needs_k(self, example1, k):
        _, _, beliefs = example1
        with pytest.raises(ValueError, match="k"):
            grid_equilibrium_search(beliefs, MarketKind.TAXED_FINITE, k=k)

    def test_asymptotic_kind_rejected(self, example1):
        _, _, beliefs = example1
        with pytest.raises(ValueError, match="asymptotic"):
            grid_equilibrium_search(beliefs, MarketKind.TAXED_ASYMPTOTIC)


class TestGridLimits:
    def test_agent_cap(self):
        beliefs = BeliefProfile((0.6,) * 9)
        with pytest.raises(ValueError, match="up to 8 agents"):
            grid_equilibrium_search(beliefs, MarketKind.NAIVE)


DECISION_CODES = {1: Decision.A, -1: Decision.B, 0: Decision.TIE}


def scalar_decider(agg, q: CompetenceProfile):
    """A batch rule deciding one profile at a time, as a one-row signal matrix."""
    return lambda y: DECISION_CODES[int(agg.decide(q, np.array([[s == "A" for s in y]]))[0])]


def solved_market_decider(q: CompetenceProfile, kind: MarketKind, k: float | None = None):
    """Decides one profile from its solved clearing price, not by the aggregator."""
    return lambda y: decision_from_offset(
        solve_market(beliefs_from_signals(q, SignalProfile(y)), kind, k).offset
    )


def simple_majority_decider(q: CompetenceProfile):
    return scalar_decider(majority_aggregator("egalitarian"), q)


class TestAccuracyOracle:
    def test_single_juror(self):
        q = CompetenceProfile((0.7,))
        assert exhaustive_accuracy_oracle(q, simple_majority_decider(q)) == pytest.approx(
            0.7, abs=1e-15
        )

    def test_three_homogeneous_jurors(self):
        q = CompetenceProfile((0.6, 0.6, 0.6))
        value = exhaustive_accuracy_oracle(q, simple_majority_decider(q))
        assert value == pytest.approx(0.648, abs=1e-12)

    def test_dictatorship(self):
        q = CompetenceProfile((0.6, 0.6, 0.6))

        def dictator(y):
            return Decision.A if y[0] == "A" else Decision.B

        assert exhaustive_accuracy_oracle(q, dictator) == pytest.approx(0.6, abs=1e-12)

    def test_state_conditionals_agree(self):
        rng = random.Random(5)
        for _ in range(10):
            q = random_competences(rng, rng.randint(1, 6))
            qa, qb = exhaustive_state_conditional_accuracies(q, simple_majority_decider(q))
            assert abs(qa - qb) <= 1e-12

    def test_matches_library_exact_accuracy(self):
        # Markets are decided here from solved prices, so the oracle audits
        # the aggregator's half-price weights against the solvers.
        rng = random.Random(6)
        panels = [random_competences(rng, rng.randint(1, 6)) for _ in range(10)]
        panels.append(CompetenceProfile((2 / 3, 2 / 3, 0.8)))  # near-tie panel
        markets = [
            (MarketKind.NAIVE, None),
            (MarketKind.KELLY, None),
            (MarketKind.TAXED_ASYMPTOTIC, None),
            (MarketKind.TAXED_FINITE, 10.0),
        ]
        for q in panels:
            cases = [
                (majority_aggregator(scheme), scalar_decider(majority_aggregator(scheme), q))
                for scheme in ("egalitarian", "linear", "log_odds")
            ]
            cases += [
                (market_aggregator(kind, k), solved_market_decider(q, kind, k))
                for kind, k in markets
            ]
            for agg, decider in cases:
                oracle_value = exhaustive_accuracy_oracle(q, decider)
                assert oracle_value == pytest.approx(
                    exact_accuracy(agg, q).value, abs=1e-12
                ), (q, agg.name)

    def test_near_tie_margin_is_read_as_tie(self):
        # Log-odds weights on AAB: the fsum margin is -2.2e-16, not 0.0.
        q = CompetenceProfile((2 / 3, 2 / 3, 0.8))
        for agg in (
            majority_aggregator("log_odds"),
            market_aggregator(MarketKind.TAXED_ASYMPTOTIC),
        ):
            assert scalar_decider(agg, q)(("A", "A", "B")) is Decision.TIE, agg.name

    def test_agent_cap(self):
        q = CompetenceProfile((0.6,) * 13)
        with pytest.raises(ValueError, match="up to 12"):
            exhaustive_accuracy_oracle(q, lambda y: Decision.A)
