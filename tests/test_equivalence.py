"""Election/market commuting-diagram checks for all three weight-market pairings."""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurymarkets import (
    ALL_SCHEMES,
    STATE_A,
    TIE_TOLERANCE,
    CompetenceProfile,
    Decision,
    EquivalenceScheme,
    MarketKind,
    SignalProfile,
    beliefs_from_signals,
    check_all_schemes,
    check_linear_kelly,
    check_log_odds_taxed,
    check_scheme,
    check_simple_naive,
    decision_from_offset,
    enumerate_signal_space,
    solve_market,
    votes_from_beliefs,
    weighted_margin,
)
from jurymarkets import equivalence
from jurymarkets.equivalence import PAIRINGS, WEIGHT_SCHEMES, EquivalenceReport
from tests.conftest import random_competences, random_signals

competence_lists = st.lists(
    st.floats(min_value=0.55, max_value=0.95), min_size=2, max_size=6
).map(tuple)


def all_signal_profiles(n: int):
    return [SignalProfile(y) for y in product(("A", "B"), repeat=n)]


class TestDecisionFromOffset:
    def test_bands(self):
        assert decision_from_offset(1e-6) is Decision.A
        assert decision_from_offset(-1e-6) is Decision.B
        assert decision_from_offset(0.0) is Decision.TIE
        assert decision_from_offset(TIE_TOLERANCE / 2) is Decision.TIE
        assert decision_from_offset(-TIE_TOLERANCE / 2) is Decision.TIE


class TestWorkedExamples:
    def test_example_1_reports(self, example1):
        q, y, _ = example1
        simple = check_simple_naive(q, y)
        assert simple.election is Decision.B and simple.market is Decision.B
        assert simple.agree and simple.guaranteed
        assert simple.price == 0.4

        linear = check_linear_kelly(q, y)
        assert linear.election is Decision.A and linear.market is Decision.A
        assert linear.agree
        assert linear.price == 0.52

        taxed = check_log_odds_taxed(q, y)
        assert taxed.election is Decision.A and taxed.market is Decision.A
        assert taxed.agree and taxed.guaranteed and taxed.k is None

    def test_example_2_reports(self, example2):
        q, y, _ = example2
        simple = check_simple_naive(q, y)
        assert simple.election is Decision.B and simple.market is Decision.B
        assert simple.price == 0.4

        linear = check_linear_kelly(q, y)
        # The linear-weight election splits evenly; both sides read as a tie.
        assert linear.election is Decision.TIE and linear.market is Decision.TIE
        assert linear.agree
        assert linear.election.members == frozenset({"A", "B"})
        assert linear.price == 0.5

        taxed = check_log_odds_taxed(q, y)
        assert taxed.election is Decision.A and taxed.market is Decision.A

    def test_unanimous_signals(self):
        q = CompetenceProfile((0.7, 0.8, 0.6))
        report = check_simple_naive(q, SignalProfile(("A", "A", "A")))
        assert report.election is Decision.A and report.market is Decision.A

    def test_single_agent_linear(self):
        q = CompetenceProfile((0.8,))
        report = check_linear_kelly(q, SignalProfile(("B",)))
        assert report.election is Decision.B and report.market is Decision.B

    def test_equal_competences_taxed_mirrors_simple_election(self):
        # With all weights equal, the log-odds election is the simple one.
        q = CompetenceProfile((0.7, 0.7, 0.7))
        for y in all_signal_profiles(3):
            taxed = check_log_odds_taxed(q, y)
            simple = check_simple_naive(q, y)
            assert taxed.election is simple.election


class TestMarginUnits:
    """Paired markets are read in their election's margin units."""

    def test_kelly_offset_is_the_linear_margin(self):
        # p - 1/2 is 1e-12, inside the tie band; the margin n (p - 1/2) is 4e-12.
        q = CompetenceProfile((0.6 + 4e-12, 0.6, 0.7, 0.7))
        report = check_linear_kelly(q, SignalProfile(("A", "B", "A", "B")))
        assert report.election is Decision.A and report.market is Decision.A

    def test_naive_price_is_read_exactly(self):
        # The marginal belief 0.5 + 1e-13 is the price; two of three back A.
        q = CompetenceProfile((0.9, 0.5000000000001, 0.9))
        reports = check_all_schemes(q, SignalProfile(("A", "A", "B")))
        assert reports[0].price == 0.5000000000001
        assert reports[0].election is Decision.A and reports[0].market is Decision.A
        assert all(r.agree for r in reports)


class TestExhaustiveSweeps:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
    def test_random_profiles_all_signals_agree(self, scheme):
        rng = random.Random(99)
        for _ in range(30):
            q = random_competences(rng, rng.randint(2, 7))
            for y in all_signal_profiles(q.n):
                report = check_scheme(scheme, q, y)
                assert report.guaranteed
                assert report.agree, (q, y, report)

    @given(competence_lists, st.data())
    @settings(max_examples=80, deadline=None)
    def test_simple_naive_property(self, qs, data):
        q = CompetenceProfile(qs)
        bits = data.draw(
            st.lists(st.sampled_from(("A", "B")), min_size=q.n, max_size=q.n)
        )
        report = check_simple_naive(q, SignalProfile(tuple(bits)))
        assert report.agree

    @given(competence_lists, st.data())
    @settings(max_examples=80, deadline=None)
    def test_linear_kelly_property(self, qs, data):
        q = CompetenceProfile(qs)
        bits = data.draw(
            st.lists(st.sampled_from(("A", "B")), min_size=q.n, max_size=q.n)
        )
        report = check_linear_kelly(q, SignalProfile(tuple(bits)))
        assert report.agree

    @given(competence_lists, st.data())
    @settings(max_examples=80, deadline=None)
    def test_log_odds_taxed_property(self, qs, data):
        q = CompetenceProfile(qs)
        bits = data.draw(
            st.lists(st.sampled_from(("A", "B")), min_size=q.n, max_size=q.n)
        )
        report = check_log_odds_taxed(q, SignalProfile(tuple(bits)))
        assert report.agree


class TestFiniteTax:
    def test_reports_are_not_guaranteed(self, example1):
        q, y, _ = example1
        report = check_log_odds_taxed(q, y, k=1.0)
        assert not report.guaranteed
        assert report.k == 1.0

    def test_agreement_rate_nondecreasing_in_k(self):
        rng = random.Random(17)
        cases = []
        for _ in range(40):
            n = rng.randint(2, 5)
            cases.append((random_competences(rng, n), random_signals(rng, n)))
        rates = []
        for k in (1.0, 10.0, 100.0, 1000.0):
            rates.append(sum(check_log_odds_taxed(q, y, k).agree for q, y in cases))
        assert all(rates[i] <= rates[i + 1] for i in range(len(rates) - 1)), rates


class TestDispatch:
    def test_check_all_schemes_returns_one_report_each(self, example1):
        q, y, _ = example1
        reports = check_all_schemes(q, y)
        assert [r.scheme for r in reports] == list(ALL_SCHEMES)
        assert all(r.agree for r in reports)

    def test_scheme_dispatch_matches_direct_calls(self, example2):
        q, y, _ = example2
        assert check_scheme(EquivalenceScheme.SIMPLE_NAIVE, q, y) == check_simple_naive(q, y)
        assert check_scheme(EquivalenceScheme.LINEAR_KELLY, q, y) == check_linear_kelly(q, y)
        assert check_scheme(EquivalenceScheme.LOG_ODDS_TAXED, q, y) == check_log_odds_taxed(q, y)


def fresh_reports(q, y, k=None):
    """check_all_schemes with both of the module's memos emptied first."""
    equivalence._profile_inputs.cache_clear()
    equivalence._panel_weights.cache_clear()
    return check_all_schemes(q, y, k)


class TestSharedInputs:
    """The checks of one input share its beliefs, votes and weights."""

    def test_interleaved_panels_and_profiles(self):
        rng = random.Random(19)
        q1, q2 = random_competences(rng, 5), random_competences(rng, 5)
        y1, y2 = SignalProfile(tuple("AABBA")), SignalProfile(tuple("BABBB"))
        order = [(q1, y1), (q2, y1), (q1, y2), (q2, y2)] * 2
        for k in (None, 10.0):
            expected = [fresh_reports(q, y, k) for q, y in order]
            assert [check_all_schemes(q, y, k) for q, y in order] == expected

    def test_weights_come_from_the_live_scheme_table(self, monkeypatch, example1):
        q, y, _ = example1
        expected = check_linear_kelly(q, y)
        original = WEIGHT_SCHEMES["linear"]
        calls = []

        def counting(panel):
            calls.append(panel)
            return original(panel)

        monkeypatch.setitem(WEIGHT_SCHEMES, "linear", counting)
        assert check_linear_kelly(q, y) == expected
        assert calls == [q]

    def test_one_build_per_profile_and_per_scheme(self, monkeypatch):
        builds = Counter()

        def counted(name, fn):
            def build(*args):
                builds[name] += 1
                return fn(*args)

            return build

        for name in ("beliefs_from_signals", "votes_from_beliefs"):
            monkeypatch.setattr(equivalence, name, counted(name, getattr(equivalence, name)))
        for name, fn in list(WEIGHT_SCHEMES.items()):
            monkeypatch.setitem(WEIGHT_SCHEMES, name, counted(name, fn))
        equivalence._profile_inputs.cache_clear()
        q = CompetenceProfile((0.9, 0.7, 0.6, 0.55))
        profiles = [y for y, _ in enumerate_signal_space(q, STATE_A)]
        reports = [r for y in profiles for r in check_all_schemes(q, y)]
        assert len(reports) == 3 * 2**4 and all(r.agree for r in reports)
        assert builds == {
            "beliefs_from_signals": 2**4, "votes_from_beliefs": 2**4,
            "egalitarian": 1, "linear": 1, "log_odds": 1,
        }


def solved_reports(q, y, k=None):
    """check_all_schemes's reports built from each market's full solve: the
    price and offset of solve_market's result, with no memo."""
    beliefs = beliefs_from_signals(q, y)
    votes = votes_from_beliefs(beliefs)
    reports = []
    for scheme in ALL_SCHEMES:
        weights, kind = PAIRINGS[scheme]
        finite = kind is MarketKind.TAXED_ASYMPTOTIC and k is not None
        result = solve_market(beliefs, MarketKind.TAXED_FINITE if finite else kind, k)
        margin = weighted_margin(votes, WEIGHT_SCHEMES[weights](q))
        election, market = decision_from_offset(margin), decision_from_offset(result.offset)
        reports.append(EquivalenceReport(
            scheme, election, market, election is market, result.price, margin,
            guaranteed=not finite, k=k if finite else None,
        ))
    return reports


class TestPricedMarkets:
    """Pricing a market without its stakes leaves every report as solving it did."""

    PANELS = {
        "seeded": tuple(random_competences(random.Random(20), 6).q),
        # Three competences whose linear-weight margins tie exactly.
        "ties": (0.625, 0.75, 0.875) * 2,
    }

    @pytest.mark.parametrize("k", [None, 10.0])
    @pytest.mark.parametrize("panel", sorted(PANELS))
    def test_exhaustive_sweep_matches_solved_reports(self, panel, k):
        q = CompetenceProfile(self.PANELS[panel])
        for y in all_signal_profiles(q.n):
            reports, expected = check_all_schemes(q, y, k), solved_reports(q, y, k)
            assert reports == expected, y
            assert [r.price.hex() for r in reports] == [r.price.hex() for r in expected], y
