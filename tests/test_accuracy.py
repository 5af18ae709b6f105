"""Exact and Monte Carlo group accuracy, plus optimal-weights verification."""

from __future__ import annotations

import itertools
import random
import re
import sys
import threading
from math import ceil, comb, fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurymarkets import (
    AccuracyEstimate,
    CompetenceProfile,
    MarketKind,
    WeightProfile,
    exact_accuracy,
    fixed_weights_aggregator,
    majority_aggregator,
    market_aggregator,
    monte_carlo_accuracy,
    signal_matrix,
    verify_optimal_weights,
)
from jurymarkets.accuracy import (
    MARGIN_RESCUE_BOUND,
    _block_rows,
    _fill_signals,
    _lanes,
    _majority_decisions,
    _runs_of_equal_rows,
    _sample_signals,
    _thresholds,
)
from jurymarkets.equivalence import PAIRINGS, WEIGHT_SCHEMES
from jurymarkets.voting import TIE_TOLERANCE
from conftest import random_competences

# The largest double below 1, the most competent agent a profile admits.
BELOW_ONE = 1 - 2.0**-53

competence_lists = st.lists(
    st.floats(min_value=0.55, max_value=0.95), min_size=1, max_size=6
).map(tuple)


class TestAggregatorBuilders:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown weight scheme"):
            majority_aggregator("quadratic")

    def test_market_aggregator_requires_k_for_finite_tax(self):
        with pytest.raises(ValueError, match="positive k"):
            market_aggregator(MarketKind.TAXED_FINITE)

    def test_names_are_descriptive(self):
        assert majority_aggregator("linear").name == "majority_linear"
        assert market_aggregator(MarketKind.NAIVE).name == "market_naive"
        assert market_aggregator(MarketKind.TAXED_FINITE, 2.0).name == "market_taxed_finite_k=2"


class TestBatchDecide:
    def test_batch_equals_one_row_calls(self):
        q = CompetenceProfile((0.9, 0.7, 0.6, 0.6))
        signals = signal_matrix(q.n)
        for agg in (
            majority_aggregator("egalitarian"),
            majority_aggregator("log_odds"),
            fixed_weights_aggregator("explicit", WeightProfile((1.0, 2.0, 0.5, 0.5))),
            market_aggregator(MarketKind.KELLY),
            market_aggregator(MarketKind.TAXED_FINITE, 10.0),
        ):
            decisions = agg.decide(q, signals)
            assert decisions.dtype == np.int8 and decisions.shape == (2**q.n,)
            assert set(decisions.tolist()) <= {-1, 0, 1}
            rows = [int(agg.decide(q, signals[r : r + 1])[0]) for r in range(len(signals))]
            assert decisions.tolist() == rows, agg.name

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item J")
    def test_near_tie_decision_is_scale_free(self):
        # weighted_majority's near tie, decided as a batch: the margin is
        # 1e-12 * 2^e, and the absolute tie band reads it as scale-dependent.
        signals = np.array([[True, False]])
        decisions = {
            int(_majority_decisions(signals, WeightProfile(((1 + 2e-12) * 2.0**e, 2.0**e)))[0])
            for e in range(-3, 4)
        }
        assert len(decisions) == 1, decisions

    def test_blocked_margins_decide_as_per_row_fsum(self, monkeypatch):
        # Weights come in pairs (a_j, a_j + d_j).  A planted row votes A for
        # exactly one of each pair, so its exact margin is half a signed sum
        # of the d_j: 0 when every d_j is 0, and otherwise a near-tie on
        # either side of the tie band and of the rescue bound.
        rng = np.random.default_rng(11)
        pairs = 32
        a = rng.uniform(0.1, 3.0, pairs)
        choose = rng.random((4_000, pairs)) < 0.5
        planted = np.concatenate((choose, ~choose), axis=1)
        generic = rng.random((1_001, 2 * pairs)) < 0.5
        signals = np.concatenate((planted, generic))
        rng.shuffle(signals)
        block = _block_rows(2 * pairs)
        assert len(signals) > block and len(signals) % block != 0

        def per_row_fsum(w: np.ndarray) -> np.ndarray:
            """Reference margins; checks the decisions against them."""
            half_total = 0.5 * fsum(w.tolist())
            margins = np.array([fsum(w[row].tolist()) - half_total for row in signals])
            expected = (margins > TIE_TOLERANCE).astype(int) - (margins < -TIE_TOLERANCE)
            weights = WeightProfile(tuple(w.tolist()))
            assert np.array_equal(_majority_decisions(signals, weights), expected)
            # Seven-row blocks sum in another order and decide the same.
            with monkeypatch.context() as patch:
                patch.setattr("jurymarkets.accuracy._block_rows", lambda n: 7)
                assert np.array_equal(_majority_decisions(signals, weights), expected)
            return margins

        seen = []
        for scale in (0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
            w = np.concatenate((a, a + scale * rng.uniform(0.0, 2.0, pairs)))
            margins = per_row_fsum(w)
            if scale == 0.0:
                ties = np.flatnonzero(margins == 0.0)
                assert len(ties) >= len(planted)
                # Float dot products miss some of these exact ties.
                assert np.any(signals[ties].astype(float) @ w != 0.5 * fsum(w.tolist()))
            seen.extend(np.abs(margins).tolist())
        seen = np.array(seen)
        bound = MARGIN_RESCUE_BOUND
        for low, high in ((0.0, TIE_TOLERANCE), (TIE_TOLERANCE, bound), (bound, 10 * bound)):
            assert np.any((seen > low) & (seen <= high)), (low, high)

        # Few distinct weights: the rescued rows share a handful of count
        # vectors, each summed once.  Egalitarian weights and twelve weights
        # repeated across the pairs tie the planted rows exactly.
        for w in (
            np.full(2 * pairs, 0.55),
            rng.choice([0.1, 0.2, 0.3], 2 * pairs),
            np.ones(2 * pairs),
            np.tile(rng.choice(rng.uniform(0.1, 3.0, 12), pairs), 2),
        ):
            margins = per_row_fsum(w)
            rescued = signals[np.abs(margins) < MARGIN_RESCUE_BOUND]
            assert len(rescued) >= 100
            values, group = np.unique(w, return_inverse=True)
            vectors = {tuple(np.bincount(group[row], minlength=values.size)) for row in rescued}
            assert len(vectors) < len(rescued) / 10

    @pytest.mark.parametrize("columns", [1, 3, 12, 101])
    def test_runs_of_equal_rows_group_as_unique(self, columns):
        # The reference is np.unique(axis=0): the runs give the same
        # distinct rows, in the same order, and each row the same group.
        # Each odd pool row differs from the row before it in one cell.
        rng = np.random.default_rng(columns)
        pool = rng.integers(0, 3, (40, columns))
        pool[1::2] = pool[::2]
        pool[np.arange(1, 40, 2), rng.integers(0, columns, 20)] += 1
        matrix = np.concatenate((pool[rng.integers(0, len(pool), 3_000)],
                                 rng.integers(0, 3, (200, columns))))
        vectors, which = np.unique(matrix, axis=0, return_inverse=True)
        rows, first = _runs_of_equal_rows(matrix)
        assert np.array_equal(matrix[rows[first]], vectors)
        assert np.array_equal(np.cumsum(first) - 1, which.reshape(-1)[rows])


class TestExactAccuracy:
    def test_single_juror(self):
        est = exact_accuracy(majority_aggregator("egalitarian"), CompetenceProfile((0.7,)))
        assert est.value == pytest.approx(0.7, abs=1e-15)
        assert est.method == "exact"
        assert est.tie_mass == 0.0

    def test_three_homogeneous_closed_form(self):
        q = CompetenceProfile((0.6, 0.6, 0.6))
        est = exact_accuracy(majority_aggregator("egalitarian"), q)
        assert est.value == pytest.approx(0.6**3 + 3 * 0.6**2 * 0.4, abs=1e-12)

    def test_tie_mass_even_jury(self):
        q = CompetenceProfile((0.6, 0.6))
        est = exact_accuracy(majority_aggregator("egalitarian"), q)
        # Split signals tie; mass 2 * 0.6 * 0.4 under either state.
        assert est.tie_mass == pytest.approx(0.48, abs=1e-12)
        assert est.value == pytest.approx(0.36 + 0.5 * 0.48, abs=1e-12)

    def test_log_odds_beats_simple_on_expert_jury(self, example1):
        q, _, _ = example1
        simple = exact_accuracy(majority_aggregator("egalitarian"), q).value
        optimal = exact_accuracy(majority_aggregator("log_odds"), q).value
        assert optimal >= simple

    def test_jury_trend_homogeneous(self):
        values = [
            exact_accuracy(
                majority_aggregator("egalitarian"), CompetenceProfile((0.6,) * n)
            ).value
            for n in (1, 3, 5, 7, 9, 11)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_agent_cap(self):
        q = CompetenceProfile((0.6,) * 13)
        with pytest.raises(ValueError, match="up to 12"):
            exact_accuracy(majority_aggregator("egalitarian"), q)

    @given(competence_lists, st.sampled_from(("egalitarian", "linear", "log_odds")))
    @settings(max_examples=40, deadline=None)
    def test_state_symmetry_holds(self, qs, scheme):
        # exact_accuracy asserts the two state conditionals agree internally.
        est = exact_accuracy(majority_aggregator(scheme), CompetenceProfile(qs))
        assert 0.0 <= est.value <= 1.0
        assert est.value + 0.5 * est.tie_mass <= 1.0 + 1e-12


class TestMarketAggregators:
    def test_naive_market_equals_simple_majority(self, example2):
        q, _, _ = example2
        market = exact_accuracy(market_aggregator(MarketKind.NAIVE), q).value
        simple = exact_accuracy(majority_aggregator("egalitarian"), q).value
        assert market == simple

    def test_kelly_market_equals_linear_majority(self, example2):
        q, _, _ = example2
        market = exact_accuracy(market_aggregator(MarketKind.KELLY), q).value
        linear = exact_accuracy(majority_aggregator("linear"), q).value
        assert market == linear

    def test_asymptotic_taxed_market_equals_log_odds_majority(self, example1):
        q, _, _ = example1
        market = exact_accuracy(market_aggregator(MarketKind.TAXED_ASYMPTOTIC), q).value
        optimal = exact_accuracy(majority_aggregator("log_odds"), q).value
        assert market == optimal

    def test_market_majority_equalities_random(self):
        rng = random.Random(31)
        for _ in range(8):
            q = random_competences(rng, rng.randint(2, 5))
            assert (
                exact_accuracy(market_aggregator(MarketKind.NAIVE), q).value
                == exact_accuracy(majority_aggregator("egalitarian"), q).value
            )
            assert (
                exact_accuracy(market_aggregator(MarketKind.KELLY), q).value
                == exact_accuracy(majority_aggregator("linear"), q).value
            )

    @pytest.mark.parametrize(
        "scheme, kind", PAIRINGS.values(), ids=[kind.value for _, kind in PAIRINGS.values()]
    )
    def test_market_decisions_equal_paired_majority(self, scheme, kind):
        rng = np.random.default_rng(17)
        for n in range(1, 13):
            q = CompetenceProfile(tuple(rng.uniform(0.51, 0.99, n).tolist()))
            signals = rng.random((256, n)) < 0.5
            market = market_aggregator(kind).decide(q, signals)
            election = majority_aggregator(scheme).decide(q, signals)
            assert market.dtype == np.int8
            assert np.array_equal(market, election)

    def test_market_reads_the_live_scheme_table(self, monkeypatch):
        calls = []
        original = WEIGHT_SCHEMES["linear"]

        def counting(q):
            calls.append(q)
            return original(q)

        monkeypatch.setitem(WEIGHT_SCHEMES, "linear", counting)
        q = CompetenceProfile((0.9, 0.7, 0.6))
        market_aggregator(MarketKind.KELLY).decide(q, signal_matrix(q.n))
        assert calls == [q]


class TestMonteCarlo:
    def test_seeded_runs_identical(self):
        q = CompetenceProfile((0.6, 0.6, 0.6))
        agg = majority_aggregator("egalitarian")
        first = monte_carlo_accuracy(agg, q, 200_000, 42)
        second = monte_carlo_accuracy(agg, q, 200_000, 42)
        assert first == second

    def test_different_seeds_differ(self):
        q = CompetenceProfile((0.6, 0.6, 0.6))
        agg = majority_aggregator("egalitarian")
        assert monte_carlo_accuracy(agg, q, 50_000, 1).value != monte_carlo_accuracy(
            agg, q, 50_000, 2
        ).value

    def test_matches_exact_within_four_sigma(self):
        rng = random.Random(77)
        for scheme in ("egalitarian", "linear", "log_odds"):
            q = random_competences(rng, 5)
            agg = majority_aggregator(scheme)
            exact = exact_accuracy(agg, q).value
            est = monte_carlo_accuracy(agg, q, 300_000, 7)
            assert abs(est.value - exact) <= 4 * est.std_error, (scheme, exact, est)

    def test_large_jury_matches_binomial_tail(self):
        n, qv = 51, 0.6
        tail = fsum(
            comb(n, j) * qv**j * (1 - qv) ** (n - j) for j in range(n // 2 + 1, n + 1)
        )
        est = monte_carlo_accuracy(
            majority_aggregator("egalitarian"), CompetenceProfile((qv,) * n), 1_000_000, 123
        )
        assert est.value > 0.90
        assert abs(est.value - tail) <= 4 * est.std_error

    def test_market_estimate_equals_paired_majority_estimate(self):
        # A market decides every sampled profile as its paired majority does,
        # so on the same (seed, trials) the two estimates coincide exactly.
        rng = random.Random(41)
        for scheme, kind, trials, panels in (
            ("egalitarian", MarketKind.NAIVE, 4_000, 3),
            ("linear", MarketKind.KELLY, 4_000, 3),
            ("log_odds", MarketKind.TAXED_ASYMPTOTIC, 4_000, 3),
            ("egalitarian", MarketKind.NAIVE, 65_537, 1),  # two batches
        ):
            for _ in range(panels):
                q = random_competences(rng, rng.randint(2, 6))
                market = monte_carlo_accuracy(market_aggregator(kind), q, trials, 5)
                majority = monte_carlo_accuracy(majority_aggregator(scheme), q, trials, 5)
                assert market.trials == trials
                assert (market.value, market.tie_mass, market.std_error) == (
                    majority.value,
                    majority.tie_mass,
                    majority.std_error,
                ), (q, kind)

    def test_sampled_signals_are_the_where_form(self):
        # Signals match the state with probability q: drawn as matches, then
        # flipped where the state is B.
        extremes = np.array(
            [0.55, 0.6, 0.75, 0.9, 0.99, 0.5 + 2.0**-40, 0.5 + 2.0**-53, BELOW_ONE]
        )
        # 3,001 agents: 1,000 rows fill 25 blocks of 40 rows.
        wide = np.random.default_rng(5).uniform(0.5, 1.0, 3001)
        for q_vec, seed, size, blocks in (
            (extremes, 0, 1, 1),
            (extremes, 3, 1000, 1),
            (extremes, 2**64 - 1, 4097, 1),
            (wide, 4, 1000, 25),
        ):
            assert -(-size // _block_rows(q_vec.size)) == blocks
            states, signals = _sample_signals(batch_key(seed), q_vec, size)
            expected_states, expected_signals = one_shot_signals(seed, q_vec, size)
            assert np.array_equal(states, expected_states)
            assert signals.dtype == bool and signals.shape == (size, q_vec.size)
            assert np.array_equal(signals, expected_signals)

    def test_raw_word_rule_is_the_float_rule_at_its_edges(self):
        # A draw is the 53-bit value U = lane << 37 | the top 37 bits of a
        # fix-up word, and matches exactly when U * 2**-53 < q.  Plant lanes
        # at t - 1, t and t + 1 and fix-up bits at r - 1 and r, with junk in
        # the fix-up word's low 27 bits, which the rule must not read.
        near = 3 / 65_536  # t = 3, r = 0
        for q in (BELOW_ONE, 5e-324, near, float(np.nextafter(near, 1.0)), 0.3, 1e-3,
                  0.5 + 2.0**-53, 0.75):
            top = ceil(q * 2**53)  # the least 53-bit value whose double is not below q
            t, r = top >> 37, top & (2**37 - 1)
            cases = [
                (lane, bits)
                for lane in (t - 1, t, t + 1)
                if 0 <= lane < 2**16
                for bits in (r - 1, r)
                if bits >= 0
            ]
            lanes = [lane for lane, _ in cases]
            lanes += [0] * (-len(lanes) % 4)
            words = np.array(
                [sum(lane << (16 * j) for j, lane in enumerate(lanes[i : i + 4]))
                 for i in range(0, len(lanes), 4)],
                dtype=np.uint64,
            )
            fixups = np.array(
                [bits << 27 | 0x7FFFFFF for lane, bits in cases if lane == t], dtype=np.uint64
            )

            class PlantedWords:
                """Hands out the planted raw words."""

                def random_raw(self, count):
                    assert count == len(words)
                    return words

            def planted_fixups(count):
                assert count == len(fixups) > 0
                return fixups

            states = np.ones(len(cases), dtype=bool)  # state A: a signal favours A when it matches
            signals = np.empty((len(cases), 1), dtype=bool)
            _fill_signals(PlantedWords(), planted_fixups, _thresholds(np.array([q])), states,
                          signals, 0, len(cases))
            expected = [(lane << 37 | bits) * 2.0**-53 < q for lane, bits in cases]
            assert signals[:, 0].tolist() == expected, q
            assert any(expected) and not all(expected), q

    def test_lanes_are_the_arithmetic_lanes(self):
        words = np.concatenate((
            np.array([0, 2**64 - 1, 0x0123456789ABCDEF, 0x8000_0000_0000_0001], dtype=np.uint64),
            np.random.Philox(key=np.array([1, 2], dtype=np.uint64)).random_raw(1000),
        ))
        expected = [(w >> (16 * j)) & 0xFFFF for w in words.tolist() for j in range(4)]
        assert _lanes(words).tolist() == expected

    @pytest.mark.parametrize(
        "q", [0.5, 0.5 + 2.0**-53, 0.75 - 2.0**-40, 0.6, 3 / 65_536],
        ids=["half", "half+ulp", "three-quarters-", "0.6", "3/65536"],
    )
    def test_lane_draws_have_frequency_q(self, q):
        # 32 agents of competence q over 65,536 rows: 2,097,152 draws.
        q_vec = np.full(32, q)
        states, signals = _sample_signals(batch_key(11), q_vec, 65_536)
        draws = signals.size
        matches = np.count_nonzero(signals == states[:, None])
        z = (matches - draws * q) / (draws * q * (1 - q)) ** 0.5
        assert abs(z) < 5, (q, matches, z)
        states_z = (2 * np.count_nonzero(states) - states.size) / states.size**0.5
        assert abs(states_z) < 5, states_z

    def test_batch_boundary_handling(self):
        q = CompetenceProfile((0.7, 0.7))
        agg = majority_aggregator("egalitarian")
        est = monte_carlo_accuracy(agg, q, 70_001, 9)
        assert est.trials == 70_001

    @pytest.mark.parametrize("trials", [0, -3, 1.5, True, "10", None])
    def test_trials_validation(self, trials):
        q = CompetenceProfile((0.7,))
        message = f"trials {trials!r} must be a positive integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            monte_carlo_accuracy(majority_aggregator("egalitarian"), q, trials, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, np.int64(-1), "1", None])
    def test_seed_validation(self, seed):
        q = CompetenceProfile((0.7,))
        message = f"seed {seed!r} must be an unsigned 64-bit integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            monte_carlo_accuracy(majority_aggregator("egalitarian"), q, 10, seed)

    def test_numpy_integers_keep_their_streams(self):
        q = CompetenceProfile((0.7, 0.6, 0.8))
        agg = majority_aggregator("linear")
        for seed in (0, 7, 2**64 - 1):
            want = monte_carlo_accuracy(agg, q, 1000, seed)
            got = monte_carlo_accuracy(agg, q, np.int64(1000), np.uint64(seed))
            # The estimate reports plain ints, so it serialises as the int call's does.
            assert got == want and type(got.trials) is type(got.seed) is int

    @pytest.mark.parametrize("field", ["value", "tie_mass"])
    @pytest.mark.parametrize("bad", [-0.25, 1.5, float("nan")])
    def test_estimate_outside_the_unit_interval_rejected(self, field, bad):
        fields = {"aggregator": "x", "method": "exact", "value": 0.5, "tie_mass": 0.0}
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            AccuracyEstimate(**{**fields, field: bad})


def batch_key(seed: int) -> np.ndarray:
    """The Philox key of batch 7 under seed, as monte_carlo_accuracy builds it."""
    return np.array([seed, 7], dtype=np.uint64)


def one_shot_signals(seed: int, q_vec: np.ndarray, size: int):
    """Batch 7 drawn by the lane rule with no blocks and no threads: (states, signals).

    The states read lane i of the first ceil(size / 4) words and the signal
    cell c = row * n + agent lane c % 4 of the word ceil(size / 4) + c // 4,
    each lane (w >> 16 j) & 0xFFFF.  The thresholds are Python integers.  A
    cell whose lane equals t reads the next word of its row block's fix-up
    substream, Philox(key) with counter[1] = 1 + block.
    """
    n = q_vec.size
    key = batch_key(seed)
    first = -(-size // 4)
    words = np.random.Philox(key=key).random_raw(first + -(-size * n // 4))
    lanes = np.empty((len(words), 4), dtype=np.uint16)
    for j in range(4):
        lanes[:, j] = (words >> np.uint64(16 * j)) & np.uint64(0xFFFF)
    lanes = lanes.reshape(-1)
    states = lanes[:size] < 2**15
    tops = [ceil(q * 2**53) for q in q_vec.tolist()]
    t = np.array([top >> 37 for top in tops])
    r = [top & (2**37 - 1) for top in tops]
    cells = lanes[4 * first : 4 * first + size * n].reshape(size, n)
    matches = cells < t
    substreams = {}
    for row, agent in zip(*np.nonzero(cells == t)):  # row-major order
        block = row // _block_rows(n)
        if block not in substreams:
            substreams[block] = np.random.Philox(key=key, counter=[0, 1 + block, 0, 0])
        fixup = int(substreams[block].random_raw())
        matches[row, agent] = fixup >> 27 < r[agent]
    return states, matches == states[:, None]


def word_position(bits: np.random.Philox) -> int:
    """The stream position of the next word bits hands out."""
    state = bits.state
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    # Philox computes words 4c .. 4c+3 when its counter steps from c to c+1.
    return 4 * counter + state["buffer_pos"] - 4


@pytest.fixture
def fast_thread_switching():
    """Switch threads every microsecond, so that a race shows in a short test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestThreadedSampling:
    """Blocks claimed one at a time by one thread per CPU, each thread with its own Philox."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.usefixtures("fast_thread_switching")
    def test_every_worker_count_draws_the_one_shot_batch(self, monkeypatch, workers):
        monkeypatch.setattr("jurymarkets.accuracy._sampling_workers", lambda: workers)
        fills = []

        def recording_fill(bits, fixups, thresholds, states, signals, start, stop):
            fixed = []

            def recording_fixups(count):
                fixed.append(count)
                return fixups(count)

            fills.append((start, stop, threading.get_ident(), word_position(bits), fixed))
            _fill_signals(bits, recording_fixups, thresholds, states, signals, start, stop)

        monkeypatch.setattr("jurymarkets.accuracy._fill_signals", recording_fill)
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            bits = philox(*args, **kwargs)
            built.append(bits)
            return bits

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        residues = set()
        seeds = itertools.cycle((0, 2**64 - 1))
        panels = np.random.default_rng(13)
        for n in (3, 101, 3001):
            q_vec = panels.uniform(0.5, 1.0, n)
            step = _block_rows(n)
            assert step % 4 == 0
            sizes = [1, 2, step, step + 1, step + 3]
            # 65,536 rows of 3,001 agents would hold 197 MB per matrix.
            sizes += [1000] if n == 3001 else [65_535, 65_536, 65_537]
            for size in sizes:
                seed = next(seeds)
                fills.clear()
                built.clear()
                states, signals = _sample_signals(batch_key(seed), q_vec, size)
                with monkeypatch.context() as plain:
                    plain.setattr(np.random, "Philox", philox)
                    want_states, want_signals = one_shot_signals(seed, q_vec, size)
                assert np.array_equal(states, want_states), (n, size, seed)
                assert np.array_equal(signals, want_signals), (n, size, seed)
                # Up to one thread per worker fills each block exactly once.
                blocks = -(-size // step)
                bounds = list(range(0, size, step)) + [size]
                assert sorted(fill[:2] for fill in fills) == list(zip(bounds, bounds[1:]))
                threads = {fill[2] for fill in fills}
                assert len(threads) <= min(workers, blocks)
                # The states' Philox and at most one more per thread, which
                # serves both its later blocks and its fix-ups.
                assert len(built) <= 1 + len(threads), (n, size)
                for start, _, _, position, _ in fills:
                    # Each block starts on a word boundary, after the states'.
                    assert position == -(-size // 4) + start * n // 4, (n, size, start)
                    residues.add(position % 4)
                fixed_blocks = [fill[0] for fill in fills if fill[4]]
                # A block asks for its fix-up words at most once.
                assert all(len(fill[4]) <= 1 for fill in fills)
                if (n, size) == (101, 65_536):
                    assert len(fixed_blocks) > 1, fixed_blocks
        assert residues == {0, 1, 2, 3}

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_estimates_do_not_depend_on_the_worker_count(self, monkeypatch, workers):
        q = CompetenceProfile(tuple(np.linspace(0.51, 0.9, 101).tolist()))
        agg = majority_aggregator("linear")
        with monkeypatch.context() as sequential:
            sequential.setattr("jurymarkets.accuracy._sampling_workers", lambda: 1)
            expected = monte_carlo_accuracy(agg, q, 70_001, 3)
        monkeypatch.setattr("jurymarkets.accuracy._sampling_workers", lambda: workers)
        before = threading.active_count()
        assert monte_carlo_accuracy(agg, q, 70_001, 3) == expected
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["worker", "caller", "both"])
    def test_a_failed_block_reaches_the_caller(self, monkeypatch, where):
        monkeypatch.setattr("jurymarkets.accuracy._sampling_workers", lambda: 3)
        caller = threading.current_thread()
        failed = threading.Event()

        def failing_fill(bits, fixups, thresholds, states, signals, start, stop):
            side = "caller" if threading.current_thread() is caller else "worker"
            if where in (side, "both"):
                failed.set()
                raise RuntimeError(f"planted failure on the {side}")
            # Leave blocks for the side that is to fail.
            assert failed.wait(timeout=30)
            _fill_signals(bits, fixups, thresholds, states, signals, start, stop)

        monkeypatch.setattr("jurymarkets.accuracy._fill_signals", failing_fill)
        before = threading.active_count()
        q = CompetenceProfile((0.6,) * 101)
        planted = "(caller|worker)" if where == "both" else where
        with pytest.raises(RuntimeError, match=f"planted failure on the {planted}"):
            monte_carlo_accuracy(majority_aggregator("egalitarian"), q, 10_000, 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [3, 101])
    def test_a_one_block_batch_starts_no_thread(self, monkeypatch, n):
        monkeypatch.setattr("jurymarkets.accuracy._sampling_workers", lambda: 3)
        counts = []

        def counting_fill(*args):
            counts.append((threading.get_ident(), threading.active_count()))
            _fill_signals(*args)

        monkeypatch.setattr("jurymarkets.accuracy._fill_signals", counting_fill)
        before = threading.active_count()
        q_vec = np.full(n, 0.6)
        for size in (1, _block_rows(n)):
            counts.clear()
            _sample_signals(batch_key(5), q_vec, size)
            assert counts == [(threading.get_ident(), before)], (n, size)
        # Two blocks do start a helper thread.
        counts.clear()
        _sample_signals(batch_key(5), q_vec, _block_rows(n) + 1)
        assert len(counts) == 2 and max(count for _, count in counts) > before
        assert threading.active_count() == before


class TestVerifyOptimalWeights:
    def test_strict_improvement_over_egalitarian(self):
        report = verify_optimal_weights(CompetenceProfile((0.9, 0.6, 0.6, 0.6)), seed=0)
        assert report.log_odds > report.egalitarian + 1e-9

    def test_equal_competences_all_schemes_tie(self):
        report = verify_optimal_weights(CompetenceProfile((0.7, 0.7, 0.7)), seed=0)
        assert report.log_odds == pytest.approx(report.egalitarian, abs=1e-12)
        assert report.log_odds == pytest.approx(report.linear, abs=1e-12)

    def test_single_agent_everything_is_competence(self):
        report = verify_optimal_weights(CompetenceProfile((0.8,)), perturbations=3, seed=1)
        assert report.log_odds == pytest.approx(0.8, abs=1e-12)
        assert report.egalitarian == pytest.approx(0.8, abs=1e-12)
        assert all(v == pytest.approx(0.8, abs=1e-12) for v in report.random)

    def test_random_rivals_never_win(self):
        rng = random.Random(13)
        for _ in range(6):
            q = random_competences(rng, rng.randint(2, 5))
            report = verify_optimal_weights(q, perturbations=10, seed=3)
            assert report.margin_over_best_rival >= -1e-12

    def test_agent_cap(self):
        with pytest.raises(ValueError, match="up to 10"):
            verify_optimal_weights(CompetenceProfile((0.6,) * 11))

    def test_fixed_weights_aggregator_consistency(self):
        # An explicit log-odds weight vector reproduces the named scheme.
        q = CompetenceProfile((0.9, 0.7, 0.6))
        from jurymarkets import weights_log_odds

        explicit = fixed_weights_aggregator("explicit", weights_log_odds(q))
        assert (
            exact_accuracy(explicit, q).value
            == exact_accuracy(majority_aggregator("log_odds"), q).value
        )

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightProfile(())

    @pytest.mark.parametrize("weights", [[1, 2], (0.5, 0.5), None])
    def test_fixed_weights_need_a_weight_profile(self, weights):
        message = f"weights {weights!r} must be a WeightProfile"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fixed_weights_aggregator("x", weights)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": 1.5}, "seed 1.5 must be an unsigned 64-bit integer"),
            ({"seed": -1}, "seed -1 must be an unsigned 64-bit integer"),
            ({"seed": 2**64}, f"seed {2**64} must be an unsigned 64-bit integer"),
            ({"seed": True}, "seed True must be an unsigned 64-bit integer"),
            ({"perturbations": 2.5}, "perturbations 2.5 must be a non-negative integer"),
            ({"perturbations": -1}, "perturbations -1 must be a non-negative integer"),
            ({"perturbations": True}, "perturbations True must be a non-negative integer"),
        ],
    )
    def test_verification_arguments_validated(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_optimal_weights(CompetenceProfile((0.7, 0.6)), **kwargs)

    def test_numpy_seed_keeps_its_directions(self):
        q = CompetenceProfile((0.9, 0.7, 0.6))
        want = verify_optimal_weights(q, perturbations=4, seed=2**64 - 1)
        assert verify_optimal_weights(q, np.int64(4), np.uint64(2**64 - 1)) == want
        assert verify_optimal_weights(q, perturbations=0).random == ()
