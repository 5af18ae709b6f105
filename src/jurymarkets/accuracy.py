"""Truth-tracking accuracy of elections and markets, exact and sampled.

Group accuracy is the probability that an aggregator's decision matches
the true state, conditioned on that state; ties score one half (a uniform
tie-break in expectation) and their probability mass is also reported
separately.  Signals are conditionally independent given the state, each
agent matching it with her competence, and the two states are equally
likely a priori.

Every aggregator is a batch rule: it decides a boolean signal matrix, one
row per profile, in one call.  Weighted majorities score the matrix with
one matmul per cache-sized block of rows.  So do markets: each is decided
as the weighted majority of its stakes at price 1/2, and no price is
solved.  Exact values decide the full signal space once (2^n profiles,
capped at n = 12) and score both states from that one decision vector;
larger juries are estimated by seeded Monte Carlo, which decides each
sampled batch the same way.  A batch's states and signals depend only on
(seed, batch index) and the competences, so results are reproducible and
the same however the batch's row blocks are spread over threads and CPUs,
and every draw is an exact Bernoulli(q) on the 53-bit grid of
``random() < q``; _sample_signals gives the Philox layout behind both.
verify_optimal_weights confronts the log-odds weighting with rival weight
vectors on exact accuracies.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import fsum, inf, sqrt
from numbers import Integral
from typing import Callable

import numpy as np

from .equivalence import MARKET_SCHEMES, WEIGHT_SCHEMES
from .markets import MarketKind, _check_k, taxed_half_price_weights
from .model import STATE_A, CompetenceProfile, profile_probabilities, signal_matrix
from .voting import WeightProfile, decisions_from_offsets

EXACT_MAX_AGENTS = 12
VERIFY_MAX_AGENTS = 10

MONTE_CARLO_BATCH = 65_536
# Rows whose dot-product margin lands this close to zero are recomputed
# with exact summation before the tie band is applied.
MARGIN_RESCUE_BOUND = 1e-9


@dataclass(frozen=True)
class Aggregator:
    """A named batch decision rule over signal profiles.

    ``decide(q, signals)`` maps competences and a boolean signal matrix (one
    row per profile, True for an A signal) to an int8 decision vector: +1
    for A, -1 for B, 0 for a tie.
    """

    name: str
    decide: Callable[[CompetenceProfile, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AccuracyEstimate:
    """A group-accuracy estimate with its method and tie diagnostics."""

    aggregator: str
    method: str  # "exact" or "monte_carlo"
    value: float
    tie_mass: float
    trials: int | None = None
    std_error: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"accuracy {self.value!r} outside [0, 1]")
        if not 0.0 <= self.tie_mass <= 1.0:
            raise ValueError(f"tie_mass {self.tie_mass!r} outside [0, 1]")


def _block_rows(n: int) -> int:
    """Rows of an n-agent signal matrix that fill about 1 MiB as float64.

    A multiple of 4, so that a block of n-agent rows fills whole raw words
    of four 16-bit lanes (see _sample_signals).
    """
    return 4 * max(1, 2**20 // (32 * n))


def _runs_of_equal_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, first): matrix[rows] sorted lexicographically; first marks each run's start."""
    rows = np.lexsort(matrix.T[::-1])
    ordered = matrix[rows]
    return rows, np.concatenate(([True], np.any(ordered[1:] != ordered[:-1], axis=1)))


def _majority_decisions(signals: np.ndarray, weights: WeightProfile) -> np.ndarray:
    """Weighted-majority decisions for every row of a signal matrix.

    A-signal agents vote A.  Margins come from one matmul per block of
    _block_rows rows; rows within MARGIN_RESCUE_BOUND of zero are recomputed
    with exact summation, the same fsum weighted_margin uses, before the
    shared tie band is applied.  A rescued row's A-voters are grouped by
    distinct weight, and each distinct vector of group counts (one sort finds
    them, _runs_of_equal_rows) is summed once: fsum rounds the exact sum, so
    every row with that vector gets the bits its own fsum would.  The rescue
    makes decisions independent of the float summation order and block size.
    """
    w = np.array(weights.w, dtype=float)
    half_total = 0.5 * fsum(weights.w)
    margins = np.empty(len(signals))
    step = _block_rows(w.size)
    for start in range(0, len(signals), step):
        margins[start : start + step] = signals[start : start + step].astype(float) @ w
    margins -= half_total
    rescued = np.flatnonzero(np.abs(margins) < MARGIN_RESCUE_BOUND)
    if rescued.size:
        # A row's exact sum depends only on how many A-voters hold each
        # distinct weight, so each distinct count vector is summed once.
        order = np.argsort(w, kind="stable")
        values, starts = np.unique(w[order], return_index=True)
        counts = np.add.reduceat(signals[rescued][:, order], starts, axis=1, dtype=np.int64)
        rows, first = _runs_of_equal_rows(counts)
        sums = np.array([fsum(np.repeat(values, c).tolist()) for c in counts[rows[first]]])
        margins[rescued[rows]] = sums[np.cumsum(first) - 1] - half_total
    return decisions_from_offsets(margins)


def _weighted_majority(
    name: str, weights_fn: Callable[[CompetenceProfile], WeightProfile]
) -> Aggregator:
    """The one weighted-majority Aggregator: weights_fn(q) once per decide call."""
    return Aggregator(name, lambda q, signals: _majority_decisions(signals, weights_fn(q)))


def majority_aggregator(scheme: str) -> Aggregator:
    """Weighted-majority rule under a named weight scheme.

    Weights are computed once per decide call.  Margins within the shared
    tie tolerance of zero are read as ties, the same convention the
    equivalence checks use.
    """
    try:
        scheme_fn = WEIGHT_SCHEMES[scheme]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown weight scheme {scheme!r}; expected one of {sorted(WEIGHT_SCHEMES)}"
        ) from None
    return _weighted_majority(f"majority_{scheme}", scheme_fn)


def fixed_weights_aggregator(name: str, weights: WeightProfile) -> Aggregator:
    """Weighted-majority rule under an explicit weight vector."""
    if not isinstance(weights, WeightProfile):
        raise ValueError(f"weights {weights!r} must be a WeightProfile")
    return _weighted_majority(name, lambda q: weights)


def market_aggregator(kind: MarketKind, k: float | None = None) -> Aggregator:
    """Market-as-aggregator: the weighted majority of its half-price stakes.

    In every market here the A-stakes never rise with the price and the
    B-stakes never fall, so sign(p* - 1/2) = sign(sum of +-w_i), where w_i
    is the stake of belief q_i at price 1/2 (a B-signal agent stakes on B
    what an A-signal agent of the same competence stakes on A).  For the
    naive, Kelly and asymptotic taxed markets these weights are, up to a
    positive factor, the paired election's (1, 2q - 1, log-odds), read from
    MARKET_SCHEMES and WEIGHT_SCHEMES: the market decides exactly like its
    paired majority, so the CLI's accuracy command reports that majority's
    estimate under the market's name when it scores both in one call.  Only
    the finite taxed market reads k, and it is always scored on its own; its
    weights come from taxed_half_price_weights, whose margin reads like
    solve_market's offset n (p* - 1/2) in the tie band.
    """
    if kind is MarketKind.TAXED_FINITE:
        _check_k(k)
        return _weighted_majority(
            f"market_{kind.value}_k={k:g}",
            lambda q: WeightProfile(tuple(taxed_half_price_weights(np.array(q.q), k).tolist())),
        )
    try:
        scheme = MARKET_SCHEMES[kind]
    except (KeyError, TypeError):
        raise ValueError(f"market kind {kind!r} is not a MarketKind") from None
    return _weighted_majority(f"market_{kind.value}", WEIGHT_SCHEMES[scheme])


def exact_accuracy(agg: Aggregator, q: CompetenceProfile) -> AccuracyEstimate:
    """Group accuracy by exhaustive enumeration of the signal space.

    Every profile is decided once and both states are scored from that one
    decision vector, state B by the state-A probabilities reversed (see
    profile_probabilities).  The two state-conditional accuracies are equal
    by flip-symmetry; this is asserted to 1e-12 before they are averaged.
    """
    if q.n > EXACT_MAX_AGENTS:
        raise ValueError(
            f"exact accuracy supports up to {EXACT_MAX_AGENTS} agents, got {q.n}"
        )
    decisions = agg.decide(q, signal_matrix(q.n))
    probs_a = profile_probabilities(q, STATE_A)
    masses = []
    for probs, right in ((probs_a, 1), (probs_a[::-1], -1)):
        ties = probs[decisions == 0]
        hits = np.concatenate((probs[decisions == right], 0.5 * ties))
        masses.append((fsum(hits.tolist()), fsum(ties.tolist())))
    (q_a, ties_a), (q_b, ties_b) = masses
    if abs(q_a - q_b) > 1e-12:
        raise AssertionError(
            f"state-conditional accuracies diverge: A-side {q_a!r}, B-side {q_b!r}"
        )
    return AccuracyEstimate(
        aggregator=agg.name,
        method="exact",
        value=0.5 * (q_a + q_b),
        tie_mass=0.5 * (ties_a + ties_b),
    )


def _check_integer(name: str, value: object, low: int, high: float, rule: str) -> None:
    """Reject value unless it is an integer, not a bool, in [low, high); numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= value < high:
        raise ValueError(f"{name} {value!r} {rule}")


def _sampling_workers() -> int:
    """CPUs this process may run on: at most one signal-filling thread each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thresholds(q: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """The lane rule's (t, r) for competences 0 < q < 1: ceil(q * 2**53) = t * 2**37 + r.

    A Philox double is a 53-bit integer U times 2**-53, so random() < q
    exactly when U < ceil(q * 2**53).  Split U into its top 16 bits (a lane)
    and its low 37 bits: U is below the threshold exactly when the lane is
    below t, or equals t and the low bits are below r.  t is a uint16, at
    most 65,535 since q <= 1 - 2**-53.
    """
    top = np.ceil(np.asarray(q) * 2.0**53).astype(np.uint64)
    return (top >> np.uint64(37)).astype(np.uint16), top & np.uint64(2**37 - 1)


def _lanes(words: np.ndarray) -> np.ndarray:
    """The 16-bit lanes of raw words: lane j of word w is (w >> 16 j) & 0xFFFF."""
    return words.astype("<u8", copy=False).view("<u2")


def _fill_signals(
    bits: np.random.BitGenerator,
    fixups: Callable[[int], np.ndarray],
    thresholds: tuple[np.ndarray, np.ndarray],
    states: np.ndarray,
    signals: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Fill the signal rows [start, stop) of one block, four cells per raw word.

    Cell c of the block reads lane c % 4 of bits' next word c // 4 and
    matches its state when the lane is below t.  The lanes equal to t,
    about one in 65,536, take the words of one fixups(count) call in
    row-major cell order, and match when a word's top 37 bits are below r
    (never when r is 0).
    """
    t, r = thresholds
    block = signals[start:stop]
    lanes = _lanes(bits.random_raw(-(-block.size // 4)))[: block.size].reshape(block.shape)
    np.less(lanes, t, out=block)
    tied = np.flatnonzero(lanes == t)
    if tied.size:
        np.put(block, tied, fixups(tied.size) >> np.uint64(27) < r[tied % block.shape[1]])
    # A signal favours A exactly when "it matches the state" equals "the state is A".
    np.equal(block, states[start:stop, None], out=block)


def _sample_signals(
    key: np.ndarray, q_vec: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (states, signals) for the batch whose Philox key is key.

    states is a boolean vector (True = state A); signals is a boolean matrix
    (True = the agent's signal, and so her belief, favours A).  Every draw is
    an exact Bernoulli(q) on the 53-bit grid of ``random() < q``, taken from
    16-bit lanes of raw words of Philox(key=key) by the rule of _thresholds:
    a lane below t matches, a lane above t does not, and a lane equal to t
    reads 37 more bits from a fix-up word.  Lane j of word w is
    (w >> 16 j) & 0xFFFF, whatever the host's byte order.  The states use
    the rule at q = 1/2 (t = 2**15, r = 0, so no fix-up) on lane i of the
    first ceil(size / 4) words.  Signal cell c = row * n + agent reads lane
    c % 4 of word ceil(size / 4) + c // 4, and the signals match their
    states with probability q.

    Philox is counter-based: word w of a stream is a function of the key and
    w alone, so the batch depends only on key and q.  The rows come in
    blocks of _block_rows rows, a multiple of 4, so the block starting at
    row ``start`` begins on a word boundary, at ceil(size / 4) + start * n /
    4.  Block b takes its fix-up words, in row-major cell order, from a
    substream no other block reads: Philox(key) with counter[1] = 1 + b.
    One thread per CPU (_sampling_workers, capped by the number of blocks),
    the calling thread among them, claims blocks one at a time; block 0
    continues the states' Philox and every other block moves the claiming
    thread's own Philox to its first word by assigning its counter, which
    costs about a sixth of building a Philox.  The same Philox is then moved
    to the block's fix-up substream when the block has a lane to fix up.
    numpy releases the GIL in the word generation and the comparisons.
    Claiming block by block, not in fixed runs, means a thread whose CPU
    stalls holds back only its current block.  A one-block batch starts no
    thread; otherwise the helpers run on a ThreadPoolExecutor, joined before
    return, and a block's exception is raised here.
    """
    n = q_vec.size
    bits = np.random.Philox(key=key)
    half, _ = _thresholds(0.5)  # r = 0: a lane equal to t = 2**15 is never a match
    first = -(-size // 4)  # the signals' first word
    states = _lanes(bits.random_raw(first))[:size] < half
    thresholds = _thresholds(q_vec)
    signals = np.empty((size, n), dtype=bool)
    step = _block_rows(n)
    starts = iter(range(0, size, step))
    claim = threading.Lock()

    def fill() -> None:
        own = state = None  # this thread's Philox and its state, built on first use

        def seek(substream: int, word: int) -> np.random.Philox:
            """This thread's Philox, moved to word of the given substream."""
            nonlocal own, state
            if own is None:
                own = np.random.Philox(key=key)
                state = own.state
            # Philox computes words 4c .. 4c+3 from counter c.
            state["state"]["counter"][:2] = word // 4, substream
            own.state = state
            own.random_raw(word % 4)
            return own

        while True:
            with claim:
                start = next(starts, None)
            if start is None:
                return
            _fill_signals(
                seek(0, first + start * n // 4) if start else bits,
                lambda count: seek(1 + start // step, 0).random_raw(count),
                thresholds,
                states,
                signals,
                start,
                min(start + step, size),
            )

    workers = min(_sampling_workers(), -(-size // step))
    if workers == 1:
        fill()
        return states, signals
    # Imported here: concurrent.futures loads logging, ~10 ms of every package import.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(fill) for _ in range(workers - 1)]
        fill()
    for helper in helpers:
        helper.result()
    return states, signals


def monte_carlo_accuracy(
    agg: Aggregator, q: CompetenceProfile, trials: int, seed: int
) -> AccuracyEstimate:
    """Group accuracy by seeded simulation.

    The state is drawn fair, signals per competence, and each batch of
    MONTE_CARLO_BATCH sampled profiles is decided in one decide call and
    scored as in exact_accuracy; markets are decided there by their
    half-price weights, with no price solved.  Batch i is drawn by
    _sample_signals from the Philox key (seed, i): its states and signals
    depend only on that key and q, and every draw is an exact Bernoulli(q)
    on the 53-bit grid, so the estimate is byte-identical however the
    batch's row blocks are scheduled.  Within a batch, signals are drawn and
    margins summed in row blocks of about 1 MiB, which changes no draw and
    no decision; every sampling thread is joined before the batch is decided.
    """
    _check_integer("trials", trials, 1, inf, "must be a positive integer")
    _check_integer("seed", seed, 0, 2**64, "must be an unsigned 64-bit integer")
    q_vec = np.array(q.q, dtype=float)

    n_correct = 0
    n_tie = 0
    for batch_index, done in enumerate(range(0, trials, MONTE_CARLO_BATCH)):
        size = min(MONTE_CARLO_BATCH, trials - done)
        key = np.array([seed, batch_index], dtype=np.uint64)
        states, signals = _sample_signals(key, q_vec, size)
        decisions = agg.decide(q, signals)
        n_correct += int(np.count_nonzero(decisions == np.where(states, 1, -1)))
        n_tie += int(np.count_nonzero(decisions == 0))

    value = (n_correct + 0.5 * n_tie) / trials
    second_moment = (n_correct + 0.25 * n_tie) / trials
    variance = max(second_moment - value * value, 0.0)
    return AccuracyEstimate(
        aggregator=agg.name,
        method="monte_carlo",
        value=value,
        tie_mass=n_tie / trials,
        trials=int(trials),
        std_error=sqrt(variance / trials),
        seed=int(seed),
    )


@dataclass(frozen=True)
class OptimalWeightsReport:
    """Exact accuracies of the log-odds rule and every challenger."""

    log_odds: float
    egalitarian: float
    linear: float
    random: tuple[float, ...]

    @property
    def margin_over_best_rival(self) -> float:
        return self.log_odds - max(self.egalitarian, self.linear, *self.random)


def _random_positive_weights(n: int, count: int, seed: int) -> list[WeightProfile]:
    """Directions drawn from the positive orthant of the unit sphere.

    Weighted majority is scale-invariant, so direction is the only degree
    of freedom worth sampling.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    raw = np.abs(rng.standard_normal((count, n)))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return [WeightProfile(tuple(float(x) for x in row)) for row in raw]


def verify_optimal_weights(
    q: CompetenceProfile, perturbations: int = 20, seed: int = 0
) -> OptimalWeightsReport:
    """Confirm no rival weighting beats log-odds weights on exact accuracy.

    Exact accuracy under log-odds weights is compared with the egalitarian
    and linear schemes and with `perturbations` random positive weight
    vectors; any rival exceeding it by more than 1e-12 raises
    AssertionError, since the optimality is unconditional and a violation
    can only mean an implementation bug.
    """
    _check_integer("perturbations", perturbations, 0, inf, "must be a non-negative integer")
    _check_integer("seed", seed, 0, 2**64, "must be an unsigned 64-bit integer")
    if q.n > VERIFY_MAX_AGENTS:
        raise ValueError(
            f"weight verification supports up to {VERIFY_MAX_AGENTS} agents, got {q.n}"
        )
    reference = exact_accuracy(majority_aggregator("log_odds"), q).value
    rivals: dict[str, float] = {
        "egalitarian": exact_accuracy(majority_aggregator("egalitarian"), q).value,
        "linear": exact_accuracy(majority_aggregator("linear"), q).value,
    }
    random_values: list[float] = []
    for j, weights in enumerate(_random_positive_weights(q.n, perturbations, seed)):
        agg = fixed_weights_aggregator(f"random_{j}", weights)
        random_values.append(exact_accuracy(agg, q).value)
        rivals[agg.name] = random_values[-1]
    for name, value in rivals.items():
        if value > reference + 1e-12:
            raise AssertionError(
                f"{name} weights reach accuracy {value!r}, beating log-odds "
                f"weights at {reference!r}"
            )
    return OptimalWeightsReport(
        log_odds=reference,
        egalitarian=rivals["egalitarian"],
        linear=rivals["linear"],
        random=tuple(random_values),
    )
