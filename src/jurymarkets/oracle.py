"""Brute-force cross-checks for the market solvers and accuracy code.

Everything here is deliberately re-derived from raw definitions and shares
no code with the solvers it audits:

* grid_equilibrium_search scans a price grid and, at every price, computes
  each agent's best response by elementary means — a threshold comparison
  for expected-wealth traders, a strategy-grid argmax of the raw utility
  for log-utility traders — then keeps the prices whose clearing residual
  could be zero.  Adjacent accepted prices merge into candidate intervals.
* exhaustive_accuracy_oracle enumerates every signal profile under both
  states and re-derives group accuracy with plain multiplication.

The oracle is allowed to be orders of magnitude slower than the solvers;
its value is independence, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from numbers import Integral
from sys import float_info
from typing import Callable

import numpy as np

from .markets import MarketKind
from .model import STATE_A, STATE_B, BeliefProfile, CompetenceProfile, Decision

GRID_ORACLE_MAX_AGENTS = 8
ACCURACY_ORACLE_MAX_AGENTS = 12

# Stakes are searched strictly below 1: staking everything has log utility
# minus infinity, so no optimum is lost by stopping just short.
STAKE_GRID_TOP = 1.0 - 1e-9

# Log-utility grids are argmaxed this many prices at a time, bounding the
# (prices, agents, stakes) utility array.
PRICE_CHUNK = 64


@dataclass(frozen=True)
class GridSpec:
    """Resolution and acceptance bound for the grid search.

    ``resolution`` counts price grid points on [0, 1] (endpoints are
    excluded from the scan); ``strategy_resolution`` counts stake grid
    points per agent and side; ``tolerance`` is the clearing-residual
    acceptance bound before quantization allowances.
    """

    resolution: int = 10_001
    strategy_resolution: int = 1_001
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("resolution", "strategy_resolution"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 3:
                raise ValueError(f"{name} {value!r} must be an integer of at least 3")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance {self.tolerance!r} must be positive")


def _naive_residual_ranges(
    beliefs: np.ndarray, prices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Achievable clearing-residual range per price for threshold traders.

    Expected wealth is linear in the stake, so an agent is all-in on A when
    her belief exceeds the price, all-in on B below it, and free to place
    any stake either way at equality.  The residual
    (1/p) * sum(sA) - (1/(1-p)) * sum(sB) therefore spans an interval whose
    width is the indifferent mass scaled by each side's price.
    """
    n = beliefs.size
    ranked = np.sort(beliefs)
    below = np.searchsorted(ranked, prices, side="left")
    at_or_below = np.searchsorted(ranked, prices, side="right")
    indifferent = at_or_below - below
    above = n - at_or_below
    base = above / prices - below / (1.0 - prices)
    return base - indifferent / (1.0 - prices), base + indifferent / prices


def _log_utility_win_branch(
    s: np.ndarray, p: np.ndarray, kind: MarketKind, k: float | None
) -> np.ndarray:
    """log of the winning-branch wealth for a stake grid at given prices.

    Plain log traders collect s * (1-p) / p in profit; taxed traders
    collect that profit damped through the concave map
    T(x) = (1 - exp(-x * k p/(1-p))) / (k p/(1-p)), which at x = s(1-p)/p
    reduces to -expm1(-k s) * (1-p) / (k p).
    """
    if kind is MarketKind.KELLY:
        return np.log1p(s * (1.0 - p) / p)
    profit = -np.expm1(-k * s) * (1.0 - p) / (k * p)
    return np.log1p(profit)


def _grid_best_quantities(
    beliefs: np.ndarray,
    prices: np.ndarray,
    s_grid: np.ndarray,
    kind: MarketKind,
    k: float | None,
) -> np.ndarray:
    """Signed security quantities from a strategy-grid argmax, per price.

    Shape (P, n): positive entries are A-securities bought (stake / p),
    negative entries B-securities (stake / (1-p)).  Both sides' utilities
    include the zero stake, so sitting out is always on the menu.
    """
    p = prices[:, None, None]
    b = beliefs[None, :, None]
    s = s_grid[None, None, :]
    keep = np.log1p(-s)
    u_a = b * _log_utility_win_branch(s, p, kind, k) + (1.0 - b) * keep
    u_b = (1.0 - b) * _log_utility_win_branch(s, 1.0 - p, kind, k) + b * keep
    stake_a = s_grid[np.argmax(u_a, axis=2)]
    stake_b = s_grid[np.argmax(u_b, axis=2)]
    p2 = prices[:, None]
    return np.where(u_a.max(axis=2) >= u_b.max(axis=2), stake_a / p2, -stake_b / (1.0 - p2))


def _merge_accepted(prices: np.ndarray, accepted: np.ndarray) -> list[tuple[float, float]]:
    """Collapse runs of consecutively accepted grid prices into intervals."""
    intervals: list[tuple[float, float]] = []
    run_start: int | None = None
    for j, ok in enumerate(accepted):
        if ok and run_start is None:
            run_start = j
        elif not ok and run_start is not None:
            intervals.append((float(prices[run_start]), float(prices[j - 1])))
            run_start = None
    if run_start is not None:
        intervals.append((float(prices[run_start]), float(prices[len(accepted) - 1])))
    return intervals


def grid_equilibrium_search(
    b: BeliefProfile,
    kind: MarketKind,
    k: float | None = None,
    grid: GridSpec = GridSpec(),
) -> list[tuple[float, float]]:
    """All price intervals on the grid where the market could clear.

    At each interior grid price every agent's best response is recomputed
    from the raw utility (threshold rule or strategy-grid argmax), giving a
    residual range [lo, hi] per price: the exact indifference span for
    threshold traders, the argmax value +/- a stake-quantization allowance
    of n * s_step / min(p, 1-p) for log-utility traders.  A price is
    accepted when its range reaches [-tolerance, tolerance]; both endpoints
    of any cell where the range crosses zero outright (hi_j < -tol on one
    side of lo_j > tol) are accepted too, so an off-grid root is always
    bracketed.  The end cells (0, p_1) and (p_last, 1) count as cells: every
    belief lies strictly inside (0, 1), so the residual tends to +inf as
    p -> 0 and to -inf as p -> 1.  Prices 0 and 1 thus stand for ranges of
    +inf and -inf, and each is accepted with its neighbour's own range.
    Runs of accepted prices merge into (low, high) intervals.
    """
    if b.n > GRID_ORACLE_MAX_AGENTS:
        raise ValueError(
            f"grid search supports up to {GRID_ORACLE_MAX_AGENTS} agents, got {b.n}"
        )
    if kind is MarketKind.TAXED_ASYMPTOTIC:
        raise ValueError(
            "the asymptotic taxed market has no finite best responses to scan; "
            "use MarketKind.TAXED_FINITE with a k"
        )
    if kind is MarketKind.TAXED_FINITE:
        if k is None or not float_info.min <= k <= float_info.max:  # normal; not NaN
            raise ValueError(
                f"taxed search needs a finite positive k >= {float_info.min!r}, got k={k!r}"
            )
    elif kind is MarketKind.NAIVE or kind is MarketKind.KELLY:
        k = None
    else:
        raise ValueError(f"market kind {kind!r} is not a MarketKind")

    beliefs = np.array(b.b, dtype=float)
    prices = np.linspace(0.0, 1.0, grid.resolution)[1:-1]
    tol = grid.tolerance

    if kind is MarketKind.NAIVE:
        lo, hi = _naive_residual_ranges(beliefs, prices)
    else:
        s_grid = np.linspace(0.0, STAKE_GRID_TOP, grid.strategy_resolution)
        s_step = float(s_grid[1] - s_grid[0])
        quantities = np.empty((prices.size, beliefs.size))
        for start in range(0, prices.size, PRICE_CHUNK):
            stop = min(start + PRICE_CHUNK, prices.size)
            quantities[start:stop] = _grid_best_quantities(
                beliefs, prices[start:stop], s_grid, kind, k
            )
        residual = quantities.sum(axis=1)
        allowance = b.n * s_step / np.minimum(prices, 1.0 - prices)
        lo, hi = residual - allowance, residual + allowance

    prices = np.concatenate(([0.0], prices, [1.0]))
    lo, hi = (np.concatenate(([np.inf], r, [-np.inf])) for r in (lo, hi))
    accepted = (lo <= tol) & (hi >= -tol)
    accepted[[0, -1]] = accepted[[1, -2]]  # a root may lie beyond an accepted end price
    crossing = (lo[:-1] > tol) & (hi[1:] < -tol)
    accepted[:-1] |= crossing
    accepted[1:] |= crossing
    return _merge_accepted(prices, accepted)


def exhaustive_state_conditional_accuracies(
    q: CompetenceProfile, aggregator: Callable[[tuple[str, ...]], Decision]
) -> tuple[float, float]:
    """Group accuracy conditioned on each true state, by full enumeration.

    Every signal profile is generated with itertools and weighted by the
    plain product of per-agent signal likelihoods (an agent emits the true
    state with her competence).  A singleton decision matching the state
    credits its full weight, a tie credits half.
    """
    if q.n > ACCURACY_ORACLE_MAX_AGENTS:
        raise ValueError(
            f"exhaustive enumeration supports up to {ACCURACY_ORACLE_MAX_AGENTS} "
            f"agents, got {q.n}"
        )
    per_state = []
    for state in (STATE_A, STATE_B):
        total = 0.0
        for signals in product((STATE_A, STATE_B), repeat=q.n):
            weight = 1.0
            for qi, yi in zip(q.q, signals):
                weight = weight * (qi if yi == state else 1.0 - qi)
            decision = aggregator(signals)
            if decision is Decision.TIE:
                total += 0.5 * weight
            elif decision.value == state:
                total += weight
        per_state.append(total)
    return per_state[0], per_state[1]


def exhaustive_accuracy_oracle(
    q: CompetenceProfile, aggregator: Callable[[tuple[str, ...]], Decision]
) -> float:
    """Unconditional group accuracy under the uniform prior over states."""
    q_a, q_b = exhaustive_state_conditional_accuracies(q, aggregator)
    return 0.5 * (q_a + q_b)
