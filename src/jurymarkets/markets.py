"""Arrow-security information markets and their competitive equilibria.

Two securities are traded, one per state of the world; a security pays one
unit of wealth if its state obtains and nothing otherwise.  With prices
p and 1 - p summing to one, an agent who stakes a fraction s of her unit
endowment on the winning side ends up with s / p redeemed securities plus
her unspent cash 1 - s, and with just 1 - s if she backed the loser.

Three trader models are solved for the price at which the books balance,
i.e. the quantity of A-securities sold equals the quantity of
B-securities sold:

* naive traders maximise expected wealth, which is linear in the stake and
  therefore all-or-nothing;
* Kelly traders maximise expected log wealth and stake the classic
  proportional gap between belief and price;
* taxed Kelly traders face a concave damping T applied to their winnings,
  with an intensity parameter k that interpolates from plain Kelly (k -> 0)
  to vanishing stakes proportional to log-odds (k -> infinity).

Stakes are signed throughout: one number per agent, +stake on A and -stake
on B.  Every best response is a SideInvestment holding one, and
clearing_price reads a vector of them.  Every solve, solve_market for any
MarketKind included, returns an EquilibriumResult: signed stakes, the
clearing price, and diagnostics (iterations, clearing residual, degeneracy,
and for the taxed solver its Newton steps and final price-bracket width).
market_price returns the same price alone, building stakes only for the
finite taxed market, whose price search needs them, and price_offset reads
the decision offset of a price.  The tax intensity k must be a normal
positive float.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from math import exp, expm1, fsum, isfinite, log, log1p
from sys import float_info

import numpy as np

from .model import BeliefProfile

# Root-finding controls for the taxed model.  The outer loop runs Newton's
# method on the excess demand for securities, safeguarded by bisection, from
# the Kelly price, and stops once two of its probes of opposite sign lie at
# most PRICE_TOLERANCE apart; every probe counts as one outer iteration.  The
# inner loop runs Newton's method on every agent's first-order condition and
# stops once a sign change certifies each stake to within RESPONSE_TOLERANCE
# times itself.  A loop that runs out of iterations raises BracketingError
# instead of returning an uncertified answer.
PRICE_TOLERANCE = 1e-12
RESPONSE_TOLERANCE = 1e-12
MAX_PRICE_PROBES = 100
MAX_NEWTON_STEPS = 100

# Neither tolerance can resolve a root more finely than rounding allows:
# brackets also stop within four ulps of the price, and stakes within four
# ulps of their scale, min(1, 1/k).
ROUNDING_ULPS = 4.0 * float_info.epsilon

# Upper end of the stake bracket, the largest double below 1: staking the
# whole endowment has log-utility minus infinity, so the optimum always sits
# strictly below 1.  It lies at or below this bound too, unless a B-staker's
# mirrored belief 1 - b rounds to 1 (a belief of 1e-20, say).
STAKE_BRACKET_HIGH = 1.0 - 2.0**-53


class MarketKind(Enum):
    NAIVE = "naive"
    KELLY = "kelly"
    TAXED_FINITE = "taxed_finite"
    TAXED_ASYMPTOTIC = "taxed_asymptotic"


class UndefinedPriceError(ValueError):
    """One side of the market attracted no stake, so no price clears it."""


class BracketingError(RuntimeError):
    """A root-finding bracket failed to straddle a sign change."""


@dataclass(frozen=True)
class Diagnostics:
    """Solver bookkeeping attached to every equilibrium result.

    Diagnostics describe a solved market.  A closed-form price (the
    asymptotic taxed market) has none and carries the empty Diagnostics():
    0 iterations, residual 0 and degenerate False, even beside all-zero
    stakes.  ``residual`` is the imbalance in security quantities,
    (1/p) * sum(sA) - (1/(1-p)) * sum(sB); ``degenerate`` marks markets with
    no trade on some side, where that ratio is not defined.  The taxed
    solver also reports every price probe as ``iterations``, its Newton steps
    summed over those probes as ``inner_iterations``, and the distance between
    the two probes that ended the search as ``price_bracket_width``.
    """

    iterations: int = 0
    residual: float = 0.0
    degenerate: bool = False
    inner_iterations: int = 0
    price_bracket_width: float = 0.0


_NO_DIAGNOSTICS = Diagnostics()  # of a closed-form price, shared by every such result


@dataclass(frozen=True)
class EquilibriumResult:
    """Signed stakes (Python floats in [-1, 1], +s on A and -s on B), price
    and diagnostics, for every market kind.  ``offset`` reads the decision;
    clearing_price(stakes) reprices the stakes."""

    stakes: tuple[float, ...]
    price: float
    kind: MarketKind
    diagnostics: Diagnostics
    k: float | None = None

    @property
    def offset(self) -> float:
        """The decision offset of the price; see price_offset."""
        return price_offset(self.kind, self.price, len(self.stakes))


def price_offset(kind: MarketKind, price: float, n: int) -> float:
    """The decision offset of an n-agent market's price, read with the shared
    tie band in the paired election's margin units: n (p - 1/2) for the Kelly
    (the linear-weight margin, p being the mean belief) and finite taxed
    markets, (n/2) logit(p) for the asymptotic one (the log-odds margin), and
    the exact sign of p - 1/2 for the naive price, a belief or a split i/n."""
    if kind is MarketKind.NAIVE:
        return float((price > 0.5) - (price < 0.5))
    if kind is MarketKind.TAXED_ASYMPTOTIC:
        return 0.5 * n * log(price / (1.0 - price))
    if kind is MarketKind.KELLY or kind is MarketKind.TAXED_FINITE:
        return n * (price - 0.5)
    raise ValueError(f"market kind {kind!r} is not a MarketKind")


@dataclass(frozen=True)
class SideInvestment:
    """A single agent's optimal stake, signed: +s on A, -s on B, 0 for none.
    ``side`` and ``fraction`` read its side and size."""

    stake: float

    @property
    def side(self) -> str | None:  # "A", "B", or None when not investing
        return "A" if self.stake > 0.0 else "B" if self.stake < 0.0 else None

    @property
    def fraction(self) -> float:
        return abs(self.stake)


def _check_price(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"price {p!r} must lie strictly inside (0, 1)")


def _check_belief(b: float) -> None:
    if not 0.0 < b < 1.0:
        raise ValueError(f"belief {b!r} must lie strictly inside (0, 1)")


def _check_k(k: float | None) -> None:
    # Normal floats only (no NaN): a subnormal k loses the belief's digits in k * b.
    if k is None or not float_info.min <= k <= float_info.max:
        raise ValueError(
            f"tax intensity needs a finite positive k >= {float_info.min!r}, got {k!r}"
        )


def _side_sums(stakes: Sequence[float]) -> tuple[float, float]:
    """sum(sA) and sum(sB) of signed stakes, each by fsum; the first stake
    outside [-1, 1], NaN included, is named."""
    for i, x in enumerate(stakes):
        if not -1.0 <= x <= 1.0:
            raise ValueError(f"stake {i}={float(x)!r} outside [-1, 1]")
    return fsum([x for x in stakes if x > 0.0]), fsum([-x for x in stakes if x < 0.0])


def clearing_price(stakes: Sequence[float]) -> float:
    """The unique price equating security quantities on the two sides.

    For signed stakes, balancing (1/p) * sum(sA) = (1/(1-p)) * sum(sB) gives
    p = sum(sA) / (sum(sA) + sum(sB)), undefined when a side has no stake.
    """
    a, b = _side_sums(stakes)
    if a == 0.0 or b == 0.0:
        raise UndefinedPriceError(
            f"no stake on {'A' if a == 0.0 else 'B'}-side: clearing ratio undefined"
        )
    return a / (a + b)


def naive_utility(p: float, b: float, s: float) -> float:
    """Expected wealth of staking s on the security priced p under belief b.

    Linear in s.  The mirrored-side value is naive_utility(1-p, 1-b, s).
    """
    _check_price(p)
    _check_belief(b)
    return b * (s / p - s + 1.0) + (1.0 - b) * (1.0 - s)


def kelly_utility(p: float, b: float, s: float) -> float:
    """Expected log wealth of staking s on the security priced p.

    Staking everything risks log(0); that branch is the -inf sentinel.
    The mirrored-side value is kelly_utility(1-p, 1-b, s).
    """
    _check_price(p)
    _check_belief(b)
    if s == 1.0:
        return float("-inf")
    return b * log1p(s * (1.0 - p) / p) + (1.0 - b) * log1p(-s)


def naive_best_response(b: float, p: float) -> SideInvestment | None:
    """The expected-wealth optimum: everything on the side that looks cheap.

    Expected wealth is linear in the stake, so the optimum is all in: +1.0
    (on A) when b > p and -1.0 (on B) when b < p.  At b == p both securities
    are fair bets and every stake is optimal, so there is no single best
    response and None is returned.  The A-stake is non-increasing in p and
    the B-stake non-decreasing: all on A below the belief, all on B above it.
    """
    _check_price(p)
    _check_belief(b)
    if b == p:
        return None
    return SideInvestment(1.0 if b > p else -1.0)


def _kelly_signed(b: float, p: float) -> float:
    """Signed Kelly stake: (b - p) / (1 - p) on A, -(p - b) / p on B."""
    return (b - p) / (1.0 - p if b > p else p)


def kelly_best_response(b: float, p: float) -> SideInvestment:
    """The log-utility optimum: stake the belief-price gap over the odds.

    (b - p) / (1 - p) on A when the price looks cheap, (p - b) / p on B when
    it looks dear, nothing at b == p.  The A-stake is non-increasing in p
    (its derivative is -(1-b)/(1-p)^2) and the B-stake non-decreasing (b/p^2).
    """
    _check_price(p)
    _check_belief(b)
    return SideInvestment(_kelly_signed(b, p))


def tax_function(x: float, p: float, k: float) -> float:
    """Concave damping applied to market winnings.

    T(x) = (1 - exp(-k * x * p / (1-p))) / (k * p / (1-p)); monotone
    increasing, concave, T(0) = 0, and T(x) -> x as k -> 0.
    """
    _check_price(p)
    _check_k(k)
    a = k * p / (1.0 - p)
    return -expm1(-a * x) / a


def taxed_utility(p: float, b: float, s: float, k: float) -> float:
    """Expected log wealth when winnings pass through the tax.

    The winning branch keeps the stake and collects the damped profit,
    1 + T(s * (1-p) / p), so the k -> 0 limit recovers kelly_utility.
    The mirrored-side value is taxed_utility(1-p, 1-b, s, k).
    """
    _check_price(p)
    _check_belief(b)
    _check_k(k)
    if s == 1.0:
        return float("-inf")
    return b * log1p(tax_function(s * (1.0 - p) / p, p, k)) + (1.0 - b) * log1p(-s)


def taxed_foc_residual(s: float, b: float, p: float, k: float) -> float:
    """Derivative of taxed_utility in the stake, in reduced form.

    k * b * exp(-k s) / (k p/(1-p) + 1 - exp(-k s)) - (1-b) / (1-s).
    Positive below the optimum, negative above it.
    """
    _check_k(k)
    a = k * p / (1.0 - p)
    return k * b * exp(-k * s) / (a - expm1(-k * s)) - (1.0 - b) / (1.0 - s)


# Past k of about 1e154 the Newton slope overflows (the step is then 0); the
# sign test rejects such a stake.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _taxed_stakes_signed(
    beliefs: np.ndarray, p: float, k: float, tol: float = RESPONSE_TOLERANCE
) -> tuple[np.ndarray, int]:
    """Vectorised taxed best responses at price p: +stake on A, -stake on B.

    Agents below the price are mapped through the mirror (1-b, 1-p), so every
    active agent has b > p.  Clearing the positive denominators of the
    first-order condition leaves

        h(s) = k b e^(-ks) (1-s) - (1-b) (a - expm1(-ks)),  a = k p/(1-p),

    with h(0) > 0, h' = -k e^(-ks) (k b (1-s) + 1) < 0 and
    h'' = k^2 e^(-ks) (k b (1-s) + 1 + b) > 0.  On a convex decreasing h,
    Newton's method clamped at a lower bound of the root lands left of the
    root after one step and then climbs to it monotonically, so no bracket
    needs keeping.  It starts at the smaller of the Kelly stake and the
    log-odds/k stake, and stops only when the sign change
    h(s-t) >= 0 >= h(s+t) certifies every stake, where t is tol * s plus a
    few ulps of the stake scale min(1, 1/k).  Returns the signed stakes and
    the number of Newton steps; raises BracketingError at once when some
    active agent's a overflows (near k = 1e308), and otherwise when the
    optimum lies above STAKE_BRACKET_HIGH or the steps run out.
    """
    above = beliefs > p
    active = beliefs != p
    bb = np.where(above, beliefs, 1.0 - beliefs)[active]
    pp = np.where(above, p, 1.0 - p)[active]
    a = k * pp / (1.0 - pp)
    if not np.isfinite(a).all():  # h is then -inf or NaN, which never certifies
        raise BracketingError(f"taxed stakes undefined, k p/(1-p) overflows at p={p!r}, k={k!r}")
    kb = k * bb
    one_minus_b = 1.0 - bb

    def h(s: np.ndarray) -> np.ndarray:
        return kb * np.exp(-k * s) * (1.0 - s) - one_minus_b * (a - np.expm1(-k * s))

    # The taxed optimum never exceeds the Kelly stake, so only an agent whose
    # Kelly stake reaches the top of the stake bracket can have it past there.
    kelly = (bb - pp) / (1.0 - pp)
    if (kelly >= STAKE_BRACKET_HIGH).any():
        h_top = h(np.full_like(bb, STAKE_BRACKET_HIGH))
        if (h_top >= 0.0).any():
            raise BracketingError(
                "taxed first-order condition does not change sign on "
                f"[0, {STAKE_BRACKET_HIGH}]: residual at the top is {float(np.max(h_top))!r}"
            )
    # Newton starts at the smaller of the Kelly and log-odds/k stakes, both at
    # or above the optimum.  Its steps are clamped at a stake no larger than
    # the optimum rather than at 0: at the root, e^(-ks) (1-s) equals
    # (1-b)(a + 1 - e^(-ks)) / (kb) <= (1-b)(a+1)/(kb), and s <= the start.
    s = np.minimum(kelly, np.log(bb * (1.0 - pp) / (one_minus_b * pp)) / k)
    lower = np.maximum(np.log1p(-s) + np.log(kb / (one_minus_b * (a + 1.0))), 0.0) / k
    floor = ROUNDING_ULPS * min(1.0, 1.0 / k)
    for steps in range(1, MAX_NEWTON_STEPS + 1):
        e = np.exp(-k * s)
        value = kb * e * (1.0 - s) - one_minus_b * (a - np.expm1(-k * s))
        new = np.maximum(s + value / (k * e * (kb * (1.0 - s) + 1.0)), lower)
        t = tol * new + floor
        settled = (np.abs(new - s) <= t).all()
        s = new
        if settled and (h(s - t) >= 0.0).all() and (h(s + t) <= 0.0).all():
            break
    else:
        raise BracketingError(
            f"taxed stakes not certified after {MAX_NEWTON_STEPS} Newton steps at price {p!r}"
        )
    stakes = np.zeros_like(beliefs)
    stakes[active] = s
    return np.where(above, stakes, -stakes), steps


def taxed_best_response(b: float, p: float, k: float) -> SideInvestment:
    """Certified Newton root of the taxed first-order condition at price p.

    The stake is within RESPONSE_TOLERANCE times itself, plus a few ulps, of
    the optimum.  The A-stake is non-increasing in p and the B-stake
    non-decreasing: raising p lowers the first-order condition at every stake
    (a = k p/(1-p) grows), so its root moves down.
    """
    _check_price(p)
    _check_belief(b)
    _check_k(k)
    return SideInvestment(float(_taxed_stakes_signed(np.array([b]), p, k)[0][0]))


def taxed_best_response_asymptotic(b: float, p: float, k: float) -> SideInvestment:
    """Closed-form limit of the taxed stake for heavy damping.

    The optimum collapses like (1/k) * ln((1-p)/p * b/(1-b)); useful as the
    reference curve the finite-k stakes approach as k grows.  Unclamped: at
    small k the expression may exceed 1 and is then purely nominal.
    """
    _check_price(p)
    _check_belief(b)
    _check_k(k)
    return SideInvestment(_asymptotic_log_ratios((b,), p)[0] / k)


def _asymptotic_log_ratios(beliefs: Sequence[float], p: float) -> list[float]:
    """k times each asymptotic taxed stake: the signed log odds ratio of each
    belief b to the price p.

    One log of the ratio that is at least 1, negated for a B-staker, so the
    two sides mirror each other bit for bit.  Where that ratio overflows,
    which takes a belief or price near 0, the log is the difference of the
    two log-odds instead.
    """
    against, odds = (1.0 - p) / p, p / (1.0 - p)
    ratios = [
        log(against * b / (1.0 - b)) if b > p else -log(odds * (1.0 - b) / b) if b < p else 0.0
        for b in beliefs
    ]
    if isfinite(sum(ratios)):  # each finite ratio is below 800 in size, so no sum overflows
        return ratios
    return [r if isfinite(r) else log(b / (1.0 - b)) - log(odds) for r, b in zip(ratios, beliefs)]


def _result(
    signed: list[float],
    price: float,
    kind: MarketKind,
    iterations: int = 0,
    k: float | None = None,
    inner_iterations: int = 0,
    price_bracket_width: float = 0.0,
) -> EquilibriumResult:
    """Package signed stakes (+stake on A, -stake on B) as a result.

    The stakes are checked as in clearing_price.  The residual is the
    quantity imbalance (1/p) * sum(sA) - (1/(1-p)) * sum(sB), reported as 0
    when some side carries no stake.
    """
    on_a, on_b = _side_sums(signed)
    degenerate = on_a == 0.0 or on_b == 0.0
    return EquilibriumResult(
        stakes=tuple(signed),
        price=price,
        kind=kind,
        diagnostics=Diagnostics(
            iterations=iterations,
            residual=0.0 if degenerate else on_a / price - on_b / (1.0 - price),
            degenerate=degenerate,
            inner_iterations=inner_iterations,
            price_bracket_width=price_bracket_width,
        ),
        k=k,
    )


def _naive_crossing(b: BeliefProfile) -> tuple[list[int], int, float]:
    """The naive market's ranking of agents, crossing index m and price.

    Beliefs are ranked in descending order, ties broken by agent index, and
    m counts the leading ranks j (from 0) with b_(j) >= (j+1)/n; b_(j) - j/n
    strictly decreases in j, so those ranks come first.  Beliefs lie inside
    (0, 1), so m < n.  The price is the full split m/n if b_(m) <= m/n
    (which needs m >= 1), and otherwise b_(m), the belief of the marginal
    agent.
    """
    n = b.n
    # A reverse sort is stable, so tied beliefs keep agent order.
    order = sorted(range(n), key=b.b.__getitem__, reverse=True)
    ranked = [b.b[i] for i in order]
    m = 0
    while ranked[m] >= (m + 1) / n:
        m += 1
    bm = ranked[m]
    return order, m, m / n if bm <= m / n else bm


def _kelly_price(b: BeliefProfile) -> float:
    """The log-utility market's price: the arithmetic mean of beliefs."""
    return fsum(b.b) / b.n


def naive_equilibrium(b: BeliefProfile) -> EquilibriumResult:
    """Competitive equilibrium of the all-or-nothing market.

    Agents ranked above the crossing index m (see _naive_crossing) stake
    everything on A and those below it everything on B.  At the full split
    m/n, agent m also goes all-in on B.  Otherwise agent m is marginal: the
    price is her belief and her partial stake balances the security
    quantities.

    The equilibrium is unique.  A single-agent market is degenerate: there
    is nobody to trade against, her stake is zero, and the price is her
    belief with the degenerate flag set.
    """
    n = b.n
    order, m, price = _naive_crossing(b)
    signed = [0.0] * n
    for rank, agent in enumerate(order):
        signed[agent] = 1.0 if rank < m else -1.0
    if price == m / n:
        return _result(signed, price, MarketKind.NAIVE)
    bm = price  # agent m's belief
    # Quantity balance at price bm with agent m on A:
    # (1/bm) * (m + x) = (1/(1-bm)) * (n-m-1).
    x = bm * (n - m - 1) / (1.0 - bm) - m
    # Otherwise she balances the books from the B side instead:
    # (1/bm) * m = (1/(1-bm)) * ((n-m-1) + x).
    signed[order[m]] = x if x >= 0.0 else (n - m - 1) - m * (1.0 - bm) / bm
    return _result(signed, bm, MarketKind.NAIVE)


def kelly_equilibrium(b: BeliefProfile) -> EquilibriumResult:
    """Competitive equilibrium of the log-utility market.

    The books balance exactly at the arithmetic mean of beliefs; stakes are
    the per-agent Kelly gaps at that price.
    """
    price = _kelly_price(b)
    return _result([_kelly_signed(bi, price) for bi in b.b], price, MarketKind.KELLY)


def _price_slopes(s: np.ndarray, b: np.ndarray, p: np.ndarray | float, k: float) -> np.ndarray:
    """Each agent's share of -G'(p), G being what the taxed price search
    zeroes: s + (1-b) e^(ks) / ((1-p) (k b (1-s) + 1)) for stake s, belief b
    and price p on her side (B through the mirror).  Implicit differentiation
    of h(s) = 0 (see _taxed_stakes_signed) gives the A-stake's slope in the
    price, ds/dp = -(1-b) / ((1-p)^2 e^(-ks) (k b (1-s) + 1))."""
    return s + (1.0 - b) * np.exp(k * s) / ((1.0 - p) * (k * b * (1.0 - s) + 1.0))


def taxed_equilibrium_finite(
    b: BeliefProfile,
    k: float,
    price_tol: float = PRICE_TOLERANCE,
    response_tol: float = RESPONSE_TOLERANCE,
) -> EquilibriumResult:
    """Competitive equilibrium of the taxed market at a finite intensity k.

    The search zeroes G(p) = (1-p) * sum of A-stakes - p * sum of B-stakes,
    p (1-p) times the excess demand for securities without its blow-up near
    0 and 1.  G > 0 below the smallest belief and G <= 0 from the largest
    up, so those two bracket the price.  Newton steps on G, whose slope each
    probe reads off its stakes (_price_slopes), start at the Kelly price.  A
    step that would leave the bracket or not halve the step before last (as
    in rtsafe, Numerical Recipes) bisects instead, and one shorter than half
    the tolerance becomes a nudge of half the tolerance towards the price,
    after which the search bisects unless the nudge crossed it.  It stops
    once a probe with G > 0 and one with G <= 0 lie at most price_tol plus
    four ulps of the price apart, and returns the one with the smaller |G|
    with its stakes, certified to the relative tolerance response_tol
    (_taxed_stakes_signed); iterations counts every probe.  BracketingError
    is raised when a loop runs out of iterations or a step cannot move the probe.
    """
    _check_k(k)
    beliefs = np.array(b.b, dtype=float)
    complement = 1.0 - beliefs
    newton_steps = 0

    def probe(p: float) -> tuple[float, float, float, np.ndarray]:
        """p, G(p), -G'(p) and the signed stakes at p."""
        nonlocal newton_steps
        signed, steps = _taxed_stakes_signed(beliefs, p, k, response_tol)
        newton_steps += steps
        on_a = signed > 0.0
        scaled = np.where(on_a, signed * (1.0 - p), signed * p)
        with np.errstate(over="ignore", invalid="ignore"):
            slope = _price_slopes(
                np.abs(signed), np.where(on_a, beliefs, complement), np.where(on_a, p, 1.0 - p), k
            ).sum()
        return p, fsum(scaled.tolist()), float(slope), signed

    # G > 0 below lo and G <= 0 at hi, which move to the latest probe of each
    # sign, low and high; older is the step before the last one.
    lo, hi = float(beliefs.min()), float(beliefs.max())
    low = high = None
    x = min(max(_kelly_price(b), lo), hi)
    older = last = hi - lo
    nudged = False
    for iterations in range(1, MAX_PRICE_PROBES + 1):
        _, f, slope, _ = cur = probe(x)
        if f > 0.0:
            lo, low = x, cur
        else:
            hi, high = x, cur
        if low is not None and high is not None:
            best = min(low, high, key=lambda c: abs(c[1]))
            if abs(high[0] - low[0]) <= price_tol + ROUNDING_ULPS * best[0]:
                break
        nudge = 0.5 * (price_tol + ROUNDING_ULPS * x)
        step = f / slope if slope > 0.0 else float("inf")
        if nudged or not (abs(step) < nudge or lo < x + step < hi and 2 * abs(step) <= abs(older)):
            step = 0.5 * (lo + hi) - x
        nudged = abs(step) < nudge
        if nudged:  # towards the price, short of hi and of 0
            step = min(nudge, hi - x) if f > 0.0 else max(-nudge, -0.5 * x)
        if x + step == x:  # the bracket holds no other double to probe
            raise BracketingError(f"taxed price probe cannot move off {x!r} in [{lo!r}, {hi!r}]")
        older, last = last, step
        x += step
    else:
        raise BracketingError(
            f"taxed price not bracketed to {price_tol!r} after {MAX_PRICE_PROBES} "
            f"probes: [{lo!r}, {hi!r}]"
        )

    price, _, _, signed = best
    return _result(
        signed.tolist(), price, MarketKind.TAXED_FINITE, iterations, k,
        inner_iterations=newton_steps, price_bracket_width=abs(high[0] - low[0]),
    )


def taxed_equilibrium_asymptotic(b: BeliefProfile) -> float:
    """Closed-form price of the heavily damped market: logistic mean log-odds.

    ln(p / (1-p)) = (1/n) * sum of ln(b_i / (1-b_i)).  The closed form
    balances the aggregate stakes on the two sides (the per-agent stakes all
    shrink like 1/k, proportionally to belief-vs-price log-odds).  Note that
    the finite-k solver balances security *quantities*, whose k -> infinity
    fixed point is a nearby but distinct price whenever the market is
    lopsided; the two coincide at 0.5 and always fall on the same side of
    0.5, so binarised decisions agree.
    """
    mean_log_odds = fsum(log(bi / (1.0 - bi)) for bi in b.b) / b.n
    try:
        return 1.0 / (1.0 + exp(-mean_log_odds))
    except OverflowError:  # beliefs near 0, where the logistic is exp(mean_log_odds) to rounding
        return exp(mean_log_odds)


def market_price(b: BeliefProfile, kind: MarketKind, k: float | None) -> float:
    """The clearing price solve_market(b, kind, k) reports, bit for bit, with
    no stakes built for the three closed-form kinds; the finite taxed price
    is solved as in solve_market (its price search needs the stakes), and
    raises as it does."""
    if kind is MarketKind.NAIVE:
        return _naive_crossing(b)[2]
    if kind is MarketKind.KELLY:
        return _kelly_price(b)
    if kind is MarketKind.TAXED_FINITE:
        return taxed_equilibrium_finite(b, k).price
    if kind is MarketKind.TAXED_ASYMPTOTIC:
        return taxed_equilibrium_asymptotic(b)
    raise ValueError(f"market kind {kind!r} is not a MarketKind")


def solve_market(b: BeliefProfile, kind: MarketKind, k: float | None) -> EquilibriumResult:
    """Solve one market kind; only the finite taxed market reads k, and
    only its result records it (``result.k``; None for every other kind).

    The asymptotic result holds the closed-form price, one zero stake per
    agent (the k -> infinity limit of every taxed stake) and the empty
    Diagnostics() of a closed form, whose degenerate is False although no
    agent trades: diagnostics describe solved markets only.
    """
    if kind is MarketKind.NAIVE:
        return naive_equilibrium(b)
    if kind is MarketKind.KELLY:
        return kelly_equilibrium(b)
    if kind is MarketKind.TAXED_FINITE:
        return taxed_equilibrium_finite(b, k)
    if kind is not MarketKind.TAXED_ASYMPTOTIC:
        raise ValueError(f"market kind {kind!r} is not a MarketKind")
    price = taxed_equilibrium_asymptotic(b)
    return EquilibriumResult((0.0,) * b.n, price, kind, _NO_DIAGNOSTICS)


def taxed_half_price_weights(q: np.ndarray, k: float) -> np.ndarray:
    """Taxed stakes w of beliefs q at price 1/2, scaled to read as n (p* - 1/2).

    For competences q, the market of a signal profile has G(1/2) = (sum of w
    over A-signal agents) - (sum of w) / 2, where G(p) = (1-p) * sum of
    A-stakes - p * sum of B-stakes is what the solver's price search zeroes
    (a B-signal agent stakes on B what an A-signal agent stakes on A).
    Every agent's share of S = -G'(1/2) is w + 2 (1-q) e^(kw) / (k q (1-w) + 1)
    (see _price_slopes), so p* - 1/2 = G(1/2) / S to first order, and w is
    returned times n / S.  As k -> 0, w -> 2q - 1 and S -> n.
    """
    w = _taxed_stakes_signed(q, 0.5, k)[0]
    return w * (q.size / fsum(_price_slopes(w, q, 0.5, k).tolist()))


def full_investment_equivalence(b: float, p: float) -> tuple[float, float]:
    """Two bookings of the same log-utility optimum; returns both utilities.

    First: the whole endowment is split across both securities, s on A and
    1-s on B, with optimum s = b, giving b*ln(b/p) + (1-b)*ln((1-b)/(1-p)).
    Second: the classic single-sided Kelly stake with the rest held as
    cash.  The winning-branch wealths coincide alternative by alternative
    (the cash plus one-sided payout re-derives b/p and (1-b)/(1-p)), so the
    two expected utilities are equal.
    """
    _check_price(p)
    _check_belief(b)
    u_full = b * log(b / p) + (1.0 - b) * log((1.0 - b) / (1.0 - p))
    if b > p:
        s = (b - p) / (1.0 - p)
        u_single = b * log(s / p + (1.0 - s)) + (1.0 - b) * log(1.0 - s)
    elif b < p:
        s = (p - b) / p
        u_single = b * log(1.0 - s) + (1.0 - b) * log(s / (1.0 - p) + (1.0 - s))
    else:
        u_single = 0.0
    return u_full, u_single
