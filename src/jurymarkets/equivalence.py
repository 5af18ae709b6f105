"""Cross-checks between weighted elections and market equilibria.

Three weight schemes pair off with three trader models so that binarising
the market's clearing price reproduces the weighted-majority outcome:

* simple majority (equal weights)      <->  expected-wealth (naive) market
* linear weights 2q - 1                <->  log-utility (Kelly) market
* log-odds weights ln(q / (1 - q))     <->  heavily taxed market (k -> inf)

Each checker runs both sides on the same competence/signal inputs and
reports the two decisions, the clearing price, and the raw weighted margin
so a disagreement is diagnosable.  The first two pairings and the
asymptotic third are exact equivalences; at finite tax intensity the third
is only a convergence statement, so those reports carry guaranteed=False
and a disagreement is data, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .markets import MarketKind, solve_market
from .model import CompetenceProfile, Decision, SignalProfile, beliefs_from_signals
from .voting import (  # TIE_TOLERANCE and decision_from_offset are re-exported
    TIE_TOLERANCE,
    WeightProfile,
    decision_from_offset,
    votes_from_beliefs,
    weighted_margin,
    weights_egalitarian,
    weights_linear,
    weights_log_odds,
)

WEIGHT_SCHEMES: dict[str, Callable[[CompetenceProfile], WeightProfile]] = {
    "egalitarian": lambda q: weights_egalitarian(q.n),
    "linear": weights_linear,
    "log_odds": weights_log_odds,
}


class EquivalenceScheme(Enum):
    SIMPLE_NAIVE = "simple_naive"
    LINEAR_KELLY = "linear_kelly"
    LOG_ODDS_TAXED = "log_odds_taxed"


# Each pairing's weight scheme and the market whose binarised price
# reproduces that weighted majority.
PAIRINGS: dict[EquivalenceScheme, tuple[str, MarketKind]] = {
    EquivalenceScheme.SIMPLE_NAIVE: ("egalitarian", MarketKind.NAIVE),
    EquivalenceScheme.LINEAR_KELLY: ("linear", MarketKind.KELLY),
    EquivalenceScheme.LOG_ODDS_TAXED: ("log_odds", MarketKind.TAXED_ASYMPTOTIC),
}

ALL_SCHEMES = tuple(EquivalenceScheme)


@dataclass(frozen=True)
class EquivalenceReport:
    """Both sides of one commuting-diagram check, with raw diagnostics."""

    scheme: EquivalenceScheme
    election: Decision
    market: Decision
    agree: bool
    price: float
    weighted_margin: float
    guaranteed: bool
    k: float | None = None


def check_scheme(
    scheme: EquivalenceScheme,
    q: CompetenceProfile,
    y: SignalProfile,
    k: float | None = None,
) -> EquivalenceReport:
    """One commuting-diagram check: a weighted majority vs its paired market.

    Both sides run on the same beliefs and are read with the same tie band:
    the election on its weighted margin, the market on solve_market's
    offset, which is in the same units.  The log-odds pairing's market is
    the heavy-damping closed form, so agreement is exact.  With a finite k
    that pairing solves the finite-k taxed market instead; agreement then
    only tends to hold as k grows, so guaranteed is False.  The other
    pairings ignore k.
    """
    weights, kind = PAIRINGS[scheme]
    finite = kind is MarketKind.TAXED_ASYMPTOTIC and k is not None
    if finite:
        kind = MarketKind.TAXED_FINITE
    beliefs = beliefs_from_signals(q, y)
    margin = weighted_margin(votes_from_beliefs(beliefs), WEIGHT_SCHEMES[weights](q))
    price, offset, _ = solve_market(beliefs, kind, k)
    election = decision_from_offset(margin)
    market = decision_from_offset(offset)
    return EquivalenceReport(
        scheme=scheme,
        election=election,
        market=market,
        agree=election.members == market.members,
        price=price,
        weighted_margin=margin,
        guaranteed=not finite,
        k=k if finite else None,
    )


def check_simple_naive(q: CompetenceProfile, y: SignalProfile) -> EquivalenceReport:
    """Simple majority vs the binarised expected-wealth clearing price."""
    return check_scheme(EquivalenceScheme.SIMPLE_NAIVE, q, y)


def check_linear_kelly(q: CompetenceProfile, y: SignalProfile) -> EquivalenceReport:
    """Linear-weight majority vs the binarised log-utility clearing price."""
    return check_scheme(EquivalenceScheme.LINEAR_KELLY, q, y)


def check_log_odds_taxed(
    q: CompetenceProfile, y: SignalProfile, k: float | None = None
) -> EquivalenceReport:
    """Log-odds majority vs the binarised taxed-market clearing price."""
    return check_scheme(EquivalenceScheme.LOG_ODDS_TAXED, q, y, k)


def check_all_schemes(
    q: CompetenceProfile, y: SignalProfile, k: float | None = None
) -> list[EquivalenceReport]:
    """All three checks on one input; k only affects the taxed scheme."""
    return [check_simple_naive(q, y), check_linear_kelly(q, y), check_log_odds_taxed(q, y, k)]
