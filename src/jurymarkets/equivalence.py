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

The checks share their inputs: the beliefs and votes of the last
(competences, signals) pair and the last panel's weights under each scheme
are memoised, so check_all_schemes builds a profile's beliefs once and an
exhaustive sweep builds each scheme's weights once.  Every check prices its
market afresh from that profile's beliefs and sets that price against the
election; stakes are built only by solve_market (and inside the finite
taxed market's price search, which needs them).  check_all_schemes still
calls the three public checkers once per profile, so a wrapper installed on
any of them (a tracer, a test's counter) sees every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

from .markets import MarketKind, market_price, price_offset
from .model import BeliefProfile, CompetenceProfile, Decision, SignalProfile, beliefs_from_signals
from .voting import (
    VotingProfile,
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

# The weight scheme whose majority each closed-form market decides like;
# the finite taxed market has none.
MARKET_SCHEMES: dict[MarketKind, str] = {kind: scheme for scheme, kind in PAIRINGS.values()}

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


@lru_cache(maxsize=1)
def _profile_inputs(
    q: CompetenceProfile, y: SignalProfile
) -> tuple[BeliefProfile, VotingProfile]:
    """The beliefs and votes of one signal profile, kept for the next check of it."""
    beliefs = beliefs_from_signals(q, y)
    return beliefs, votes_from_beliefs(beliefs)


@lru_cache(maxsize=len(WEIGHT_SCHEMES))
def _panel_weights(
    scheme_fn: Callable[[CompetenceProfile], WeightProfile], q: CompetenceProfile
) -> WeightProfile:
    """One scheme's weights for a panel.

    Keyed on the scheme's function, not its name, so that a function put
    into WEIGHT_SCHEMES in place of another is called rather than bypassed.
    """
    return scheme_fn(q)


def check_scheme(
    scheme: EquivalenceScheme,
    q: CompetenceProfile,
    y: SignalProfile,
    k: float | None = None,
) -> EquivalenceReport:
    """One commuting-diagram check: a weighted majority vs its paired market.

    Both sides run on the same beliefs and are read with the same tie band:
    the election on its weighted margin, the market on its clearing price's
    offset (price_offset), which is in the same units.  The log-odds
    pairing's market is the heavy-damping closed form, so agreement is
    exact.  With a finite k that pairing prices the finite-k taxed market
    instead; agreement then only tends to hold as k grows, so guaranteed is
    False.  The other pairings ignore k.

    The beliefs and votes come from a one-entry memo that the three
    pairings of a profile share, and the weights from a memo keyed on q and
    the scheme's current function in WEIGHT_SCHEMES.  Every check prices
    its market afresh (market_price, the price solve_market reports); stakes
    are built only by solve_market.
    """
    try:
        weights, kind = PAIRINGS[scheme]
    except (KeyError, TypeError):
        raise ValueError(f"scheme {scheme!r} is not an EquivalenceScheme") from None
    finite = kind is MarketKind.TAXED_ASYMPTOTIC and k is not None
    if finite:
        kind = MarketKind.TAXED_FINITE
    beliefs, votes = _profile_inputs(q, y)
    margin = weighted_margin(votes, _panel_weights(WEIGHT_SCHEMES[weights], q))
    price = market_price(beliefs, kind, k)
    election = decision_from_offset(margin)
    market = decision_from_offset(price_offset(kind, price, beliefs.n))
    return EquivalenceReport(
        scheme=scheme,
        election=election,
        market=market,
        agree=election is market,
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
