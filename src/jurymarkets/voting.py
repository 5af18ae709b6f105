"""Weighted majority elections over binary votes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .model import BeliefProfile, CompetenceProfile, Decision

# Weighted margins and price offsets within this bound of zero are read as
# ties: weights and prices computed from float competences carry relative
# error ~1e-16, so algebraically tied cases land within a few ulps of zero
# rather than exactly on it.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class VotingProfile:
    """One vote per agent: 1 backs alternative A, 0 backs alternative B."""

    v: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", tuple(self.v))
        if not self.v:
            raise ValueError("voting profile must contain at least one agent")
        for i, x in enumerate(self.v):
            if x not in (0, 1):
                raise ValueError(f"vote v[{i}]={x!r} must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.v)


@dataclass(frozen=True)
class WeightProfile:
    """Nonnegative voter weights, not all zero.  Scale is irrelevant."""

    w: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", tuple(float(x) for x in self.w))
        if not self.w:
            raise ValueError("weight profile must contain at least one agent")
        for i, x in enumerate(self.w):
            if not math.isfinite(x) or x < 0.0:
                raise ValueError(f"weight w[{i}]={x!r} must be finite and >= 0")
        if all(x == 0.0 for x in self.w):
            raise ValueError("at least one weight must be positive")

    @property
    def n(self) -> int:
        return len(self.w)


def weighted_margin(votes: VotingProfile, weights: WeightProfile) -> float:
    """Weight mass behind A minus half of the total weight.

    Both sums go through fsum, so each is correctly rounded, but an
    algebraically balanced split still need not land on exactly 0.0: the
    weights themselves carry rounding.  Log-odds weights for competences
    (2/3, 2/3, 0.8) with signals AAB give -2.2e-16.  Ties are read by
    decision_from_offset's tolerance band, not by comparing with zero.
    """
    if votes.n != weights.n:
        raise ValueError(f"{votes.n} votes but {weights.n} weights")
    support = fsum(w for w, v in zip(weights.w, votes.v) if v == 1)
    return support - 0.5 * fsum(weights.w)


def decision_from_offset(offset: float) -> Decision:
    """Ternary sign of a margin-like quantity, with a tie band around zero."""
    if offset > TIE_TOLERANCE:
        return Decision.A
    if offset < -TIE_TOLERANCE:
        return Decision.B
    return Decision.TIE


def decisions_from_offsets(offsets: np.ndarray) -> np.ndarray:
    """decision_from_offset over a vector, coded as int8: +1 A, -1 B, 0 tie."""
    return (offsets > TIE_TOLERANCE).astype(np.int8) - (offsets < -TIE_TOLERANCE)


def weighted_majority(votes: VotingProfile, weights: WeightProfile) -> Decision:
    """{A} if the weighted support for A exceeds half the total weight, {B} if
    it falls short, and a tie when the two sides carry equal weight.

    The margin is read by decision_from_offset, so a margin within
    TIE_TOLERANCE of zero is a tie, as for every other decision rule.
    """
    return decision_from_offset(weighted_margin(votes, weights))


def weights_egalitarian(n: int) -> WeightProfile:
    """One vote, one voice."""
    if n < 1:
        raise ValueError("need at least one agent")
    return WeightProfile((1.0,) * n)


def weights_linear(q: CompetenceProfile) -> WeightProfile:
    """Weights proportional to competence above chance: 2 q_i - 1."""
    return WeightProfile(tuple(2.0 * qi - 1.0 for qi in q.q))


def weights_log_odds(q: CompetenceProfile) -> WeightProfile:
    """Weights proportional to the log-odds of being right: ln(q_i / (1 - q_i)).

    These are the accuracy-maximising weights for independent binary signals.
    Emitted unnormalised; majority decisions are scale-invariant except for
    margins near TIE_TOLERANCE, whose band is absolute.
    """
    return WeightProfile(tuple(math.log(qi / (1.0 - qi)) for qi in q.q))


def votes_from_beliefs(b: BeliefProfile) -> VotingProfile:
    """Each agent votes for the alternative she considers more likely.

    Beliefs derived from competences are never exactly 0.5, so a fence-
    sitting belief is rejected rather than silently broken one way.
    """
    votes = []
    for i, bi in enumerate(b.b):
        if bi == 0.5:
            raise ValueError(f"belief b[{i}] is exactly 0.5 and cannot be voted")
        votes.append(1 if bi > 0.5 else 0)
    return VotingProfile(tuple(votes))
