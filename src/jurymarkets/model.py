"""Binary-state signal model shared by the voting and market layers.

A group of agents must decide which of two states of the world, A or B,
actually holds.  Each agent privately receives a noisy signal about the
state and is correct with her own probability ("competence") strictly
between 0.5 and 1.  With a fair prior over the two states, Bayesian
updating collapses to a one-liner: the posterior probability of A equals
the competence if the signal said A, and one minus the competence if it
said B.  Everything downstream (elections, markets, accuracy) consumes
the resulting belief profiles.

The model is deliberately rigid about two constants: the prior is exactly
one half and every agent's endowment is exactly one.  The election/market
correspondences proved elsewhere in this package lean on both, so any
other value is rejected instead of silently producing garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

STATE_A = "A"
STATE_B = "B"
STATES = (STATE_A, STATE_B)

# 2**n signal profiles are materialised by enumerate_signal_space; past this
# size the list stops being a sensible in-memory object.
ENUMERATION_CAP = 20


class Decision(Enum):
    """Collective verdict: a single alternative or an exact tie."""

    A = "A"
    B = "B"
    TIE = "tie"

    @property
    def members(self) -> frozenset[str]:
        """The nonempty subset of {A, B} this verdict stands for."""
        if self is Decision.TIE:
            return frozenset(STATES)
        return frozenset((self.value,))

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CompetenceProfile:
    """Per-agent probabilities of receiving the signal matching the true state."""

    q: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        if not self.q:
            raise ValueError("competence profile must contain at least one agent")
        for i, v in enumerate(self.q):
            if not 0.5 < v < 1.0:
                raise ValueError(
                    f"competence q[{i}]={v!r} must lie strictly between 0.5 and 1"
                )

    @property
    def n(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class SignalProfile:
    """One realisation of everybody's private signal."""

    y: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", tuple(self.y))
        if not self.y:
            raise ValueError("signal profile must contain at least one agent")
        for i, v in enumerate(self.y):
            if v not in STATES:
                raise ValueError(f"signal y[{i}]={v!r} must be 'A' or 'B'")

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class BeliefProfile:
    """Per-agent posterior probabilities of state A."""

    b: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if not self.b:
            raise ValueError("belief profile must contain at least one agent")
        for i, v in enumerate(self.b):
            if not 0.0 < v < 1.0:
                raise ValueError(f"belief b[{i}]={v!r} must lie strictly inside (0, 1)")

    @property
    def n(self) -> int:
        return len(self.b)


def posterior_belief(q_i: float, y_i: str) -> float:
    """Posterior probability of state A after one signal under a fair prior."""
    if not 0.5 < q_i < 1.0:
        raise ValueError(f"competence {q_i!r} must lie strictly between 0.5 and 1")
    if y_i not in STATES:
        raise ValueError(f"signal {y_i!r} must be 'A' or 'B'")
    return q_i if y_i == STATE_A else 1.0 - q_i


def beliefs_from_signals(q: CompetenceProfile, y: SignalProfile) -> BeliefProfile:
    """Posterior belief of every agent given her competence and signal."""
    if q.n != y.n:
        raise ValueError(
            f"competence profile has {q.n} agents but signal profile has {y.n}"
        )
    return BeliefProfile(tuple(posterior_belief(qi, yi) for qi, yi in zip(q.q, y.y)))


def signal_matrix(n: int) -> np.ndarray:
    """All 2**n signal profiles of n agents as a boolean matrix, True for A.

    Rows run in lexicographic order with A before B: row r spells out the
    binary digits of r, first agent most significant, with 0 read as A.
    Accuracy, enumeration and the exhaustive check take their profile order
    from here; the accuracy oracle keeps its own on purpose.
    """
    bits = np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)
    return (bits & 1) == 0


def profile_probabilities(
    q: CompetenceProfile, signals: np.ndarray, state: str
) -> np.ndarray:
    """Probability of each row of a boolean signal matrix under the given state.

    Factors are multiplied agent by agent, left to right, so each entry is
    the same double as a scalar running product over the profile.
    """
    probs = np.ones(len(signals))
    for qi, column in zip(q.q, signals.T):
        probs *= np.where(column == (state == STATE_A), qi, 1.0 - qi)
    return probs


def enumerate_signal_space(
    q: CompetenceProfile, state: str
) -> list[tuple[SignalProfile, float]]:
    """All 2**n signal profiles with their probabilities under the given state.

    Profiles come in signal_matrix order (lexicographic, A before B), so the
    output order is deterministic and identical for both states.  The
    probabilities for a fixed state sum to one (up to rounding).
    """
    if state not in STATES:
        raise ValueError(f"state {state!r} must be 'A' or 'B'")
    if q.n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration over {q.n} agents exceeds the cap of {ENUMERATION_CAP}"
        )
    signals = signal_matrix(q.n)
    probs = profile_probabilities(q, signals, state).tolist()
    labels = np.where(signals, STATE_A, STATE_B).tolist()
    return [(SignalProfile(tuple(y)), p) for y, p in zip(labels, probs)]
