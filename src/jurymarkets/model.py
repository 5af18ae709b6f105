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
correspondences proved elsewhere in this package lean on both, so neither
is a parameter; the config reader rejects any other value (``cli.FIXED_VALUES``).
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
    """Posterior probability of state A after one signal under a fair prior:
    beliefs_from_signals for a panel of one."""
    return beliefs_from_signals(CompetenceProfile((q_i,)), SignalProfile((y_i,))).b[0]


def beliefs_from_signals(q: CompetenceProfile, y: SignalProfile) -> BeliefProfile:
    """Posterior belief of every agent given her competence and signal."""
    if q.n != y.n:
        raise ValueError(
            f"competence profile has {q.n} agents but signal profile has {y.n}"
        )
    return BeliefProfile(tuple(qi if yi == STATE_A else 1.0 - qi for qi, yi in zip(q.q, y.y)))


def signal_matrix(n: int) -> np.ndarray:
    """All 2**n signal profiles of n agents as a boolean matrix, True for A.

    Rows run in lexicographic order with A before B: row r unpacks the last
    n bits of r, first agent most significant, and reads 0 as A.  Accuracy,
    enumeration and the exhaustive check take their profile order from here;
    the accuracy oracle keeps its own on purpose.
    """
    rows = np.arange(2**n, dtype=">u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(rows, axis=1)[:, 32 - n :] == 0


def profile_probabilities(q: CompetenceProfile, state: str) -> np.ndarray:
    """Probability of each row of signal_matrix(q.n) under the given state.

    The state-A vector doubles agent by agent, p <- outer(p, (q_i, 1 - q_i)),
    so each entry is the same double as a left-to-right running product.
    Row r under B has the factors of row 2**n - 1 - r (every signal flipped)
    under A, in the same order: the state-B vector is the state-A one reversed.
    """
    probs = np.ones(1)
    for qi in q.q:
        probs = np.multiply.outer(probs, (qi, 1.0 - qi)).ravel()
    return probs if state == STATE_A else probs[::-1]


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
    probs = profile_probabilities(q, state).tolist()
    labels = np.where(signal_matrix(q.n), STATE_A, STATE_B).tolist()
    return [(SignalProfile(tuple(y)), p) for y, p in zip(labels, probs)]
