"""Weighted-majority elections and information-market equilibria.

A toolkit for the jury model with binary states: agents receive
conditionally independent private signals, vote under a weight scheme or
trade Arrow securities, and both aggregation routes are solved, compared,
and scored for truth-tracking accuracy.
"""

from types import ModuleType as _ModuleType

from .accuracy import (
    AccuracyEstimate,
    Aggregator,
    OptimalWeightsReport,
    exact_accuracy,
    fixed_weights_aggregator,
    majority_aggregator,
    market_aggregator,
    monte_carlo_accuracy,
    verify_optimal_weights,
)
from .equivalence import (
    ALL_SCHEMES,
    EquivalenceReport,
    EquivalenceScheme,
    check_all_schemes,
    check_linear_kelly,
    check_log_odds_taxed,
    check_scheme,
    check_simple_naive,
)
from .markets import (
    BracketingError,
    Diagnostics,
    EquilibriumResult,
    MarketKind,
    SideInvestment,
    UndefinedPriceError,
    clearing_price,
    full_investment_equivalence,
    kelly_best_response,
    kelly_equilibrium,
    kelly_utility,
    naive_best_response,
    naive_equilibrium,
    naive_utility,
    solve_market,
    tax_function,
    taxed_best_response,
    taxed_best_response_asymptotic,
    taxed_equilibrium_asymptotic,
    taxed_equilibrium_finite,
    taxed_foc_residual,
    taxed_utility,
)
from .model import (
    ENUMERATION_CAP,
    STATE_A,
    STATE_B,
    STATES,
    BeliefProfile,
    CompetenceProfile,
    Decision,
    SignalProfile,
    beliefs_from_signals,
    enumerate_signal_space,
    posterior_belief,
    signal_matrix,
)
from .oracle import (
    GridSpec,
    exhaustive_accuracy_oracle,
    exhaustive_state_conditional_accuracies,
    grid_equilibrium_search,
)
from .voting import (
    TIE_TOLERANCE,
    VotingProfile,
    WeightProfile,
    decision_from_offset,
    votes_from_beliefs,
    weighted_majority,
    weighted_margin,
    weights_egalitarian,
    weights_linear,
    weights_log_odds,
)

__version__ = "0.1.0"

# The import block above is the public API: every name it binds, and no
# submodule (importing from one binds it on the package too).
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
