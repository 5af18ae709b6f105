"""Trace how the finite-k taxed equilibrium behaves as the tax rate grows.

Emits one CSV row per tax rate k: the finite-k clearing price, the
closed-form asymptotic price, their gap, and the largest per-agent gap
between the solved strategy and the asymptotic strategy (logit(b) -
logit(p)) / k.  A summary of the price-gap trend goes to stderr.

The price gap does not vanish: the finite solver balances security
quantities at every k, while the closed form balances stake log-odds, and
those limits differ whenever the price is away from 0.5.  The per-agent
strategy gaps do vanish, and both prices stay on the same side of 0.5 --
which is what the decision-level equivalence needs.

The asymptotic strategies are the ones ``sweep-k`` prints: one log odds
ratio per agent, divided by each k.  The CSV goes through the CLI's writer,
to ``--output``, else to the config's ``output``, else to stdout.  A tax
rate that fails to solve ends the run before any CSV is written, with one
``solver error: ...`` line on stderr and exit status 2, as the CLI's
``solve`` does.

    python scripts/tax_convergence.py
    python scripts/tax_convergence.py --config configs/example2.json \
        --k-grid 1,10,100,1000 --output convergence.csv
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from jurymarkets import taxed_equilibrium_asymptotic, taxed_equilibrium_finite
from jurymarkets.cli import (
    Table, _config_beliefs, _csv_text, _parse_k_list, _Parser, _write_output, load_config,
)
from jurymarkets.markets import BracketingError, UndefinedPriceError, _asymptotic_log_ratios

REPO = Path(__file__).resolve().parents[1]
COLUMNS = (
    "k",
    "finite_price",
    "asymptotic_price",
    "price_gap",
    "max_strategy_gap",
    "iterations",
)
DEFAULT_GRID = tuple(float(k) for k in np.logspace(-2, 4, 13))


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument(
        "--config",
        default=str(REPO / "configs" / "example1.json"),
        help="experiment config supplying competences and signals",
    )
    parser.add_argument(
        "--k-grid", help="comma-separated tax rates (default: log grid 0.01..10^4)"
    )
    parser.add_argument(
        "--output", help="write CSV here (default: the config's output, else stdout)"
    )
    args = parser.parse_args(argv)

    # Each flag follows the CLI's rule: load_config picks --output over the
    # config's output and checks it as the CLI does, and --k-grid reads as
    # sweep-k's --k-list.
    try:
        cfg = load_config(args.config, args)
        b = _config_beliefs(cfg)
        grid = DEFAULT_GRID if args.k_grid is None else _parse_k_list(args.k_grid, "--k-grid")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    asym_price = taxed_equilibrium_asymptotic(b)
    log_ratios = _asymptotic_log_ratios(b.b, asym_price)

    prices, gaps, strategy_gaps, iterations = [], [], [], []
    for k in grid:
        try:
            result = taxed_equilibrium_finite(b, k)
        except (UndefinedPriceError, BracketingError) as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return 2
        prices.append(result.price)
        gaps.append(abs(result.price - asym_price))
        strategy_gaps.append(
            max(0.0, *(abs(s - ratio / k) for s, ratio in zip(result.stakes, log_ratios)))
        )
        iterations.append(result.diagnostics.iterations)

    table = Table(COLUMNS, [(grid, prices, asym_price, gaps, strategy_gaps, iterations)])
    status = _write_output(_csv_text(table), cfg.output)
    if status:
        return status

    same_side = all(
        (price - 0.5) * (asym_price - 0.5) >= 0 or math.isclose(price, 0.5) for price in prices
    )
    print(
        f"price gap: first {gaps[0]:.3e}, last {gaps[-1]:.3e}; "
        f"max strategy gap at largest k: {strategy_gaps[-1]:.3e}; "
        f"finite and asymptotic prices on the same side of 0.5: {same_side}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
