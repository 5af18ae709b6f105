"""Walk the bundled worked examples through every election and market.

For each config this prints the belief profile, the three weighted-majority
elections, the clearing prices and investment profiles of the naive and Kelly
markets, the asymptotic and finite-k taxed prices, the election/market
agreement table, and the exact accuracy of each weight scheme.

    python scripts/run_worked_examples.py
    python scripts/run_worked_examples.py --config my_panel.json --k 50
"""

from __future__ import annotations

import sys
from pathlib import Path

from jurymarkets import (
    BeliefProfile,
    CompetenceProfile,
    SignalProfile,
    check_all_schemes,
    exact_accuracy,
    kelly_equilibrium,
    majority_aggregator,
    naive_equilibrium,
    taxed_equilibrium_finite,
)
from jurymarkets.cli import (
    _config_beliefs, _parse_k, _Parser, _require_competences, _require_signals, load_config,
)

REPO = Path(__file__).resolve().parents[1]
DEFAULT_CONFIGS = tuple(str(REPO / "configs" / f"example{i}.json") for i in (1, 2))


def _stakes(label: str, result) -> str:
    legs = ", ".join(
        f"agent {i}: sA={max(s, 0.0):.6g} sB={max(-s, 0.0):.6g}"
        for i, s in enumerate(result.stakes)
        if s
    )
    return f"  {label}: price={result.price!r}  [{legs or 'no trade'}]"


def report(q: CompetenceProfile, y: SignalProfile, b: BeliefProfile, k: float) -> None:
    # One report per pairing: simple, linear and log-odds weights, the last
    # priced by the k -> inf taxed market.
    reports = check_all_schemes(q, y, None)
    print(f"competences {q.q}  signals {''.join(y.y)}")
    print(f"beliefs     {tuple(round(x, 12) for x in b.b)}")

    print("elections:")
    for name, rep in zip(("simple", "linear", "log-odds"), reports):
        print(f"  {name:<8} margin={rep.weighted_margin:+.6g}")

    print("markets:")
    print(_stakes("naive", naive_equilibrium(b)))
    print(_stakes("kelly", kelly_equilibrium(b)))
    finite = taxed_equilibrium_finite(b, k)
    print(
        f"  taxed k={k:g}: price={finite.price!r} "
        f"(iterations={finite.diagnostics.iterations}, "
        f"residual={finite.diagnostics.residual:.2e})"
    )
    print(f"  taxed k->inf: price={reports[-1].price!r}")

    print("election vs market decisions:")
    for rep in reports:
        print(
            f"  {rep.scheme.value:<15} election={rep.election} "
            f"market={rep.market} agree={rep.agree}"
        )

    print("exact accuracy by weight scheme:")
    for scheme in ("egalitarian", "linear", "log_odds"):
        estimate = exact_accuracy(majority_aggregator(scheme), q)
        print(
            f"  {scheme:<11} Q={estimate.value:.6f} "
            f"(tie mass {estimate.tie_mass:.4f})"
        )


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config",
        action="append",
        help="experiment config (repeatable; defaults to the bundled examples)",
    )
    parser.add_argument(
        "--k", type=float, default=10.0, help="tax rate for the finite solve"
    )
    args = parser.parse_args(argv)

    # Every input is checked before anything is printed, by the CLI's rules.
    panels = []
    try:
        k = _parse_k(args.k)
        for path in args.config or DEFAULT_CONFIGS:
            cfg = load_config(path)
            q = _require_competences(cfg, path)
            y = _require_signals(cfg, path)
            panels.append((path, q, y, _config_beliefs(cfg)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for path, q, y, b in panels:
        print(f"=== {Path(path).name} ===")
        report(q, y, b, k)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
