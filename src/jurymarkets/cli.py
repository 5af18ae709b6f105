"""Command-line front end for the election/market toolkit.

Subcommands:

* ``solve``             — competitive-equilibrium price and per-agent stakes
* ``vote``              — weighted-majority election on binarised beliefs
* ``check-equivalence`` — election vs market commuting-diagram reports
* ``accuracy``          — exact or Monte Carlo truth-tracking accuracy
* ``sweep-k``           — tax-intensity sweep emitting convergence data
* ``verify``            — independent grid-oracle cross-check of the solvers

Experiments are described by a JSON config file (agents as competences or
beliefs, optional signals, market kind, weight scheme, seed, trials);
command-line flags override config fields.  Output is deterministic JSON
or CSV — identical inputs produce byte-identical bytes — written to stdout
or ``--output``.

Exit codes: 0 success; 1 invalid config or arguments; 2 solver failure or
oracle contradiction; 3 a guaranteed election/market equivalence was
violated.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from math import inf, log

from .accuracy import (
    EXACT_MAX_AGENTS,
    Aggregator,
    exact_accuracy,
    majority_aggregator,
    market_aggregator,
    monte_carlo_accuracy,
)
from .equivalence import (
    WEIGHT_SCHEMES,
    EquivalenceReport,
    check_all_schemes,
)
from .markets import (
    BracketingError,
    MarketKind,
    UndefinedPriceError,
    solve_market,
    taxed_equilibrium_asymptotic,
    taxed_equilibrium_finite,
)
from .model import (
    STATE_A,
    STATE_B,
    BeliefProfile,
    CompetenceProfile,
    SignalProfile,
    beliefs_from_signals,
    enumerate_signal_space,
)
from .oracle import GRID_ORACLE_MAX_AGENTS, grid_equilibrium_search
from .voting import (
    decision_from_offset,
    votes_from_beliefs,
    weighted_margin,
    weights_egalitarian,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_EQUIVALENCE = 3

MARKET_KINDS = tuple(kind.value for kind in MarketKind)
DEFAULT_K_SWEEP = (0.1, 0.2, 1.0, 2.0, 10.0, 20.0)

SWEEP_COLUMNS = (
    "k",
    "agent",
    "belief",
    "strategy",
    "asymptotic_strategy",
    "price",
    "asymptotic_price",
)


class ConfigError(ValueError):
    """A config file or flag combination failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description."""

    competences: tuple[float, ...] | None
    beliefs: tuple[float, ...] | None
    signals: tuple[str, ...] | None
    market: str | None
    k: float | None
    weights: str | None
    seed: int
    trials: int | None
    output: str | None
    format: str


def _parse_agents(
    raw: object,
) -> tuple[tuple[float, ...] | None, tuple[float, ...] | None]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("agents must be a non-empty list of objects")
    competences: list[float] = []
    beliefs: list[float] = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or len(entry) != 1:
            raise ConfigError(
                f"agents[{i}] must be an object with exactly one of "
                "'competence' or 'belief'"
            )
        (field, value), = entry.items()
        if field == "competence":
            if not isinstance(value, (int, float)) or not 0.5 < value < 1.0:
                raise ConfigError(
                    f"agents[{i}].competence={value!r} must lie strictly "
                    "between 0.5 and 1"
                )
            competences.append(float(value))
        elif field == "belief":
            if not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
                raise ConfigError(
                    f"agents[{i}].belief={value!r} must lie strictly between 0 and 1"
                )
            beliefs.append(float(value))
        else:
            raise ConfigError(
                f"agents[{i}] has unknown field {field!r}; expected "
                "'competence' or 'belief'"
            )
    if competences and beliefs:
        raise ConfigError(
            "agents mix 'competence' and 'belief' entries; use one kind throughout"
        )
    if competences:
        return tuple(competences), None
    return None, tuple(beliefs)


def parse_config(
    data: dict,
    overrides: argparse.Namespace | None = None,
    default_format: str = "json",
) -> ExperimentConfig:
    """Validate a raw config mapping, applying command-line overrides."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    known = {
        "agents", "signals", "market", "k", "weights", "seed", "trials",
        "output", "format", "prior", "endowment",
    }
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")

    if "agents" not in data:
        raise ConfigError("config is missing the 'agents' list")
    competences, beliefs = _parse_agents(data["agents"])
    n = len(competences) if competences is not None else len(beliefs)

    prior = data.get("prior", 0.5)
    if prior != 0.5:
        raise ConfigError(f"prior={prior!r} is not supported; the model fixes prior=0.5")
    endowment = data.get("endowment", 1.0)
    if endowment != 1.0:
        raise ConfigError(
            f"endowment={endowment!r} is not supported; the model fixes endowment=1"
        )

    signals = data.get("signals")
    if signals is not None:
        if not isinstance(signals, list):
            raise ConfigError("signals must be a list of 'A'/'B' entries")
        if len(signals) != n:
            raise ConfigError(
                f"signals has length {len(signals)} but there are {n} agents"
            )
        for i, s in enumerate(signals):
            if s not in (STATE_A, STATE_B):
                raise ConfigError(f"signals[{i}]={s!r} must be 'A' or 'B'")
        if beliefs is not None:
            raise ConfigError(
                "signals only apply to competence agents; belief agents already "
                "encode their posteriors"
            )
        signals = tuple(signals)

    def pick(field: str, default=None):
        value = getattr(overrides, field.replace("-", "_"), None) if overrides else None
        if value is not None:
            return value
        return data.get(field, default)

    market = pick("market")
    if market is not None and market not in MARKET_KINDS:
        raise ConfigError(f"market={market!r} must be one of {', '.join(MARKET_KINDS)}")

    k = pick("k")
    if k is not None:
        if not isinstance(k, (int, float)) or isinstance(k, bool) or not 0.0 < k < inf:
            raise ConfigError(f"k={k!r} must be a finite positive number")
        k = float(k)
        if market is not None and market != MarketKind.TAXED_FINITE.value:
            raise ConfigError(
                f"k only applies to the taxed_finite market, not market={market!r}"
            )

    weights = pick("weights")
    if weights is not None and weights not in WEIGHT_SCHEMES:
        raise ConfigError(
            f"weights={weights!r} must be one of {', '.join(WEIGHT_SCHEMES)}"
        )

    seed = pick("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed={seed!r} must be an unsigned 64-bit integer")

    trials = pick("trials")
    if trials is not None and (
        not isinstance(trials, int) or isinstance(trials, bool) or trials < 1
    ):
        raise ConfigError(f"trials={trials!r} must be a positive integer")

    output = pick("output")
    fmt = pick("format", default_format)
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format={fmt!r} must be 'json' or 'csv'")

    return ExperimentConfig(
        competences=competences,
        beliefs=beliefs,
        signals=signals,
        market=market,
        k=k,
        weights=weights,
        seed=seed,
        trials=trials,
        output=output,
        format=fmt,
    )


def load_config(
    path: str,
    overrides: argparse.Namespace | None = None,
    default_format: str = "json",
) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(data, overrides, default_format)


def _require_competences(cfg: ExperimentConfig, why: str) -> CompetenceProfile:
    if cfg.competences is None:
        raise ConfigError(
            f"{why} requires competence agents, but the config lists beliefs"
        )
    return CompetenceProfile(cfg.competences)


def _require_signals(cfg: ExperimentConfig, why: str) -> SignalProfile:
    if cfg.signals is None:
        raise ConfigError(f"{why} requires a 'signals' list in the config")
    return SignalProfile(cfg.signals)


def _config_beliefs(cfg: ExperimentConfig) -> BeliefProfile:
    if cfg.beliefs is not None:
        return BeliefProfile(cfg.beliefs)
    q = _require_competences(cfg, "deriving beliefs")
    y = _require_signals(cfg, "deriving beliefs from competences")
    return beliefs_from_signals(q, y)


def _require_market(cfg: ExperimentConfig, why: str) -> MarketKind:
    if cfg.market is None:
        raise ConfigError(f"{why} requires a market kind (config field or --market)")
    return MarketKind(cfg.market)


def _require_k(cfg: ExperimentConfig) -> float:
    if cfg.k is None:
        raise ConfigError("market=taxed_finite requires a positive k (config field or --k)")
    return cfg.k


# ---------------------------------------------------------------------------
# Serialization helpers


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return buffer.getvalue()


def _json_text(record: dict) -> str:
    return json.dumps(record, indent=2) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(cfg: ExperimentConfig) -> tuple[int, str]:
    beliefs = _config_beliefs(cfg)
    kind = _require_market(cfg, "solve")
    k = _require_k(cfg) if kind is MarketKind.TAXED_FINITE else None
    price, offset, result = solve_market(beliefs, kind, k)
    if result is None:  # taxed_asymptotic: price only, no finite stakes
        legs = [(None, 0.0, 0.0, 0.0)] * beliefs.n
        residual, iterations, degenerate = 0.0, 0, False
    else:
        legs = []
        for sa, sb in zip(result.profile.sA, result.profile.sB):
            side = "A" if sa > 0.0 else "B" if sb > 0.0 else None
            legs.append((side, sa if sa > 0.0 else sb, sa, sb))
        residual = result.diagnostics.residual
        iterations = result.diagnostics.iterations
        degenerate = result.diagnostics.degenerate
    decision = decision_from_offset(offset)

    agents = [
        {"agent": i, "belief": b, "side": side, "fraction": frac, "sA": sa, "sB": sb}
        for i, (b, (side, frac, sa, sb)) in enumerate(zip(beliefs.b, legs))
    ]
    if cfg.format == "json":
        record = {
            "command": "solve",
            "market": kind.value,
            "k": k,
            "price": price,
            "decision": str(decision),
            "clearing_residual": residual,
            "iterations": iterations,
            "degenerate": degenerate,
            "agents": agents,
        }
        return EXIT_OK, _json_text(record)
    header = (
        "agent", "belief", "side", "fraction", "market", "k", "price",
        "decision", "clearing_residual", "iterations", "degenerate",
    )
    rows = [
        (
            a["agent"], a["belief"], a["side"], a["fraction"], kind.value, k,
            price, str(decision), residual, iterations, degenerate,
        )
        for a in agents
    ]
    return EXIT_OK, _csv_text(header, rows)


def cmd_vote(cfg: ExperimentConfig) -> tuple[int, str]:
    scheme = cfg.weights or "egalitarian"
    beliefs = _config_beliefs(cfg)
    if scheme == "egalitarian":  # the one scheme belief agents can vote under
        weights = weights_egalitarian(beliefs.n)
    else:
        weights = WEIGHT_SCHEMES[scheme](_require_competences(cfg, f"weights={scheme}"))
    votes = votes_from_beliefs(beliefs)
    margin = weighted_margin(votes, weights)
    decision = decision_from_offset(margin)
    if cfg.format == "json":
        record = {
            "command": "vote",
            "weights_scheme": scheme,
            "weights": list(weights.w),
            "votes": list(votes.v),
            "weighted_margin": margin,
            "decision": str(decision),
        }
        return EXIT_OK, _json_text(record)
    header = ("agent", "belief", "vote", "weight", "scheme", "weighted_margin", "decision")
    rows = [
        (i, b, v, w, scheme, margin, str(decision))
        for i, (b, v, w) in enumerate(zip(beliefs.b, votes.v, weights.w))
    ]
    return EXIT_OK, _csv_text(header, rows)


def _report_record(report: EquivalenceReport, signals: tuple[str, ...]) -> dict:
    return {
        "scheme": report.scheme.value,
        "signals": "".join(signals),
        "election": str(report.election),
        "market": str(report.market),
        "agree": report.agree,
        "guaranteed": report.guaranteed,
        "price": report.price,
        "weighted_margin": report.weighted_margin,
        "k": report.k,
    }


def cmd_check_equivalence(cfg: ExperimentConfig, exhaustive: bool) -> tuple[int, str]:
    q = _require_competences(cfg, "check-equivalence")
    if exhaustive:
        signal_sets = [y for y, _ in enumerate_signal_space(q, STATE_A)]
    else:
        signal_sets = [_require_signals(cfg, "check-equivalence without --exhaustive")]

    records = []
    violations = 0
    for signals in signal_sets:
        for report in check_all_schemes(q, signals, cfg.k):
            records.append(_report_record(report, signals.y))
            if report.guaranteed and not report.agree:
                violations += 1

    status = EXIT_EQUIVALENCE if violations else EXIT_OK
    if cfg.format == "json":
        record = {
            "command": "check_equivalence",
            "exhaustive": exhaustive,
            "violations": violations,
            "reports": records,
        }
        return status, _json_text(record)
    header = (
        "scheme", "signals", "election", "market", "agree", "guaranteed",
        "price", "weighted_margin", "k",
    )
    rows = [tuple(r[col] for col in header) for r in records]
    return status, _csv_text(header, rows)


def _accuracy_aggregators(cfg: ExperimentConfig) -> list[Aggregator]:
    schemes = [cfg.weights] if cfg.weights else list(WEIGHT_SCHEMES)
    aggregators = [majority_aggregator(s) for s in schemes]
    if cfg.market is not None:
        kind = MarketKind(cfg.market)
        k = _require_k(cfg) if kind is MarketKind.TAXED_FINITE else None
        aggregators.append(market_aggregator(kind, k))
    return aggregators


def cmd_accuracy(cfg: ExperimentConfig) -> tuple[int, str]:
    q = _require_competences(cfg, "accuracy")
    estimates = []
    for agg in _accuracy_aggregators(cfg):
        if cfg.trials is not None:
            estimates.append(monte_carlo_accuracy(agg, q, cfg.trials, cfg.seed))
        elif q.n <= EXACT_MAX_AGENTS:
            estimates.append(exact_accuracy(agg, q))
        else:
            raise ConfigError(
                f"{q.n} agents exceed the exact-enumeration cap "
                f"({EXACT_MAX_AGENTS}); pass trials for Monte Carlo"
            )
    if cfg.format == "json":
        record = {
            "command": "accuracy",
            "estimates": [
                {
                    "aggregator": e.aggregator,
                    "method": e.method,
                    "value": e.value,
                    "tie_mass": e.tie_mass,
                    "trials": e.trials,
                    "std_error": e.std_error,
                    "seed": e.seed,
                }
                for e in estimates
            ],
        }
        return EXIT_OK, _json_text(record)
    header = ("aggregator", "method", "value", "tie_mass", "trials", "std_error", "seed")
    rows = [
        (e.aggregator, e.method, e.value, e.tie_mass, e.trials, e.std_error, e.seed)
        for e in estimates
    ]
    return EXIT_OK, _csv_text(header, rows)


def _parse_k_list(text: str | None) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_K_SWEEP
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"--k-list {text!r} is not a comma-separated list of reals") from exc
    if not values or any(not 0.0 < v < inf for v in values):
        raise ConfigError(f"--k-list {text!r} must contain finite positive reals")
    return values


def cmd_sweep_k(cfg: ExperimentConfig, k_list: tuple[float, ...]) -> tuple[int, str]:
    if cfg.format != "csv":
        raise ConfigError("sweep-k emits CSV only; pass --format csv or omit --format")
    beliefs = _config_beliefs(cfg)
    asymptotic_price = taxed_equilibrium_asymptotic(beliefs)
    log_odds = [log(b / (1.0 - b)) for b in beliefs.b]
    price_log_odds = log(asymptotic_price / (1.0 - asymptotic_price))

    rows = []
    errors = False
    for k in k_list:
        asymptotic = [(lo - price_log_odds) / k for lo in log_odds]
        try:
            result = taxed_equilibrium_finite(beliefs, k)
        except (BracketingError, UndefinedPriceError) as exc:
            errors = True
            for i, b in enumerate(beliefs.b):
                rows.append(
                    (k, i, b, None, asymptotic[i], None, asymptotic_price, str(exc))
                )
            continue
        signed = [
            sa if sa > 0.0 else -sb
            for sa, sb in zip(result.profile.sA, result.profile.sB)
        ]
        for i, b in enumerate(beliefs.b):
            rows.append(
                (k, i, b, signed[i], asymptotic[i], result.price, asymptotic_price, None)
            )

    if errors:
        return EXIT_OK, _csv_text(SWEEP_COLUMNS + ("error",), rows)
    return EXIT_OK, _csv_text(SWEEP_COLUMNS, [row[:-1] for row in rows])


def cmd_verify(cfg: ExperimentConfig) -> tuple[int, str]:
    beliefs = _config_beliefs(cfg)
    if beliefs.n > GRID_ORACLE_MAX_AGENTS:
        raise ConfigError(
            f"verify supports up to {GRID_ORACLE_MAX_AGENTS} agents, got {beliefs.n}"
        )
    if cfg.market is not None:
        kinds = [MarketKind(cfg.market)]
    else:
        kinds = [MarketKind.NAIVE, MarketKind.KELLY]
        if cfg.k is not None:
            kinds.append(MarketKind.TAXED_FINITE)

    checks = []
    all_ok = True
    for kind in kinds:
        if kind is MarketKind.TAXED_ASYMPTOTIC:
            raise ConfigError(
                "verify cross-checks finite best responses; "
                "use market=taxed_finite with a k"
            )
        k = _require_k(cfg) if kind is MarketKind.TAXED_FINITE else None
        _, _, result = solve_market(beliefs, kind, k)
        intervals = grid_equilibrium_search(beliefs, kind, k)
        contained = any(lo <= result.price <= hi for lo, hi in intervals)
        unique = len(intervals) == 1 if kind is MarketKind.NAIVE else None
        ok = contained and (unique is not False)
        all_ok = all_ok and ok
        checks.append(
            {
                "market": kind.value,
                "k": k,
                "price": result.price,
                "intervals": [[lo, hi] for lo, hi in intervals],
                "contained": contained,
                "unique": unique,
                "ok": ok,
            }
        )

    status = EXIT_OK if all_ok else EXIT_SOLVER
    if cfg.format == "json":
        return status, _json_text({"command": "verify", "ok": all_ok, "checks": checks})
    header = (
        "market", "k", "price", "interval_low", "interval_high",
        "contained", "unique", "ok",
    )
    rows = []
    for c in checks:
        if c["intervals"]:
            for lo, hi in c["intervals"]:
                rows.append(
                    (c["market"], c["k"], c["price"], lo, hi,
                     c["contained"], c["unique"], c["ok"])
                )
        else:
            rows.append(
                (c["market"], c["k"], c["price"], None, None,
                 c["contained"], c["unique"], c["ok"])
            )
    return status, _csv_text(header, rows)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the validation exit code."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--market", choices=MARKET_KINDS, help="override the config's market")
    parser.add_argument(
        "--weights", choices=tuple(WEIGHT_SCHEMES), help="override the config's weight scheme"
    )
    parser.add_argument("--k", type=float, help="tax intensity (taxed_finite only)")
    parser.add_argument("--trials", type=int, help="Monte Carlo trial count")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--format", choices=("json", "csv"), help="output format")
    parser.add_argument("--output", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jurymarkets",
        description="Weighted-majority elections and information-market equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, text in (
        ("solve", "solve a market for its competitive-equilibrium price"),
        ("vote", "run a weighted-majority election on binarised beliefs"),
        ("check-equivalence", "compare election and market decisions"),
        ("accuracy", "estimate truth-tracking accuracy"),
        ("sweep-k", "sweep the tax intensity and emit convergence data"),
        ("verify", "cross-check solvers against the brute-force grid oracle"),
    ):
        p = sub.add_parser(name, help=text)
        _add_shared_flags(p)
        if name == "check-equivalence":
            p.add_argument(
                "--exhaustive",
                action="store_true",
                help="sweep all 2^n signal profiles instead of the configured one",
            )
        if name == "sweep-k":
            p.add_argument(
                "--k-list",
                help="comma-separated tax intensities "
                f"(default {','.join(str(k) for k in DEFAULT_K_SWEEP)})",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    default_format = "csv" if args.command == "sweep-k" else "json"
    try:
        cfg = load_config(args.config, args, default_format)
        if args.command == "solve":
            status, text = cmd_solve(cfg)
        elif args.command == "vote":
            status, text = cmd_vote(cfg)
        elif args.command == "check-equivalence":
            status, text = cmd_check_equivalence(cfg, args.exhaustive)
        elif args.command == "accuracy":
            status, text = cmd_accuracy(cfg)
        elif args.command == "sweep-k":
            status, text = cmd_sweep_k(cfg, _parse_k_list(args.k_list))
        else:
            status, text = cmd_verify(cfg)
    except (UndefinedPriceError, BracketingError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(text, cfg.output)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
