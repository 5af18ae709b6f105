"""Command-line front end for the election/market toolkit.

Subcommands, with the output formats each emits (the first is the default):

* ``solve``             — competitive-equilibrium price and per-agent stakes (JSON, CSV)
* ``vote``              — weighted-majority election on binarised beliefs (JSON, CSV)
* ``check-equivalence`` — election vs market commuting-diagram reports (JSON, CSV)
* ``accuracy``          — exact or Monte Carlo truth-tracking accuracy (JSON, CSV)
* ``sweep-k``           — tax-intensity sweep emitting convergence data (CSV only)
* ``verify``            — independent grid-oracle cross-check of the solvers (JSON, CSV)

Experiments are described by a JSON config file (agents as competences or
beliefs, optional signals, market kind, weight scheme, seed, trials);
command-line flags override config fields.  Output is deterministic JSON
or CSV — identical inputs produce byte-identical bytes — written to stdout
or ``--output``.  ``COMMANDS`` is the one table of subcommands: every handler
returns its status, JSON record and CSV table, and ``main`` alone picks the
format and writes the bytes.  The JSON bytes are exactly those of
``json.dumps(record, indent=2)`` and the CSV bytes those of ``csv.writer``
with ``None`` empty and booleans as ``true``/``false``; both emitters run the
standard library's C encoders, and the argument parser is built once per
process.

Exit codes: 0 success; 1 invalid config or arguments, a format the command
does not emit, or an output file that cannot be opened or written
(``error: cannot write output ...``); 2 solver failure or oracle
contradiction; 3 a guaranteed election/market equivalence was violated.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, repeat
from math import log
from sys import float_info
from typing import Callable, Iterable

from .accuracy import (
    EXACT_MAX_AGENTS,
    exact_accuracy,
    majority_aggregator,
    market_aggregator,
    monte_carlo_accuracy,
)
from .equivalence import WEIGHT_SCHEMES, check_all_schemes
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


def _is_real(value: object) -> bool:
    """A JSON number; booleans are ints to Python but not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    if not _is_real(prior) or prior != 0.5:
        raise ConfigError(f"prior={prior!r} is not supported; the model fixes prior=0.5")
    endowment = data.get("endowment", 1.0)
    if not _is_real(endowment) or endowment != 1.0:
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
        if not _is_real(k) or not float_info.min <= k <= float_info.max:
            raise ConfigError(f"k={k!r} must be a finite positive number >= {float_info.min!r}")
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
    if output is not None and (not isinstance(output, str) or not output):
        raise ConfigError(f"output={output!r} must be a non-empty path string")
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
    """The configured market, with the k it needs; the library ignores k elsewhere."""
    if cfg.market is None:
        raise ConfigError(f"{why} requires a market kind (config field or --market)")
    kind = MarketKind(cfg.market)
    if kind is MarketKind.TAXED_FINITE and cfg.k is None:
        raise ConfigError("market=taxed_finite requires a positive k (config field or --k)")
    return kind


# ---------------------------------------------------------------------------
# Serialization


@cache
def _encoder(depth: int) -> json.JSONEncoder:
    """A C-accelerated encoder whose item separator is indent=2's at ``depth``."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "))


_CONTAINERS = (dict, list, tuple)


def _only_scalars(items: Iterable) -> bool:
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, items)))


def _json_text(value: object, depth: int = 0) -> str:
    r"""``json.dumps(value, indent=2)``, for a value nested ``depth`` levels deep.

    CPython encodes in C only without ``indent``, so the indented layout is
    built from separators instead.  A container of scalars is one encoder
    call with ",\n<indent>" between items.  A list of flat objects is one
    call a level deeper, whose object boundaries "},\n<indent>{" one
    str.replace re-indents.  Both are exact: the encoder escapes every
    newline inside a string, so each raw newline is a separator, and inside
    a flat object a separator is always followed by a key's quote.  Other
    containers recurse.
    """
    encoder = _encoder(depth)
    if not isinstance(value, _CONTAINERS) or not value:
        return encoder.encode(value)
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if _only_scalars(value.values() if isinstance(value, dict) else value):
        text = encoder.encode(value)
    elif isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):  # keep json's key coercions
            return json.dumps(value, indent=2).replace("\n", outer)
        text = "{" + ("," + inner).join(
            encoder.encode(key) + ": " + _json_text(v, depth + 1) for key, v in value.items()
        ) + "}"
    elif (
        all(map(isinstance, value, repeat(dict))) and all(value)
        and _only_scalars(chain.from_iterable(map(dict.values, value)))
    ):
        deeper = inner + "  "
        text = _encoder(depth + 1).encode(value).replace(
            "}," + deeper + "{", inner + "}," + inner + "{" + deeper
        )
        text = f"[{{{deeper}{text[2:-2]}{inner}}}]"
    else:
        text = "[" + ("," + inner).join(_json_text(v, depth + 1) for v in value) + "]"
    return f"{text[0]}{inner}{text[1:-1]}{outer}{text[-1]}"


def _csv_text(header: tuple[str, ...], rows: Iterable[tuple]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    # csv.writer already writes None as empty, floats by repr and ints by
    # str; only bools need mapping, and by type, because 1.0 == True.
    writer.writerows(
        row if bool not in map(type, row)
        else [("true" if c else "false") if type(c) is bool else c for c in row]
        for row in rows
    )
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
#
# Every handler takes the validated config and the parsed arguments and
# returns (status, JSON record, CSV header, CSV rows).  The rows are
# consumed only when CSV is emitted, so a handler may return them lazily.

Output = tuple[int, dict | None, tuple[str, ...], Iterable[tuple]]


def cmd_solve(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    beliefs = _config_beliefs(cfg)
    kind = _require_market(cfg, "solve")
    result = solve_market(beliefs, kind, cfg.k)
    price, d = result.price, result.diagnostics
    residual, iterations, degenerate = d.residual, d.iterations, d.degenerate
    decision = str(decision_from_offset(result.offset))

    agents = [
        {"agent": i, "belief": b, "side": "A" if s > 0.0 else "B" if s < 0.0 else None,
         "fraction": abs(s), "sA": s if s > 0.0 else 0.0, "sB": -s if s < 0.0 else 0.0}
        for i, (b, s) in enumerate(zip(beliefs.b, result.stakes))
    ]
    record = {
        "command": "solve",
        "market": kind.value,
        "k": result.k,
        "price": price,
        "decision": decision,
        "clearing_residual": residual,
        "iterations": iterations,
        "degenerate": degenerate,
        "agents": agents,
    }
    header = (
        "agent", "belief", "side", "fraction", "market", "k", "price",
        "decision", "clearing_residual", "iterations", "degenerate",
    )
    rows = (  # lazy: one row per agent, and n may be large
        (
            a["agent"], a["belief"], a["side"], a["fraction"], kind.value, result.k,
            price, decision, residual, iterations, degenerate,
        )
        for a in agents
    )
    return EXIT_OK, record, header, rows


def cmd_vote(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    scheme = cfg.weights or "egalitarian"
    beliefs = _config_beliefs(cfg)
    if scheme == "egalitarian":  # the one scheme belief agents can vote under
        weights = weights_egalitarian(beliefs.n)
    else:
        weights = WEIGHT_SCHEMES[scheme](_require_competences(cfg, f"weights={scheme}"))
    votes = votes_from_beliefs(beliefs)
    margin = weighted_margin(votes, weights)
    decision = str(decision_from_offset(margin))
    record = {
        "command": "vote",
        "weights_scheme": scheme,
        "weights": list(weights.w),
        "votes": list(votes.v),
        "weighted_margin": margin,
        "decision": decision,
    }
    header = ("agent", "belief", "vote", "weight", "scheme", "weighted_margin", "decision")
    rows = [
        (i, b, v, w, scheme, margin, decision)
        for i, (b, v, w) in enumerate(zip(beliefs.b, votes.v, weights.w))
    ]
    return EXIT_OK, record, header, rows


def cmd_check_equivalence(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    q = _require_competences(cfg, "check-equivalence")
    if args.exhaustive:
        signal_sets = [y for y, _ in enumerate_signal_space(q, STATE_A)]
    else:
        signal_sets = [_require_signals(cfg, "check-equivalence without --exhaustive")]

    header = (
        "scheme", "signals", "election", "market", "agree", "guaranteed",
        "price", "weighted_margin", "k",
    )
    rows = []
    violations = 0
    for signals in signal_sets:
        for r in check_all_schemes(q, signals, cfg.k):
            rows.append(
                (r.scheme.value, "".join(signals.y), str(r.election), str(r.market),
                 r.agree, r.guaranteed, r.price, r.weighted_margin, r.k)
            )
            if r.guaranteed and not r.agree:
                violations += 1

    record = {
        "command": "check_equivalence",
        "exhaustive": args.exhaustive,
        "violations": violations,
        "reports": [dict(zip(header, row)) for row in rows],
    }
    return EXIT_EQUIVALENCE if violations else EXIT_OK, record, header, rows


def cmd_accuracy(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    q = _require_competences(cfg, "accuracy")
    schemes = [cfg.weights] if cfg.weights else list(WEIGHT_SCHEMES)
    aggregators = [majority_aggregator(s) for s in schemes]
    if cfg.market is not None:
        aggregators.append(market_aggregator(_require_market(cfg, "accuracy"), cfg.k))
    estimates = []
    for agg in aggregators:
        if cfg.trials is not None:
            estimates.append(monte_carlo_accuracy(agg, q, cfg.trials, cfg.seed))
        elif q.n <= EXACT_MAX_AGENTS:
            estimates.append(exact_accuracy(agg, q))
        else:
            raise ConfigError(
                f"{q.n} agents exceed the exact-enumeration cap "
                f"({EXACT_MAX_AGENTS}); pass trials for Monte Carlo"
            )

    header = ("aggregator", "method", "value", "tie_mass", "trials", "std_error", "seed")
    rows = [
        (e.aggregator, e.method, e.value, e.tie_mass, e.trials, e.std_error, e.seed)
        for e in estimates
    ]
    record = {"command": "accuracy", "estimates": [dict(zip(header, row)) for row in rows]}
    return EXIT_OK, record, header, rows


def _parse_k_list(text: str | None) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_K_SWEEP
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"--k-list {text!r} is not a comma-separated list of reals") from exc
    if not values or any(not float_info.min <= v <= float_info.max for v in values):
        raise ConfigError(f"--k-list {text!r} needs finite positive reals >= {float_info.min!r}")
    return values


def cmd_sweep_k(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    k_list = _parse_k_list(args.k_list)
    beliefs = _config_beliefs(cfg)
    asymptotic_price = taxed_equilibrium_asymptotic(beliefs)
    log_odds = [log(b / (1.0 - b)) for b in beliefs.b]
    price_log_odds = log(asymptotic_price / (1.0 - asymptotic_price))

    # csv.writer would repr each float again on every row; values that repeat
    # across rows are formatted here once instead.
    agents = list(enumerate(map(repr, beliefs.b)))
    asymptotic_price_text = repr(asymptotic_price)

    rows = []
    errors = False
    for k in k_list:
        asymptotic = [(lo - price_log_odds) / k for lo in log_odds]
        try:
            result = taxed_equilibrium_finite(beliefs, k)
        except (BracketingError, UndefinedPriceError) as exc:
            errors = True
            signed, price, error = [None] * beliefs.n, None, str(exc)
        else:
            signed, price, error = result.stakes, repr(result.price), None
        k_text = repr(k)
        rows += [
            (k_text, i, b, s, a, price, asymptotic_price_text, error)
            for (i, b), s, a in zip(agents, signed, asymptotic)
        ]

    if errors:
        return EXIT_OK, None, SWEEP_COLUMNS + ("error",), rows
    return EXIT_OK, None, SWEEP_COLUMNS, [row[:-1] for row in rows]


def cmd_verify(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    beliefs = _config_beliefs(cfg)
    if beliefs.n > GRID_ORACLE_MAX_AGENTS:
        raise ConfigError(
            f"verify supports up to {GRID_ORACLE_MAX_AGENTS} agents, got {beliefs.n}"
        )
    if cfg.market is not None:
        kinds = [_require_market(cfg, "verify")]
    else:
        kinds = [MarketKind.NAIVE, MarketKind.KELLY]
        if cfg.k is not None:
            kinds.append(MarketKind.TAXED_FINITE)

    checks = []
    for kind in kinds:
        if kind is MarketKind.TAXED_ASYMPTOTIC:
            raise ConfigError(
                "verify cross-checks finite best responses; "
                "use market=taxed_finite with a k"
            )
        result = solve_market(beliefs, kind, cfg.k)
        intervals = grid_equilibrium_search(beliefs, kind, cfg.k)
        contained = any(lo <= result.price <= hi for lo, hi in intervals)
        unique = len(intervals) == 1 if kind is MarketKind.NAIVE else None
        checks.append(
            {
                "market": kind.value,
                "k": result.k,
                "price": result.price,
                "intervals": [[lo, hi] for lo, hi in intervals],
                "contained": contained,
                "unique": unique,
                "ok": contained and (unique is not False),
            }
        )

    all_ok = all(c["ok"] for c in checks)
    header = (
        "market", "k", "price", "interval_low", "interval_high",
        "contained", "unique", "ok",
    )
    rows = [  # one row per oracle interval; a check with none still gets a row
        (c["market"], c["k"], c["price"], lo, hi, c["contained"], c["unique"], c["ok"])
        for c in checks
        for lo, hi in c["intervals"] or [(None, None)]
    ]
    record = {"command": "verify", "ok": all_ok, "checks": checks}
    return EXIT_OK if all_ok else EXIT_SOLVER, record, header, rows


# ---------------------------------------------------------------------------
# The command table, argument parsing and the one emitter


@dataclass(frozen=True)
class Command:
    """One subcommand: handler, help text, formats (first is the default), extra flags."""

    handler: Callable[[ExperimentConfig, argparse.Namespace], Output]
    help: str
    formats: tuple[str, ...] = ("json", "csv")
    flags: dict[str, dict] = field(default_factory=dict)  # flag -> add_argument options


COMMANDS: dict[str, Command] = {
    "solve": Command(cmd_solve, "solve a market for its competitive-equilibrium price"),
    "vote": Command(cmd_vote, "run a weighted-majority election on binarised beliefs"),
    "check-equivalence": Command(
        cmd_check_equivalence,
        "compare election and market decisions",
        flags={"--exhaustive": dict(
            action="store_true",
            help="sweep all 2^n signal profiles instead of the configured one",
        )},
    ),
    "accuracy": Command(cmd_accuracy, "estimate truth-tracking accuracy"),
    "sweep-k": Command(
        cmd_sweep_k,
        "sweep the tax intensity and emit convergence data",
        formats=("csv",),
        flags={"--k-list": dict(
            help="comma-separated tax intensities "
            f"(default {','.join(str(k) for k in DEFAULT_K_SWEEP)})",
        )},
    ),
    "verify": Command(cmd_verify, "cross-check solvers against the brute-force grid oracle"),
}


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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args keeps no state between calls."""
    parser = _Parser(
        prog="jurymarkets",
        description="Weighted-majority elections and information-market equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        _add_shared_flags(p)
        for flag, options in command.flags.items():
            p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    # Call the module's current binding of the handler, so a wrapper installed
    # over it (a profiler's span, a test double) is the one that runs.
    handler = globals()[command.handler.__name__]
    try:
        cfg = load_config(args.config, args, command.formats[0])
        if cfg.format not in command.formats:
            default = command.formats[0]
            fix = (
                f"pass --format {default} or omit --format" if args.format
                else f"set the config field format to {default!r} or remove it"
            )
            raise ConfigError(
                f"{args.command} emits {' and '.join(f.upper() for f in command.formats)} "
                f"only; {fix}"
            )
        status, record, header, rows = handler(cfg, args)
        if cfg.format == "json":
            text = _json_text(record) + "\n"
        else:
            text = _csv_text(header, rows)
    except (UndefinedPriceError, BracketingError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.output is None:
        sys.stdout.write(text)
        return status
    try:
        with open(cfg.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write output {cfg.output!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
