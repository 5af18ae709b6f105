"""Command-line front end for the election/market toolkit.

Subcommands, with the output formats each emits (the first is the default):

* ``solve``             — competitive-equilibrium price and per-agent stakes (JSON, CSV)
* ``vote``              — weighted-majority election on binarised beliefs (JSON, CSV)
* ``check-equivalence`` — election vs market commuting-diagram reports (JSON, CSV)
* ``accuracy``          — exact or Monte Carlo truth-tracking accuracy (JSON, CSV)
* ``sweep-k``           — tax-intensity sweep emitting convergence data (CSV only)
* ``verify``            — independent grid-oracle cross-check of the solvers (JSON, CSV)

Experiments are described by a JSON config file (agents as competences or
beliefs, optional signals, market kind, weight scheme, seed, trials); the
flags a subcommand takes override config fields.  Output is deterministic
JSON or CSV — identical inputs produce byte-identical bytes — written to
stdout or ``--output``.  ``COMMANDS`` is the one table of subcommands, with
the flags each one reads, spelled in full, from ``FLAGS``, and ``FIELDS``
the one table of the config fields a flag may override, each with the test
its value must pass: every handler returns its status, JSON record and CSV
table, and ``main`` alone picks the format and writes the bytes.  The JSON
bytes are exactly those of ``json.dumps(record, indent=2)`` and the CSV
bytes those of the ``csv`` module's writer with ``None`` empty and booleans
as ``true``/``false``.
Per-row output is a ``Table`` of named columns: each column is formatted at
C level, a float by one ``repr`` and any other value once per distinct
value, and each row is one ``str.join`` of its cells.  A JSON list of
scalars (vote's ``weights`` and ``votes``, each of verify's ``intervals``)
is formatted as one such column, and every JSON container is one join of
its items' lines; only scalars and empty containers reach the C encoder.
The argument parser is built once per process.

Exit codes: 0 success; 1 invalid config or arguments, a format the command
does not emit, or an output file that cannot be opened or written
(``error: cannot write output ...``); 2 solver failure or oracle
contradiction; 3 a guaranteed election/market equivalence was violated.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, replace
from functools import cache
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from sys import float_info
from typing import Callable

from .accuracy import (
    EXACT_MAX_AGENTS,
    exact_accuracy,
    majority_aggregator,
    market_aggregator,
    monte_carlo_accuracy,
)
from .equivalence import MARKET_SCHEMES, WEIGHT_SCHEMES, check_all_schemes
from .markets import (
    BracketingError,
    MarketKind,
    UndefinedPriceError,
    _asymptotic_log_ratios,
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

# Each agent field and the lower end of its open range (low, 1).
AGENT_LOWER_BOUNDS = {"competence": 0.5, "belief": 0.0}
# Each config field the model fixes, and the one value it accepts.
FIXED_VALUES = {"prior": 0.5, "endowment": 1.0}


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
    # A well-formed list passes these C-level checks; any other list takes the
    # loop below, which names its first bad entry.
    if set(map(type, raw)) == {dict} and set(map(len, raw)) == {1}:
        (field,) = raw[0]
        low = AGENT_LOWER_BOUNDS.get(field)
        if low is not None:
            values = list(map(dict.get, raw, repeat(field)))  # None under another field
            if (
                set(map(type, values)) == {float}  # so each comparison below is defined
                and all(map(low.__lt__, values))  # False for NaN
                and all(map((1.0).__gt__, values))
            ):
                values = tuple(values)
                return (values, None) if low else (None, values)
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or len(entry) != 1:
            raise ConfigError(
                f"agents[{i}] must be an object with exactly one of "
                "'competence' or 'belief'"
            )
        (field, value), = entry.items()
        low = AGENT_LOWER_BOUNDS.get(field)
        if low is None:
            raise ConfigError(
                f"agents[{i}] has unknown field {field!r}; expected "
                "'competence' or 'belief'"
            )
        if not isinstance(value, (int, float)) or not low < value < 1.0:
            raise ConfigError(
                f"agents[{i}].{field}={value!r} must lie strictly between {low:g} and 1"
            )
    if any(field not in entry for entry in raw):
        raise ConfigError(
            "agents mix 'competence' and 'belief' entries; use one kind throughout"
        )
    # Only a float subclass such as np.float64 gets here: no int lies in either range.
    values = tuple(float(entry[field]) for entry in raw)
    return (values, None) if low else (None, values)


def _is_real(value: object) -> bool:
    """A JSON number; booleans are ints to Python but not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_k(value: object) -> bool:
    """A tax intensity: a real number that is a normal positive double."""
    return _is_real(value) and float_info.min <= value <= float_info.max


# Each config field a flag may override, in the order parse_config checks
# them and ExperimentConfig lists them: the test its value must pass, and
# the text that follows "name=value!r" when it fails.  An unset flag reads
# the config field; an absent field reads as None, but seed as 0 and format
# as parse_config's default_format, and these two reject None.  Each choice
# is tested in a tuple, so a JSON list or object fails, not raises TypeError.
FIELDS: dict[str, tuple[Callable[[object], bool], str]] = {
    "market": ((None, *MARKET_KINDS).__contains__, f"must be one of {', '.join(MARKET_KINDS)}"),
    "k": (lambda v: v is None or _is_k(v),
          f"must be a finite positive number >= {float_info.min!r}"),
    "weights": ((None, *WEIGHT_SCHEMES).__contains__,
                f"must be one of {', '.join(WEIGHT_SCHEMES)}"),
    "seed": (lambda v: isinstance(v, int) and not isinstance(v, bool) and 0 <= v < 2**64,
             "must be an unsigned 64-bit integer"),
    "trials": (lambda v: v is None or isinstance(v, int) and not isinstance(v, bool) and v >= 1,
               "must be a positive integer"),
    "output": (lambda v: v is None or isinstance(v, str) and v != "",
               "must be a non-empty path string"),
    "format": (("json", "csv").__contains__, "must be 'json' or 'csv'"),
}


def _parse_k(k: object) -> float:
    """A tax intensity, as a config field or a flag gives it: a normal positive double."""
    if not _is_k(k):
        raise ConfigError(f"k={k!r} {FIELDS['k'][1]}")
    return float(k)


def parse_config(
    data: dict,
    overrides: argparse.Namespace | None = None,
    default_format: str = "json",
) -> ExperimentConfig:
    """Validate a raw config mapping, applying command-line overrides."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    for key in data:
        if key not in FIELDS and key not in FIXED_VALUES and key not in ("agents", "signals"):
            raise ConfigError(f"unknown config field {key!r}")

    if "agents" not in data:
        raise ConfigError("config is missing the 'agents' list")
    competences, beliefs = _parse_agents(data["agents"])
    n = len(competences) if competences is not None else len(beliefs)

    for name, fixed in FIXED_VALUES.items():
        value = data.get(name, fixed)
        if not _is_real(value) or value != fixed:
            raise ConfigError(
                f"{name}={value!r} is not supported; the model fixes {name}={fixed:g}"
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

    defaults = {"seed": 0, "format": default_format}
    reads_market = overrides is None or hasattr(overrides, "market")  # takes --market
    fields = {}
    for name, (valid, message) in FIELDS.items():
        value = getattr(overrides, name, None)
        if value is None:
            value = data.get(name, defaults.get(name))
        if not valid(value):
            raise ConfigError(f"{name}={value!r} {message}")
        if name == "k" and value is not None:  # a clash with the market fails before weights
            value = float(value)
            market = fields["market"]
            if reads_market and market not in (None, MarketKind.TAXED_FINITE.value):
                raise ConfigError(
                    f"k only applies to the taxed_finite market, not market={market!r}"
                )
        fields[name] = value
    return ExperimentConfig(competences, beliefs, signals, **fields)


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
#
# Per-row output is a Table of named columns, so no row is kept as a tuple
# or a dict; the module docstring gives the bytes each format must match.


class Cells(list):
    """A table column already written as text, which both formats print as is.

    Only texts that JSON and CSV share belong here: ints, finite floats by
    ``repr`` and booleans as ``true``/``false``.  A handler builds one where a
    text serves several columns or blocks, so that it is formatted once.
    """


@dataclass(frozen=True)
class Table:
    """Per-row output as named columns, in blocks of rows.

    Each block holds one entry per name: a list or tuple with one cell per
    row of the block (``Cells`` among them), or a single value that every row
    of the block repeats.  A block with no list or tuple is one row.
    """

    names: tuple[str, ...]
    blocks: list[tuple]


_COLUMN = (list, tuple)
_NESTED = (dict, list, tuple, Table)
_NON_FINITE = frozenset(("nan", "inf", "-inf"))
# A column of these types alone is formatted once per distinct value: equal
# values of them print alike, as 1 and True, 0.0 and -0.0 or (1,) and (True,)
# do not.
_MEMOISED = frozenset((str, bool, type(None)))
# The csv module's QUOTE_MINIMAL with a "\n" line terminator quotes exactly these.
_CSV_SPECIAL = re.compile('[,"\n]')
# A scalar or an empty container prints the same at any depth, so one C encoder
# serves them all.
_encode = json.JSONEncoder().encode


def _csv_cell(value: object) -> str:
    if isinstance(value, str):
        return '"' + value.replace('"', '""') + '"' if _CSV_SPECIAL.search(value) else value
    if value is None:
        return ""
    if isinstance(value, bool):  # by type, because 1.0 == True
        return "true" if value else "false"
    return str(value)


def _texts(column: list | tuple, cell: Callable[[object], str]) -> list[str]:
    """The text of each cell of a column, as ``cell`` writes it."""
    if type(column) is Cells:
        return column
    kinds = set(map(type, column))
    if kinds == {float}:
        texts = list(map(float.__repr__, column))
        if _NON_FINITE.isdisjoint(texts):  # JSON writes NaN and Infinity
            return texts
    elif kinds == {int}:
        return list(map(int.__repr__, column))
    elif kinds <= _MEMOISED:
        memo = {value: cell(value) for value in set(column)}
        return list(map(memo.__getitem__, column))
    return list(map(cell, column))


def _lines(
    table: Table, cell: Callable[[object], str], prefixes: list[str], closing: str = ""
) -> list[str]:
    """Each row of ``table`` as one string: each cell after its prefix, then ``closing``.

    A row is one C-level join of the block's column texts, with the text of
    each single value merged into the prefixes around it.
    """
    lines: list[str] = []
    for block in table.blocks:
        pieces, text = [], ""
        for prefix, entry in zip(prefixes, block, strict=True):
            text += prefix
            if isinstance(entry, _COLUMN):
                pieces += (text, _texts(entry, cell))
                text = ""
            else:
                text += cell(entry)
        pieces.append(text + closing)
        rows = len(pieces[1]) if len(pieces) > 1 else 1
        pieces = [repeat(p, rows) if isinstance(p, str) else p for p in pieces]
        lines += map("".join, zip(*pieces, strict=True))
    return lines


def _csv_text(table: Table) -> str:
    """The csv module's bytes for the header and the rows, one "\\n" after each."""
    lines = _lines(table, _csv_cell, [""] + [","] * (len(table.names) - 1))
    lines.insert(0, ",".join(map(_csv_cell, table.names)))
    if len(table.names) == 1:  # the csv module quotes a row's one empty field
        lines = [line or '""' for line in lines]
    lines.append("")
    return "\n".join(lines)


def _json_text(value: object, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)``, for a value nested ``depth`` levels deep.

    A Table is written as its list of row objects, and ``Cells`` as its texts.
    CPython encodes in C only without ``indent``, so a scalar or an empty
    container is one encoder call, and every other container is one join of
    its items' texts, one per line: a Table's rows from ``_lines``, a list's
    items from ``_texts`` as one column, an object's values one call each.
    """
    if not isinstance(value, _NESTED) or not value:
        return _encode(value)
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):  # keep json's key coercions
            return json.dumps(value, indent=2).replace("\n", outer)
        pieces = ["{"]
        for key, item in value.items():
            pieces += (inner, _encode(key), ": ", _json_text(item, depth + 1), ",")
        pieces[-1] = outer + "}"
        return "".join(pieces)
    if isinstance(value, Table):
        keys = [f"{inner}  {encode_basestring_ascii(name)}: " for name in value.names]
        items = _lines(value, _encode, ["{" + keys[0]] + ["," + k for k in keys[1:]], inner + "}")
        if not items:
            return "[]"
    else:  # a copy, because a Cells column is the caller's own list
        items = list(_texts(value, lambda item: _json_text(item, depth + 1)))
    items[0] = "[" + inner + items[0]
    items[-1] += outer + "]"
    return ("," + inner).join(items)


def _fields(records: list, *names: str) -> tuple[list, ...]:
    """One column per (dotted) attribute name, read from every record at C level."""
    return tuple(list(map(attrgetter(name), records)) for name in names)


# ---------------------------------------------------------------------------
# Subcommands
#
# Every handler takes the validated config and the parsed arguments and
# returns (status, JSON record, CSV table); a record may hold tables, which
# are written as lists of objects.

Output = tuple[int, dict | None, Table]


def cmd_solve(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    beliefs = _config_beliefs(cfg)
    kind = _require_market(cfg, "solve")
    result = solve_market(beliefs, kind, cfg.k)
    d = result.diagnostics
    decision = str(decision_from_offset(result.offset))

    # Stakes lie in [-1, 1], so repr is their text in both formats, and a
    # stake's one text is its fraction and its sA or sB.
    stakes = result.stakes
    fraction = Cells(map(repr, map(abs, stakes)))
    side = ["A" if s > 0.0 else "B" if s < 0.0 else None for s in stakes]
    s_a = Cells([f if s > 0.0 else "0.0" for f, s in zip(fraction, stakes)])
    s_b = Cells([f if s < 0.0 else "0.0" for f, s in zip(fraction, stakes)])
    agents = (list(range(beliefs.n)), beliefs.b, side, fraction)
    record = {
        "command": "solve",
        "market": kind.value,
        "k": result.k,
        "price": result.price,
        "decision": decision,
        "clearing_residual": d.residual,
        "iterations": d.iterations,
        "degenerate": d.degenerate,
        "agents": Table(
            ("agent", "belief", "side", "fraction", "sA", "sB"), [(*agents, s_a, s_b)]
        ),
    }
    table = Table(
        (
            "agent", "belief", "side", "fraction", "market", "k", "price",
            "decision", "clearing_residual", "iterations", "degenerate",
        ),
        [(*agents, kind.value, result.k, result.price, decision, d.residual,
          d.iterations, d.degenerate)],
    )
    return EXIT_OK, record, table


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
    table = Table(
        ("agent", "belief", "vote", "weight", "scheme", "weighted_margin", "decision"),
        [(list(range(beliefs.n)), beliefs.b, votes.v, weights.w, scheme, margin, decision)],
    )
    return EXIT_OK, record, table


def cmd_check_equivalence(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    q = _require_competences(cfg, "check-equivalence")
    if args.exhaustive:
        signal_sets = [y for y, _ in enumerate_signal_space(q, STATE_A)]
    else:
        signal_sets = [_require_signals(cfg, "check-equivalence without --exhaustive")]

    reports, signals = [], []
    for y in signal_sets:
        batch = check_all_schemes(q, y, cfg.k)
        reports += batch
        signals += repeat("".join(y.y), len(batch))
    scheme, election, market, agree, guaranteed, price, margin, k = _fields(
        reports, "scheme.value", "election.value", "market.value", "agree", "guaranteed",
        "price", "weighted_margin", "k",
    )
    violations = sum(g and not a for g, a in zip(guaranteed, agree))
    table = Table(
        ("scheme", "signals", "election", "market", "agree", "guaranteed",
         "price", "weighted_margin", "k"),
        [(scheme, signals, election, market, agree, guaranteed, price, margin, k)],
    )
    record = {
        "command": "check_equivalence",
        "exhaustive": args.exhaustive,
        "violations": violations,
        "reports": table,
    }
    return EXIT_EQUIVALENCE if violations else EXIT_OK, record, table


def cmd_accuracy(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    """One estimate per aggregator, each distinct decision rule scored once.

    An aggregator is keyed by the weight rule it decides with: a majority by
    its scheme, a closed-form market by the scheme MARKET_SCHEMES pairs it
    with, and the finite taxed market by itself.  A closed-form market scored
    in the same call as its paired majority decides every profile alike, so
    it reports that majority's estimate under its own name; the finite taxed
    market is always scored on its own.  Nothing is kept between calls.
    """
    q = _require_competences(cfg, "accuracy")
    if args.seed is not None and cfg.trials is None:
        raise ConfigError("--seed only applies to Monte Carlo accuracy; pass --trials too")
    if args.k is not None and cfg.market is None:
        raise ConfigError("--k only applies to a market's accuracy; pass --market too")
    schemes = [cfg.weights] if cfg.weights else list(WEIGHT_SCHEMES)
    rules = [(s, majority_aggregator(s)) for s in schemes]
    if cfg.market is not None:
        kind = _require_market(cfg, "accuracy")
        rules.append((MARKET_SCHEMES.get(kind, kind), market_aggregator(kind, cfg.k)))
    if cfg.trials is None and q.n > EXACT_MAX_AGENTS:
        raise ConfigError(
            f"{q.n} agents exceed the exact-enumeration cap "
            f"({EXACT_MAX_AGENTS}); pass trials for Monte Carlo"
        )
    scored = {}
    estimates = []
    for rule, agg in rules:
        if rule in scored:
            estimate = replace(scored[rule], aggregator=agg.name)
        elif cfg.trials is None:
            estimate = scored[rule] = exact_accuracy(agg, q)
        else:
            estimate = scored[rule] = monte_carlo_accuracy(agg, q, cfg.trials, cfg.seed)
        estimates.append(estimate)

    names = ("aggregator", "method", "value", "tie_mass", "trials", "std_error", "seed")
    table = Table(names, [_fields(estimates, *names)])
    return EXIT_OK, {"command": "accuracy", "estimates": table}, table


def _parse_k_list(text: str | None, flag: str = "--k-list") -> tuple[float, ...]:
    """The tax intensities of a comma-separated ``flag`` value; empty items are skipped."""
    if text is None:
        return DEFAULT_K_SWEEP
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag} {text!r} is not a comma-separated list of reals") from exc
    if not values or not all(map(_is_k, values)):
        raise ConfigError(f"{flag} {text!r} needs finite positive reals >= {float_info.min!r}")
    return values


def cmd_sweep_k(cfg: ExperimentConfig, args: argparse.Namespace) -> Output:
    k_list = _parse_k_list(args.k_list)
    beliefs = _config_beliefs(cfg)
    asymptotic_price = taxed_equilibrium_asymptotic(beliefs)
    # k times each agent's taxed_best_response_asymptotic stake, divided by each k.
    log_ratios = _asymptotic_log_ratios(beliefs.b, asymptotic_price)

    # One block of rows per k; the agent and belief texts serve every block.
    agent = Cells(map(str, range(beliefs.n)))
    belief = Cells(map(repr, beliefs.b))
    blocks = []
    for k in k_list:
        asymptotic = [ratio / k for ratio in log_ratios]
        try:
            result = taxed_equilibrium_finite(beliefs, k)
        except (BracketingError, UndefinedPriceError) as exc:
            stakes, price, error = None, None, str(exc)
        else:
            stakes, price, error = result.stakes, result.price, None
        blocks.append((k, agent, belief, stakes, asymptotic, price, asymptotic_price, error))

    if any(block[-1] is not None for block in blocks):
        return EXIT_OK, None, Table(SWEEP_COLUMNS + ("error",), blocks)
    return EXIT_OK, None, Table(SWEEP_COLUMNS, [block[:-1] for block in blocks])


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

    checks, blocks = [], []  # one row per oracle interval; a check with none still gets a row
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
        ok = contained and (unique is not False)
        checks.append(
            {
                "market": kind.value,
                "k": result.k,
                "price": result.price,
                "intervals": [[lo, hi] for lo, hi in intervals],
                "contained": contained,
                "unique": unique,
                "ok": ok,
            }
        )
        low, high = zip(*intervals) if intervals else (None, None)
        blocks.append((kind.value, result.k, result.price, low, high, contained, unique, ok))

    all_ok = all(c["ok"] for c in checks)
    table = Table(
        ("market", "k", "price", "interval_low", "interval_high", "contained", "unique", "ok"),
        blocks,
    )
    record = {"command": "verify", "ok": all_ok, "checks": checks}
    return EXIT_OK if all_ok else EXIT_SOLVER, record, table


# ---------------------------------------------------------------------------
# The command table, argument parsing and the one emitter


# Each flag's add_argument options; build_parser adds those each COMMANDS row takes.
FLAGS: dict[str, dict] = {
    "--config": dict(required=True, help="path to a JSON experiment config"),
    "--market": dict(choices=MARKET_KINDS, help="override the config's market"),
    "--weights": dict(choices=tuple(WEIGHT_SCHEMES), help="override the config's weight scheme"),
    "--k": dict(type=float, help="tax intensity of the taxed_finite market (check-equivalence "
                "prices its log-odds pairing there; verify without --market checks it too)"),
    "--trials": dict(type=int, help="Monte Carlo trial count"),
    "--seed": dict(type=int, help="random seed"),
    "--exhaustive": dict(action="store_true",
                         help="sweep all 2^n signal profiles instead of the configured one"),
    "--k-list": dict(help="comma-separated tax intensities "
                     f"(default {','.join(str(k) for k in DEFAULT_K_SWEEP)})"),
    "--format": dict(choices=("json", "csv"), help="output format"),
    "--output": dict(help="write output to this path instead of stdout"),
}


@dataclass(frozen=True)
class Command:
    """One subcommand: handler, help text, the flags it takes besides --config,
    --format and --output, and formats (the first is the default)."""

    handler: Callable[[ExperimentConfig, argparse.Namespace], Output]
    help: str
    flags: tuple[str, ...]
    formats: tuple[str, ...] = ("json", "csv")


COMMANDS: dict[str, Command] = {
    "solve": Command(cmd_solve, "solve a market for its competitive-equilibrium price",
                     ("--market", "--k")),
    "vote": Command(cmd_vote, "run a weighted-majority election on binarised beliefs",
                    ("--weights",)),
    "check-equivalence": Command(cmd_check_equivalence, "compare election and market decisions",
                                 ("--k", "--exhaustive")),
    "accuracy": Command(cmd_accuracy, "estimate truth-tracking accuracy",
                        ("--market", "--weights", "--k", "--trials", "--seed")),
    "sweep-k": Command(cmd_sweep_k, "sweep the tax intensity and emit convergence data",
                       ("--k-list",), formats=("csv",)),
    "verify": Command(cmd_verify, "cross-check solvers against the brute-force grid oracle",
                      ("--market", "--k")),
}


def _write_output(text: str, path: str | None) -> int:
    """Write ``text`` to stdout, or to the file at ``path``: EXIT_OK, or EXIT_CONFIG
    after one ``error: cannot write output ...`` line if the file cannot be written."""
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write output {path!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the validation exit code."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args keeps no state between calls."""
    parser = _Parser(
        prog="jurymarkets",
        description="Weighted-majority elections and information-market equilibria.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        # Flags are spelled in full, so sweep-k reads --k as unknown, not as --k-list.
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for flag in ("--config", *command.flags, "--format", "--output"):
            p.add_argument(flag, **FLAGS[flag])
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
        status, record, table = handler(cfg, args)
        text = _json_text(record) + "\n" if cfg.format == "json" else _csv_text(table)
    except (UndefinedPriceError, BracketingError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _write_output(text, cfg.output) or status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
