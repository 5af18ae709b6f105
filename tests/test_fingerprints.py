"""Fingerprints of the solvers' output bits and of the CLI's output bytes.

``solvers.txt`` holds, per case of a fixed grid, the ``float.hex`` of a
result's price, stakes and clearing residual plus its iteration counts, or
the type of the exception the case raises.  ``cli.txt`` holds the exit code
and the SHA-256 of the bytes of one CLI call per line, on seeded panels at
the sizes the benchmark runs (the goldens stop at five agents).  ``mc.txt``
holds the ``float.hex`` of the value, tie mass and standard error of seeded
Monte Carlo estimates of weak juries, whose values stay clear of 1 and so
pin the sampler's bits.  ``exact.txt`` holds the ``float.hex`` of the value
and tie mass of exact accuracies, for every aggregator, on seeded competence
panels of 1 to 12 agents.  Either way a diff names the case that moved.  A
change that moves them on purpose regenerates the four files and lists the
moved lines in CHANGES.md:

    PYTHONPATH=src python tests/test_fingerprints.py

The bits rest on numpy's ``exp``, ``expm1`` and ``log``, whose SIMD paths vary
with the CPU and the numpy version, so the header records the platform and a
host that does not match it skips the comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import random
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from jurymarkets import (
    BeliefProfile,
    CompetenceProfile,
    MarketKind,
    exact_accuracy,
    majority_aggregator,
    market_aggregator,
    monte_carlo_accuracy,
    solve_market,
)
from jurymarkets.cli import main

SOLVERS_FILE = Path(__file__).resolve().parent / "fingerprints" / "solvers.txt"
CLI_FILE = SOLVERS_FILE.with_name("cli.txt")
MC_FILE = SOLVERS_FILE.with_name("mc.txt")
EXACT_FILE = SOLVERS_FILE.with_name("exact.txt")

TAX_RATES = (1e-6, 0.1, 10.0, 1e3, 1e7, 1e300)
# Beliefs at the ends of the open unit interval.
HOSTILE = (1e-300, 1.0 - 2.0**-53)


def host_header() -> str:
    return (
        f"# python {platform.python_version()} numpy {np.__version__} "
        f"machine {platform.machine()}"
    )


def panels() -> list[tuple[float, ...]]:
    """Seeded belief panels for n = 1..8: uniform, lattice and hostile.

    The lattices {i/n} and {j/(2n)} put beliefs on or halfway between the
    naive market's split prices i/n.
    """
    rng = random.Random(2023)
    out = []
    for n in range(1, 9):
        out.append(tuple(rng.uniform(0.01, 0.99) for _ in range(n)))
        out.append(tuple(rng.uniform(0.4, 0.6) for _ in range(n)))
        for denominator in (max(n, 2), 2 * n):
            lattice = [i / denominator for i in range(1, denominator)]
            out.append(tuple(rng.choice(lattice) for _ in range(n)))
        out.append(tuple(rng.choice(HOSTILE + (0.3, 0.5, 0.7)) for _ in range(n)))
        out.append(tuple(rng.choice((*HOSTILE, rng.uniform(0.01, 0.99))) for _ in range(n)))
    return out


def case_line(kind: MarketKind, k: float | None, beliefs: BeliefProfile) -> str:
    try:
        result = solve_market(beliefs, kind, k)
    except Exception as exc:  # the type is the fingerprint
        return f"raises {type(exc).__name__}"
    d = result.diagnostics
    return (
        f"price={result.price.hex()} "
        f"stakes={','.join(s.hex() for s in result.stakes)} "
        f"residual={d.residual.hex()} iterations={d.iterations} inner={d.inner_iterations}"
    )


def fingerprint_lines() -> list[str]:
    cases = [(MarketKind.NAIVE, None), (MarketKind.KELLY, None),
             (MarketKind.TAXED_ASYMPTOTIC, None)]
    cases += [(MarketKind.TAXED_FINITE, k) for k in TAX_RATES]
    lines = [host_header()]
    # A warning is recorded as the exception it becomes, whatever the
    # caller's warning filters.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for index, panel in enumerate(panels()):
            lines.append(f"panel {index} beliefs={','.join(b.hex() for b in panel)}")
            beliefs = BeliefProfile(panel)
            for kind, k in cases:
                label = kind.value if k is None else f"{kind.value} k={k!r}"
                lines.append(f"panel {index} {label}: {case_line(kind, k, beliefs)}")
    return lines


def cli_cases(workdir: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of each CLI case, with its seeded configs written to ``workdir``.

    A 1,000-agent belief panel feeds ``solve``, ``sweep-k`` (whose largest k
    overflows k p/(1-p) and fills the error column) and, by its first four
    agents, ``verify``.  A 1,000-agent competence panel with signals feeds
    ``solve``, ``vote`` and Monte Carlo ``accuracy``, and its first 12, 10 and
    8 agents the exact and exhaustive cases.  A 12-agent panel of three
    competences feeds one more exhaustive case, many of whose margins are
    exact ties.
    """
    rng = random.Random(2026)
    beliefs = [rng.uniform(0.02, 0.98) for _ in range(1000)]
    competences = [rng.uniform(0.51, 0.95) for _ in range(1000)]
    signals = [rng.choice("AB") for _ in range(1000)]
    configs = {
        "beliefs1000": {"agents": [{"belief": b} for b in beliefs]},
        "beliefs4": {"agents": [{"belief": b} for b in beliefs[:4]]},
        "competences1000": {"agents": [{"competence": q} for q in competences],
                            "signals": signals},
    }
    for n in (12, 10, 8):
        configs[f"competences{n}"] = {"agents": [{"competence": q} for q in competences[:n]]}
    # Dyadic competences: the linear weights 1/4, 1/2 and 3/4 are exact, so
    # their ties are exact too, and equal signals give equal beliefs, which
    # the naive market ranks by agent index.
    configs["ties12"] = {"agents": [{"competence": q} for q in (0.625, 0.75, 0.875) * 4]}
    for name, data in configs.items():
        (workdir / f"{name}.json").write_text(json.dumps(data))

    markets = [["--market", kind] for kind in ("naive", "kelly", "taxed_asymptotic")]
    markets += [["--market", "taxed_finite", "--k", k] for k in ("0.1", "10", "1e7")]
    cases = [
        ("solve", config, [*market, "--format", fmt])
        for config in ("beliefs1000", "competences1000")
        for market in markets
        for fmt in ("json", "csv")
    ]
    cases.append(("sweep-k", "beliefs1000", ["--k-list", "0.1,10,1e7,1.7976931348623157e308"]))
    cases += [
        ("vote", "competences1000", ["--weights", scheme, "--format", fmt])
        for scheme in ("egalitarian", "linear", "log_odds")
        for fmt in ("json", "csv")
    ]
    for fmt in ("json", "csv"):
        cases += [
            ("check-equivalence", "competences10", ["--exhaustive", "--format", fmt]),
            ("check-equivalence", "competences8", ["--exhaustive", "--k", "10", "--format", fmt]),
            ("accuracy", "competences12", ["--market", "naive", "--format", fmt]),
            ("accuracy", "competences12", ["--market", "taxed_finite", "--k", "10",
                                           "--format", fmt]),
            ("accuracy", "competences1000", ["--weights", "linear", "--market", "kelly",
                                             "--trials", "2000", "--seed", "7", "--format", fmt]),
            ("verify", "beliefs4", ["--market", "naive", "--format", fmt]),
        ]
    # The size the benchmark's exhaustive check runs, appended so that no
    # earlier line moves.
    cases += [
        ("check-equivalence", "competences12", ["--exhaustive", "--format", fmt])
        for fmt in ("json", "csv")
    ]
    cases.append(("check-equivalence", "ties12", ["--exhaustive", "--format", "csv"]))
    return [
        (" ".join([command, config, *flags]),
         [command, "--config", str(workdir / f"{config}.json"), *flags])
        for command, config, flags in cases
    ]


def cli_lines(workdir: Path) -> list[str]:
    lines = [host_header()]
    output = workdir / "out"
    for label, argv in cli_cases(workdir):
        output.unlink(missing_ok=True)
        status = main([*argv, "--output", str(output)])
        digest = hashlib.sha256(output.read_bytes()).hexdigest() if output.exists() else "-"
        lines.append(f"{label}: exit={status} sha256={digest}")
    return lines


def mc_lines() -> list[str]:
    """Monte Carlo estimates on seeded panels of weak agents.

    Competences in (0.51, 0.6) keep every value past one trial away from 1,
    and the trial counts reach one row, a part block, one batch less one
    row and two batches.
    """
    rng = random.Random(22)
    lines = [host_header()]
    for n in (1, 3, 11, 101):
        q = CompetenceProfile(tuple(rng.uniform(0.51, 0.6) for _ in range(n)))
        lines.append(f"n={n} competences={','.join(c.hex() for c in q.q)}")
        for trials in (1, 200, 65_535, 65_537):
            for seed in (0, 2**64 - 1):
                for scheme in ("egalitarian", "linear", "log_odds"):
                    e = monte_carlo_accuracy(majority_aggregator(scheme), q, trials, seed)
                    lines.append(
                        f"n={n} trials={trials} seed={seed} {e.aggregator}: "
                        f"value={e.value.hex()} tie_mass={e.tie_mass.hex()} "
                        f"std_error={e.std_error.hex()}"
                    )
    return lines


def exact_lines() -> list[str]:
    """Exact accuracies of every aggregator on seeded competence panels.

    For each n = 1..12: a uniform panel; an equal-competence panel, whose
    margins tie exactly at even n; a panel of three dyadic competences, whose
    linear weights tie exactly too; and a panel at the ends of the
    competence range, the double after 1/2 and 1 - 2**-53.
    """
    rng = random.Random(30)
    aggregators = [majority_aggregator(scheme) for scheme in ("egalitarian", "linear", "log_odds")]
    aggregators += [market_aggregator(kind) for kind in
                    (MarketKind.NAIVE, MarketKind.KELLY, MarketKind.TAXED_ASYMPTOTIC)]
    aggregators += [market_aggregator(MarketKind.TAXED_FINITE, k) for k in (1e-6, 10.0, 1e7)]
    ends = (math.nextafter(0.5, 1.0), 1.0 - 2.0**-53)
    lines = [host_header()]
    for n in range(1, 13):
        equal = rng.uniform(0.51, 0.99)
        panels = (
            tuple(rng.uniform(0.51, 0.99) for _ in range(n)),
            (equal,) * n,
            tuple(rng.choice((0.625, 0.75, 0.875)) for _ in range(n)),
            tuple(rng.choice((*ends, rng.uniform(0.51, 0.99))) for _ in range(n)),
        )
        for index, panel in enumerate(panels):
            label = f"n={n} panel {index}"
            lines.append(f"{label} competences={','.join(c.hex() for c in panel)}")
            q = CompetenceProfile(panel)
            for agg in aggregators:
                try:
                    e = exact_accuracy(agg, q)
                except Exception as exc:  # the type is the fingerprint
                    lines.append(f"{label} {agg.name}: raises {type(exc).__name__}")
                    continue
                lines.append(
                    f"{label} {agg.name}: value={e.value.hex()} tie_mass={e.tie_mass.hex()}"
                )
    return lines


def compare(path: Path, current_lines: Callable[[], list[str]]) -> None:
    """Compare a fingerprint file with fresh lines, or skip on another platform."""
    recorded = path.read_text().splitlines()
    if recorded[0] != host_header():
        pytest.skip(f"fingerprint recorded on {recorded[0]!r}, host is {host_header()!r}")
    current = current_lines()
    for number, (old, new) in enumerate(zip(recorded, current), start=1):
        assert new == old, f"line {number} moved:\n  recorded {old}\n  now      {new}"
    assert len(current) == len(recorded), (len(recorded), len(current))


def test_solver_fingerprint():
    compare(SOLVERS_FILE, fingerprint_lines)


def test_cli_fingerprint(tmp_path):
    compare(CLI_FILE, lambda: cli_lines(tmp_path))


def test_monte_carlo_fingerprint():
    compare(MC_FILE, mc_lines)


def test_exact_accuracy_fingerprint():
    compare(EXACT_FILE, exact_lines)


if __name__ == "__main__":
    SOLVERS_FILE.parent.mkdir(exist_ok=True)
    SOLVERS_FILE.write_text("\n".join(fingerprint_lines()) + "\n")
    with tempfile.TemporaryDirectory() as workdir:
        CLI_FILE.write_text("\n".join(cli_lines(Path(workdir))) + "\n")
    MC_FILE.write_text("\n".join(mc_lines()) + "\n")
    EXACT_FILE.write_text("\n".join(exact_lines()) + "\n")
    print(f"wrote {SOLVERS_FILE}, {CLI_FILE}, {MC_FILE} and {EXACT_FILE}", file=sys.stderr)
