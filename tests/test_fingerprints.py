"""Solver fingerprint: every equilibrium solver's output bits on a fixed grid.

Each line holds the ``float.hex`` of a result's price, stakes and clearing
residual plus its iteration counts, or the type of the exception the case
raises, so a diff names the case that moved.  A change that moves solver bits
on purpose regenerates the file and lists the moved lines in CHANGES.md:

    PYTHONPATH=src python tests/test_fingerprints.py

The bits rest on numpy's ``exp``, ``expm1`` and ``log``, whose SIMD paths vary
with the CPU and the numpy version, so the header records the platform and a
host that does not match it skips the comparison.
"""

from __future__ import annotations

import platform
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from jurymarkets import BeliefProfile, MarketKind, solve_market

SOLVERS_FILE = Path(__file__).resolve().parent / "fingerprints" / "solvers.txt"

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


def test_solver_fingerprint():
    recorded = SOLVERS_FILE.read_text().splitlines()
    if recorded[0] != host_header():
        pytest.skip(f"fingerprint recorded on {recorded[0]!r}, host is {host_header()!r}")
    current = fingerprint_lines()
    for number, (old, new) in enumerate(zip(recorded, current), start=1):
        assert new == old, f"line {number} moved:\n  recorded {old}\n  now      {new}"
    assert len(current) == len(recorded), (len(recorded), len(current))


if __name__ == "__main__":
    SOLVERS_FILE.parent.mkdir(exist_ok=True)
    SOLVERS_FILE.write_text("\n".join(fingerprint_lines()) + "\n")
    print(f"wrote {SOLVERS_FILE}", file=sys.stderr)
