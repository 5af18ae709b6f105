"""The bundled scripts' stdout, pinned byte for byte against goldens."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"


@pytest.mark.parametrize(
    "script, golden",
    [
        ("run_worked_examples.py", "run_worked_examples.txt"),
        ("tax_convergence.py", "tax_convergence.csv"),
    ],
)
def test_stdout_matches_golden(script, golden):
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script)], capture_output=True, cwd=REPO
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / golden).read_bytes()
