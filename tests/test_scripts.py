"""The bundled scripts: stdout pinned byte for byte against goldens, and
bad input ending in one error line rather than a traceback."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
# The checkout's package comes first, so the scripts run it without an install.
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))),
)


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True,
        cwd=REPO,
        env=ENV,
    )


def assert_one_error_line(
    result: subprocess.CompletedProcess, status: int = 1, prefix: bytes = b"error: "
) -> None:
    assert result.returncode == status
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert result.stderr.startswith(prefix)
    assert result.stderr.count(b"\n") == 1


@pytest.mark.parametrize(
    "script, golden",
    [
        ("run_worked_examples.py", "run_worked_examples.txt"),
        ("tax_convergence.py", "tax_convergence.csv"),
    ],
)
def test_stdout_matches_golden(script, golden):
    result = run_script(script)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / golden).read_bytes()


NO_SIGNALS = {"agents": [{"competence": 0.7}, {"competence": 0.6}]}
BELIEFS = {"agents": [{"belief": 0.7}, {"belief": 0.4}]}


@pytest.mark.parametrize(
    "script, config, args",
    [
        ("run_worked_examples.py", NO_SIGNALS, ()),
        ("tax_convergence.py", NO_SIGNALS, ()),
        ("run_worked_examples.py", BELIEFS, ()),
        ("run_worked_examples.py", None, ("--k", "5e-324")),
        ("run_worked_examples.py", None, ("--k", "nan")),
        ("tax_convergence.py", None, ("--k-grid", "5e-324")),
        ("tax_convergence.py", None, ("--k-grid", "1,inf")),
        ("tax_convergence.py", None, ("--k-grid", "abc")),
    ],
    ids=[
        "worked-no-signals", "convergence-no-signals", "worked-beliefs", "worked-subnormal-k",
        "worked-nan-k", "convergence-subnormal-k", "convergence-inf-k", "convergence-abc",
    ],
)
def test_bad_input_is_one_error_line(tmp_path, script, config, args):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = ("--config", str(path), *args)
    result = run_script(script, *args)
    assert_one_error_line(result)


def test_output_file_holds_the_golden_bytes(tmp_path):
    path = tmp_path / "out.csv"
    result = run_script("tax_convergence.py", "--output", str(path))
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b""
    assert path.read_bytes() == (GOLDEN / "tax_convergence.csv").read_bytes()


def test_unwritable_output_is_one_error_line(tmp_path):
    result = run_script("tax_convergence.py", "--output", str(tmp_path / "missing" / "out.csv"))
    assert_one_error_line(result)
    assert b"cannot write output" in result.stderr


def test_failed_solve_is_one_solver_error_line(tmp_path):
    # Each input is valid, but the taxed first-order condition at k = 1e-4
    # does not change sign below 1 for a belief this close to 0.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"agents": [{"belief": 1e-20}, {"belief": 0.4}]}))
    result = run_script("tax_convergence.py", "--config", str(path), "--k-grid", "1e-4")
    assert_one_error_line(result, status=2, prefix=b"solver error: ")


def test_beliefs_near_zero_reach_the_finite_solves(tmp_path):
    # A belief of 5e-324 once overflowed the k -> infinity price.  The run now
    # reaches the finite solves, which raise: this B-staker's optimum lies
    # past the stake bracket's top, the largest double below 1.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"agents": [{"belief": 5e-324}]}))
    result = run_script("tax_convergence.py", "--config", str(path))
    assert_one_error_line(result, status=2, prefix=b"solver error: ")
