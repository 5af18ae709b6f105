"""The bundled scripts: stdout pinned byte for byte against goldens, bad
input ending in one error line rather than a traceback, and each flag read by
the rule the CLI applies to the same input."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
EXAMPLE_1 = "configs/example1.json"  # relative to REPO, the working directory of every run
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


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "jurymarkets.cli", *args], capture_output=True, cwd=REPO, env=ENV
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


@pytest.mark.parametrize("weights", [[], {}, ["linear"]], ids=repr)
@pytest.mark.parametrize("script", ["run_worked_examples.py", "tax_convergence.py"])
def test_container_weights_is_one_error_line(tmp_path, script, weights):
    # A config's weights is checked as the CLI checks it, even where unread.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(json.loads((REPO / EXAMPLE_1).read_text()) | {"weights": weights}))
    result = run_script(script, "--config", str(path))
    assert_one_error_line(result)
    assert result.stderr == (
        f"error: weights={weights!r} must be one of egalitarian, linear, log_odds\n".encode()
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("tax_convergence.py", ("--k", "5")),
        ("tax_convergence.py", ("--k-g", "5")),
        ("tax_convergence.py", ("--out", os.devnull)),
        ("tax_convergence.py", ("--conf", EXAMPLE_1)),
        ("run_worked_examples.py", ("--conf", EXAMPLE_1)),
    ],
    ids=["convergence-k", "convergence-k-g", "convergence-out", "convergence-conf", "worked-conf"],
)
def test_abbreviated_flag_is_rejected(script, args):
    # Flags are spelled in full, so --k is not read as --k-grid.
    result = run_script(script, *args)
    assert result.returncode == 1
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert b"error: unrecognized arguments: " + " ".join(args).encode() in result.stderr


def test_output_file_holds_the_golden_bytes(tmp_path):
    path = tmp_path / "out.csv"
    result = run_script("tax_convergence.py", "--output", str(path))
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b""
    assert path.read_bytes() == (GOLDEN / "tax_convergence.csv").read_bytes()


@pytest.mark.parametrize("flag", [False, True], ids=["config-output", "flag-over-config"])
def test_config_output_holds_the_golden_bytes(tmp_path, flag):
    # As in the CLI, --output wins, then the config's output, then stdout.
    from_config, from_flag = tmp_path / "from_config.csv", tmp_path / "from_flag.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        json.loads((REPO / EXAMPLE_1).read_text()) | {"output": str(from_config)}
    ))
    args = ("--output", str(from_flag)) if flag else ()
    result = run_script("tax_convergence.py", "--config", str(config), *args)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b""
    written, unwritten = (from_flag, from_config) if flag else (from_config, from_flag)
    assert written.read_bytes() == (GOLDEN / "tax_convergence.csv").read_bytes()
    assert not unwritten.exists()


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


@pytest.mark.parametrize(
    "script, args, cli_args",
    [
        ("tax_convergence.py", ("--config", ""), ("sweep-k", "--config", "")),
        ("run_worked_examples.py", ("--config", ""), ("sweep-k", "--config", "")),
        ("tax_convergence.py", ("--output", ""),
         ("sweep-k", "--config", EXAMPLE_1, "--output", "")),
        ("run_worked_examples.py", ("--k", "nan"), ("solve", "--config", EXAMPLE_1, "--k", "nan")),
    ],
    ids=["convergence-empty-config", "worked-empty-config", "convergence-empty-output",
         "worked-nan-k"],
)
def test_flags_fail_as_the_cli_does(script, args, cli_args):
    # An empty path is rejected as given, not read as ".".
    result = run_script(script, *args)
    assert_one_error_line(result)
    assert result.stderr == run_cli(*cli_args).stderr


@pytest.mark.parametrize(
    "text", ["1,,10", " ", "abc", "nan", "1,inf", "5e-324", "0.5,5", "1e308", ",2,", "-1"]
)
def test_k_grid_reads_as_k_list(text):
    script = run_script("tax_convergence.py", "--k-grid", text)
    cli = run_cli("sweep-k", "--config", EXAMPLE_1, "--k-list", text)
    assert (script.returncode == 1) == (cli.returncode == 1), (script.stderr, cli.stderr)
    if cli.returncode == 1:
        assert script.stderr == cli.stderr.replace(b"--k-list", b"--k-grid")


def test_convergence_reads_sweep_k():
    # The script's prices are sweep-k's, cell for cell, and its strategy gap
    # is the largest gap in sweep-k's rows at each k.
    grid = "0.5,5,50"
    script = run_script("tax_convergence.py", "--k-grid", grid)
    sweep = run_cli("sweep-k", "--config", EXAMPLE_1, "--k-list", grid)
    assert script.returncode == sweep.returncode == 0, (script.stderr, sweep.stderr)
    rows = list(csv.DictReader(io.StringIO(sweep.stdout.decode())))
    summary = list(csv.DictReader(io.StringIO(script.stdout.decode())))
    assert [row["k"] for row in summary] == ["0.5", "5.0", "50.0"]
    for row in summary:
        at_k = [r for r in rows if r["k"] == row["k"]]
        assert at_k
        assert {(r["price"], r["asymptotic_price"]) for r in at_k} == {
            (row["finite_price"], row["asymptotic_price"])
        }
        gap = max(abs(float(r["strategy"]) - float(r["asymptotic_strategy"])) for r in at_k)
        assert float(row["max_strategy_gap"]) == gap
