"""End-to-end CLI tests: golden bytes, exit codes, config validation."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jurymarkets import (
    BracketingError,
    CompetenceProfile,
    Decision,
    EquivalenceReport,
    EquivalenceScheme,
    clearing_price,
    exact_accuracy,
    majority_aggregator,
    market_aggregator,
    monte_carlo_accuracy,
    taxed_best_response_asymptotic,
    taxed_equilibrium_asymptotic,
    taxed_equilibrium_finite,
)
from jurymarkets import cli
from jurymarkets.cli import (
    COMMANDS,
    FLAGS,
    MARKET_KINDS,
    Cells,
    ConfigError,
    Table,
    _csv_text,
    _json_text,
    main,
    parse_config,
)
from jurymarkets.equivalence import MARKET_SCHEMES, WEIGHT_SCHEMES

from conftest import EXAMPLE_2_Q

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
EXAMPLE_1 = REPO / "configs" / "example1.json"
EXAMPLE_2 = REPO / "configs" / "example2.json"
# The checkout's package comes first, so the CLI runs it without an install.
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))),
)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "jurymarkets.cli", *args],
        capture_output=True,
        cwd=REPO,
        env=ENV,
    )


def assert_matches_golden(result: subprocess.CompletedProcess, name: str) -> None:
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / name).read_bytes()


class TestGoldenOutputs:
    def test_solve_example1_naive_json(self):
        result = run_cli("solve", "--config", str(EXAMPLE_1), "--market", "naive")
        assert_matches_golden(result, "solve_example1_naive.json")

    def test_solve_example1_kelly_csv(self):
        result = run_cli(
            "solve", "--config", str(EXAMPLE_1), "--market", "kelly", "--format", "csv"
        )
        assert_matches_golden(result, "solve_example1_kelly.csv")

    def test_solve_example2_naive_json(self):
        result = run_cli("solve", "--config", str(EXAMPLE_2), "--market", "naive")
        assert_matches_golden(result, "solve_example2_naive.json")

    def test_vote_example2_linear_json(self):
        result = run_cli("vote", "--config", str(EXAMPLE_2), "--weights", "linear")
        assert_matches_golden(result, "vote_example2_linear.json")
        record = json.loads(result.stdout)
        assert record["decision"] == "tie"

    def test_check_equivalence_example1_csv(self):
        result = run_cli(
            "check-equivalence", "--config", str(EXAMPLE_1), "--format", "csv"
        )
        assert_matches_golden(result, "check_equivalence_example1.csv")

    def test_accuracy_example2_exact_csv(self):
        result = run_cli("accuracy", "--config", str(EXAMPLE_2), "--format", "csv")
        assert_matches_golden(result, "accuracy_example2_exact.csv")

    def test_sweep_k_example1_csv(self):
        result = run_cli("sweep-k", "--config", str(EXAMPLE_1))
        assert_matches_golden(result, "sweep_k_example1.csv")
        header = result.stdout.decode().splitlines()[0]
        assert header == "k,agent,belief,strategy,asymptotic_strategy,price,asymptotic_price"

    def test_verify_example2_naive_json(self):
        result = run_cli("verify", "--config", str(EXAMPLE_2), "--market", "naive")
        assert_matches_golden(result, "verify_example2_naive.json")

    def test_accuracy_example2_kelly_csv(self):
        result = run_cli(
            "accuracy", "--config", str(EXAMPLE_2), "--market", "kelly", "--format", "csv"
        )
        assert_matches_golden(result, "accuracy_example2_kelly.csv")

    def test_accuracy_example2_taxed_k10_csv(self):
        result = run_cli(
            "accuracy", "--config", str(EXAMPLE_2), "--market", "taxed_finite",
            "--k", "10", "--format", "csv",
        )
        assert_matches_golden(result, "accuracy_example2_taxed_k10.csv")

    def test_accuracy_example2_naive_monte_carlo_csv(self):
        result = run_cli(
            "accuracy", "--config", str(EXAMPLE_2), "--market", "naive",
            "--trials", "3000", "--seed", "11", "--format", "csv",
        )
        assert_matches_golden(result, "accuracy_example2_naive_mc.csv")

    def test_check_equivalence_example1_exhaustive_csv(self):
        result = run_cli(
            "check-equivalence", "--config", str(EXAMPLE_1), "--exhaustive",
            "--format", "csv",
        )
        assert_matches_golden(result, "check_equivalence_example1_exhaustive.csv")

    def test_vote_example2_egalitarian_csv(self):
        result = run_cli("vote", "--config", str(EXAMPLE_2), "--format", "csv")
        assert_matches_golden(result, "vote_example2_egalitarian.csv")

    def test_check_equivalence_example1_k10_json(self):
        result = run_cli("check-equivalence", "--config", str(EXAMPLE_1), "--k", "10")
        assert_matches_golden(result, "check_equivalence_example1_k10.json")

    def test_accuracy_example2_taxed_k10_json(self):
        result = run_cli(
            "accuracy", "--config", str(EXAMPLE_2), "--market", "taxed_finite", "--k", "10"
        )
        assert_matches_golden(result, "accuracy_example2_taxed_k10.json")

    def test_accuracy_example2_naive_monte_carlo_json(self):
        result = run_cli(
            "accuracy", "--config", str(EXAMPLE_2), "--market", "naive",
            "--trials", "5000", "--seed", "3",
        )
        assert_matches_golden(result, "accuracy_example2_naive_mc.json")

    def test_verify_example1_k10_csv(self):
        # No --market and a k: naive, Kelly and taxed_finite rows.
        result = run_cli("verify", "--config", str(EXAMPLE_1), "--k", "10", "--format", "csv")
        assert_matches_golden(result, "verify_example1_k10.csv")

    def test_solve_example1_taxed_asymptotic_json(self):
        # The asymptotic market has a price but no finite stakes.
        result = run_cli("solve", "--config", str(EXAMPLE_1), "--market", "taxed_asymptotic")
        assert_matches_golden(result, "solve_example1_taxed_asymptotic.json")

    def test_every_command_format_is_pinned(self):
        pinned = {path.name for path in GOLDEN.iterdir()}
        for name, command in COMMANDS.items():
            for fmt in command.formats:
                stem = name.replace("-", "_") + "_"
                assert any(
                    p.startswith(stem) and p.endswith("." + fmt) for p in pinned
                ), f"no golden pins {name} --format {fmt}"


def readme_commands() -> list[list[str]]:
    """The arguments of each ``jurymarkets ...`` line in README's "Command line" block."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("jurymarkets ")]


class TestReadmeCommands:
    def test_every_subcommand_is_shown(self):
        assert {argv[0] for argv in readme_commands()} == set(COMMANDS)

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_command_exits_0(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO)  # the config paths are relative to the checkout
        target = tmp_path / "out"
        assert main([*argv, "--output", str(target)]) == 0
        assert target.read_bytes()


class TestDeterminism:
    def test_sweep_k_reruns_byte_identical(self):
        first = run_cli("sweep-k", "--config", str(EXAMPLE_1), "--k-list", "0.5,5")
        second = run_cli("sweep-k", "--config", str(EXAMPLE_1), "--k-list", "0.5,5")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_monte_carlo_reruns_byte_identical(self):
        args = (
            "accuracy", "--config", str(EXAMPLE_2), "--trials", "50000", "--seed", "11",
        )
        first, second = run_cli(*args), run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert b"monte_carlo" in first.stdout

    def test_output_file_matches_stdout(self, tmp_path):
        target = tmp_path / "out.json"
        piped = run_cli("solve", "--config", str(EXAMPLE_1), "--market", "naive")
        to_file = run_cli(
            "solve", "--config", str(EXAMPLE_1), "--market", "naive",
            "--output", str(target),
        )
        assert to_file.returncode == 0 and to_file.stdout == b""
        assert target.read_bytes() == piped.stdout

    def test_csv_uses_bare_newlines(self):
        result = run_cli("solve", "--config", str(EXAMPLE_1), "--market", "kelly",
                         "--format", "csv")
        assert b"\r\n" not in result.stdout


def stakes_of(record: dict) -> tuple[float, ...]:
    """Signed stakes rebuilt from a solve record's per-agent sA and sB."""
    return tuple(a["sA"] - a["sB"] for a in record["agents"])


class TestRoundTrip:
    def test_solve_json_reproduces_clearing_price(self):
        record = json.loads((GOLDEN / "solve_example2_naive.json").read_text())
        assert clearing_price(stakes_of(record)) == record["price"] == 0.4

    def test_kelly_solve_round_trip(self):
        result = run_cli("solve", "--config", str(EXAMPLE_1), "--market", "kelly")
        record = json.loads(result.stdout)
        assert clearing_price(stakes_of(record)) == pytest.approx(record["price"], abs=1e-12)


class TestSweepK:
    @pytest.mark.parametrize("config", [EXAMPLE_1, EXAMPLE_2], ids=["example1", "example2"])
    def test_asymptotic_column_is_the_asymptotic_best_response(self, config):
        result = run_cli("sweep-k", "--config", str(config))
        assert result.returncode == 0, result.stderr.decode()
        rows = list(csv.DictReader(io.StringIO(result.stdout.decode())))
        assert len(rows) > 0
        for row in rows:
            b, p, k = (float(row[name]) for name in ("belief", "asymptotic_price", "k"))
            expected = taxed_best_response_asymptotic(b, p, k).stake
            assert float(row["asymptotic_strategy"]) == expected, row


    def test_overflowing_k_fills_the_error_column(self, example1):
        # At k = 1.7e308, k p/(1-p) overflows: that block's rows keep their
        # asymptotic columns and explain the missing strategy and price.
        result = run_cli("sweep-k", "--config", str(EXAMPLE_1), "--k-list", "1,1.7e308")
        assert result.returncode == 0, result.stderr.decode()
        _, _, beliefs = example1
        p = taxed_equilibrium_asymptotic(beliefs)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ("k", "agent", "belief", "strategy", "asymptotic_strategy", "price",
             "asymptotic_price", "error")
        )
        for k in (1.0, 1.7e308):
            try:
                solved = taxed_equilibrium_finite(beliefs, k)
            except BracketingError as exc:
                stakes, price, error = [None] * beliefs.n, None, str(exc)
            else:
                stakes, price, error = solved.stakes, solved.price, None
            for i, (b, s) in enumerate(zip(beliefs.b, stakes)):
                asymptotic = taxed_best_response_asymptotic(b, p, k).stake
                writer.writerow((k, i, b, s, asymptotic, price, p, error))
        assert result.stdout.decode() == buffer.getvalue()
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert [row["error"] for row in rows[:5]] == [""] * 5
        for row in rows[5:]:
            assert row["strategy"] == row["price"] == ""
            assert row["error"].startswith("taxed stakes undefined, k p/(1-p) overflows at p=")
        assert buffer.getvalue().count('"taxed stakes undefined') == 5  # quoted: it has a comma


class TestExitCodes:
    def test_validation_error_is_exit_1(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text('{"agents": [{"competence": 0.4}]}')
        result = run_cli("solve", "--config", str(config), "--market", "naive")
        assert result.returncode == 1
        assert b"competence" in result.stderr

    def test_argparse_error_is_exit_1(self):
        result = run_cli("solve", "--config", str(EXAMPLE_1), "--market", "lmsr")
        assert result.returncode == 1

    def test_unknown_subcommand_is_exit_1(self):
        result = run_cli("frobnicate", "--config", str(EXAMPLE_1))
        assert result.returncode == 1

    def test_solver_failure_is_exit_2(self, tmp_path):
        # A belief this close to zero wants to stake on B more than the
        # largest double below 1 at a tiny tax, an honest solver failure.
        config = tmp_path / "extreme.json"
        config.write_text(
            json.dumps(
                {
                    "agents": [{"belief": 1e-20}, {"belief": 0.4}],
                    "market": "taxed_finite",
                    "k": 1e-4,
                }
            )
        )
        result = run_cli("solve", "--config", str(config))
        assert result.returncode == 2
        assert b"solver error" in result.stderr

    @pytest.mark.parametrize("trials", [(), ("--trials", "1000")])
    def test_competence_near_one_prices_the_taxed_market(self, tmp_path, trials):
        # The most competent agent stakes within 1e-9 of her whole endowment.
        config = tmp_path / "near_one.json"
        agents = [{"competence": q} for q in (1.0 - 2.0**-53, 0.6, 0.7)]
        config.write_text(json.dumps({"agents": agents}))
        result = run_cli(
            "accuracy", "--config", str(config), "--market", "taxed_finite", "--k", "10", *trials
        )
        assert result.returncode == 0, result.stderr.decode()
        market = json.loads(result.stdout)["estimates"][-1]
        assert market["aggregator"] == "market_taxed_finite_k=10"
        assert market["method"] == ("monte_carlo" if trials else "exact")

    def test_import_loads_no_executor(self):
        # The Monte Carlo sampler starts plain threads; importing the CLI
        # must not pull in concurrent.futures, which interpreter start-up pays.
        probe = "import sys, jurymarkets.cli; print('concurrent.futures' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, cwd=REPO, env=ENV
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.strip() == b"False"

    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "--market", "taxed_finite", "--k", "1e200"),
            ("sweep-k", "--k-list", "1e106,1e200,1e300"),
            ("verify", "--market", "taxed_finite", "--k", "1e200"),
            ("check-equivalence", "--k", "1e200"),
        ],
        ids=lambda args: args[0],
    )
    def test_huge_k_exits_cleanly(self, args):
        # The CLI accepts any finite k, so a huge one ends in output or a solver error.
        command, *rest = args
        result = run_cli(command, "--config", str(EXAMPLE_1), *rest)
        assert result.returncode in (0, 2), result.stderr.decode()
        assert b"Traceback" not in result.stderr
        assert b"Warning" not in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "--market", "taxed_finite", "--k", "5e-324"),
            ("accuracy", "--market", "taxed_finite", "--k", "5e-324"),
            ("sweep-k", "--k-list", "1,5e-324"),
            ("verify", "--market", "taxed_finite", "--k", "5e-324"),
            ("check-equivalence", "--k", "5e-324"),
        ],
        ids=lambda args: args[0],
    )
    def test_subnormal_k_is_exit_1(self, args):
        # Below the smallest normal float the taxed stakes come out wrong.
        command, *rest = args
        result = run_cli(command, "--config", str(EXAMPLE_1), *rest)
        assert result.returncode == 1, result.stdout.decode()
        assert result.stdout == b""
        assert b"Traceback" not in result.stderr
        assert (b"--k-list" if command == "sweep-k" else b"error: k=5e-324") in result.stderr
        assert b"finite positive" in result.stderr

    def test_subnormal_k_no_longer_gives_an_accuracy(self, tmp_path):
        config = tmp_path / "expert.json"
        config.write_text(json.dumps(
            {"agents": [{"competence": q} for q in (0.95, 0.6, 0.6, 0.6, 0.6)]}
        ))
        result = run_cli("accuracy", "--config", str(config), "--market", "taxed_finite",
                         "--k", "5e-324")
        assert result.returncode == 1
        assert result.stderr.startswith(b"error: k=5e-324 must be a finite positive number")

    def test_smallest_normal_k_solves(self):
        result = run_cli("solve", "--config", str(EXAMPLE_1), "--market", "taxed_finite",
                         "--k", "2.2250738585072014e-308")
        assert result.returncode == 0, result.stderr.decode()
        assert json.loads(result.stdout)["price"] == pytest.approx(0.52, abs=1e-12)

    def test_guaranteed_violation_is_exit_3(self, monkeypatch, capsys, tmp_path):
        fake = EquivalenceReport(
            scheme=EquivalenceScheme.SIMPLE_NAIVE,
            election=Decision.A,
            market=Decision.B,
            agree=False,
            price=0.25,
            weighted_margin=1.0,
            guaranteed=True,
        )
        import jurymarkets.cli as cli_module

        monkeypatch.setattr(cli_module, "check_all_schemes", lambda q, y, k: [fake])
        code = main(["check-equivalence", "--config", str(EXAMPLE_1)])
        captured = capsys.readouterr()
        assert code == 3
        assert '"violations": 1' in captured.out

    def test_success_is_exit_0(self):
        assert run_cli("vote", "--config", str(EXAMPLE_1)).returncode == 0

    @pytest.mark.parametrize(
        "data, flags",
        [
            ({"agents": [{"belief": 0.99995}, {"belief": 0.99996}]}, ()),
            ({"agents": [{"belief": 4e-05}, {"belief": 5e-05}]}, ()),
            ({"agents": [{"belief": 0.99995}, {"belief": 0.99996}]},
             ("--market", "taxed_finite", "--k", "10")),
            ({"agents": [{"competence": 0.99995}, {"competence": 0.9999}],
              "signals": ["A", "A"]}, ()),
        ],
    )
    def test_verify_accepts_a_price_past_the_end_grid_price(self, tmp_path, capsys, data, flags):
        # The oracle's grid ends at 1e-4 and 0.9999; these prices lie beyond.
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps(data))
        code = main(["verify", "--config", str(config), *flags])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert code == 0, checks
        assert all(check["contained"] for check in checks)
        assert all(check["unique"] for check in checks if check["market"] == "naive")

    @pytest.mark.parametrize("market", ["naive", "kelly"])
    def test_verify_rejects_a_price_moved_past_the_end_grid_price(
        self, monkeypatch, capsys, market
    ):
        import jurymarkets.cli as cli_module

        solve = cli_module.solve_market
        monkeypatch.setattr(
            cli_module, "solve_market", lambda *args: replace(solve(*args), price=0.99995)
        )
        code = main(["verify", "--config", str(EXAMPLE_2), "--market", market])
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert code == 2
        assert check["price"] == 0.99995
        assert check["contained"] is False


class TestCheckEquivalenceCommand:
    def test_exhaustive_sweep_record_count(self):
        result = run_cli(
            "check-equivalence", "--config", str(EXAMPLE_1), "--exhaustive",
            "--format", "csv",
        )
        assert result.returncode == 0
        lines = result.stdout.decode().splitlines()
        assert len(lines) == 1 + 3 * 2**5  # header + three schemes per profile

    def test_finite_k_disagreement_is_not_an_error(self, tmp_path):
        # At a mild tax the taxed market can disagree with the log-odds
        # election; the report flags it while the exit stays clean.
        config = tmp_path / "finite.json"
        config.write_text(
            json.dumps(
                {
                    "agents": [
                        {"competence": 0.8},
                        {"competence": 0.8},
                        {"competence": 0.95},
                    ],
                    "signals": ["A", "A", "B"],
                }
            )
        )
        result = run_cli("check-equivalence", "--config", str(config), "--k", "0.5")
        assert result.returncode == 0
        record = json.loads(result.stdout)
        taxed = [r for r in record["reports"] if r["scheme"] == "log_odds_taxed"][0]
        assert taxed["guaranteed"] is False
        assert taxed["k"] == 0.5

    def test_naive_price_just_above_half_is_not_a_violation(self, tmp_path):
        # The naive price is the marginal belief 0.5 + 1e-13, read exactly as A.
        config = tmp_path / "near_tie.json"
        config.write_text(
            json.dumps(
                {
                    "agents": [
                        {"competence": 0.9},
                        {"competence": 0.5000000000001},
                        {"competence": 0.9},
                    ],
                    "signals": ["A", "A", "B"],
                }
            )
        )
        result = run_cli("check-equivalence", "--config", str(config))
        assert result.returncode == 0, result.stdout
        record = json.loads(result.stdout)
        assert record["violations"] == 0
        assert all(r["agree"] for r in record["reports"])

    def test_in_process_runs_match_separate_runs(self, tmp_path):
        # One process checks panel A, then B, then A again, so whatever the
        # checks keep from one call must not leak into the next.
        expected = {}
        for name, qs in (("a", (0.9, 0.7, 0.6, 0.6, 0.6)), ("b", (0.8, 0.6, 0.6, 0.6, 0.75))):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"agents": [{"competence": q} for q in qs]}))
            result = run_cli("check-equivalence", "--config", str(config), "--exhaustive")
            assert result.returncode == 0, result.stderr.decode()
            expected[name] = (config, result.stdout)
        output = tmp_path / "out.json"
        for name in ("a", "b", "a"):
            config, stdout = expected[name]
            argv = ["check-equivalence", "--config", str(config), "--exhaustive"]
            assert main([*argv, "--output", str(output)]) == 0
            assert output.read_bytes() == stdout, name

    def test_exhaustive_taxed_check_prices_competences_near_one(self, tmp_path, capsys):
        # The unanimous profiles' prices lie within 1e-9 of 0 and of 1.
        config = tmp_path / "near_one.json"
        config.write_text(json.dumps({"agents": [{"competence": 1.0 - 1e-10}] * 3}))
        argv = ["check-equivalence", "--config", str(config), "--exhaustive", "--k", "10"]
        assert main(argv) == 0, capsys.readouterr().err
        record = json.loads(capsys.readouterr().out)
        assert record["violations"] == 0 and len(record["reports"]) == 3 * 2**3


class TestSweepCommand:
    def test_rejects_json_format(self):
        result = run_cli("sweep-k", "--config", str(EXAMPLE_1), "--format", "json")
        assert result.returncode == 1
        assert b"CSV" in result.stderr

    def test_format_error_comes_before_k_list_error(self):
        result = run_cli(
            "sweep-k", "--config", str(EXAMPLE_1), "--k-list", "nan", "--format", "json"
        )
        assert result.returncode == 1
        assert result.stderr == (
            b"error: sweep-k emits CSV only; pass --format csv or omit --format\n"
        )

    def test_format_error_from_config_names_the_config_field(self, tmp_path):
        config = tmp_path / "json_format.json"
        config.write_text(json.dumps({"agents": [{"belief": 0.3}], "format": "json"}))
        result = run_cli("sweep-k", "--config", str(config))
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr == (
            b"error: sweep-k emits CSV only; "
            b"set the config field format to 'csv' or remove it\n"
        )

    def test_bad_k_list(self):
        for k_list in ("1,zero", "nan,inf", "1,inf", "nan", "-1"):
            result = run_cli("sweep-k", "--config", str(EXAMPLE_1), "--k-list", k_list)
            assert result.returncode == 1, k_list
            assert result.stdout == b"", k_list

    @pytest.mark.parametrize("k", ["inf", "nan"])
    def test_non_finite_k_flag_rejected(self, k):
        result = run_cli(
            "solve", "--config", str(EXAMPLE_1), "--market", "taxed_finite", "--k", k
        )
        assert result.returncode == 1
        assert result.stdout == b""
        assert b"finite positive" in result.stderr

    def test_single_agent_sweep(self, tmp_path):
        config = tmp_path / "solo.json"
        config.write_text(json.dumps({"agents": [{"belief": 0.7}]}))
        result = run_cli("sweep-k", "--config", str(config), "--k-list", "1")
        assert result.returncode == 0
        rows = result.stdout.decode().splitlines()
        assert len(rows) == 2
        _, _, _, strategy, asym_strategy, price, asym_price = rows[1].split(",")
        # A lone agent trades nothing: the asymptotic columns are exact while
        # the finite solver stops within its clearing tolerance of that point.
        assert float(asym_strategy) == 0.0
        assert float(asym_price) == 0.7
        assert abs(float(strategy)) < 1e-8
        assert abs(float(price) - 0.7) < 1e-8


# The ends of the valid ranges: a belief lies in [5e-324, 1 - 2**-53] and a
# competence in [the double after 0.5, 1 - 2**-53].
BELIEF_RANGE = (5e-324, 1.0 - 2.0**-53)
COMPETENCE_RANGE = (math.nextafter(0.5, 1.0), 1.0 - 2.0**-53)
SCHEMES = tuple(WEIGHT_SCHEMES)


def extreme_panel(rng: random.Random, n: int, low: float, high: float) -> list[float]:
    """n values in [low, high]: uniform, or most of them near one end and the
    rest near the other, at distances log-uniform down to the end itself."""
    if rng.random() < 0.2:
        return [rng.uniform(low, high) for _ in range(n)]
    floor = math.log10(min(math.ulp(low), math.ulp(high)))
    scale, near_low = rng.uniform(floor, -0.4), rng.random() < 0.5
    values = []
    for _ in range(n):
        gap = 10.0 ** min(scale + rng.uniform(-3.0, 3.0), -0.4)
        value = low + gap if near_low ^ (rng.random() < 0.2) else high - gap
        values.append(min(max(value, low), high))
    return values


def extreme_k(rng: random.Random) -> float:
    """A normal float: the smallest, the largest, or log-uniform between them."""
    if rng.random() < 0.1:
        return rng.choice((sys.float_info.min, sys.float_info.max))
    return 10.0 ** rng.uniform(-307.6, 308.2)


def extreme_call(rng: random.Random, command: str) -> tuple[dict, list[str]]:
    """A valid config for ``command`` and the flags that follow ``--config``."""
    n = rng.randint(1, 4 if command == "verify" else 6)
    if command in ("check-equivalence", "accuracy") or rng.random() < 0.5:
        agents = [{"competence": q} for q in extreme_panel(rng, n, *COMPETENCE_RANGE)]
        data = {"agents": agents, "signals": [rng.choice("AB") for _ in range(n)]}
        schemes = SCHEMES
    else:
        data = {"agents": [{"belief": b} for b in extreme_panel(rng, n, *BELIEF_RANGE)]}
        schemes = ("egalitarian",)
    flags, market = [], None
    if command == "solve":
        market = rng.choice(MARKET_KINDS)
    elif command == "vote" and rng.random() < 0.7:
        flags += ["--weights", rng.choice(schemes)]
    elif command == "check-equivalence":
        flags += ["--exhaustive"] * (rng.random() < 0.5)
        if rng.random() < 0.5:
            flags += ["--k", repr(extreme_k(rng))]
    elif command == "accuracy":
        market = rng.choice(MARKET_KINDS + (None,))
        flags += ["--weights", rng.choice(SCHEMES)] if rng.random() < 0.5 else []
        if rng.random() < 0.5:
            flags += ["--trials", str(rng.randint(1, 300)), "--seed", str(rng.randrange(2**64))]
    elif command == "sweep-k":
        flags += ["--k-list", ",".join(repr(extreme_k(rng)) for _ in range(rng.randint(1, 3)))]
    elif command == "verify":
        market = rng.choice(("naive", "kelly", "taxed_finite", None))
    flags += ["--market", market] if market else []
    if market == "taxed_finite" or (command == "verify" and not market and rng.random() < 0.5):
        flags += ["--k", repr(extreme_k(rng))]
    return data, flags + ["--format", rng.choice(COMMANDS[command].formats)]


def assert_finite_limits(command: str, flags: list[str], out: str) -> None:
    """The k -> infinity price lies inside (0, 1), and each k -> infinity strategy
    is finite wherever a stake of 800 / k is: k times it is a log-odds
    difference, at most about 781 in size."""
    if command == "sweep-k":
        for row in csv.DictReader(io.StringIO(out)):
            assert 0.0 < float(row["asymptotic_price"]) < 1.0, row
            strategy = float(row["asymptotic_strategy"])
            assert math.isfinite(strategy) or 800.0 / float(row["k"]) == math.inf, row
    elif command == "solve" and "taxed_asymptotic" in flags:
        if "csv" in flags:
            prices = [float(row["price"]) for row in csv.DictReader(io.StringIO(out))]
        else:
            prices = [json.loads(out)["price"]]
        assert all(0.0 < price < 1.0 for price in prices), prices


class TestExtremeConfigs:
    """Seeded valid configs at the ends of every range, through main in this process."""

    # Beliefs near 0 once overflowed the k -> infinity price or strategy.
    BY_HAND = {
        "solve": [({"agents": [{"belief": 5e-324}]}, ["--market", "taxed_asymptotic"])],
        "sweep-k": [
            ({"agents": [{"belief": 5e-324}]}, ["--k-list", "1"]),
            ({"agents": [{"belief": 5e-324}] + [{"belief": 1.0 - 2.0**-53}] * 20},
             ["--k-list", "1"]),
        ],
    }
    CALLS = {
        "solve": 200, "vote": 200, "check-equivalence": 200, "accuracy": 200, "sweep-k": 200,
        "verify": 8,  # each runs the grid oracle
    }

    @pytest.mark.parametrize("command", list(CALLS))
    def test_every_call_ends_in_an_exit_code(self, command, tmp_path, capsys):
        rng = random.Random(f"extreme {command}")
        by_hand = self.BY_HAND.get(command, [])
        seeded = [extreme_call(rng, command) for _ in range(self.CALLS[command])]
        config = tmp_path / "config.json"
        for i, (data, flags) in enumerate(by_hand + seeded):
            config.write_text(json.dumps(data))
            argv = [command, "--config", str(config), *flags]
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{data} {flags}: {exc!r}")
            out, _ = capsys.readouterr()
            assert code in ((0,) if i < len(by_hand) else (0, 1, 2, 3)), (data, flags)
            if code == 0:
                assert_finite_limits(command, flags, out)


AGENT_BOUNDS = {"competence": (0.5, "0.5"), "belief": (0.0, "0")}


def reference_agents(raw: list) -> tuple | str:
    """The agent reader's contract, one entry at a time: its two columns or its message."""
    if not raw:
        return "agents must be a non-empty list of objects"
    columns: dict[str, list[float]] = {"competence": [], "belief": []}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or len(entry) != 1:
            return f"agents[{i}] must be an object with exactly one of 'competence' or 'belief'"
        ((field, value),) = entry.items()
        if field not in AGENT_BOUNDS:
            return f"agents[{i}] has unknown field {field!r}; expected 'competence' or 'belief'"
        low, text = AGENT_BOUNDS[field]
        if not isinstance(value, (int, float)) or not low < value < 1:
            return f"agents[{i}].{field}={value!r} must lie strictly between {text} and 1"
        columns[field].append(float(value))
    if columns["competence"] and columns["belief"]:
        return "agents mix 'competence' and 'belief' entries; use one kind throughout"
    return tuple(columns["competence"]) or None, tuple(columns["belief"]) or None


agent_values = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.integers(-2, 2),
    st.just(10**400),
    st.text(max_size=3),
    st.none(),
    st.floats(0.0, 1.0).map(np.float64),
)
agent_fields = st.sampled_from(("competence", "belief", "iq"))
agent_entries = st.one_of(
    st.dictionaries(agent_fields, agent_values, min_size=1, max_size=1),
    st.dictionaries(agent_fields, agent_values, max_size=3),
    agent_values,
    st.lists(agent_values, max_size=2),
)


def valid_agents(field: str) -> st.SearchStrategy[list]:
    value = st.floats(AGENT_BOUNDS[field][0], 1.0, exclude_min=True, exclude_max=True)
    entry = st.one_of(value, value.map(np.float64)).map(lambda v: {field: v})
    return st.lists(entry, min_size=1, max_size=6)


valid_agent_lists = st.sampled_from(("competence", "belief")).flatmap(valid_agents)
agent_lists = st.one_of(
    valid_agent_lists,
    st.tuples(valid_agent_lists, st.integers(0, 6), agent_entries).map(
        lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] :]
    ),
    st.lists(agent_entries, max_size=6),
)


class TestConfigValidation:
    def base(self) -> dict:
        return {"agents": [{"competence": 0.7}, {"competence": 0.6}]}

    def test_valid_config_parses(self):
        cfg = parse_config(self.base())
        assert cfg.competences == (0.7, 0.6)
        assert cfg.format == "json"

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(agents=[{"competence": 0.4}]), "agents[0].competence"),
            (lambda d: d.update(agents=[{"belief": 0.0}]), "agents[0].belief"),
            (lambda d: d.update(agents=[{"competence": 0.7}, {"belief": 0.4}]), "mix"),
            (lambda d: d.update(agents=[]), "non-empty"),
            (lambda d: d.update(agents=[{"iq": 120}]), "unknown field 'iq'"),
            (lambda d: d.update(prior=0.6), "prior=0.6"),
            (lambda d: d.update(endowment=2), "endowment=2"),
            (lambda d: d.update(prior=True), "prior=True"),
            (lambda d: d.update(endowment=True), "endowment=True"),
            (lambda d: d.update(output=True), "output=True"),
            (lambda d: d.update(output=7), "output=7"),
            (lambda d: d.update(output=["x"]), "output=['x']"),
            (lambda d: d.update(output=""), "output=''"),
            (lambda d: d.update(signals=["A"]), "length 1 but there are 2 agents"),
            (lambda d: d.update(signals=["A", "C"]), "signals[1]='C'"),
            (lambda d: d.update(k=-2, market="taxed_finite"), "k=-2"),
            (lambda d: d.update(k=float("inf"), market="taxed_finite"), "k=inf"),
            (lambda d: d.update(k=float("nan"), market="taxed_finite"), "k=nan"),
            (lambda d: d.update(k=True, market="taxed_finite"), "k=True"),
            (lambda d: d.update(k=1e-310, market="taxed_finite"), "k=1e-310"),
            (lambda d: d.update(k=5e-324, market="taxed_finite"), "k=5e-324"),
            (lambda d: d.update(k=10**400, market="taxed_finite"), "k=1000"),
            (lambda d: d.update(k=1.0, market="kelly"), "k only applies"),
            (lambda d: d.update(market="lmsr"), "market='lmsr'"),
            (lambda d: d.update(weights="quadratic"), "weights='quadratic'"),
            (lambda d: d.update(seed=-1), "seed=-1"),
            (lambda d: d.update(trials=0), "trials=0"),
            (lambda d: d.update(format="xml"), "format='xml'"),
            (lambda d: d.update(flavor="mint"), "unknown config field 'flavor'"),
        ],
    )
    def test_each_rejection_names_its_field(self, mutate, fragment):
        data = self.base()
        mutate(data)
        with pytest.raises(ConfigError, match=None) as excinfo:
            parse_config(data)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("prior", 0.6, "prior=0.6 is not supported; the model fixes prior=0.5"),
            ("prior", True, "prior=True is not supported; the model fixes prior=0.5"),
            ("prior", "0.5", "prior='0.5' is not supported; the model fixes prior=0.5"),
            ("endowment", 2, "endowment=2 is not supported; the model fixes endowment=1"),
            ("endowment", True, "endowment=True is not supported; the model fixes endowment=1"),
            ("endowment", None, "endowment=None is not supported; the model fixes endowment=1"),
        ],
    )
    def test_fixed_values_reject_with_the_whole_message(self, field, value, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(dict(self.base(), **{field: value}))
        assert str(excinfo.value) == message

    OBJECT = "must be an object with exactly one of 'competence' or 'belief'"
    MIX = "agents mix 'competence' and 'belief' entries; use one kind throughout"

    @pytest.mark.parametrize(
        "kind, entry, message",
        [
            ("competence", {"competence": True},
             "agents[{i}].competence=True must lie strictly between 0.5 and 1"),
            ("belief", {"belief": False},
             "agents[{i}].belief=False must lie strictly between 0 and 1"),
            ("competence", {"competence": "0.7"},
             "agents[{i}].competence='0.7' must lie strictly between 0.5 and 1"),
            ("belief", {"belief": float("nan")},
             "agents[{i}].belief=nan must lie strictly between 0 and 1"),
            ("competence", {"competence": float("inf")},
             "agents[{i}].competence=inf must lie strictly between 0.5 and 1"),
            ("belief", {"belief": float("-inf")},
             "agents[{i}].belief=-inf must lie strictly between 0 and 1"),
            ("competence", {"competence": 10**400},
             f"agents[{{i}}].competence={10**400} must lie strictly between 0.5 and 1"),
            ("belief", {"belief": 1}, "agents[{i}].belief=1 must lie strictly between 0 and 1"),
            ("belief", {"belief": 1.0},
             "agents[{i}].belief=1.0 must lie strictly between 0 and 1"),
            ("competence", {"competence": 0.5},
             "agents[{i}].competence=0.5 must lie strictly between 0.5 and 1"),
            ("belief", {"belief": None},
             "agents[{i}].belief=None must lie strictly between 0 and 1"),
            ("competence", 0.7, "agents[{i}] " + OBJECT),
            ("belief", [{"belief": 0.3}], "agents[{i}] " + OBJECT),
            ("belief", {}, "agents[{i}] " + OBJECT),
            ("competence", {"competence": 0.7, "belief": 0.3}, "agents[{i}] " + OBJECT),
            ("competence", {"iq": 120},
             "agents[{i}] has unknown field 'iq'; expected 'competence' or 'belief'"),
            ("competence", {"belief": 0.3}, MIX),
            ("belief", {"competence": 0.7}, MIX),
        ],
        ids=lambda value: repr(value)[:30],
    )
    @pytest.mark.parametrize("index", [0, 9999])
    def test_bad_agent_at_any_index_names_it(self, kind, entry, message, index):
        rng = random.Random(index)
        agents = [{kind: rng.uniform(0.6, 0.9)} for _ in range(10_000)]
        agents[index] = entry
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"agents": agents})
        assert str(excinfo.value) == message.format(i=index)

    def test_non_finite_agent_from_a_file_names_it(self, tmp_path):
        # json.load accepts NaN and Infinity, and reads 1e400 as inf.
        config = tmp_path / "nan.json"
        entries = ['{"belief": 0.25}'] * 10_000
        for index, literal in ((9997, "1e400"), (9998, "NaN"), (9999, "Infinity")):
            entries[index] = f'{{"belief": {literal}}}'
        config.write_text('{"agents": [' + ", ".join(entries) + "]}")
        result = run_cli("vote", "--config", str(config))
        assert result.returncode == 1
        assert result.stderr == (
            b"error: agents[9997].belief=inf must lie strictly between 0 and 1\n"
        )

    @pytest.mark.parametrize("kind, low", [("competence", 0.5), ("belief", 0.0)])
    def test_valid_agents_parse_to_their_floats(self, kind, low):
        rng = random.Random(7)
        values = [rng.uniform(low, 1.0) for _ in range(10_000)]
        values[:2] = [low + 2**-53, 1.0 - 2**-53]  # the ends of the open interval
        cfg = parse_config({"agents": [{kind: v} for v in values]})
        parsed = cfg.competences if kind == "competence" else cfg.beliefs
        assert parsed == tuple(values)
        assert set(map(type, parsed)) == {float}
        assert (cfg.beliefs if kind == "competence" else cfg.competences) is None

    @settings(max_examples=300, deadline=None)
    @given(agent_lists)
    @example([{"belief": np.float64(0.25)}, {"belief": 0.5}])  # past the bulk path, no error
    def test_agent_reader_matches_a_reference(self, agents):
        expected = reference_agents(agents)
        try:
            cfg = parse_config({"agents": agents})
        except ConfigError as exc:
            assert str(exc) == expected
        else:
            assert (cfg.competences, cfg.beliefs) == expected
            assert set(map(type, cfg.competences or cfg.beliefs)) == {float}

    def test_belief_agents_with_signals_rejected(self):
        data = {"agents": [{"belief": 0.6}], "signals": ["A"]}
        with pytest.raises(ConfigError, match="belief agents"):
            parse_config(data)

    def test_belief_agents_rejected_for_competence_commands(self, tmp_path):
        config = tmp_path / "beliefs.json"
        config.write_text(json.dumps({"agents": [{"belief": 0.7}, {"belief": 0.3}]}))
        result = run_cli("vote", "--config", str(config), "--weights", "linear")
        assert result.returncode == 1
        assert b"competence" in result.stderr
        result = run_cli("accuracy", "--config", str(config))
        assert result.returncode == 1

    def test_taxed_finite_requires_k(self, tmp_path):
        config = tmp_path / "nok.json"
        config.write_text(json.dumps(dict(self.base(), market="taxed_finite",
                                          signals=["A", "B"])))
        result = run_cli("solve", "--config", str(config))
        assert result.returncode == 1
        assert b"requires a positive k" in result.stderr

    @pytest.mark.parametrize(
        "command, market, fragment",
        [
            ("accuracy", "taxed_finite", "market=taxed_finite requires a positive k"),
            ("verify", "taxed_finite", "market=taxed_finite requires a positive k"),
            ("verify", "taxed_asymptotic", "verify cross-checks finite best responses"),
            ("solve", None, "solve requires a market kind"),
        ],
    )
    def test_market_selection_errors(self, tmp_path, command, market, fragment):
        data = dict(self.base(), signals=["A", "B"])
        if market is not None:
            data["market"] = market
        config = tmp_path / "market.json"
        config.write_text(json.dumps(data))
        result = run_cli(command, "--config", str(config))
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.startswith(f"error: {fragment}".encode())
        assert result.stderr.count(b"\n") == 1

    def test_output_field_must_be_a_path(self, tmp_path):
        # `true` once opened file descriptor 1, wrote through it and closed stdout.
        config = tmp_path / "fd.json"
        config.write_text(json.dumps(dict(self.base(), signals=["A", "B"], output=True)))
        result = run_cli("vote", "--config", str(config))
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr == b"error: output=True must be a non-empty path string\n"

    def test_unwritable_output_is_exit_1(self, tmp_path):
        target = tmp_path / "missing" / "out.json"
        result = run_cli("vote", "--config", str(EXAMPLE_1), "--output", str(target))
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr.startswith(b"error: cannot write output ")
        assert b"Traceback" not in result.stderr
        assert not target.exists()

    def test_missing_config_file(self):
        result = run_cli("solve", "--config", "/nonexistent.json", "--market", "naive")
        assert result.returncode == 1
        assert b"cannot read config" in result.stderr

    def test_invalid_json(self, tmp_path):
        config = tmp_path / "syntax.json"
        config.write_text("{not json")
        result = run_cli("solve", "--config", str(config), "--market", "naive")
        assert result.returncode == 1
        assert b"not valid JSON" in result.stderr

    def test_messages_are_pairwise_distinct(self):
        mutations = [
            {"agents": [{"competence": 0.4}]},
            {"agents": [{"belief": 0.0}]},
            {"agents": [{"competence": 0.7}, {"belief": 0.4}]},
            dict(self.base(), prior=0.6),
            dict(self.base(), endowment=2),
            dict(self.base(), signals=["A"]),
            dict(self.base(), k=-2, market="taxed_finite"),
            dict(self.base(), market="lmsr"),
            dict(self.base(), weights="quadratic"),
            dict(self.base(), seed=-1),
            dict(self.base(), trials=0),
        ]
        messages = set()
        for data in mutations:
            with pytest.raises(ConfigError) as excinfo:
                parse_config(data)
            messages.add(str(excinfo.value))
        assert len(messages) == len(mutations)


class TestFlagOverrides:
    def test_market_flag_overrides_config(self, tmp_path):
        config = tmp_path / "market.json"
        config.write_text(
            json.dumps(dict(self.base_agents(), market="naive"))
        )
        result = run_cli("solve", "--config", str(config), "--market", "kelly")
        assert json.loads(result.stdout)["market"] == "kelly"

    def base_agents(self) -> dict:
        return {
            "agents": [{"competence": 0.7}, {"competence": 0.6}, {"competence": 0.6}],
            "signals": ["A", "B", "A"],
        }

    def test_config_market_used_without_flag(self, tmp_path):
        config = tmp_path / "market2.json"
        config.write_text(json.dumps(dict(self.base_agents(), market="kelly")))
        result = run_cli("solve", "--config", str(config))
        assert json.loads(result.stdout)["market"] == "kelly"

    def test_in_process_main_matches_subprocess(self, capsys):
        code = main(["vote", "--config", str(EXAMPLE_1)])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["decision"] == "B"

    @pytest.mark.parametrize("flag", ["--seed", "--k"])
    def test_accuracy_rejects_a_flag_it_would_not_read(self, flag, capsys):
        # Exact accuracy draws no samples, and only a market's accuracy reads k.
        assert main(["accuracy", "--config", str(EXAMPLE_2), flag, "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith(f"error: {flag} "), err

    def test_k_is_checked_against_the_market_only_where_the_market_is_read(
        self, tmp_path, capsys
    ):
        # check-equivalence takes no --market, so the config's market cannot
        # clash with its --k; solve reads both and rejects the pair.
        runs = {}
        for name, data in (("plain", self.base_agents()),
                           ("naive", dict(self.base_agents(), market="naive"))):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(data))
            code = main(["check-equivalence", "--config", str(config), "--k", "5"])
            runs[name] = (code, capsys.readouterr())
        assert runs["naive"] == runs["plain"] and runs["plain"][0] == 0
        assert main(["solve", "--config", str(tmp_path / "naive.json"), "--k", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: k only applies"), err


# Every subcommand takes these besides the flags its COMMANDS row names.
ALWAYS_TAKEN = ("--config", "--format", "--output")
# Two values of each flag of FLAGS (False and True: absent and present).  An
# --output path is relative to the working directory, and the second one's
# directory is missing.
FLAG_VALUES = {
    "--config": (str(EXAMPLE_1), str(EXAMPLE_2)),
    "--market": ("naive", "kelly"),
    "--weights": ("linear", "log_odds"),
    "--k": ("1", "10"),
    "--trials": ("100", "200"),
    "--seed": ("1", "2"),
    "--exhaustive": (False, True),
    "--k-list": ("1", "10"),
    "--format": ("json", "csv"),
    "--output": ("out", "missing/out"),
}
# The other flags a call needs, per subcommand and per (subcommand, flag),
# for the flag it varies to matter.  verify names a market, so that it runs
# one grid oracle, not two; the examples' naive prices are both 0.4.
NEEDS = {
    "solve": {"--market": "kelly"},
    "verify": {"--market": "naive"},
    ("solve", "--k"): {"--market": "taxed_finite"},
    ("verify", "--config"): {"--market": "kelly"},
    ("verify", "--k"): {"--market": "taxed_finite"},
    ("accuracy", "--k"): {"--market": "taxed_finite"},
    ("accuracy", "--seed"): {"--trials": "100"},
}


def flag_args(flag: str, value: str | bool) -> list[str]:
    return [flag] if value is True else [] if value is False else [flag, value]


def flag_argv(command: str, flag: str, value: str | bool) -> list[str]:
    """A call of ``command`` on example 2 that passes ``flag`` at ``value``."""
    args = {"--config": str(EXAMPLE_2), **NEEDS.get(command, {}), **NEEDS.get((command, flag), {})}
    args[flag] = value
    return [command, *(arg for item in args.items() for arg in flag_args(*item))]


def taken(command: str) -> tuple[str, ...]:
    return (*ALWAYS_TAKEN, *COMMANDS[command].flags)


TAKEN = [(name, flag) for name in COMMANDS for flag in taken(name)]
UNTAKEN = [(name, flag) for name in COMMANDS for flag in FLAGS if flag not in taken(name)]
PREFIXES = [
    (name, flag, flag[:end])
    for name in COMMANDS
    for flag in taken(name)
    for end in range(3, len(flag))
    if flag[:end] not in taken(name)
]


class TestFlagTable:
    """Each subcommand takes the flags of its COMMANDS row and the three every
    subcommand takes, spelled in full, and reads each one it takes."""

    def test_each_flag_is_taken_once_per_row_and_by_some_row(self):
        for name in COMMANDS:
            assert len(set(taken(name))) == len(taken(name)), name
        assert {flag for _, flag in TAKEN} == set(FLAGS)

    def assert_unrecognized(self, argv: list[str], capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (1, ""), argv
        assert "unrecognized arguments" in err, (argv, err)

    @pytest.mark.parametrize("command, flag", UNTAKEN, ids=map(" ".join, UNTAKEN))
    def test_untaken_flag_is_rejected(self, command, flag, capsys):
        self.assert_unrecognized(flag_argv(command, flag, FLAG_VALUES[flag][1]), capsys)

    @pytest.mark.parametrize(
        "command, flag, prefix", PREFIXES, ids=[f"{c} {p}" for c, _, p in PREFIXES]
    )
    def test_prefix_of_a_flag_is_rejected(self, command, flag, prefix, capsys):
        # The prefix comes after a valid call, so it alone can be at fault.
        value = FLAG_VALUES[flag][1]
        self.assert_unrecognized(flag_argv(command, flag, value) + flag_args(prefix, value), capsys)

    @pytest.mark.parametrize("command, flag", TAKEN, ids=map(" ".join, TAKEN))
    def test_taken_flag_is_read(self, command, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        runs = []
        for value in FLAG_VALUES[flag]:
            code = main(flag_argv(command, flag, value))
            runs.append((code, capsys.readouterr().out))
        assert runs[0] != runs[1], (command, flag)


class TestEmitters:
    """The emitters write exactly the bytes of the reference serialisers."""

    STRINGS = ("", "a", "},\n{", "},\n    {", 'say "hi"', "a,b", "x\ny", "\r\t\\", "é€😀")
    FLOATS = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e308, 0.1)

    def scalar(self, rng: random.Random) -> object:
        return rng.choice((
            rng.choice(self.STRINGS),
            rng.choice(self.FLOATS),
            rng.uniform(-1e6, 1e6),
            rng.choice((0, -7, 2**70, -(2**64))),
            rng.choice((True, False)),
            None,
        ))

    def value(self, rng: random.Random, depth: int = 0) -> object:
        kind = rng.randrange(7) if depth < 4 else 0
        if kind == 0:
            return self.scalar(rng)
        if kind == 1:  # mixed object, sometimes with keys json coerces
            keys = self.STRINGS + ("agent", 1, 2.5, True, None)
            return {rng.choice(keys): self.value(rng, depth + 1) for _ in range(rng.randrange(4))}
        if kind == 2:
            return [self.value(rng, depth + 1) for _ in range(rng.randrange(4))]
        if kind == 3:
            return tuple(self.value(rng, depth + 1) for _ in range(rng.randrange(3)))
        if kind == 4:
            return [self.scalar(rng) for _ in range(rng.randrange(5))]
        # lists of flat objects, like the agents, reports and estimates lists;
        # kind 6 may hold an empty object
        least = 1 if kind == 5 else 0
        return [
            {rng.choice(self.STRINGS + ("sA",)): self.scalar(rng)
             for _ in range(rng.randrange(least, 4))}
            for _ in range(rng.randrange(1, 4))
        ]

    # Table cells: strings with the characters csv.writer quotes (and "\r",
    # which it does not with a "\n" line terminator), None, booleans beside the
    # numbers equal to them, signed zeros and non-finite floats.
    CELLS = STRINGS + (",", '"', "\r", "\n", 'a,"b"\r\n', None, True, False,
                       1, 0, 1.0, 0.0, -0.0, float("nan"), float("inf"), float("-inf"))
    NAMES = STRINGS + ("sA", "agent")

    def table_column(self, rng: random.Random, rows: int) -> list:
        """A column of one kind (each kind has its own fast path) or of mixed cells."""
        kind = rng.randrange(6)
        if kind == 0:
            return [rng.choice((rng.uniform(-1e6, 1e6), *self.FLOATS)) for _ in range(rows)]
        if kind == 1:
            return [rng.choice((0, -7, 2**70, rng.randrange(100))) for _ in range(rows)]
        if kind == 2:
            return [rng.choice((True, False)) for _ in range(rows)]
        if kind == 3:
            return [rng.choice(self.STRINGS + ("A", "B", None)) for _ in range(rows)]
        return [rng.choice(self.CELLS) for _ in range(rows)]

    def table(self, rng: random.Random) -> tuple[Table, list[dict]]:
        """A random table and, as the reference reads it, its rows as objects."""
        names = tuple(rng.sample(self.NAMES, rng.randrange(1, 4)))
        blocks, rows = [], []
        for _ in range(rng.randrange(1, 4)):
            size = rng.randrange(4)
            entries, columns = [], []
            for _ in names:
                entry = rng.choice(self.CELLS)  # a single value every row repeats
                if rng.random() < 0.6:
                    entry = self.table_column(rng, size)
                    numbers = all(type(c) in (int, bool) or (type(c) is float and math.isfinite(c))
                                  for c in entry)
                    if numbers and rng.random() < 0.5:  # texts both formats print as is
                        columns.append(entry)
                        entry = Cells(json.dumps(c) for c in entry)
                    else:
                        columns.append(entry)
                        entry = tuple(entry) if rng.random() < 0.5 else entry
                else:
                    columns.append(None)
                entries.append(entry)
            # A block with no list or tuple is one row.
            count = size if any(c is not None for c in columns) else 1
            rows += [
                {name: e if c is None else c[i] for name, e, c in zip(names, entries, columns)}
                for i in range(count)
            ]
            blocks.append(tuple(entries))
        return Table(names, blocks), rows

    def test_json_matches_indented_dumps(self):
        rng = random.Random(20261018)
        tables = random.Random(20261018)
        for _ in range(3000):
            value = self.value(rng)
            assert _json_text(value) == json.dumps(value, indent=2), repr(value)
            table, rows = self.table(tables)
            for wrap in (lambda x: x, lambda x: {"n": 1, "rows": x}, lambda x: [[x], 2]):
                assert _json_text(wrap(table)) == json.dumps(wrap(rows), indent=2), repr(table)

    def test_csv_matches_cell_by_cell_writer(self):
        # Tables have one cell per name and row, so the ragged rows csv.writer
        # also accepts are not drawn.
        def cell(value: object) -> str:
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return repr(value)
            return str(value)

        rng = random.Random(20261018)
        for _ in range(500):
            table, rows = self.table(rng)
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(table.names)
            for row in rows:
                writer.writerow([cell(c) for c in row.values()])
            assert _csv_text(table) == buffer.getvalue(), repr(table)

    def test_one_empty_cell_is_quoted(self):
        # csv.writer writes a row whose one field is empty as "".
        table = Table(("",), [([None, "", "x"],), ("",)])
        assert _csv_text(table) == '""\n""\n""\nx\n""\n'

    @pytest.mark.parametrize("sequence", [
        [["check-equivalence", "--config", str(EXAMPLE_1), "--exhaustive"],
         ["check-equivalence", "--config", str(EXAMPLE_1)]],
        [["solve", "--config", str(EXAMPLE_1), "--market", "kelly", "--format", "csv"],
         ["solve", "--config", str(EXAMPLE_1), "--market", "kelly"]],
    ])
    def test_reused_parser_keeps_no_state(self, sequence, capsys):
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            separate = run_cli(*argv)
            assert (code, captured.out, captured.err) == (
                separate.returncode, separate.stdout.decode(), separate.stderr.decode()
            ), argv


class TestJsonColumns:
    """A JSON list is formatted as one column, as a table's columns are, so its
    items cost no Python call each."""

    def test_equal_values_keep_their_own_texts(self):
        # np.float64 zeros are equal and hash alike, so a text memoised per
        # distinct value would print -0.0 as 0.0.
        column = [np.float64(0.0), np.float64(-0.0)]
        table = Table(("x",), [(column,)])
        assert _json_text(column) == json.dumps(column, indent=2)
        assert _json_text(table) == json.dumps([{"x": 0.0}, {"x": -0.0}], indent=2)
        assert _csv_text(table) == "x\n0.0\n-0.0\n"

    def test_scalar_lists_take_a_few_calls(self, monkeypatch):
        rng = random.Random(27)
        record = {
            "floats": [rng.uniform(-1e6, 1e6) for _ in range(10_000)],
            "ints": [rng.randrange(-(10**6), 10**6) for _ in range(10_000)],
            "bools": [rng.random() < 0.5 for _ in range(10_000)],
        }
        writer, calls = cli._json_text, []

        def counted(value: object, depth: int = 0) -> str:
            calls.append(depth)
            return writer(value, depth)

        monkeypatch.setattr(cli, "_json_text", counted)
        assert cli._json_text(record) == json.dumps(record, indent=2)
        assert len(calls) < 10, len(calls)

    def test_large_vote_record(self, tmp_path, capsys):
        rng = random.Random(28)
        n = 10_000
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "agents": [{"competence": rng.uniform(0.51, 0.99)} for _ in range(n)],
            "signals": [rng.choice("AB") for _ in range(n)],
        }))
        assert main(["vote", "--config", str(path), "--weights", "log_odds"]) == 0
        out = capsys.readouterr().out
        record = json.loads(out)
        assert len(record["weights"]) == len(record["votes"]) == n
        assert out == json.dumps(record, indent=2) + "\n"


class TestPairedAccuracy:
    """accuracy scores each distinct decision rule once: a closed-form market
    reports its paired majority's estimate, the finite taxed market its own."""

    CASES = [
        (["--weights", "egalitarian", "--market", "naive"], 1),
        (["--weights", "linear", "--market", "kelly"], 1),
        (["--weights", "log_odds", "--market", "taxed_asymptotic"], 1),
        (["--weights", "egalitarian", "--market", "kelly"], 2),
        (["--weights", "linear", "--market", "taxed_asymptotic"], 2),
        (["--weights", "log_odds", "--market", "naive"], 2),
        (["--weights", "log_odds", "--market", "taxed_finite", "--k", "10"], 2),
        (["--market", "kelly"], 3),
        (["--market", "taxed_finite", "--k", "10"], 4),
    ]
    TRIALS = [[], ["--trials", "500", "--seed", "4"]]

    @staticmethod
    def counted(monkeypatch) -> list[str]:
        """Route both estimators through a counter; returns the calls' methods."""
        calls = []
        for attr in ("exact_accuracy", "monte_carlo_accuracy"):
            def estimate(*args, _attr=attr, _fn=getattr(cli, attr)):
                calls.append(_attr)
                return _fn(*args)

            monkeypatch.setattr(cli, attr, estimate)
        return calls

    @staticmethod
    def rows(argv: list[str], capsys) -> list[dict]:
        assert main(["accuracy", "--config", str(EXAMPLE_2), *argv]) == 0
        return json.loads(capsys.readouterr().out)["estimates"]

    @pytest.mark.parametrize("trials", TRIALS, ids=["exact", "monte_carlo"])
    @pytest.mark.parametrize("argv, expected", CASES, ids=[" ".join(a) for a, _ in CASES])
    def test_estimates_per_distinct_rule(self, argv, expected, trials, monkeypatch, capsys):
        calls = self.counted(monkeypatch)
        rows = self.rows(argv + trials, capsys)
        method = "monte_carlo_accuracy" if trials else "exact_accuracy"
        assert calls == [method] * expected
        majorities = len(WEIGHT_SCHEMES) if "--weights" not in argv else 1
        assert len(rows) == majorities + 1
        assert len({row["aggregator"] for row in rows}) == len(rows)

    @pytest.mark.parametrize("trials", TRIALS, ids=["exact", "monte_carlo"])
    def test_no_state_between_calls(self, trials, monkeypatch, capsys):
        calls = self.counted(monkeypatch)
        argv = ["--weights", "linear", "--market", "kelly", *trials]
        first = self.rows(argv, capsys)
        assert len(calls) == 1
        assert self.rows(argv, capsys) == first
        assert len(calls) == 2

    @pytest.mark.parametrize("trials", TRIALS, ids=["exact", "monte_carlo"])
    @pytest.mark.parametrize("kind", list(MARKET_SCHEMES), ids=lambda kind: kind.value)
    def test_shared_row_is_the_markets_own_estimate(self, kind, trials, capsys):
        scheme = MARKET_SCHEMES[kind]
        majority, market = self.rows(
            ["--weights", scheme, "--market", kind.value, *trials], capsys
        )
        q = CompetenceProfile(EXAMPLE_2_Q)
        agg = market_aggregator(kind)
        own = monte_carlo_accuracy(agg, q, 500, 4) if trials else exact_accuracy(agg, q)
        assert market == asdict(own)
        assert majority == asdict(replace(own, aggregator=majority_aggregator(scheme).name))
