"""End-to-end CLI tests: golden bytes, exit codes, config validation."""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from jurymarkets import (
    Decision,
    EquivalenceReport,
    EquivalenceScheme,
    clearing_price,
    taxed_best_response_asymptotic,
)
from jurymarkets.cli import COMMANDS, ConfigError, _csv_text, _json_text, main, parse_config

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
            # The column subtracts the price's log-odds from the belief's; the
            # best response takes one log of their odds ratio.  Both round.
            gap = abs(float(row["asymptotic_strategy"]) - expected)
            assert gap <= 4.0 * sys.float_info.epsilon * abs(expected), row


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
        # kind 6 may hold an empty object, which takes the general path
        least = 1 if kind == 5 else 0
        return [
            {rng.choice(self.STRINGS + ("sA",)): self.scalar(rng)
             for _ in range(rng.randrange(least, 4))}
            for _ in range(rng.randrange(1, 4))
        ]

    def test_json_matches_indented_dumps(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            value = self.value(rng)
            assert _json_text(value) == json.dumps(value, indent=2), repr(value)

    def test_csv_matches_cell_by_cell_writer(self):
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
            header = tuple(rng.choice(self.STRINGS) for _ in range(rng.randrange(1, 4)))
            rows = [
                tuple(self.scalar(rng) for _ in range(rng.randrange(1, 6)))
                for _ in range(rng.randrange(4))
            ]
            rows.append((1.0, 1, 0.0, 0))  # equal to True/False, but not bools
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([cell(c) for c in row])
            assert _csv_text(header, rows) == buffer.getvalue(), repr(rows)

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
