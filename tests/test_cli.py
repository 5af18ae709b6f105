"""End-to-end CLI tests: golden bytes, exit codes, config validation."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from jurymarkets import (
    Decision,
    EquivalenceReport,
    EquivalenceScheme,
    InvestmentProfile,
    clearing_price,
)
from jurymarkets.cli import ConfigError, main, parse_config

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
EXAMPLE_1 = REPO / "configs" / "example1.json"
EXAMPLE_2 = REPO / "configs" / "example2.json"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "jurymarkets.cli", *args],
        capture_output=True,
        cwd=REPO,
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


class TestRoundTrip:
    def test_solve_json_reproduces_clearing_price(self):
        record = json.loads((GOLDEN / "solve_example2_naive.json").read_text())
        profile = InvestmentProfile(
            tuple(a["sA"] for a in record["agents"]),
            tuple(a["sB"] for a in record["agents"]),
        )
        assert clearing_price(profile) == record["price"] == 0.4

    def test_kelly_solve_round_trip(self):
        result = run_cli("solve", "--config", str(EXAMPLE_1), "--market", "kelly")
        record = json.loads(result.stdout)
        profile = InvestmentProfile(
            tuple(a["sA"] for a in record["agents"]),
            tuple(a["sB"] for a in record["agents"]),
        )
        assert clearing_price(profile) == pytest.approx(record["price"], abs=1e-12)


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
        # A belief this close to one wants to stake more than the solver's
        # bracket allows at a tiny tax, which is an honest solver failure.
        config = tmp_path / "extreme.json"
        config.write_text(
            json.dumps(
                {
                    "agents": [{"belief": 1.0 - 1e-13}, {"belief": 0.4}],
                    "market": "taxed_finite",
                    "k": 1e-4,
                }
            )
        )
        result = run_cli("solve", "--config", str(config))
        assert result.returncode == 2
        assert b"solver error" in result.stderr

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
            (lambda d: d.update(signals=["A"]), "length 1 but there are 2 agents"),
            (lambda d: d.update(signals=["A", "C"]), "signals[1]='C'"),
            (lambda d: d.update(k=-2, market="taxed_finite"), "k=-2"),
            (lambda d: d.update(k=float("inf"), market="taxed_finite"), "k=inf"),
            (lambda d: d.update(k=float("nan"), market="taxed_finite"), "k=nan"),
            (lambda d: d.update(k=True, market="taxed_finite"), "k=True"),
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
