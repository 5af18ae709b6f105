"""Smoke test of the benchmark itself, at tiny sizes and without timing assertions.

    python -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CLI = run.load_program()

import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = workloads.Sizes(
    exact_n=4, mc_n=11, per_trial_trials=30, per_trial_calls=1,
    small_n=3, small_panels=1, mid_n=6, mid_panels=2, large_n=9, large_sweep_k=(0.1, 1e7),
    taxed_accuracy_n=3, vector_panels=1, vector_trials=2000,
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_named_metric_is_emitted(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result, meta = run.run(workload, seed=7, seconds=0, trace=bool(trace), sizes=TINY)
    assert result["correct"], meta["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    json.dumps(result, allow_nan=False)


def test_traced_rounds_reproduce_untraced_outputs():
    result, _ = run.run("per-profile", seed=3, seconds=0, trace=True, sizes=TINY)
    metrics = result["metrics"]
    assert result["correct"] and result["attempted"] == 3 * metrics["cli.calls"]["value"]
    assert metrics["voting.weights.calls"]["value"] > 0
    assert metrics["equivalence.check.calls"]["value"] == 3 * 2**TINY.exact_n
    assert 0.0 < metrics["trace.self_share"]["value"] <= 1.0


def _corrupt(path: Path) -> None:
    """Change one emitted value the way a wrong program would."""
    text = path.read_text(encoding="utf-8")
    if text.startswith("k,"):
        rows = text.splitlines()
        cells = rows[1].split(",")
        cells[5] = repr(float(cells[5]) / 2.0)
        rows[1] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return
    record = json.loads(text)
    if "estimates" in record:
        record["estimates"][0]["value"] /= 2.0
    elif "reports" in record:
        report = record["reports"][0]
        report["election"] = "B" if report["election"] == "A" else "A"
    else:
        record["price"] /= 2.0
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def _scale_stakes(path: Path) -> None:
    """Scale every taxed stake by one factor, which keeps sides and the
    clearing price as they were: only a best-response check can notice."""
    text = path.read_text(encoding="utf-8")
    if text.startswith("k,"):
        rows = [line.split(",") for line in text.splitlines()]
        for cells in rows[1:]:
            cells[3] = repr(float(cells[3]) * 1.01)
        path.write_text("\n".join(",".join(cells) for cells in rows) + "\n", encoding="utf-8")
        return
    record = json.loads(text)
    if "agents" not in record:
        return
    for agent in record["agents"]:
        agent["sA"] *= 1.01
        agent["sB"] *= 1.01
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


class CorruptingCLI:
    """Runs the real CLI, then corrupts what it wrote."""

    def __init__(self, corrupt=_corrupt) -> None:
        self.corrupt = corrupt

    def main(self, argv: list[str]) -> int:
        status = CLI.main(argv)
        self.corrupt(Path(argv[argv.index("--output") + 1]))
        return status


def test_scaled_taxed_stakes_trip_the_check(tmp_path):
    calls = workloads.WORKLOADS["taxed-solve"](5, tmp_path, TINY)
    runner = run.Runner(CorruptingCLI(_scale_stakes), calls, tmp_path)
    runner.round(run.Tally())
    runner.check()
    scaled = {i for i, c in enumerate(calls) if c.argv[0] in ("solve", "sweep-k")}
    assert runner.failed == scaled, runner.failures
    assert all("not optimal" in f for f in runner.failures), runner.failures


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_corrupted_output_trips_the_check(workload, tmp_path):
    calls = workloads.WORKLOADS[workload](5, tmp_path, TINY)
    runner = run.Runner(CorruptingCLI(), calls, tmp_path)
    runner.round(run.Tally())
    runner.check()
    assert runner.failed == set(range(len(calls))), runner.failures
    assert runner.failed_operations == runner.attempted


def test_uncorrupted_outputs_pass(tmp_path):
    for workload in WORKLOAD_NAMES:
        built = workloads.WORKLOADS[workload](5, tmp_path, TINY)
        calls = workloads.interleave(built)
        assert sorted(map(id, calls)) == sorted(map(id, built))
        runner = run.Runner(CLI, calls, tmp_path)
        runner.round(run.Tally())
        runner.round(run.Tally())
        runner.check()
        assert not runner.failures, runner.failures


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
