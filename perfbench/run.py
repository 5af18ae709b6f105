"""Benchmark for the jurymarkets CLI: one closed-loop client, in-process.

    python3 perfbench/run.py --workload per-profile --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload's round of CLI calls
(see workloads.py) is built from ``--seed``; after one untimed warm-up round
it is repeated, one call at a time, until ``--seconds`` have passed.
``jurymarkets.cli.main(argv)`` is called in this process and writes its output
to a temporary file inside the checkout.  Outputs are checked afterwards,
untimed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics of
the traced rounds, per round, plus the tracing overhead; its spans are
written to ``.perfbench_out/spans-<workload>.csv``.

The last line of standard output is the JSON result; the line before it
holds the run's metadata.  The exit code is 0 when every check passed, 1 when
a check or a call failed, and 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from math import log10
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 11
# Digits of agreement with a reference are capped at double precision.
MAX_DIGITS = 16.0


class NoProgram(RuntimeError):
    """The checkout holds no jurymarkets sources to measure."""


def load_program():
    """Import jurymarkets.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "jurymarkets" / "cli.py").is_file():
        raise NoProgram(f"no jurymarkets sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jurymarkets.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "jurymarkets":
        raise NoProgram(f"imported {cli.__file__}, not the checkout's sources")
    return cli


def setup_time() -> float:
    """Seconds from a fresh interpreter until `import jurymarkets.cli` returns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import jurymarkets.cli"],
        cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL,
    )
    return perf_counter() - t0


class SetupSampler:
    """Times fresh interpreter starts at evenly spaced moments of the run.

    Spreading the starts over the run, between calls and outside their
    timing, lets their median see the same stretch of the machine as the
    calls do.  The run's clock does not count the starts, so they take no
    time from the calls.  Starts still due when the loop ends are taken
    after it.
    """

    def __init__(self, seconds: float, samples: int) -> None:
        self.seconds = seconds
        self.samples = samples
        self.times: list[float] = []
        self.started = perf_counter()
        self.spent = 0.0

    def elapsed(self) -> float:
        """Seconds since the run started, less the time spent on starts."""
        return perf_counter() - self.started - self.spent

    def poll(self) -> None:
        due = len(self.times) * self.seconds / self.samples
        if len(self.times) < self.samples and self.elapsed() >= due:
            t0 = perf_counter()
            self.times.append(setup_time())
            self.spent += perf_counter() - t0

    def median(self) -> float:
        while len(self.times) < self.samples:
            self.times.append(setup_time())
        return statistics.median(self.times)


@dataclass
class Tally:
    """What one kind of round (untraced or traced) measured."""

    latencies: list[float] = field(default_factory=list)
    items: int = 0
    round_walls: list[float] = field(default_factory=list)
    output_bytes: int = 0


class Runner:
    """Runs a workload's round of calls, keeps first outputs, checks them."""

    def __init__(self, cli, calls, workdir: Path) -> None:
        self.cli = cli
        self.calls = calls
        self.workdir = workdir
        self.first: dict[int, Path] = {}
        self.runs = [0] * len(calls)
        self.failed: set[int] = set()
        self.failures: list[str] = []
        self.deviations: list[float] = []

    def _fail(self, index: int, why: str) -> None:
        self.failed.add(index)
        self.failures.append(f"{' '.join(self.calls[index].argv)}: {why}")

    def _call(self, index: int, tally: Tally) -> None:
        call = self.calls[index]
        first = index not in self.first
        path = self.workdir / (f"out-{index}.txt" if first else "out-repeat.txt")
        path.unlink(missing_ok=True)
        argv = list(call.argv) + ["--output", str(path)]
        self.runs[index] += 1
        t0 = perf_counter()
        try:
            status = self.cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing call is a failed operation, not a crashed benchmark
            status = "exception:\n" + traceback.format_exc()
        tally.latencies.append(perf_counter() - t0)
        tally.items += call.items
        if status != 0 or not path.is_file():
            self._fail(index, f"exit {status}")
            return
        tally.output_bytes += path.stat().st_size
        if first:
            self.first[index] = path
        elif path.read_bytes() != self.first[index].read_bytes():
            self._fail(index, "output differs from the first round")

    def round(self, tally: Tally, between: Callable[[], None] | None = None) -> None:
        t0 = perf_counter()
        for index in range(len(self.calls)):
            self._call(index, tally)
            if between is not None:
                between()
        tally.round_walls.append(perf_counter() - t0)

    def check(self) -> None:
        """Check each call's first output; repeats were compared byte for byte."""
        for index, path in sorted(self.first.items()):
            try:
                result = self.calls[index].check(path.read_text(encoding="utf-8"))
            except Exception:  # a malformed output must fail its check, not the run
                self._fail(index, "check crashed\n" + traceback.format_exc())
                continue
            for error in result.errors:
                self._fail(index, error)
            self.deviations.extend(result.deviations)

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    @property
    def failed_operations(self) -> int:
        """Every run of a call whose output failed counts as failed."""
        return sum(self.runs[i] for i in self.failed)


def _keep_going(elapsed: float, rounds: int, seconds: float) -> bool:
    """Another round fits if it would end nearer to the deadline than not."""
    return elapsed + 0.5 * elapsed / rounds < seconds


def ref_digits(deviations: list[float]) -> float:
    """Mean decimal digits of agreement between emitted values and references."""
    if not deviations:
        return MAX_DIGITS
    return statistics.fmean(min(MAX_DIGITS, -log10(d)) if d > 0.0 else MAX_DIGITS for d in deviations)


def end_to_end(runner: Runner, tally: Tally, setup_s: float, peak_rss_mb: float) -> dict:
    lat_ms = [x * 1000.0 for x in tally.latencies]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) >= 2 else lat_ms[0]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (tally.items / sum(tally.latencies), "1/s"),
        "call_p50_ms": (statistics.median(lat_ms), "ms"),
        "call_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_rate": ((runner.attempted - runner.failed_operations) / runner.attempted, "ratio"),
        "ref_digits": (ref_digits(runner.deviations), "digits"),
    }


def per_layer(tracer, runner: Runner, traced: Tally, untraced: Tally) -> dict:
    rounds = len(traced.round_walls)
    c, s, k = tracer.calls, tracer.self_ns, tracer.counters
    metrics: dict[str, tuple[float, str]] = {}
    for name in (
        "model.enumerate", "model.beliefs", "voting.weights", "voting.votes", "voting.margin",
        "markets.naive", "markets.kelly", "markets.asymptotic", "markets.taxed",
        "equivalence.check", "accuracy.exact", "accuracy.mc", "accuracy.decide",
    ):
        metrics[f"{name}.calls"] = (c[name] / rounds, "count")
        metrics[f"{name}.self_ms"] = (s[name] / rounds / 1e6, "ms")
    for name in ("model.profiles", "markets.taxed.outer_iters", "markets.taxed.failed",
                 "equivalence.violations", "accuracy.mc.trials"):
        metrics[name] = (k[name] / rounds, "count")
    checks = c["equivalence.check"]
    metrics["equivalence.agree_ratio"] = (k["equivalence.agree"] / checks if checks else 0.0, "ratio")
    metrics["cli.calls"] = (c["cli.main"] / rounds, "count")
    for name in ("cli.main", "cli.config", "cli.cmd"):
        metrics[f"{name}.self_ms"] = (s[name] / rounds / 1e6, "ms")
    metrics["cli.output_bytes"] = (traced.output_bytes / rounds, "bytes")
    wall_ns = sum(traced.round_walls) * 1e9
    metrics["trace.wall_ms"] = (wall_ns / rounds / 1e6, "ms")
    metrics["trace.self_share"] = (sum(s.values()) / wall_ns, "ratio")
    metrics["trace.spans"] = (len(tracer.start) / rounds, "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.round_walls) / statistics.median(untraced.round_walls), "ratio"
    )
    metrics["check.max_ref_err"] = (max(runner.deviations, default=0.0), "abs")
    return metrics


def machine_info(batch_bytes: int | None) -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cpu = next(
        (line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
         if line.startswith("model name")),
        None,
    )
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = read(f"{base}/level"), read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{base}/size")
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or "unknown",
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mc_batch_bytes_computed": batch_bytes,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """Run one workload and return (result, metadata)."""
    import workloads
    from tracing import Instrumentation, Tracer

    cli = load_program()
    sizes = sizes or workloads.Sizes()
    meta = machine_info(workloads.mc_batch_bytes(workload, sizes))
    untraced, traced, tracer = Tally(), Tally(), Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        calls = workloads.interleave(workloads.WORKLOADS[workload](seed, Path(tmp), sizes))
        runner = Runner(cli, calls, Path(tmp))
        if not trace:
            setup_time()  # untimed: compiles bytecode
        # The first round warms caches and lazy set-up; only its outputs count.
        runner.round(Tally())
        setup = SetupSampler(seconds, SETUP_SAMPLES)
        rounds = 0
        while True:
            runner.round(untraced, None if trace else setup.poll)
            if trace:
                with Instrumentation(tracer):
                    runner.round(traced)
            rounds += 1
            if not _keep_going(setup.elapsed(), rounds, seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check()

    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}.csv")
        metrics = per_layer(tracer, runner, traced, untraced)
    else:
        metrics = end_to_end(runner, untraced, setup.median(), peak_rss_mb)
        p90 = metrics["call_p90_ms"][0]
        meta["calls_above_p90"] = sum(1 for x in untraced.latencies if x * 1000.0 > p90)
    meta.update(
        workload=workload, seed=seed, trace=int(trace), rounds=rounds,
        calls=len(untraced.latencies), failures=runner.failures[:20],
    )
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed_operations,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, meta


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    try:
        load_program()
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for failure in meta["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
