"""Span tracing for the benchmark's traced run, installed from outside the program.

The tracer replaces public functions of each jurymarkets layer with wrappers
in every module namespace that imported them (plus the weight-scheme table
the majority aggregators read), so calls made through any of those names are
recorded.  Each span keeps (name, start, end, parent); spans live in flat
arrays in memory and are written out once, at the end of the run.  Self time
is a span's duration minus the time covered by its direct children, so the
self times of all layers add up to the time spent inside traced calls.

Nothing here runs unless the benchmark is started with ``--trace 1``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

MODULES = ("model", "voting", "markets", "equivalence", "accuracy", "cli", "oracle")

# (module, function) -> (span name, whether a call counts towards <name>.calls).
# Dispatchers share their callee's name but are not counted, so nested spans
# of one name report one call per unit of work.
SPANS: dict[tuple[str, str], tuple[str, bool]] = {
    ("model", "enumerate_signal_space"): ("model.enumerate", True),
    ("model", "beliefs_from_signals"): ("model.beliefs", True),
    ("voting", "weights_egalitarian"): ("voting.weights", True),
    ("voting", "weights_linear"): ("voting.weights", True),
    ("voting", "weights_log_odds"): ("voting.weights", True),
    ("voting", "votes_from_beliefs"): ("voting.votes", True),
    ("voting", "weighted_margin"): ("voting.margin", True),
    ("markets", "naive_equilibrium"): ("markets.naive", True),
    ("markets", "kelly_equilibrium"): ("markets.kelly", True),
    ("markets", "taxed_equilibrium_asymptotic"): ("markets.asymptotic", True),
    ("markets", "taxed_equilibrium_finite"): ("markets.taxed", True),
    ("equivalence", "check_simple_naive"): ("equivalence.check", True),
    ("equivalence", "check_linear_kelly"): ("equivalence.check", True),
    ("equivalence", "check_log_odds_taxed"): ("equivalence.check", True),
    ("equivalence", "check_scheme"): ("equivalence.check", False),
    ("equivalence", "check_all_schemes"): ("equivalence.check", False),
    ("accuracy", "exact_accuracy"): ("accuracy.exact", True),
    ("accuracy", "monte_carlo_accuracy"): ("accuracy.mc", True),
    ("cli", "main"): ("cli.main", True),
    ("cli", "load_config"): ("cli.config", True),
    ("cli", "parse_config"): ("cli.config", False),
    ("cli", "cmd_solve"): ("cli.cmd", True),
    ("cli", "cmd_vote"): ("cli.cmd", True),
    ("cli", "cmd_check_equivalence"): ("cli.cmd", True),
    ("cli", "cmd_accuracy"): ("cli.cmd", True),
    ("cli", "cmd_sweep_k"): ("cli.cmd", True),
    ("cli", "cmd_verify"): ("cli.cmd", True),
}

# Factories whose aggregators get a traced ``decide``.
AGGREGATOR_FACTORIES = (
    ("accuracy", "majority_aggregator"),
    ("accuracy", "market_aggregator"),
    ("accuracy", "fixed_weights_aggregator"),
)
DECIDE_SPAN = "accuracy.decide"


class Tracer:
    """In-memory span recorder with per-name self time and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        # One [span index, child nanoseconds] frame per open span.
        self._stack: list[list[int]] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        counted: bool = True,
        on_result: Callable[[object], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0)
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                self_ns[name] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if counted:
                    calls[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as a CSV row: name, start, end (ns), parent row (-1 for none)."""
        base = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            for i, p in enumerate(self.parent):
                handle.write(
                    f"{self.names[self.name_id[i]]},{self.start[i] - base},{self.end[i] - base},{p}\n"
                )


class Instrumentation:
    """Installs a tracer's wrappers into the jurymarkets namespaces and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.modules = {name: importlib.import_module(f"jurymarkets.{name}") for name in MODULES}
        self.modules["package"] = importlib.import_module("jurymarkets")
        self._saved: list[tuple[object, str, object]] = []
        self._saved_schemes: dict | None = None

    def _replacements(self) -> dict[int, Callable]:
        t = self.tracer
        counters = t.counters

        def profiles(result) -> None:
            counters["model.profiles"] += len(result)

        def taxed(result) -> None:
            counters["markets.taxed.outer_iters"] += result.diagnostics.iterations

        markets = self.modules["markets"]

        def taxed_failed(exc: BaseException) -> None:
            if isinstance(exc, (markets.BracketingError, markets.UndefinedPriceError)):
                counters["markets.taxed.failed"] += 1

        def report(result) -> None:
            counters["equivalence.agree"] += result.agree
            counters["equivalence.violations"] += result.guaranteed and not result.agree

        def trials(result) -> None:
            counters["accuracy.mc.trials"] += result.trials

        hooks = {
            "model.enumerate": (profiles, None),
            "markets.taxed": (taxed, taxed_failed),
            "accuracy.mc": (trials, None),
        }
        out: dict[int, Callable] = {}
        for (module, fname), (span, counted) in SPANS.items():
            fn = getattr(self.modules[module], fname)
            on_result, on_error = hooks.get(span, (None, None))
            if span == "equivalence.check" and counted:
                on_result = report
            out[id(fn)] = t.wrap(fn, span, counted, on_result, on_error)
        for module, fname in AGGREGATOR_FACTORIES:
            factory = getattr(self.modules[module], fname)
            out[id(factory)] = self._factory(factory)
        return out

    def _factory(self, factory: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            agg = factory(*args, **kwargs)
            return dataclasses.replace(agg, decide=tracer.wrap(agg.decide, DECIDE_SPAN))

        return traced_factory

    def install(self) -> None:
        # Keyed by id: the originals stay referenced by their modules meanwhile.
        replacements = self._replacements()
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
        schemes = self.modules["accuracy"].WEIGHT_SCHEMES
        self._saved_schemes = dict(schemes)
        for key, fn in schemes.items():
            schemes[key] = replacements.get(id(fn), fn)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        if self._saved_schemes is not None:
            schemes = self.modules["accuracy"].WEIGHT_SCHEMES
            schemes.clear()
            schemes.update(self._saved_schemes)
            self._saved_schemes = None

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
