"""Seeded workloads for the jurymarkets benchmark and their correctness checks.

A workload is one round of CLI calls built from ``--seed``: the panels are
drawn from the seed, written as config files, and the program only ever sees
those files.  The benchmark repeats the round as a closed loop, so every call
after the first round must reproduce the first round's bytes.

Each call carries an untimed check of its output against a reference the
benchmark computes on its own (brute-force enumeration, a Poisson-binomial
DP, tight-tolerance taxed solves).  Checks compare decisions and values, not
bytes, so solver and sampling changes that move results only in their last
bits, or within the Monte Carlo error, still pass.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from math import exp, expm1, fsum, log, sqrt
from pathlib import Path
from typing import Callable

from jurymarkets.markets import taxed_equilibrium_finite
from jurymarkets.model import BeliefProfile, CompetenceProfile, Decision
from jurymarkets.oracle import exhaustive_accuracy_oracle

# The documented tie band for margins and price offsets.
TIE_BAND = 1e-12
# Exact accuracies and same-sample Monte Carlo pairs must match their
# references this closely.
VALUE_TOL = 1e-12
# A taxed price further than this from the tight reference, or from the price
# its own emitted stakes clear at, is wrong rather than merely imprecise.  The
# seed solver's absolute residual test leaves errors near 1e-4 at k = 1e7;
# those are reported through the precision metrics instead.
PRICE_GROSS_TOL = 1e-3
# Monte Carlo estimates must lie within this many standard errors of an
# exact reference.
MC_SIGMAS = 5.0
# A taxed stake must be the utility's maximiser at the emitted price to
# within this relative band plus this absolute one.  The absolute part
# allows ten times the seed solver's absolute stake tolerance of 1e-12.
STAKE_REL_TOL = 1e-6
STAKE_ABS_TOL = 1e-11
# The largest stake the utility is defined at (staking everything is -inf).
STAKE_MAX = 1.0 - 1e-15
# Reference taxed solves use these tolerances instead of the defaults.
REF_PRICE_TOL = 1e-15
REF_RESPONSE_TOL = 1e-15

TAX_RATES = (0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)
MARKET_FOR_SCHEME = {"egalitarian": "naive", "linear": "kelly", "log_odds": "taxed_asymptotic"}
SCHEMES = tuple(MARKET_FOR_SCHEME)
SWEEP_COLUMNS = [
    "k", "agent", "belief", "strategy", "asymptotic_strategy", "price", "asymptotic_price",
]


@dataclass
class Checked:
    """Outcome of checking one output: errors, and deviations from references."""

    errors: list[str] = field(default_factory=list)
    deviations: list[float] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``kind`` groups calls for reporting."""

    kind: str
    argv: tuple[str, ...]
    items: int
    check: Callable[[str], Checked]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, tests shrink them."""

    exact_n: int = 12
    mc_n: int = 101
    per_trial_trials: int = 200
    per_trial_calls: int = 10
    small_n: int = 10
    # Seven panels put the pooled median call in the middle of the k=100
    # solves rather than between two values of k.
    small_panels: int = 7
    mid_n: int = 1000
    # The n=1000 solves, all at one k, are the block p90 falls in; one k
    # keeps that block free of the per-k latency steps.
    mid_panels: int = 9
    # k of the n=1000 and n=10,000 solves and of the exact taxed accuracy.
    fixed_k: float = 10.0
    large_n: int = 10_000
    large_sweep_k: tuple[float, ...] = (0.1, 1e3, 1e7)
    taxed_accuracy_n: int = 6
    vector_panels: int = 4
    vector_trials: int = 65_536


# ---------------------------------------------------------------------------
# Independent references


def _decision(margin: float) -> Decision:
    if margin > TIE_BAND:
        return Decision.A
    if margin < -TIE_BAND:
        return Decision.B
    return Decision.TIE


def scheme_weights(q: list[float], scheme: str) -> list[float]:
    if scheme == "egalitarian":
        return [1.0] * len(q)
    if scheme == "linear":
        return [2.0 * x - 1.0 for x in q]
    return [log(x / (1.0 - x)) for x in q]


def weighted_decider(weights: list[float]) -> Callable[[tuple[str, ...]], Decision]:
    """Weighted majority on signals: A-signal agents back A."""
    half = 0.5 * fsum(weights)

    def decide(signals: tuple[str, ...]) -> Decision:
        return _decision(fsum(w for w, s in zip(weights, signals) if s == "A") - half)

    return decide


def taxed_slope(s: float, b: float, p: float, k: float) -> float:
    """Derivative in s of the expected taxed log wealth of staking s on A at price p.

    With a = k*p/(1-p) the utility is b*log(1 + (1 - e^{-ks})/a) +
    (1-b)*log(1-s), so the slope is k*b*e^{-ks}/(a + 1 - e^{-ks}) -
    (1-b)/(1-s): positive below the optimal stake, negative above it.  A
    B-stake is the A-stake of the mirrored agent (1-b, 1-p).
    """
    a = k * p / (1.0 - p)
    return k * b * exp(-k * s) / (a - expm1(-k * s)) - (1.0 - b) / (1.0 - s)


def taxed_stake_at_half(q: float, k: float) -> float:
    """Optimal taxed stake of belief q on its own side at price 1/2, by bisection."""
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if taxed_slope(mid, q, 0.5, k) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def stakes_off_optimum(beliefs: list[float], price: float, signed: list[float], k: float) -> int:
    """Count stakes that are not the optimal taxed stake at the price.

    A stake s on its agent's side is optimal within STAKE_REL_TOL * s +
    STAKE_ABS_TOL when the utility's slope is positive just below that band
    and negative just above it.
    """
    off = 0
    for b, s in zip(beliefs, signed):
        if s == 0.0:
            continue
        bb, pp = (b, price) if s > 0.0 else (1.0 - b, 1.0 - price)
        s = abs(s)
        band = STAKE_REL_TOL * s + STAKE_ABS_TOL
        below, above = max(s - band, 0.0), min(s + band, STAKE_MAX)
        if not (taxed_slope(below, bb, pp, k) > 0.0 > taxed_slope(above, bb, pp, k)):
            off += 1
    return off


def reference_decider(q: list[float], aggregator: str) -> Callable[[tuple[str, ...]], Decision]:
    """Decision rule an aggregator must reproduce, derived without the program.

    Each market decides like its paired weighted majority: naive like equal
    weights, Kelly like 2q-1, the asymptotic taxed market like log-odds.  The
    finite taxed market clears above 1/2 exactly when A-stakes outweigh
    B-stakes at p = 1/2, and at that price every agent stakes the same
    function of her competence on her own side, so it is a weighted majority
    with those stakes as weights.
    """
    if aggregator.startswith("majority_"):
        return weighted_decider(scheme_weights(q, aggregator[len("majority_"):]))
    if aggregator.startswith("market_taxed_finite_k="):
        k = float(aggregator.split("=", 1)[1])
        return weighted_decider([taxed_stake_at_half(x, k) for x in q])
    market = aggregator[len("market_"):]
    scheme = next(s for s, m in MARKET_FOR_SCHEME.items() if m == market)
    return weighted_decider(scheme_weights(q, scheme))


def majority_distribution(q: list[float]) -> tuple[float, float]:
    """(accuracy, tie probability) of simple majority by Poisson-binomial DP."""
    dist = [1.0]
    for x in q:
        nxt = [0.0] * (len(dist) + 1)
        for j, p in enumerate(dist):
            nxt[j] += p * (1.0 - x)
            nxt[j + 1] += p * x
        dist = nxt
    n = len(q)
    win = fsum(p for j, p in enumerate(dist) if 2 * j > n)
    tie = dist[n // 2] if n % 2 == 0 else 0.0
    return win + 0.5 * tie, tie


class TaxedReference:
    """Tight-tolerance taxed prices, solved once per (panel, k)."""

    def __init__(self) -> None:
        self._prices: dict[tuple[str, float], float] = {}

    def price(self, key: str, beliefs: list[float], k: float) -> float:
        if (key, k) not in self._prices:
            result = taxed_equilibrium_finite(
                BeliefProfile(tuple(beliefs)), k,
                price_tol=REF_PRICE_TOL, response_tol=REF_RESPONSE_TOL,
            )
            self._prices[(key, k)] = result.price
        return self._prices[(key, k)]


# ---------------------------------------------------------------------------
# Output checks


def _json(text: str, out: Checked) -> dict | None:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        out.errors.append(f"output is not JSON: {exc}")
        return None


def check_exact_accuracy(q: list[float], expected: list[str]) -> Callable[[str], Checked]:
    """Exact accuracies must match the brute-force oracle to VALUE_TOL."""
    oracle_cache: dict[str, float] = {}

    def check(text: str) -> Checked:
        out = Checked()
        record = _json(text, out)
        if record is None:
            return out
        estimates = record.get("estimates", [])
        names = [e.get("aggregator") for e in estimates]
        if not out.expect(names == expected, f"aggregators {names} != {expected}"):
            return out
        profile = CompetenceProfile(tuple(q))
        for e in estimates:
            name = e["aggregator"]
            out.expect(e["method"] == "exact", f"{name}: method {e['method']!r}")
            if name not in oracle_cache:
                oracle_cache[name] = exhaustive_accuracy_oracle(profile, reference_decider(q, name))
            dev = abs(e["value"] - oracle_cache[name])
            out.deviations.append(dev)
            out.expect(dev <= VALUE_TOL, f"{name}: exact {e['value']!r} vs oracle {oracle_cache[name]!r}")
        return out

    return check


def check_equivalence(q: list[float]) -> Callable[[str], Checked]:
    """Every profile's election decision must match the reference majority,
    every guaranteed pairing must agree, and no violations may be reported."""
    deciders = {
        "simple_naive": weighted_decider(scheme_weights(q, "egalitarian")),
        "linear_kelly": weighted_decider(scheme_weights(q, "linear")),
        "log_odds_taxed": weighted_decider(scheme_weights(q, "log_odds")),
    }

    def check(text: str) -> Checked:
        out = Checked()
        record = _json(text, out)
        if record is None:
            return out
        reports = record.get("reports", [])
        out.expect(record.get("violations") == 0, f"violations={record.get('violations')!r}")
        out.expect(record.get("exhaustive") is True, "exhaustive flag not set")
        out.expect(len(reports) == 3 * 2 ** len(q), f"{len(reports)} reports for n={len(q)}")
        bad = 0
        for r in reports:
            expected = str(deciders[r["scheme"]](tuple(r["signals"])))
            price = r["price"]
            offset = log(price / (1.0 - price)) if r["scheme"] == "log_odds_taxed" else price - 0.5
            if (r["election"] != expected or not r["agree"] or r["market"] != expected
                    or str(_decision(offset)) != expected):
                bad += 1
        out.expect(bad == 0, f"{bad} reports disagree with the reference majority or their price")
        return out

    return check


def check_monte_carlo(
    q: list[float], scheme: str, trials: int, seed: int, paired: bool
) -> Callable[[str], Checked]:
    """Monte Carlo estimates must be well formed, and an egalitarian one must
    lie within MC_SIGMAS standard errors of the exact majority accuracy.
    With ``paired``, a market scored on the same samples as its paired
    majority must return the same estimate."""
    expected = [f"majority_{scheme}"]
    if paired:
        expected.append(f"market_{MARKET_FOR_SCHEME[scheme]}")

    def check(text: str) -> Checked:
        out = Checked()
        record = _json(text, out)
        if record is None:
            return out
        estimates = record.get("estimates", [])
        names = [e.get("aggregator") for e in estimates]
        if not out.expect(names == expected, f"aggregators {names} != {expected}"):
            return out
        for e in estimates:
            _check_monte_carlo_fields(e, trials, seed, out)
        majority = estimates[0]
        if paired:
            market = estimates[1]
            dev = abs(market["value"] - majority["value"])
            out.deviations.append(dev)
            out.expect(dev <= VALUE_TOL, f"{market['value']!r} vs paired majority {majority['value']!r}")
            out.expect(market["tie_mass"] == majority["tie_mass"], "paired tie masses differ")
        if scheme == "egalitarian":
            _check_against_majority_dp(majority, q, trials, out)
        return out

    return check


def _check_monte_carlo_fields(e: dict, trials: int, seed: int, out: Checked) -> None:
    """Echoed fields, whole counts of correct and tied trials, and a standard
    error that follows from them."""
    name = e.get("aggregator")
    out.expect(e.get("method") == "monte_carlo", f"{name}: method {e.get('method')!r}")
    out.expect(e.get("trials") == trials, f"{name}: trials {e.get('trials')!r} != {trials}")
    out.expect(e.get("seed") == seed, f"{name}: seed {e.get('seed')!r} != {seed}")
    value, tie_mass = e["value"], e["tie_mass"]
    ties = tie_mass * trials
    correct = value * trials - 0.5 * ties
    out.expect(
        abs(ties - round(ties)) <= 1e-6 and abs(correct - round(correct)) <= 1e-6
        and -1e-6 <= correct <= trials - ties + 1e-6,
        f"{name}: value {value!r} and tie mass {tie_mass!r} are not whole trial counts",
    )
    second = (round(correct) + 0.25 * round(ties)) / trials
    sigma = sqrt(max(second - value * value, 0.0) / trials)
    out.expect(
        abs(e["std_error"] - sigma) <= 1e-9 * sigma + 1e-15,
        f"{name}: std_error {e['std_error']!r}, expected {sigma!r}",
    )


def _check_against_majority_dp(e: dict, q: list[float], trials: int, out: Checked) -> None:
    value, tie = majority_distribution(q)
    second = (value - 0.5 * tie) + 0.25 * tie
    sigma = sqrt(max(second - value * value, 0.0) / trials)
    out.expect(
        abs(e["value"] - value) <= MC_SIGMAS * sigma,
        f"{e['aggregator']}: {e['value']!r} is more than {MC_SIGMAS} sigma "
        f"({sigma:.3g}) from the exact {value!r}",
    )


def _check_stakes(
    beliefs: list[float], price: float, signed: list[float], k: float, where: str, out: Checked
) -> None:
    """Sides follow sign(belief - price), each stake is optimal at the price,
    and the stakes clear at the price."""
    wrong = sum(
        1 for b, s in zip(beliefs, signed)
        if (b > price and not s > 0.0) or (b < price and not s < 0.0) or (b == price and s != 0.0)
    )
    if not out.expect(wrong == 0, f"{where}: {wrong} stakes on the wrong side of price {price!r}"):
        return
    off = stakes_off_optimum(beliefs, price, signed, k)
    out.expect(off == 0, f"{where}: {off} stakes are not optimal at price {price!r}")
    total_a = fsum(s for s in signed if s > 0.0)
    total_b = fsum(-s for s in signed if s < 0.0)
    if out.expect(total_a > 0.0 and total_b > 0.0, f"{where}: one side has no stake"):
        cleared = total_a / (total_a + total_b)
        out.expect(
            abs(cleared - price) <= PRICE_GROSS_TOL,
            f"{where}: stakes clear at {cleared!r}, emitted price {price!r}",
        )


def _check_price(price: float, reference: float, where: str, out: Checked) -> None:
    dev = abs(price - reference)
    out.deviations.append(dev)
    out.expect(dev <= PRICE_GROSS_TOL, f"{where}: price {price!r} vs reference {reference!r}")


def check_taxed_solve(
    key: str, beliefs: list[float], k: float, ref: TaxedReference
) -> Callable[[str], Checked]:
    def check(text: str) -> Checked:
        out = Checked()
        record = _json(text, out)
        if record is None:
            return out
        agents = record.get("agents", [])
        where = f"solve n={len(beliefs)} k={k:g}"
        out.expect(record.get("market") == "taxed_finite" and record.get("k") == k, f"{where}: header")
        if not out.expect(
            [a["belief"] for a in agents] == beliefs, f"{where}: beliefs not echoed"
        ):
            return out
        price = record["price"]
        signed = [a["sA"] if a["sA"] > 0.0 else -a["sB"] for a in agents]
        _check_stakes(beliefs, price, signed, k, where, out)
        _check_price(price, ref.price(key, beliefs, k), where, out)
        return out

    return check


def check_sweep(
    key: str, beliefs: list[float], ks: tuple[float, ...], ref: TaxedReference
) -> Callable[[str], Checked]:
    mean_log_odds = fsum(log(b / (1.0 - b)) for b in beliefs) / len(beliefs)
    asymptotic = 1.0 / (1.0 + exp(-mean_log_odds))

    def check(text: str) -> Checked:
        out = Checked()
        rows = list(csv.reader(io.StringIO(text)))
        if not out.expect(rows and rows[0] == SWEEP_COLUMNS, f"sweep header {rows[:1]}"):
            return out
        body = rows[1:]
        n = len(beliefs)
        if not out.expect(len(body) == n * len(ks), f"sweep has {len(body)} rows"):
            return out
        for g, k in enumerate(ks):
            group = body[g * n:(g + 1) * n]
            where = f"sweep n={n} k={k:g}"
            out.expect(all(float(r[0]) == k for r in group), f"{where}: k column")
            out.expect([float(r[2]) for r in group] == beliefs, f"{where}: beliefs not echoed")
            prices = {r[5] for r in group}
            if not out.expect(len(prices) == 1, f"{where}: {len(prices)} distinct prices"):
                continue
            price = float(group[0][5])
            out.expect(
                abs(float(group[0][6]) - asymptotic) <= VALUE_TOL,
                f"{where}: asymptotic price {group[0][6]} vs {asymptotic!r}",
            )
            _check_stakes(beliefs, price, [float(r[3]) for r in group], k, where, out)
            _check_price(price, ref.price(key, beliefs, k), where, out)
        return out

    return check


# ---------------------------------------------------------------------------
# Workload builders


def _write(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _competence_agents(q: list[float]) -> list[dict]:
    return [{"competence": x} for x in q]


def per_profile(seed: int, workdir: Path, sizes: Sizes) -> list[Call]:
    """n = EXACT_MAX_AGENTS enumeration calls plus per-trial Monte Carlo."""
    rng = random.Random(f"per-profile:{seed}")
    n = sizes.exact_n
    q = [rng.uniform(0.55, 0.95) for _ in range(n)]
    config = _write(workdir / "exact.json", {"agents": _competence_agents(q)})
    profiles = 2 ** (n + 1)  # both states
    calls = [
        Call("accuracy-majority", ("accuracy", "--config", config), 3 * profiles,
             check_exact_accuracy(q, [f"majority_{s}" for s in SCHEMES])),
    ]
    for scheme, market in MARKET_FOR_SCHEME.items():
        calls.append(Call(
            f"accuracy-{market}",
            ("accuracy", "--config", config, "--weights", scheme, "--market", market),
            2 * profiles,
            check_exact_accuracy(q, [f"majority_{scheme}", f"market_{market}"]),
        ))
    calls.append(Call(
        "check-equivalence", ("check-equivalence", "--config", config, "--exhaustive"),
        3 * 2 ** n, check_equivalence(q),
    ))
    q_mc = [rng.uniform(0.51, 0.60) for _ in range(sizes.mc_n)]
    trials = sizes.per_trial_trials
    for j in range(sizes.per_trial_calls):
        for scheme in ("egalitarian", "linear"):
            market = MARKET_FOR_SCHEME[scheme]
            mc_seed = rng.randrange(2**32)
            path = _write(
                workdir / f"per-trial-{market}-{j}.json",
                {"agents": _competence_agents(q_mc), "trials": trials, "seed": mc_seed},
            )
            calls.append(Call(
                f"per-trial-{market}",
                ("accuracy", "--config", path, "--weights", scheme, "--market", market),
                2 * trials,
                check_monte_carlo(q_mc, scheme, trials, mc_seed, paired=True),
            ))
    return calls


def taxed_solve(seed: int, workdir: Path, sizes: Sizes) -> list[Call]:
    """Finite-k taxed solves across n and the full k range."""
    rng = random.Random(f"taxed-solve:{seed}")
    ref = TaxedReference()
    calls: list[Call] = []

    def panel(name: str, n: int) -> tuple[str, list[float]]:
        beliefs = [rng.uniform(0.02, 0.98) for _ in range(n)]
        return _write(workdir / f"{name}.json", {"agents": [{"belief": b} for b in beliefs]}), beliefs

    def solve(config: str, beliefs: list[float], k: float) -> None:
        calls.append(Call(
            f"solve-n{len(beliefs)}",
            ("solve", "--config", config, "--market", "taxed_finite", "--k", repr(k)),
            1, check_taxed_solve(config, beliefs, k, ref),
        ))

    def sweep(config: str, beliefs: list[float], ks: tuple[float, ...]) -> None:
        calls.append(Call(
            f"sweep-n{len(beliefs)}",
            ("sweep-k", "--config", config, "--k-list", ",".join(repr(k) for k in ks)),
            len(ks), check_sweep(config, beliefs, ks, ref),
        ))

    for i in range(sizes.small_panels):
        config, beliefs = panel(f"small-{i}", sizes.small_n)
        for k in TAX_RATES:
            solve(config, beliefs, k)
        if i == 0:
            sweep(config, beliefs, TAX_RATES)
    for i in range(sizes.mid_panels):
        config, beliefs = panel(f"mid-{i}", sizes.mid_n)
        solve(config, beliefs, sizes.fixed_k)
        if i == 0:
            sweep(config, beliefs, TAX_RATES)
    config, beliefs = panel("large", sizes.large_n)
    solve(config, beliefs, sizes.fixed_k)
    sweep(config, beliefs, sizes.large_sweep_k)

    n6 = sizes.taxed_accuracy_n
    k6 = sizes.fixed_k
    q6 = [rng.uniform(0.55, 0.95) for _ in range(n6)]
    config = _write(workdir / "taxed-accuracy.json", {"agents": _competence_agents(q6)})
    calls.append(Call(
        "accuracy-taxed",
        ("accuracy", "--config", config, "--market", "taxed_finite", "--k", repr(k6)),
        2 ** (n6 + 1),
        check_exact_accuracy(q6, [f"majority_{s}" for s in SCHEMES] + [f"market_taxed_finite_k={k6:g}"]),
    ))
    return calls


def mc_vector(seed: int, workdir: Path, sizes: Sizes) -> list[Call]:
    """Vectorised Monte Carlo for every weight scheme at n = 101."""
    rng = random.Random(f"mc-vector:{seed}")
    trials = sizes.vector_trials
    calls = []
    for i in range(sizes.vector_panels):
        q = [rng.uniform(0.51, 0.60) for _ in range(sizes.mc_n)]
        mc_seed = rng.randrange(2**32)
        config = _write(
            workdir / f"vector-{i}.json",
            {"agents": _competence_agents(q), "trials": trials, "seed": mc_seed},
        )
        for scheme in SCHEMES:
            calls.append(Call(
                f"vector-{scheme}", ("accuracy", "--config", config, "--weights", scheme),
                trials, check_monte_carlo(q, scheme, trials, mc_seed, paired=False),
            ))
    return calls


def interleave(calls: list[Call]) -> list[Call]:
    """Order a round so that each kind of call is spread evenly across it.

    Calls of one kind then sample the machine over the whole run rather than
    over one short stretch of each round, which steadies their percentiles.
    """
    kinds = Counter(c.kind for c in calls)
    # Kinds with a single call are spread as one group.
    groups = [c.kind if kinds[c.kind] > 1 else "" for c in calls]
    sizes = Counter(groups)
    seen: Counter[str] = Counter()
    keyed = []
    for i, (group, call) in enumerate(zip(groups, calls)):
        keyed.append(((seen[group] + 0.5) / sizes[group], i, call))
        seen[group] += 1
    return [call for _, _, call in sorted(keyed, key=lambda t: t[:2])]


WORKLOADS: dict[str, Callable[[int, Path, Sizes], list[Call]]] = {
    "per-profile": per_profile,
    "taxed-solve": taxed_solve,
    "mc-vector": mc_vector,
}


def mc_batch_bytes(workload: str, sizes: Sizes) -> int | None:
    """Computed size of one Monte Carlo batch's float64 draws (rows x agents)."""
    from jurymarkets.accuracy import MONTE_CARLO_BATCH

    trials = {"per-profile": sizes.per_trial_trials, "mc-vector": sizes.vector_trials}.get(workload)
    return None if trials is None else min(trials, MONTE_CARLO_BATCH) * sizes.mc_n * 8
