"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Every test prints exactly one ``ACCEPTANCE CRITERION n: PASS/FAIL`` line with
measured numbers before asserting, so a plain ``pytest`` run surfaces the
verdicts for failures and ``pytest tests/test_acceptance.py -s`` shows all ten.

Criterion 6 contains a clause that the finite-tax solver cannot satisfy: its
prices converge (in k) to the price that balances *security quantities*, while
the closed-form asymptotic price balances *stake log-odds*, and those two
limits differ away from 0.5.  The clause is asserted as stated and fails
honestly with the measured gaps; the decision-level agreement that actually
matters is measured alongside it and by criterion 3.
"""

from __future__ import annotations

import math

import numpy as np

from jurymarkets import (
    BeliefProfile,
    CompetenceProfile,
    Decision,
    MarketKind,
    SignalProfile,
    beliefs_from_signals,
    check_all_schemes,
    clearing_price,
    decision_from_offset,
    exact_accuracy,
    full_investment_equivalence,
    grid_equilibrium_search,
    kelly_equilibrium,
    majority_aggregator,
    monte_carlo_accuracy,
    naive_equilibrium,
    taxed_best_response,
    taxed_equilibrium_asymptotic,
    taxed_equilibrium_finite,
    taxed_foc_residual,
    taxed_utility,
    verify_optimal_weights,
    votes_from_beliefs,
    weighted_majority,
    weighted_margin,
    weights_egalitarian,
    weights_linear,
    weights_log_odds,
)

from conftest import EXAMPLE_1_Q, EXAMPLE_1_Y, EXAMPLE_2_Q, EXAMPLE_2_Y


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number}: {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def _elections(q: CompetenceProfile, b: BeliefProfile):
    votes = votes_from_beliefs(b)
    simple = weighted_majority(votes, weights_egalitarian(q.n))
    linear_margin = weighted_margin(votes, weights_linear(q))
    linear = decision_from_offset(linear_margin)
    log_odds = weighted_majority(votes, weights_log_odds(q))
    return simple, linear, log_odds


def test_criterion_01_worked_example_one():
    q = CompetenceProfile(EXAMPLE_1_Q)
    b = beliefs_from_signals(q, SignalProfile(EXAMPLE_1_Y))
    # (0.9, 0.3, 0.4, 0.4, 0.6) up to representation: 1 - 0.7 is not the
    # float literal 0.3, so compare against the posterior rule's own result.
    assert b.b == (0.9, 1.0 - 0.7, 1.0 - 0.6, 1.0 - 0.6, 0.6)
    assert max(abs(x - y) for x, y in zip(b.b, (0.9, 0.3, 0.4, 0.4, 0.6))) < 1e-15
    simple, linear, log_odds = _elections(q, b)
    naive_price = naive_equilibrium(b).price
    kelly_price = kelly_equilibrium(b).price
    asym_price = taxed_equilibrium_asymptotic(b)
    checks = {
        "simple=B": simple is Decision.B,
        "linear=A": linear is Decision.A,
        "log_odds=A": log_odds is Decision.A,
        "naive=0.4 exact": naive_price == 0.4,
        "kelly=0.52 exact": kelly_price == 0.52,
        "taxed sign=A": asym_price > 0.5,
    }
    failed = [name for name, ok in checks.items() if not ok]
    _verdict(
        1,
        not failed,
        f"beliefs (0.9,0.3,0.4,0.4,0.6): naive price {naive_price!r}, kelly "
        f"price {kelly_price!r}, asymptotic taxed price {asym_price:.6f} > 0.5"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_02_worked_example_two():
    q = CompetenceProfile(EXAMPLE_2_Q)
    b = beliefs_from_signals(q, SignalProfile(EXAMPLE_2_Y))
    assert b.b == (0.8, 0.4, 0.4, 0.4)
    simple, linear, log_odds = _elections(q, b)
    naive = naive_equilibrium(b)
    partial = naive.stakes[1]
    kelly_price = kelly_equilibrium(b).price
    asym_price = taxed_equilibrium_asymptotic(b)
    checks = {
        "simple=B": simple is Decision.B,
        "linear=tie": linear is Decision.TIE
        and linear.members == Decision.A.members | Decision.B.members,
        "log_odds=A": log_odds is Decision.A,
        "naive=0.4 exact": naive.price == 0.4,
        "partial=1/3": abs(partial - 1.0 / 3.0) <= 5e-16,
        "kelly=0.5 exact (tie)": kelly_price == 0.5
        and decision_from_offset(kelly_price - 0.5) is Decision.TIE,
        "taxed sign=A": asym_price > 0.5,
    }
    failed = [name for name, ok in checks.items() if not ok]
    _verdict(
        2,
        not failed,
        f"beliefs (0.8,0.4,0.4,0.4): naive price {naive.price!r} with marginal "
        f"stake {partial!r} (|s-1/3| = {abs(partial - 1.0 / 3.0):.1e}), kelly "
        f"price {kelly_price!r}, asymptotic taxed price {asym_price:.6f} > 0.5"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_03_commuting_diagram_sweep():
    rng = np.random.default_rng(300)
    profiles = 100
    checks = 0
    disagreements = []
    for _ in range(profiles):
        n = int(rng.integers(2, 10))
        q = CompetenceProfile(tuple(float(x) for x in rng.uniform(0.55, 0.95, n)))
        for bits in range(2**n):
            y = SignalProfile(tuple("A" if bits >> i & 1 else "B" for i in range(n)))
            for report in check_all_schemes(q, y, None):
                checks += 1
                if not report.agree:
                    disagreements.append((q.q, y.y, report.scheme.value))
    _verdict(
        3,
        not disagreements,
        f"{checks} election/market comparisons across {profiles} profiles "
        f"(n in 2..9, every signal profile, all three schemes): "
        f"{checks - len(disagreements)} agree"
        + (f"; first disagreement {disagreements[0]}" if disagreements else ""),
    )


def test_criterion_04_naive_uniqueness_and_quantile():
    rng = np.random.default_rng(400)
    profiles = 200
    bad = []
    for case in range(profiles):
        n = int(rng.integers(2, 9))
        b = BeliefProfile(tuple(float(x) for x in rng.uniform(0.05, 0.95, n)))
        price = naive_equilibrium(b).price
        intervals = grid_equilibrium_search(b, MarketKind.NAIVE)
        unique = len(intervals) == 1
        contained = any(lo <= price <= hi for lo, hi in intervals)
        strictly_above = sum(1 for x in b.b if x > price)
        at_or_above = sum(1 for x in b.b if x >= price)
        quantile = (
            strictly_above <= n * price + 1e-9 and n * price <= at_or_above + 1e-9
        )
        if not (unique and contained and quantile):
            bad.append((case, b.b, price, intervals))
    _verdict(
        4,
        not bad,
        f"{profiles} random belief profiles (n <= 8): grid oracle returned one "
        f"interval containing the solver price every time, and the quantile "
        f"sandwich #{{b>p}} <= n*p <= #{{b>=p}} held every time"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_criterion_05_kelly_closed_form():
    rng = np.random.default_rng(500)
    profiles = 1000
    worst_mean_gap = 0.0
    worst_residual = 0.0
    for _ in range(profiles):
        n = int(rng.integers(2, 11))
        b = BeliefProfile(tuple(float(x) for x in rng.uniform(0.01, 0.99, n)))
        result = kelly_equilibrium(b)
        worst_mean_gap = max(worst_mean_gap, abs(result.price - math.fsum(b.b) / n))
        worst_residual = max(
            worst_residual,
            abs(clearing_price(result.stakes) - result.price),
            abs(result.diagnostics.residual),
        )
    ok = worst_mean_gap <= 1e-12 and worst_residual <= 1e-12
    _verdict(
        5,
        ok,
        f"{profiles} random profiles: max |price - mean(b)| = {worst_mean_gap:.2e}"
        f" and max clearing residual = {worst_residual:.2e} (both <= 1e-12)",
    )


def test_criterion_06_taxed_convergence():
    rng = np.random.default_rng(600)
    profiles = 50
    ks = (10.0, 100.0, 1000.0)

    # Small-k limit: the tax vanishes and the solver must reproduce Kelly.
    worst_kelly_gap = 0.0
    # Large-k clause as stated: |finite - asymptotic| monotone in k, <= 1e-2.
    monotone_failures = 0
    final_gap_failures = 0
    worst_final_gap = 0.0
    sign_agreements = 0
    for _ in range(profiles):
        n = int(rng.integers(2, 7))
        b = BeliefProfile(tuple(float(x) for x in rng.uniform(0.05, 0.95, n)))
        asym = taxed_equilibrium_asymptotic(b)
        gaps = [abs(taxed_equilibrium_finite(b, k).price - asym) for k in ks]
        if not all(later <= earlier for earlier, later in zip(gaps, gaps[1:])):
            monotone_failures += 1
        if gaps[-1] > 1e-2:
            final_gap_failures += 1
            worst_final_gap = max(worst_final_gap, gaps[-1])
        finite_top = taxed_equilibrium_finite(b, ks[-1]).price
        if (finite_top - 0.5) * (asym - 0.5) > 0 or abs(finite_top - asym) <= 1e-9:
            sign_agreements += 1
        worst_kelly_gap = max(
            worst_kelly_gap,
            abs(taxed_equilibrium_finite(b, 1e-4).price - kelly_equilibrium(b).price),
        )
    clause_small_k = worst_kelly_gap <= 1e-3

    worst_rel = 0.0
    for belief in (0.6, 0.7, 0.8, 0.9):
        response = taxed_best_response(belief, 0.5, 20.0)
        target = math.log(belief / (1.0 - belief)) / 20.0
        worst_rel = max(worst_rel, abs(response.fraction - target) / target)
    clause_fixed_price = worst_rel <= 0.10

    clause_large_k = monotone_failures == 0 and final_gap_failures == 0
    ok = clause_small_k and clause_fixed_price and clause_large_k
    _verdict(
        6,
        ok,
        f"k=1e-4 vs kelly max gap {worst_kelly_gap:.2e} (<= 1e-3: "
        f"{clause_small_k}); strategies at p=0.5, k=20 max relative error "
        f"{worst_rel:.3f} (<= 0.10: {clause_fixed_price}); |finite - "
        f"asymptotic| over k in {{10, 100, 1000}} monotone nonincreasing on "
        f"{profiles - monotone_failures}/{profiles} profiles and <= 1e-2 at "
        f"k=1000 on {profiles - final_gap_failures}/{profiles} (worst final "
        f"gap {worst_final_gap:.3f}) — the finite solver's k-limit balances "
        f"security quantities, not the stake log-odds the closed form "
        f"balances, so the gap plateaus at a profile-dependent constant; the "
        f"two prices still fall on the same side of 0.5 on "
        f"{sign_agreements}/{profiles} profiles",
    )


def test_criterion_07_optimal_weights():
    rng = np.random.default_rng(700)
    profiles = 50
    worst_margin = math.inf
    strict_improvements = 0
    failures = []
    for case in range(profiles):
        n = int(rng.integers(2, 9))
        q = CompetenceProfile(tuple(float(x) for x in rng.uniform(0.55, 0.95, n)))
        try:
            report = verify_optimal_weights(q, perturbations=20, seed=700 + case)
        except AssertionError as exc:
            failures.append((case, q.q, str(exc)))
            continue
        rivals = (report.egalitarian, report.linear, *report.random)
        worst_margin = min(worst_margin, report.log_odds - max(rivals))
        if report.log_odds > report.egalitarian + 1e-9:
            strict_improvements += 1
        if report.log_odds + 1e-12 < max(rivals):
            failures.append((case, q.q, "rival exceeded log-odds accuracy"))
    ok = not failures and worst_margin >= -1e-12 and strict_improvements >= 1
    _verdict(
        7,
        ok,
        f"{profiles} random competence profiles (n <= 8), 20 random rival "
        f"weight vectors each: log-odds accuracy >= every rival (worst margin "
        f"{worst_margin:.2e}); strict improvement over egalitarian on "
        f"{strict_improvements} profiles"
        + (f"; failures {failures[:2]}" if failures else ""),
    )


def test_criterion_08_accuracy_oracles():
    homogeneous = exact_accuracy(
        majority_aggregator("egalitarian"), CompetenceProfile((0.6, 0.6, 0.6))
    )
    closed_form_ok = abs(homogeneous.value - 0.648) <= 1e-12

    q = CompetenceProfile(EXAMPLE_2_Q)
    trials = 1_000_000
    z_scores = {}
    reruns_identical = True
    for scheme in ("egalitarian", "linear", "log_odds"):
        aggregator = majority_aggregator(scheme)
        exact = exact_accuracy(aggregator, q)
        mc = monte_carlo_accuracy(aggregator, q, trials=trials, seed=800)
        z_scores[scheme] = abs(mc.value - exact.value) / mc.std_error
        rerun = monte_carlo_accuracy(aggregator, q, trials=trials, seed=800)
        reruns_identical &= (
            rerun.value == mc.value and rerun.std_error == mc.std_error
        )
    mc_ok = all(z <= 4.0 for z in z_scores.values())
    ok = closed_form_ok and mc_ok and reruns_identical
    _verdict(
        8,
        ok,
        f"exact simple-majority accuracy for three q=0.6 agents = "
        f"{homogeneous.value!r} (0.648 ± 1e-12: {closed_form_ok}); 10^6-trial "
        f"Monte Carlo z-scores vs exact "
        f"{ {k: round(v, 2) for k, v in z_scores.items()} } (all <= 4); "
        f"seeded reruns identical: {reruns_identical}",
    )


def test_criterion_09_full_investment_equivalence():
    rng = np.random.default_rng(900)
    pairs = 1000
    worst = 0.0
    for _ in range(pairs):
        b = float(rng.uniform(0.01, 0.99))
        p = float(rng.uniform(0.01, 0.99))
        u_full, u_single = full_investment_equivalence(b, p)
        worst = max(worst, abs(u_full - u_single))
    _verdict(
        9,
        worst <= 1e-12,
        f"{pairs} random (b, p) pairs: max |full-investment utility - "
        f"single-security utility| = {worst:.2e} (<= 1e-12)",
    )


def test_criterion_10_first_order_condition():
    rng = np.random.default_rng(1000)
    triples = 1000
    step = 1e-7
    worst_fd = 0.0
    worst_foc = 0.0
    drawn = 0
    while drawn < triples:
        b = float(rng.uniform(0.1, 0.9))
        p = float(rng.uniform(0.1, 0.9))
        if abs(b - p) < 1e-3:
            continue  # no-trade boundary: the optimum sits at s = 0
        drawn += 1
        k = float(10.0 ** rng.uniform(-1.0, 2.0))
        response = taxed_best_response(b, p, k)
        # Express the B side in mirrored coordinates so one utility signature
        # covers both: holding B against price p is holding A against 1 - p.
        bb, pp = (b, p) if response.side == "A" else (1.0 - b, 1.0 - p)
        s = response.fraction
        assert step < s < 1.0 - step
        derivative = (
            taxed_utility(pp, bb, s + step, k) - taxed_utility(pp, bb, s - step, k)
        ) / (2.0 * step)
        worst_fd = max(worst_fd, abs(derivative))
        worst_foc = max(worst_foc, abs(taxed_foc_residual(s, bb, pp, k)))
    _verdict(
        10,
        worst_fd <= 1e-6 and worst_foc <= 1e-6,
        f"{triples} random (b, p, k) triples with k in [0.1, 100]: max "
        f"|central-difference utility derivative| at the returned optimum = "
        f"{worst_fd:.2e} and max analytic first-order residual = "
        f"{worst_foc:.2e} (both <= 1e-6)",
    )
