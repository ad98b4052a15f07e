"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 7 and 12 check the paper's reported numbers.  They run on the
delayed slot timing (``timing="delayed"``: content arrives the slot after it
is sent, the error age resets with the (source, estimate) pair, every slot
is charged at its own error age), the one timing whose numbers land in the
reported windows; DECISIONS.md records the variants measured.  Criterion 7
still fails on its mixture-weight clause alone: the reported p matches the
weight of the feasible policy, not the over-transmitting one the library
reports, and nothing in the paper settles which weight it meant.
"""

import math
import time

import numpy as np

from remest import (
    bisection_solve,
    belief,
    check_submodularity,
    check_switching_structure,
    check_value_monotonicity,
    kl_truncation,
    map_estimate,
    matrix_power,
    reactive_policy,
    rvi_solve,
    simulate,
    solve_cmdp,
    spi_solve,
    stationary,
    stationary_metrics,
    steady_state_age,
    symmetric_chain,
    symmetric_power_closed_form,
    validate_chain,
)
from conftest import small_random_model

CHAIN_A_ROWS = [[0.8, 0.2], [0.3, 0.7]]
CHAIN_B_ROWS = [[0.2, 0.8], [0.7, 0.3]]


def verdict(num, ok, detail=""):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_01_estimator_table():
    t0 = time.perf_counter()
    chain_b = validate_chain(CHAIN_B_ROWS)
    age0 = steady_state_age(chain_b, 0, 20)
    age1 = steady_state_age(chain_b, 1, 20)
    mode = chain_b.stationary().argmax()
    steady0 = map_estimate(chain_b, 0, 20)
    steady1 = map_estimate(chain_b, 1, 20)
    chain_a = validate_chain(CHAIN_A_ROWS)
    curve_err = max(
        abs(belief(chain_a, 1, th).probs[1] - (0.4 + 0.6 * 0.5**th))
        for th in range(0, 13)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        age0 == 3
        and age1 == 4
        and steady0 == mode
        and steady1 == mode
        and curve_err <= 1e-12
        and elapsed < 1.0
    )
    assert verdict(
        1, ok,
        f"ages=({age0},{age1}) curve_err={curve_err:.1e} t={elapsed:.3f}s",
    )


def test_criterion_02_stationary_distribution():
    nu = stationary(validate_chain(CHAIN_A_ROWS)).probs
    err = float(np.abs(nu - np.array([0.6, 0.4])).max())
    assert verdict(2, err <= 1e-10, f"max err={err:.2e}")


def test_criterion_03_symmetric_closed_form():
    worst = 0.0
    for n_states in (2, 3, 5):
        for sigma in (0.05, 0.1, 1.0 / n_states):
            chain = symmetric_chain(n_states, sigma)
            for n in range(0, 51):
                diff = np.abs(
                    symmetric_power_closed_form(n_states, sigma, n)
                    - matrix_power(chain, n)
                ).max()
                worst = max(worst, float(diff))
    assert verdict(3, worst <= 1e-12, f"max |closed - power| = {worst:.2e}")


def test_criterion_04_switching_structure(main_model, main_sweep):
    total = 0
    for outcome in main_sweep:
        assert outcome.policy is not None, outcome.diagnostics
        total += len(check_switching_structure(outcome.policy, main_model))
    assert verdict(4, total == 0, f"{total} violations over {len(main_sweep)} prices")


def test_criterion_05_monotonicity_and_submodularity(main_model, main_sweep):
    worst_mono = 0.0
    worst_sub = 0.0
    for outcome in main_sweep:
        worst_mono = max(worst_mono, check_value_monotonicity(outcome.gainbias, main_model))
        worst_sub = max(worst_sub, check_submodularity(main_model, outcome.gainbias))
    ok = worst_mono <= 1e-8 and worst_sub <= 1e-8
    assert verdict(5, ok, f"mono={worst_mono:.2e} submod={worst_sub:.2e}")


def test_criterion_06_symmetric_collapse(sym_model, sym_sweep):
    distinct_ok = all(len(o.view.distinct()) == 1 for o in sym_sweep)
    estimates_ok = all(
        map_estimate(sym_model.chain, z, th) == z
        for z in range(3)
        for th in range(21)
    )
    ok = distinct_ok and estimates_ok
    assert verdict(6, ok, f"single-threshold={distinct_ok} estimates-pinned={estimates_ok}")


def test_criterion_07_headline_numbers(paper_model, solved_main):
    t0 = time.perf_counter()
    sol15 = solved_main(paper_model, 0.15)
    t15 = time.perf_counter() - t0
    t0 = time.perf_counter()
    sol10 = solved_main(paper_model, 0.1)
    t10 = time.perf_counter() - t0
    p10 = sol10.policy.p if sol10.is_mixture else float("nan")
    # The deterministic policy carrying the f=0.15 budget: the solution
    # itself, or the feasible piece of the mixture.  It must be the one
    # switching policy that is optimal across the price window; action
    # tables differ off the recurrent class, so compare its rates.
    carrier = sol15.policy.policy_plus if sol15.is_mixture else sol15.policy
    carrier_met = stationary_metrics(paper_model, carrier)
    segment_gap = 0.0
    for lam in (3.9, 4.3, 4.8):
        met = stationary_metrics(paper_model, spi_solve(paper_model, lam)[0])
        segment_gap = max(
            segment_gap, abs(met.F - carrier_met.F), abs(met.J - carrier_met.J)
        )
    detail = (
        f"f=0.15: kind={sol15.kind} lam*={sol15.lam_star:.3f} F={sol15.F:.4f} "
        f"carrier F={carrier_met.F:.4f} segment gap={segment_gap:.1e} ({t15:.1f}s); "
        f"f=0.10: kind={sol10.kind} lam*={sol10.lam_star:.3f} p={p10:.3f} ({t10:.1f}s)"
    )
    clauses = {
        "time": t15 < 60.0 and t10 < 60.0,
        "carrier F": abs(carrier_met.F - 0.15) <= 0.005,
        "carrier segment": segment_gap <= 1e-10,
        "lam*(0.15)": 3.77 <= sol15.lam_star <= 4.93,
        "F(0.15)": abs(sol15.F - 0.15) <= 0.005,
        "kind(0.10)": sol10.kind == "mixture",
        "lam*(0.10)": abs(sol10.lam_star - 8.3) <= 0.5,
        "p(0.10)": abs(p10 - 0.73) <= 0.05,
    }
    failed = [name for name, ok in clauses.items() if not ok]
    assert verdict(7, not failed, detail), (
        f"reported-value clauses {failed} not met under the delayed timing: "
        f"{detail}.  p is the weight of the over-transmitting policy; the "
        "reported 0.73 is near the feasible policy's weight 1-p, and the "
        "paper does not say which weight it reports; see DECISIONS.md "
        "(criterion 7)"
    )


def test_criterion_08_reactive_boundary(sym_model):
    f0 = stationary_metrics(sym_model, reactive_policy(sym_model)).F
    boundary_ok = abs(f0 - 0.25) <= 0.01
    adjacent_ok = True
    details = []
    for f_max in (0.1, 0.15, 0.2):
        sol = solve_cmdp(sym_model, f_max, 1000.0, 1e-6)
        if not sol.is_mixture:
            continue
        (thr_minus,) = sol.view_minus.distinct()
        (thr_plus,) = sol.view_plus.distinct()
        details.append(f"{f_max}:{thr_minus}->{thr_plus}")
        adjacent_ok &= thr_plus == thr_minus + 1
    ok = boundary_ok and adjacent_ok
    assert verdict(8, ok, f"reactive F={f0:.4f}; thresholds {' '.join(details)}")


def test_criterion_09_search_complexity(main_model):
    counts = set()
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        sol = solve_cmdp(main_model, 0.1, 1000.0, eps)
        counts.add(sol.trace.iterations)
    intersection_ok = len(counts) == 1 and max(counts) <= 8
    lam_bis, trace = bisection_solve(main_model, 0.1, 1000.0, 1e-3)
    expected = math.ceil(math.log2(1000.0 / 1e-3))
    bis_ok = abs(trace.iterations - expected) <= 2
    ok = intersection_ok and bis_ok
    assert verdict(
        9, ok,
        f"intersection={sorted(counts)} bisection={trace.iterations} (expect ~{expected})",
    )


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(10):
        model = small_random_model(rng)
        for lam in (1.0, 2.0, 5.0, 10.0, 20.0):
            _, gb_s, _ = spi_solve(model, lam)
            _, gb_r = rvi_solve(model, lam)
            worst = max(worst, abs(gb_s.gain - gb_r.gain))
    assert verdict(10, worst <= 1e-6, f"worst |spi - rvi| = {worst:.2e}")


def test_criterion_11_analytic_vs_empirical(main_model, main_config, solved_main):
    sol = solved_main(main_model, 0.1)
    met = stationary_metrics(main_model, sol.policy)
    rep = simulate(main_model, sol.policy, 10**6, main_config.seed)
    f_sigmas = abs(rep.empirical_F - met.F) / rep.se_F
    j_sigmas = abs(rep.empirical_J_model - met.J) / rep.se_J_model
    ok = f_sigmas <= 3.0 and j_sigmas <= 3.0
    assert verdict(11, ok, f"F within {f_sigmas:.2f} se, J within {j_sigmas:.2f} se")


def test_criterion_12_estimator_dominance(paper_model, paper_zoh_model, solved_main):
    grid = (0.05, 0.1, 0.15, 0.2, 0.3)
    rows = []
    dominance_ok = True
    for f_max in grid:
        j_map = solved_main(paper_model, f_max).J
        j_zoh = solved_main(paper_zoh_model, f_max).J
        rows.append(f"{f_max}: map={j_map:.4f} zoh={j_zoh:.4f}")
        dominance_ok &= j_map <= j_zoh + 1e-9
    # Slack-budget clause: wherever the budget exceeds the reactive rate the
    # solve must return the reactive policy's cost exactly.
    equality_ok = True
    for model in (paper_model, paper_zoh_model):
        f0_met = stationary_metrics(model, reactive_policy(model))
        for f_max in grid:
            if f_max >= f0_met.F:
                sol = solved_main(model, f_max)
                equality_ok &= abs(sol.J - f0_met.J) <= 1e-8
    ok = dominance_ok and equality_ok
    assert verdict(12, ok, "; ".join(rows)), (
        "posterior-mode receiver does not dominate hold-last-value under the "
        f"delayed timing: {'; '.join(rows)}; see DECISIONS.md (criterion 12; "
        "under the immediate timing MAP loses at f=0.3)"
    )


def test_criterion_13_truncation_trends(main_config):
    # delta = 2 and 3 lose information (KL > 0); from 5 up the KL is 0.0,
    # so the small ones are what give the trend something to check.
    kls = [kl_truncation(main_config, 20, 20, 20, d) for d in (2, 3, 5, 10, 15, 20)]
    non_increasing = all(a >= b - 1e-12 for a, b in zip(kls, kls[1:]))
    kl_zoh = kl_truncation(main_config, 20, 20, 1, 20, infinite_on_mismatch=True)
    above = kl_zoh > kls[-1]
    ok = kls[0] > 0 and non_increasing and above
    assert verdict(
        13, ok,
        f"delta-series={['%.2e' % k for k in kls]} age-1 series={kl_zoh}",
    )
