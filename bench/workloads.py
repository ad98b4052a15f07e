"""The benchmark's workloads: inputs made from the seed, one round of library calls, checks.

Each workload has three steps:

* ``setup(api, seed, root)`` loads configs and builds models (for ``simulate``
  it also solves the policies it simulates) and returns the state a round
  needs;
* ``run(api, state, index)`` makes one round of library calls, the timed
  part, and returns their raw results;
* ``check(state, results)`` compares every result with the independent
  computations in ``oracle`` and returns one ``Op`` per operation.

``api`` holds the library entry points the benchmark calls, either bare or
wrapped in tracing spans (see ``run.Api``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import oracle

# A check that fails every time on seed-independent inputs because of a
# known program fault: (workload, operation, check) -> the fault.
KNOWN_FAULTS = {
    ("budget-grid", "map f=0.30", "duality"): (
        "solver._structured_improvement pins every state whose estimate is right "
        "to idle, so the zero-price SPI policy is not the unrestricted optimum"
    ),
}


@dataclass
class Op:
    """One checked operation: its name, the checks it failed, its reference output."""

    name: str
    record: dict
    failures: dict = field(default_factory=dict)

    def fail(self, check: str, message: str):
        self.failures[check] = message


# -- budget-grid ------------------------------------------------------------

BUDGETS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
F_TOL = 1e-6
RATE_TOL = 1e-9
DUALITY_TOL = 1e-6
ORDER_TOL = 1e-9


class BudgetGrid:
    """solve_cmdp over six budgets on the MAP and ZOH models of the paper config."""

    name = "budget-grid"

    def setup(self, api, seed, root):
        cfg = api.load(root / "configs" / "three_state.json")
        models = {
            "map": api.build(cfg, timing="delayed"),
            "zoh": api.build(cfg.with_overrides(theta_max=1, estimator="zoh"), timing="delayed"),
        }
        jobs = [(label, f) for label in models for f in BUDGETS]
        order = np.random.default_rng(seed).permutation(len(jobs))
        return {"models": models, "jobs": [jobs[i] for i in order]}

    def run(self, api, state, index):
        out = []
        for label, f in state["jobs"]:
            solution = api.solve_cmdp(state["models"][label], f)
            out.append((label, f, solution, api.clock.last_s))
        return out

    def check(self, state, results):
        kernels = {label: oracle.Kernels(m) for label, m in state["models"].items()}
        ops, solved = [], {}
        for label, f, sol, seconds in results:
            op = Op(
                f"{label} f={f:.2f}",
                {"kind": sol.kind, "lam_star": sol.lam_star, "J": sol.J, "F": sol.F, "seconds": seconds},
            )
            solved[label, f] = (op, sol)
            ops.append(op)
            k = kernels[label]
            if sol.F > f + F_TOL or (sol.is_mixture and abs(sol.F - f) > F_TOL):
                op.fail("budget", f"F = {sol.F:.9f} against budget {f}")
            f_own, j_own = oracle.rates(k, sol.policy)
            if abs(f_own - sol.F) > RATE_TOL or abs(j_own - sol.J) > RATE_TOL:
                op.fail("rates", f"own (F, J) = ({f_own:.12f}, {j_own:.12f}), solver ({sol.F:.12f}, {sol.J:.12f})")
            low, high = oracle.optimal_gain(k, sol.lam_star)
            dual = 0.5 * (low + high) - sol.lam_star * f
            op.record["dual_bound"] = dual
            if abs(sol.J - dual) > DUALITY_TOL:
                op.fail("duality", f"J = {sol.J:.6f}, g(lam*) - lam*.f = {dual:.6f}")
        for label in state["models"]:
            for f_lo, f_hi in zip(BUDGETS, BUDGETS[1:]):
                (_, lo), (op, hi) = solved[label, f_lo], solved[label, f_hi]
                if hi.J > lo.J + ORDER_TOL:
                    op.fail("monotone", f"J rises from {lo.J:.9f} at f={f_lo} to {hi.J:.9f}")
        for f in BUDGETS:
            (op, sol_map), (_, sol_zoh) = solved["map", f], solved["zoh", f]
            if sol_map.J > sol_zoh.J + ORDER_TOL:
                op.fail("dominance", f"J_MAP = {sol_map.J:.6f} > J_ZOH = {sol_zoh.J:.6f}")
        return ops

    def info(self, rounds):
        times = [s for results in rounds for label, _, _, s in results if label == "map"]
        return {"cmdp_solve_s (MAP, median)": float(np.median(times))}


# -- price-sweep-large ------------------------------------------------------

SWEEP_N = 5
SWEEP_TRUNCATION = 30
SWEEP_LAMBDAS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
CHAIN_RECIPE_SEED = 0
GAIN_TOL = 1e-8
VI_TOL = 1e-6


def random_chain() -> np.ndarray:
    """The sweep's source chain: a random irreducible 5-state chain from a fixed recipe seed.

    Rows are Dirichlet(0.8) draws plus 2 on the diagonal, renormalised.  The
    run's seed does not change it: relabelling the states of this same chain
    already changes which route ``policy_evaluate`` takes (0 or 1 fallback,
    4 033 or 5 731 sweeps), so a seeded chain would measure the draw.
    """
    rng = np.random.default_rng(CHAIN_RECIPE_SEED)
    rows = rng.dirichlet(np.full(SWEEP_N, 0.8), size=SWEEP_N) + 2.0 * np.eye(SWEEP_N)
    return rows / rows.sum(axis=1, keepdims=True)


class PriceSweepLarge:
    """sweep_lambda over six prices on a 5-state chain with S = 24 025, immediate timing."""

    name = "price-sweep-large"

    def setup(self, api, seed, root):
        delta = SWEEP_TRUNCATION
        doc = {
            "alphabet_size": SWEEP_N,
            "transition": random_chain().tolist(),
            "p_s": 0.7,
            "distortion": "hamming",
            # rho(delta) = 1.2 e^{0.3 delta} + 0.3
            "age_function": {"kind": "exponential_affine", "a": 1.2, "b": 0.3, "c": 0.3},
            "theta_max": delta,
            "delta_max": delta,
            "f_max": 0.1,
            "lambda_max": 1000.0,
            "tolerances": {"eval": 1e-10, "search": 1e-3, "mixture": 1e-6},
            "seed": CHAIN_RECIPE_SEED,
            "estimator": "map",
        }
        cfg = api.from_dict(doc)
        return {"model": api.build(cfg, timing="immediate")}

    def run(self, api, state, index):
        return api.sweep_lambda(state["model"], SWEEP_LAMBDAS)

    def check(self, state, outcomes):
        k = oracle.Kernels(state["model"])
        ops = []
        for o in outcomes:
            op = Op(f"lam={o.lam:g}", {"gain": o.gain, "J": o.J, "F": o.F})
            ops.append(op)
            if "error" in o.diagnostics:
                op.fail("error", o.diagnostics["error"])
                continue
            gain = oracle.pinned_gain(k, o.policy, o.lam)
            if abs(gain - o.gain) > GAIN_TOL:
                op.fail("gain", f"own pinned solve {gain:.12f}, solver {o.gain:.12f}")
            f_own, j_own = oracle.rates(k, o.policy)
            if abs(f_own - o.F) > RATE_TOL or abs(j_own - o.J) > RATE_TOL:
                op.fail("rates", f"own (F, J) = ({f_own:.12f}, {j_own:.12f}), solver ({o.F:.12f}, {o.J:.12f})")
            low, high = oracle.optimal_gain(k, o.lam)
            if not (low - VI_TOL <= o.gain <= high + VI_TOL):
                op.fail("optimal", f"gain {o.gain:.9f} outside value-iteration bracket [{low:.9f}, {high:.9f}]")
        for i in range(1, len(outcomes)):
            prev, cur = outcomes[i - 1], outcomes[i]
            if cur.F > prev.F + ORDER_TOL:
                ops[i].fail("monotone", f"F rises from {prev.F:.9f} to {cur.F:.9f}")
            if i + 1 < len(outcomes):
                nxt = outcomes[i + 1]
                left = (cur.L - prev.L) / (cur.lam - prev.lam)
                right = (nxt.L - cur.L) / (nxt.lam - cur.lam)
                if right > left + ORDER_TOL * max(1.0, abs(cur.L)):
                    ops[i].fail("concave", f"chord slope rises from {left:.9f} to {right:.9f}")
        return ops

    def info(self, rounds):
        return {}


# -- simulate ---------------------------------------------------------------

SIM_TIMINGS = ("immediate", "delayed")
SIM_BUDGET = 0.1
SIM_CALLS_PER_TIMING = 2
SIM_HORIZON = 250_000
SIM_SE = 6.0


class Simulate:
    """simulate the f = 0.1 mixtures of the paper config under both timings, 10^6 slots a round."""

    name = "simulate"

    def setup(self, api, seed, root):
        cfg = api.load(root / "configs" / "three_state.json")
        cases = {}
        for timing in SIM_TIMINGS:
            model = api.build(cfg, timing=timing)
            cases[timing] = (model, api.solve_cmdp(model, SIM_BUDGET).policy)
        return {"cases": cases, "seed": seed}

    def run(self, api, state, index):
        seeds = iter(np.random.SeedSequence([state["seed"], index]).generate_state(
            len(SIM_TIMINGS) * SIM_CALLS_PER_TIMING
        ))
        out = []
        for timing, (model, policy) in state["cases"].items():
            for _ in range(SIM_CALLS_PER_TIMING):
                sim_seed = int(next(seeds))
                report = api.simulate(model, policy, SIM_HORIZON, sim_seed)
                out.append((timing, report, api.clock.last_s))
        return out

    def check(self, state, results):
        exact = {
            timing: oracle.rates(oracle.Kernels(model), policy)
            for timing, (model, policy) in state["cases"].items()
        }
        ops = []
        for timing, r, seconds in results:
            f_exact, j_exact = exact[timing]
            op = Op(
                f"{timing} seed={r.seed}",
                {"F": r.empirical_F, "J": r.empirical_J_model, "F_exact": f_exact, "J_exact": j_exact,
                 "slots": r.horizon, "seconds": seconds},
            )
            ops.append(op)
            if abs(r.empirical_F - f_exact) > SIM_SE * r.se_F:
                op.fail("F", f"{r.empirical_F:.6f} vs exact {f_exact:.6f} (se {r.se_F:.2e})")
            if abs(r.empirical_J_model - j_exact) > SIM_SE * r.se_J_model:
                op.fail("J", f"{r.empirical_J_model:.6f} vs exact {j_exact:.6f} (se {r.se_J_model:.2e})")
            ps = state["cases"][timing][0].p_s
            se_ch = np.sqrt(ps * (1.0 - ps) / max(r.transmissions, 1))
            if abs(r.channel_success_rate - ps) > SIM_SE * se_ch:
                op.fail("channel", f"success rate {r.channel_success_rate:.6f} vs p_s {ps}")
        return ops

    def info(self, rounds):
        slots = sum(r.horizon for results in rounds for _, r, _ in results)
        seconds = sum(s for results in rounds for _, _, s in results)
        return {"sim_slots_per_s": slots / seconds}


WORKLOADS = {w.name: w for w in (BudgetGrid(), PriceSweepLarge(), Simulate())}
