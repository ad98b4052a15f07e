#!/usr/bin/env python3
"""Digest of the solver's results, to show that a change did not move them.

Writes JSON with, for the MAP and ZOH models of a config under both slot
timings, the sha256 of the ``spi_solve`` action table, the route of its
evaluation (``GainBias.method``) and its gain, J and F at every price in 0,
0.5, ..., 20, the same five per price from one warm ``sweep_lambda`` over
those prices, and the ``solve_cmdp`` result (kind, lambda*, p, J, F, or the
error raised) at every budget in 0.05, ..., 0.30.
Each budget also carries the sha256 of the solution's action tables (the
two pieces of a mixture) and, from ``stationary_metrics`` of its policy, the
sha256 of the reachable set with F and J, the law's mean AoI and mean
AoCE (mu @ theta_of, mu @ delta_of) and the sha256 of its support (the
states with mu > 0).  One point of the class route is added: never-transmit
at price 1000 on ``delta_max = 2`` under the delayed timing, with the route
taken, gain, J and F; beside it the stationary F, J and reachable-set
sha256 of never-transmit on the ZOH model under the delayed timing, whose
chain has several closed classes.  Each model also carries a
kernel section: the sha256 of its ``idle_targets``, ``succ_targets``,
``idle_cost``, ``tx_cost`` and ``idle_pinned`` arrays and of K(q) at q = 0
and q = 1 (``solver._kernel_values``), so a change to how the model is built
shows even where no solve moves.  A simulate section holds every
``SimReport`` field of ``simulate`` on the MAP model under both timings, for
the f = 0.1 mixture and the ``spi_solve`` policy at price 100, seeds 7 and
20240901, 200 017 slots.  A truncation section holds ``kl_truncation`` of
every theta in 1, 2, 5, 20 and delta in 2, 3, 5, 20 against the config's own
truncation, inf on a support mismatch, or the error raised.

    python scripts/results_digest.py --out new.json
    PYTHONPATH=/path/to/other/checkout/src python scripts/results_digest.py --out old.json
    python scripts/results_digest.py --compare old.json new.json

``--compare`` lists the action tables and fields that differ and the largest
|delta| of the numbers; it exits 1 on any table, kind, route or error
difference or on any |delta| above 1e-10 (on any difference at all in the
simulate section, NaN equal to NaN; inf equals inf), and 0 otherwise.
"""

import argparse
import hashlib
import json
import math
import sys

PRICES = [0.5 * i for i in range(41)]
BUDGETS = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
SIM_SEEDS = (7, 20240901)
SIM_HORIZON = 200_017
TRUNCATION_THETAS = (1, 2, 5, 20)
TRUNCATION_DELTAS = (2, 3, 5, 20)
TOLERANCE = 1e-10


def _models(config):
    zoh = config.with_overrides(theta_max=1, estimator="zoh")
    for name, cfg in (("map", config), ("zoh", zoh)):
        for timing in ("immediate", "delayed"):
            yield f"{name}/{timing}", cfg.build_model(timing=timing)


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def digest(config_path: str) -> dict:
    # --compare needs none of these
    import numpy as np
    from remest import (
        RemestError,
        SystemConfig,
        kl_truncation,
        never_transmit_policy,
        policy_evaluate,
        simulate,
        solve_cmdp,
        spi_solve,
        stationary_metrics,
        sweep_lambda,
    )
    from remest.solver import _kernel_values

    config = SystemConfig.from_file(config_path)
    points, sweep, budgets, kernel, sims = {}, {}, {}, {}, {}
    for label, model in _models(config):
        kernel[label] = {
            f"{name}_sha256": _sha256(getattr(model, name))
            for name in ("idle_targets", "succ_targets", "idle_cost", "tx_cost", "idle_pinned")
        }
        for q in (0, 1):
            tx_prob = np.full(model.num_mdp_states, float(q))
            kernel[label][f"K(q={q})_sha256"] = _sha256(_kernel_values(model, tx_prob))
        for lam in PRICES:
            policy, gb, _ = spi_solve(model, lam)
            points[f"{label}/lam={lam}"] = {
                "actions_sha256": _sha256(policy.actions),
                "method": gb.method,
                "gain": gb.gain,
                "J": gb.j_component,
                "F": gb.f_component,
            }
        for out in sweep_lambda(model, PRICES):
            sweep[f"{label}/lam={out.lam}"] = (
                {"error": out.diagnostics["error"]}
                if out.policy is None
                else {
                    "actions_sha256": _sha256(out.policy.actions),
                    "method": out.gainbias.method,
                    "gain": out.gain,
                    "J": out.J,
                    "F": out.F,
                }
            )
        for f_max in BUDGETS:
            key = f"{label}/f={f_max}"
            try:
                sol = solve_cmdp(model, f_max, config.lambda_max, config.tolerances.mixture)
            except RemestError as exc:
                budgets[key] = {"error": type(exc).__name__}
                continue
            pieces = (
                (sol.policy.policy_minus, sol.policy.policy_plus)
                if sol.is_mixture
                else (sol.policy, sol.policy)
            )
            met = stationary_metrics(model, sol.policy)
            budgets[key] = {
                "kind": sol.kind,
                "lam_star": sol.lam_star,
                "p": sol.policy.p if sol.is_mixture else 1.0,
                "J": sol.J,
                "F": sol.F,
                "minus_sha256": _sha256(pieces[0].actions),
                "plus_sha256": _sha256(pieces[1].actions),
                "reachable_sha256": _sha256(met.reachable),
                "stationary_J": met.J,
                "stationary_F": met.F,
                "mean_aoi": float(met.mu @ model.theta_of),
                "mean_aoce": float(met.mu @ model.delta_of),
                "support_sha256": _sha256(np.flatnonzero(met.mu > 0)),
            }
            if f_max == 0.10 and label.startswith("map/"):
                policies = {"f=0.1": sol.policy, "lam=100": spi_solve(model, 100.0)[0]}
                for name, policy in policies.items():
                    for seed in SIM_SEEDS:
                        report = simulate(model, policy, SIM_HORIZON, seed)
                        sims[f"{label}/{name}/seed={seed}"] = report.as_dict()
    model = config.with_overrides(delta_max=2).build_model(timing="delayed")
    gb = policy_evaluate(model, never_transmit_policy(model), 1000.0)
    route = {
        "map/delayed/delta_max=2/never/lam=1000": {
            "method": gb.method,
            "gain": gb.gain,
            "J": gb.j_component,
            "F": gb.f_component,
        }
    }
    model = config.with_overrides(theta_max=1, estimator="zoh").build_model(timing="delayed")
    met = stationary_metrics(model, never_transmit_policy(model))
    route["zoh/delayed/never/stationary"] = {
        "stationary_J": met.J,
        "stationary_F": met.F,
        "reachable_sha256": _sha256(met.reachable),
    }
    truncation = {}
    for theta in TRUNCATION_THETAS:
        for delta in TRUNCATION_DELTAS:
            key = f"theta={theta}/delta={delta}"
            try:
                kl = kl_truncation(
                    config, config.theta_max, config.delta_max, theta, delta,
                    infinite_on_mismatch=True,
                )
            except RemestError as exc:
                truncation[key] = {"error": type(exc).__name__}
                continue
            truncation[key] = {"kl": kl}
    return {
        "points": points,
        "sweep": sweep,
        "budgets": budgets,
        "class_route": route,
        "kernel": kernel,
        "simulate": sims,
        "truncation": truncation,
    }


def compare(old: dict, new: dict) -> int:
    """Print the differences of two digests; return the exit code."""
    failed = False
    worst, worst_at = 0.0, ""
    sections = ("points", "sweep", "budgets", "class_route", "kernel", "simulate", "truncation")
    for section in sections:
        a, b = old.get(section, {}), new.get(section, {})
        exact = section == "simulate"
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                print(f"only in one digest: {section} {key}")
                failed = True
                continue
            for field in sorted(set(a[key]) | set(b[key])):
                va, vb = a[key].get(field), b[key].get(field)
                numbers = isinstance(va, float) and isinstance(vb, float)
                if exact and numbers and math.isnan(va) and math.isnan(vb):
                    continue
                if numbers and not exact and math.isnan(va) == math.isnan(vb):
                    gap = 0.0 if math.isnan(va) or va == vb else abs(va - vb)
                    if gap > worst:
                        worst, worst_at = gap, f"{key} {field}"
                elif va != vb:
                    print(f"differs: {key} {field}: {va} -> {vb}")
                    failed = True
    print(f"largest |delta|: {worst:.3g} ({worst_at or 'none'})")
    if worst > TOLERANCE:
        failed = True
    print("results differ" if failed else "results agree")
    return 1 if failed else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", default="configs/three_state.json")
    ap.add_argument("--out", default="-", help="output file ('-' for stdout)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digests")
    args = ap.parse_args()
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        sys.exit(compare(*docs))
    payload = json.dumps(digest(args.config), indent=1, sort_keys=True)
    if args.out == "-":
        print(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
