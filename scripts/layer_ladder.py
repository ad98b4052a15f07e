#!/usr/bin/env python3
"""Per-call medians of the solver's layers on a fixed ladder of model sizes.

Prints JSON with, for each rung, the state count, the number |T| of reset
states and the number G of success rows (the level solve's Woodbury update
has G + 1 columns; G is null on a checkout whose layout has no success
groups, where the update has |T| + 1), and the median seconds per call of
``policy_evaluate``, of ``stationary_metrics`` for a deterministic policy
and for a mixture, of a cold ``spi_solve``, of ``build_mixture`` and of
``simulate`` for SIM_SLOTS slots of the mixture, with the slots per second
that gives.  ``simulate_low_rate_slots_per_s`` is the same for
``spi_solve``'s policy at price LOW_RATE_PRICE, which transmits in a few
per cent of slots: walks from different states meet slowly under it, the
simulator's worst case (DECISIONS.md section 11).  ``mixture_evaluations``
counts the evaluations of the randomized policy one ``build_mixture``
makes (calls of the evaluator it uses: ``_evaluate``, or
``stationary_metrics`` on a checkout without it).
``cmdp_grid_cold_s`` is the median seconds of ``solve_cmdp`` at the six
budgets 0.05, ..., 0.30 in turn on a model built for each repeat (the build
and its level layout are not timed), and ``cmdp_grid_spi_solves`` and
``cmdp_grid_evaluations`` the ``spi_solve`` and ``policy_evaluate`` calls of
one such grid: what a one-shot multi-budget command pays.
The rungs are

* S = 378: the ZOH model of ``configs/three_state.json``, delayed timing;
* S = 3 969: the MAP model of that config, delayed timing;
* S = 24 025: the 5-state chain of the benchmark's ``price-sweep-large``
  workload, truncation 30, immediate timing.

The policy is ``spi_solve``'s at price 5, the mixture weighs it against
``spi_solve``'s policy at price 2 with p = 1/2, and ``build_mixture``
calibrates that pair to the budget midway between their frequencies.  Each
layer is called until ``--seconds`` have passed (at least three calls), one
warm-up call first.

Every timed call goes through the benchmark's host-speed clock
(``bench/hostspeed.Clock``), and each layer's batch of calls is corrected
by the reference passes pooled over that batch (``Clock.pooled``): the
seconds above are corrected medians, the time a call would take on a host
where one reference pass takes ``hostspeed.REFERENCE_S``.  The raw medians
are printed under ``"raw"`` for information.  As ``bench/run.py`` does, the
process pins itself to one core and one BLAS/OpenMP thread before numpy
loads.

    python scripts/layer_ladder.py
    PYTHONPATH=/path/to/other/checkout/src python scripts/layer_ladder.py
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path


def _pin_to_one_core():
    """One core, one BLAS/OpenMP thread: the host-speed correction reads the
    speed of the core the process runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


if __name__ == "__main__":
    _pin_to_one_core()  # before numpy loads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))  # hostspeed.py
import numpy as np  # noqa: E402
from hostspeed import Clock  # noqa: E402

PRICE, MIX_PRICE = 5.0, 2.0
LOW_RATE_PRICE = 100.0
GRID_BUDGETS = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
SIM_SLOTS = 10**5


def _ladder(config_path: str):
    from remest import SystemConfig

    config = SystemConfig.from_file(config_path)
    zoh = config.with_overrides(theta_max=1, estimator="zoh")
    yield "zoh/delayed", lambda: zoh.build_model(timing="delayed")
    yield "map/delayed", lambda: config.build_model(timing="delayed")
    # The price-sweep-large chain: Dirichlet(0.8) rows plus 2 on the
    # diagonal, renormalised, from recipe seed 0 (bench/workloads.py).
    rng = np.random.default_rng(0)
    rows = rng.dirichlet(np.full(5, 0.8), size=5) + 2.0 * np.eye(5)
    doc = {
        "alphabet_size": 5,
        "transition": (rows / rows.sum(axis=1, keepdims=True)).tolist(),
        "p_s": 0.7,
        "distortion": "hamming",
        "age_function": {"kind": "exponential_affine", "a": 1.2, "b": 0.3, "c": 0.3},
        "theta_max": 30,
        "delta_max": 30,
        "f_max": 0.1,
        "lambda_max": 1000.0,
        "tolerances": {"eval": 1e-10, "search": 1e-3, "mixture": 1e-6},
        "seed": 0,
        "estimator": "map",
    }
    sweep = SystemConfig.from_dict(doc)
    yield "sweep-chain/immediate", lambda: sweep.build_model(timing="immediate")


def _median_seconds(call, seconds: float) -> tuple[float, float]:
    """(corrected, raw) median seconds of ``call()`` over one batch."""
    call()
    clock = Clock()
    start = time.perf_counter()
    while len(clock.calls) < 3 or time.perf_counter() - start < seconds:
        clock.time(call)
    return _medians(clock.pooled())


def _medians(pairs) -> tuple[float, float]:
    """(corrected, raw) medians of ``Clock.pooled`` (raw, corrected) pairs."""
    return statistics.median(c for _, c in pairs), statistics.median(r for r, _ in pairs)


def _grid(model):
    from remest import solve_cmdp

    for f_max in GRID_BUDGETS:
        solve_cmdp(model, f_max)


def _cold_grid_seconds(build, seconds: float) -> tuple[float, float]:
    """(corrected, raw) median seconds of ``_grid`` on a model made by
    ``build()`` for each repeat; the build is not timed."""
    clock = Clock()

    def grid():
        model = build()
        model.level_layout  # made on the first factorization otherwise
        clock.time(_grid, model)

    grid()
    first = len(clock.calls)
    start = time.perf_counter()
    while len(clock.calls) - first < 3 or time.perf_counter() - start < seconds:
        grid()
    return _medians(clock.pooled(first))


def _calls(module, name: str, call) -> int:
    """Calls one ``call()`` makes of ``module``'s global ``name``."""
    fn, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    setattr(module, name, counted)
    try:
        call()
    finally:
        setattr(module, name, fn)
    return len(calls)


def _evaluations(calibrate) -> int:
    """Evaluations of the randomized policy made by one ``calibrate()``."""
    import remest.constrained as constrained

    name = "_evaluate" if hasattr(constrained, "_evaluate") else "stationary_metrics"
    return _calls(constrained, name, calibrate)


def ladder(config_path: str, seconds: float) -> dict:
    import remest.constrained as constrained
    import remest.solver as solver
    from remest import (
        MixturePolicy,
        build_mixture,
        policy_evaluate,
        simulate,
        spi_solve,
        stationary_metrics,
    )

    out = {}
    for label, build in _ladder(config_path):
        model = build()
        policy, gb = spi_solve(model, PRICE)[:2]
        other, gb_other = spi_solve(model, MIX_PRICE)[:2]
        f_plus, f_minus = gb.f_component, gb_other.f_component
        f_mid = 0.5 * (f_minus + f_plus)

        def calibrate():
            return build_mixture(model, other, policy, f_mid, f_minus=f_minus, f_plus=f_plus)

        diff = np.flatnonzero(policy.actions != other.actions).tolist()
        mixture = MixturePolicy(p=0.5, policy_minus=other, policy_plus=policy, differing_states=diff)
        layout = model.level_layout
        weights = getattr(layout, "weights", None)
        timed = {
            "policy_evaluate_s": _median_seconds(lambda: policy_evaluate(model, policy, PRICE), seconds),
            "stationary_metrics_s": _median_seconds(lambda: stationary_metrics(model, policy), seconds),
            "stationary_metrics_mixture_s": _median_seconds(
                lambda: stationary_metrics(model, mixture), seconds
            ),
            "spi_solve_s": _median_seconds(lambda: spi_solve(model, PRICE), seconds),
            "build_mixture_s": _median_seconds(calibrate, seconds),
            "cmdp_grid_cold_s": _cold_grid_seconds(build, seconds),
            "simulate_s": _median_seconds(lambda: simulate(model, mixture, SIM_SLOTS, 1), seconds),
        }
        low_rate = spi_solve(model, LOW_RATE_PRICE)[0]
        low_s = _median_seconds(lambda: simulate(model, low_rate, SIM_SLOTS, 1), seconds)
        out[label] = {
            "states": model.num_mdp_states,
            "resets": int(layout.resets.size),
            "groups": None if weights is None else int(weights.shape[0]),
            **{name: corrected for name, (corrected, _) in timed.items()},
            "mixture_evaluations": _evaluations(calibrate),
            "cmdp_grid_spi_solves": _calls(constrained, "spi_solve", lambda: _grid(build())),
            "cmdp_grid_evaluations": _calls(solver, "policy_evaluate", lambda: _grid(build())),
            "simulate_slots_per_s": SIM_SLOTS / timed["simulate_s"][0],
            "simulate_low_rate_slots_per_s": SIM_SLOTS / low_s[0],
            "raw": {
                **{name: raw for name, (_, raw) in timed.items()},
                "simulate_low_rate_s": low_s[1],
            },
        }
    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", default="configs/three_state.json")
    ap.add_argument("--seconds", type=float, default=2.0, help="time spent per layer and rung")
    args = ap.parse_args()
    print(json.dumps(ladder(args.config, args.seconds), indent=1))
