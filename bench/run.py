"""Benchmark of the remest library: one workload per run, timed end to end or traced per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload budget-grid --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` of that checkout.  A run times
the set-up several times (the median is ``setup_s``), runs whole rounds of
library calls until ``--seconds`` have passed (the median round is
``wall_s``), then checks every operation against the independent
computations in ``oracle.py``.  Every timed call is corrected for the
host's speed at that moment (``hostspeed.py``); the raw times are printed
as ``info`` lines.  With ``--trace 1`` it sets up once under tracing, runs
one round untraced and one traced, and reports the per-layer metrics and
the tracing overhead instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's reference
output (lambda*, J, F per operation, and the spans of a traced run) is
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
# Set-up is timed in two batches, one before the rounds and one after, each
# of at least SETUP_REPEATS calls and SETUP_SECONDS.  A set-up of a few
# milliseconds still gives a steady median that way, and the two batches sit
# far enough apart in time that a drift in machine speed moves only one.
SETUP_REPEATS = 1
SETUP_SECONDS = 0.5


def _pin_to_one_core():
    """Run on one core with one BLAS/OpenMP thread; call before numpy loads.

    The host-speed correction reads the speed of the core the process runs
    on, and the cores of a shared host drift independently, so the process
    must not move between them.  The library's work is single-threaded
    interpreter and sparse code, so one core loses nothing.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_library():
    """Import remest from ``src/`` of the checkout, and nowhere else."""
    src = ROOT / "src"
    if not (src / "remest" / "__init__.py").is_file():
        sys.exit(f"no remest sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import remest

    if Path(remest.__file__).resolve().parent != (src / "remest").resolve():
        sys.exit(f"imported remest from {remest.__file__}, not from {src}")


class Api:
    """The library entry points the workloads call, timed by the clock and, when traced, in spans."""

    def __init__(self, clock, tracer=None):
        import remest

        self.clock = clock

        def wrap(fn, name):
            return clock.wrap(tracer.wrap(fn, name) if tracer else fn)

        self.load = wrap(remest.SystemConfig.from_file, "config.load")
        self.from_dict = wrap(remest.SystemConfig.from_dict, "config.load")
        self.build = wrap(remest.SystemConfig.build_model, "config.build_model")
        self.solve_cmdp = wrap(remest.solve_cmdp, "constrained.solve_cmdp")
        self.sweep_lambda = wrap(remest.sweep_lambda, "evaluation.sweep_lambda")
        self.simulate = wrap(remest.simulate, "evaluation.simulate")


def _set_up(workload, api, seed):
    """One batch of timed set-ups; returns the last one's state and the batch's times.

    The set-ups of one batch are corrected together (``Clock.pooled``).
    """
    first = len(api.clock.calls)
    start = time.perf_counter()
    while len(api.clock.calls) - first < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        state = api.clock.time(workload.setup, api, seed, ROOT)
    return state, api.clock.pooled(first)


def _measure(workload, seed, seconds):
    from hostspeed import Clock

    clock = Clock()
    api = Api(clock)
    state, setup_calls = _set_up(workload, api, seed)
    rounds, round_calls = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        first = len(clock.calls)
        rounds.append(workload.run(api, state, len(rounds)))
        round_calls.append(clock.totals(first))
        if len(rounds) == 1:
            # Later rounds only add the results kept for checking.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_calls += _set_up(workload, api, seed)[1]

    def median(pairs, i):
        return statistics.median(p[i] for p in pairs)

    metrics = {
        "setup_s": (median(setup_calls, 1), "s"),
        "wall_s": (median(round_calls, 1), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    info = {"raw setup_s": median(setup_calls, 0), "raw wall_s": median(round_calls, 0)}
    timings = {"setup_s": setup_calls, "round_s": round_calls}
    return state, rounds, metrics, timings, info, None


def _traced(workload, seed, per_layer):
    from hostspeed import Clock
    from tracing import Tracer

    clock = Clock()
    tracer = Tracer()
    traced_api = Api(clock, tracer)
    with tracer.patched():
        state = workload.setup(traced_api, seed, ROOT)
    first = len(clock.calls)
    rounds = [workload.run(Api(clock), state, 0)]
    untraced = clock.totals(first)[1]
    first = len(clock.calls)
    with tracer.patched():
        rounds.append(workload.run(traced_api, state, 1))
    traced = clock.totals(first)[1]
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = traced - untraced
    metrics = {name: (layers.get(name, 0.0 if unit == "s" else 0), unit) for name, unit in per_layer}
    return state, rounds, metrics, {"untraced_round_s": untraced, "traced_round_s": traced}, {}, tracer


def _per_layer_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_to_one_core()
    _import_library()
    from workloads import KNOWN_FAULTS, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.trace:
        state, rounds, metrics, timings, info, tracer = _traced(workload, args.seed, _per_layer_metrics())
    else:
        state, rounds, metrics, timings, info, tracer = _measure(workload, args.seed, args.seconds)

    ops = [op for results in rounds for op in workload.check(state, results)]
    failed = [op for op in ops if op.failures]
    correct = True
    for op in failed:
        for check, message in op.failures.items():
            fault = KNOWN_FAULTS.get((workload.name, op.name, check))
            correct = correct and fault is not None
            print(f"FAILED {workload.name} {op.name} [{check}]: {message} -- fault: {fault or 'UNEXPECTED'}")
    for key, value in {**info, **workload.info(rounds)}.items():
        print(f"info {key}: {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name}: {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"run-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": args.seed,
                "timings": timings,
                "operations": [{"op": op.name, **op.record, "failures": op.failures} for op in ops],
            },
            fh,
            indent=1,
        )
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{stem}.json")

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
