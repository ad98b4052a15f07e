"""Experiment CLI: config in, machine-readable result files out.

Subcommand-first syntax; every command takes --config and writes CSV or
JSON via --out/--format.  Exit codes: 0 success, 2 config/validation error,
3 solver non-convergence.  Errors are emitted as a single JSON object on
stderr so callers can parse failures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .config import SystemConfig
from .constrained import bisection_solve, solve_cmdp
from .errors import (
    BadBracketError,
    ConfigError,
    ConvergenceFailure,
    DomainError,
    RemestError,
    ValidationError,
)
from .estimator import steady_state_age
from .evaluation import _projected_kl, _solved_law, simulate, sweep_lambda
from .model import check_assumption1
from .solver import (
    _kernel_values,
    check_submodularity,
    check_switching_structure,
    check_value_monotonicity,
    rvi_solve,
    spi_solve,
)
from .markov import matrix_power, symmetric_chain, symmetric_power_closed_form

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
NAN = float("nan")
INFEASIBLE = "infeasible"  # kind of a grid budget that cannot be bracketed


def _fmt(value) -> str:
    """Fixed 12-significant-digit decimal rendering for CSV cells."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_results(records: list, fmt: str, path: str, columns: list | None = None,
                 meta: dict | None = None) -> None:
    """Write result rows to CSV (fixed column order, 12 significant digits)
    or JSON (stable key order, full-precision floats)."""
    if not records:
        raise ValueError("no records to emit")
    if columns is None:
        columns = list(records[0].keys())
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec.get(c, "")) for c in columns])
        payload = buf.getvalue()
    elif fmt == "json":
        doc = {
            "meta": dict(sorted((meta or {}).items())),
            "columns": columns,
            "records": [{c: rec.get(c) for c in columns} for rec in records],
        }
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        if path == "-":
            sys.stdout.write(payload)
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
    except OSError as exc:
        raise RemestError(f"cannot write {path}: {exc}") from exc


def _meta(config: SystemConfig, experiment: str) -> dict:
    return {
        "experiment": experiment,
        "config_digest": config.digest(),
        "library_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _parse_grid(spec: str) -> list:
    """Grid syntax: 'start:stop:step' with step > 0 and stop >= start, or
    comma-separated values.  Any other spec, or no value, is a ConfigError."""
    ranged = ":" in spec
    fields = spec.split(":") if ranged else [x for x in spec.split(",") if x.strip()]
    try:
        values = [float(x) for x in fields]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)) or (ranged and len(values) != 3):
        raise ConfigError(f"grid {spec!r} is not 'start:stop:step' or a list of finite numbers")
    if ranged:
        start, stop, step = values
        if step <= 0 or stop < start:
            raise ConfigError(f"grid {spec!r} needs a positive step and stop >= start")
        n = int(round((stop - start) / step))
        values = [round(start + i * step, 12) for i in range(n + 1)]
    return values


def cmd_check(config: SystemConfig, args) -> tuple:
    model = config.build_model()
    report = check_assumption1(model)
    nu = model.chain.stationary()
    rows = [
        {
            "config_digest": config.digest(),
            "states": model.num_mdp_states,
            "assumption_holds": report.holds,
            "limit_ratio": report.limit_ratio,
            "tightest_bound": float(report.bound_per_state.min()),
            "stationary": " ".join(f"{v:.12g}" for v in nu.probs),
            "steady_ages": " ".join(
                str(steady_state_age(model.chain, z, model.theta_max))
                for z in range(model.n_states)
            ),
        }
    ]
    cols = list(rows[0].keys())
    return rows, cols, "check"


def cmd_solve(config: SystemConfig, args) -> tuple:
    model = config.build_model()
    sol = solve_cmdp(
        model, config.f_max, config.lambda_max, config.tolerances.mixture
    )
    rows = [
        {
            "config_digest": config.digest(),
            "f_max": config.f_max,
            "kind": sol.kind,
            "lambda_star": sol.lam_star,
            "p": sol.policy.p if sol.is_mixture else 1.0,
            "F": sol.F,
            "J": sol.J,
            "search_iterations": sol.trace.iterations,
            "differing_states": len(sol.policy.differing_states) if sol.is_mixture else 0,
        }
    ]
    return rows, list(rows[0].keys()), "solve"


def cmd_solve_lambda(config: SystemConfig, args) -> tuple:
    model = config.build_model()
    lam = float(args.lam)
    _, gb, view = spi_solve(model, lam)
    rows = [
        {
            "config_digest": config.digest(),
            "lambda": lam,
            "F": gb.f_component,
            "J": gb.j_component,
            "L": gb.j_component + lam * gb.f_component,
            "gain": gb.gain,
            "thresholds_digest": _thresholds_digest(view),
            "distinct_thresholds": len(view.distinct()),
        }
    ]
    return rows, list(rows[0].keys()), "solve-lambda"


def _thresholds_digest(view) -> str:
    items = sorted((k, str(v)) for k, v in view.thresholds.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()[:12]


def cmd_sweep(config: SystemConfig, args) -> tuple:
    model = config.build_model()
    grid = _parse_grid(args.lambdas)
    outcomes = sweep_lambda(model, grid)
    digest = config.digest()
    rows = []
    for o in outcomes:
        rows.append(
            {
                "lambda": o.lam,
                "F": o.F,
                "J": o.J,
                "L": o.L,
                "thresholds_digest": _thresholds_digest(o.view) if o.view else "",
                "config_digest": digest,
            }
        )
    return rows, ["lambda", "F", "J", "L", "thresholds_digest", "config_digest"], "sweep"


def cmd_thresholds(config: SystemConfig, args) -> tuple:
    model = config.build_model()
    digest = config.digest()
    rows = []
    for f_max in _parse_grid(args.fmax_grid):
        sol = _solve_or_none(model, f_max, config)
        row = {"f_max": f_max, "j_star": NAN, "lambda_star": NAN, "p": NAN, "kind": INFEASIBLE,
               "threshold_minus": "", "threshold_plus": "", "config_digest": digest}
        if sol is not None:
            row.update(j_star=sol.J, lambda_star=sol.lam_star, kind=sol.kind,
                       p=sol.policy.p if sol.is_mixture else 1.0,
                       threshold_minus=_single_threshold(sol.view_minus),
                       threshold_plus=_single_threshold(sol.view_plus))
        rows.append(row)
    cols = ["f_max", "j_star", "lambda_star", "p", "kind",
            "threshold_minus", "threshold_plus", "config_digest"]
    return rows, cols, "thresholds"


def _solve_or_none(model, f_max: float, config: SystemConfig):
    """solve_cmdp at one budget of a grid, or None when the budget cannot be
    bracketed (F at lambda_max is still above it); the grid goes on."""
    try:
        return solve_cmdp(model, f_max, config.lambda_max, config.tolerances.mixture)
    except BadBracketError:
        return None


def _single_threshold(view) -> str:
    if view is None:
        return ""
    distinct = view.distinct()
    if len(distinct) == 1:
        return str(distinct[0])
    return f"{len(distinct)} distinct"


def cmd_truncation(config: SystemConfig, args) -> tuple:
    """KL of each grid truncation from the config's own, which is solved once."""
    digest = config.digest()
    thetas, deltas = _parse_grid(args.theta_grid), _parse_grid(args.delta_grid)
    if any(v != int(v) for v in thetas + deltas):
        raise ConfigError("truncation grids take integer bounds")
    if max(thetas) > config.theta_max or max(deltas) > config.delta_max:
        raise DomainError("small truncation must not exceed the reference")
    reference = _solved_law(config, config.theta_max, config.delta_max)
    rows = []
    for theta_small in map(int, thetas):
        for delta_small in map(int, deltas):
            small = _solved_law(config, theta_small, delta_small)
            kl = _projected_kl(reference, small, infinite_on_mismatch=True)
            rows.append({"theta_max": theta_small, "delta_max": delta_small, "kl": kl,
                         "config_digest": digest})
    return rows, ["theta_max", "delta_max", "kl", "config_digest"], "truncation"


def cmd_compare_estimators(config: SystemConfig, args) -> tuple:
    digest = config.digest()
    rows = []
    cfg_map = config
    cfg_zoh = config.with_overrides(theta_max=1, estimator="zoh")
    model_map = cfg_map.build_model()
    model_zoh = cfg_zoh.build_model()
    for f_max in _parse_grid(args.fmax_grid):
        row = {"f_max": f_max}
        for label, model in (("map", model_map), ("zoh", model_zoh)):
            sol = _solve_or_none(model, f_max, config)
            row[f"j_{label}"] = NAN if sol is None else sol.J
            row[f"lambda_{label}"] = NAN if sol is None else sol.lam_star
            row[f"kind_{label}"] = INFEASIBLE if sol is None else sol.kind
        rows.append({**row, "config_digest": digest})
    cols = ["f_max", "j_map", "j_zoh", "lambda_map", "lambda_zoh",
            "kind_map", "kind_zoh", "config_digest"]
    return rows, cols, "compare-estimators"


def cmd_simulate(config: SystemConfig, args) -> tuple:
    model = config.build_model()
    sol = solve_cmdp(model, config.f_max, config.lambda_max, config.tolerances.mixture)
    report = simulate(model, sol.policy, int(args.horizon), config.seed)
    row = {"config_digest": config.digest(), "kind": sol.kind,
           "stationary_F": sol.F, "stationary_J": sol.J}
    row.update(report.as_dict())
    return [row], list(row.keys()), "simulate"


def cmd_selftest(config: SystemConfig, args) -> tuple:
    model = config.build_model()
    digest = config.digest()
    checks = []

    def record(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(passed), "detail": detail,
                       "config_digest": digest})
        print(f"[{'PASS' if passed else 'FAIL'}] {name} {detail}", file=sys.stderr)

    # Chain algebra: closed form vs repeated powers on the symmetric family.
    worst = 0.0
    for n_states in (2, 3, 5):
        for frac in (0.5, 1.0):
            sigma = frac / n_states
            chain = symmetric_chain(n_states, sigma)
            for n in (0, 1, 5, 20):
                diff = np.abs(
                    symmetric_power_closed_form(n_states, sigma, n)
                    - matrix_power(chain, n)
                ).max()
                worst = max(worst, diff)
    record("closed-form-vs-power", worst <= 1e-12, f"max|diff|={worst:.2e}")

    # Estimate table sanity: age-zero column is the content itself.
    record(
        "estimate-table-age-zero",
        bool((model.estimates.table[:, 0] == np.arange(model.n_states)).all()),
    )

    # Each state's column of K(q), as the solver factors it, sums to one.
    ones = np.ones(model.num_mdp_states)
    worst = max(
        np.abs(_kernel_values(model, q * ones).sum(axis=0) - 1.0).max() for q in (0, 1)
    )
    record("transition-fans-sum-to-one", worst < 1e-12)

    # Solver structure at two prices; the solve at 5 is checked against RVI.
    for lam in (2.0, 5.0):
        policy, gb, view = spi_solve(model, lam)
        violations = check_switching_structure(policy, model)
        record(f"switching-structure@lam={lam}", not violations,
               f"{len(violations)} violations")
        mono = check_value_monotonicity(gb, model)
        record(f"value-monotonicity@lam={lam}", mono <= 1e-8, f"max drop={mono:.2e}")
        sub = check_submodularity(model, gb)
        record(f"submodularity@lam={lam}", sub <= 1e-8, f"max={sub:.2e}")

    # Structured vs unstructured solver agreement.
    _, gb_r = rvi_solve(model, lam)
    gap = abs(gb.gain - gb_r.gain)
    record("spi-vs-rvi-gain@lam=5", gap <= 1e-6, f"gap={gap:.2e}")

    n_fail = sum(1 for c in checks if not c["passed"])
    print(f"selftest: {len(checks) - n_fail}/{len(checks)} checks passed", file=sys.stderr)
    return checks, ["check", "passed", "detail", "config_digest"], "selftest"


def cmd_bisect(config: SystemConfig, args) -> tuple:
    model = config.build_model()
    lam_star, trace = bisection_solve(
        model, config.f_max, config.lambda_max, config.tolerances.search
    )
    rows = [
        {
            "config_digest": config.digest(),
            "f_max": config.f_max,
            "lambda_star": lam_star,
            "iterations": trace.iterations,
        }
    ]
    return rows, list(rows[0].keys()), "bisect"


COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "solve-lambda": cmd_solve_lambda,
    "sweep": cmd_sweep,
    "thresholds": cmd_thresholds,
    "truncation": cmd_truncation,
    "compare-estimators": cmd_compare_estimators,
    "simulate": cmd_simulate,
    "selftest": cmd_selftest,
    "bisect": cmd_bisect,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remest",
        description="Budget-constrained transmission scheduling for remote "
        "estimation of Markov sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--fmax", type=float, default=None, help="override config f_max")

    common(sub.add_parser("check", help="validate the config and report feasibility"))
    common(sub.add_parser("solve", help="solve the budget-constrained problem"))
    p = sub.add_parser("solve-lambda", help="solve the relaxed problem at one price")
    common(p)
    p.add_argument("--lam", type=float, required=True)
    p = sub.add_parser("sweep", help="price sweep: (lambda, F, J, L) series")
    common(p)
    p.add_argument("--lambdas", default="0:20:0.5", help="grid 'a:b:step' or comma list")
    p = sub.add_parser("thresholds", help="solutions across a budget grid")
    common(p)
    p.add_argument("--fmax-grid", default="0.05:0.3:0.05")
    p = sub.add_parser("truncation", help="information loss of smaller truncations")
    common(p)
    p.add_argument("--theta-grid", default="20")
    p.add_argument("--delta-grid", default="5:20:5")
    p = sub.add_parser("compare-estimators", help="posterior-mode vs hold-last-value")
    common(p)
    p.add_argument("--fmax-grid", default="0.05:0.3:0.05")
    p = sub.add_parser("simulate", help="solve, then run the seeded simulator")
    common(p)
    p.add_argument("--horizon", type=int, default=10**6)
    common(sub.add_parser("selftest", help="run structural conformance checks"))
    common(sub.add_parser("bisect", help="baseline bisection on the budget"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = SystemConfig.from_file(args.config)
        if args.seed is not None:
            config = config.with_overrides(seed=args.seed)
        if args.fmax is not None:
            config = config.with_overrides(f_max=args.fmax)
        rows, columns, experiment = COMMANDS[args.command](config, args)
        meta = _meta(config, experiment)
        emit_results(rows, args.format, args.out, columns=columns, meta=meta)
        if args.command == "selftest" and any(not r["passed"] for r in rows):
            return 1
        return EXIT_OK
    except (ConfigError, ValidationError) as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except ConvergenceFailure as exc:
        _emit_error(exc)
        return EXIT_SOLVER
    except RemestError as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
