"""Spans around calls into the library's layers, and the per-layer metrics derived from them.

The library imports names into each module's namespace (``constrained``
calls ``spi_solve`` through its own global, ``solver.spi_solve`` calls
``policy_evaluate`` through the ``solver`` global, ...), so a call is wrapped
where it is made: ``patched`` swaps those module globals for wrappers and
puts them back on exit.  Entry points the benchmark calls itself are wrapped
at the call site with ``Tracer.wrap``.

Spans are kept in memory and written once, by ``write``, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import remest.config
import remest.constrained
import remest.evaluation
import remest.solver
from hostspeed import work_clock

# Module global to wrap -> span name.  Each entry is a place where one layer
# calls another by a name it imported.
INNER_CALLS = [
    (remest.config, "build_model", "model.build_model"),
    (remest.solver, "policy_evaluate", "solver.policy_evaluate"),
    (remest.constrained, "spi_solve", "solver.spi_solve"),
    (remest.evaluation, "spi_solve", "solver.spi_solve"),
    (remest.constrained, "stationary_metrics", "evaluation.stationary_metrics"),
    (remest.evaluation, "stationary_metrics", "evaluation.stationary_metrics"),
    (remest.constrained, "build_mixture", "constrained.build_mixture"),
]

RESIDUAL_TOL = 1e-8


class Tracer:
    """In-memory span recorder: one record per call, with its parent span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, caller=None):
        def traced(*args, **kwargs):
            record = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "caller": caller,
                "start": work_clock(),
            }
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = work_clock()
                self._stack.pop()
            record.update(_attributes(name, result))
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every inner call in ``INNER_CALLS`` for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in INNER_CALLS]
        try:
            for module, attr, name in INNER_CALLS:
                caller = module.__name__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(getattr(module, attr), name, caller))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times, keyed by metric name (values in count or s)."""
        own = self.self_times()
        m = {}

        def add(key, value):
            m[key] = m.get(key, 0) + value

        for s, self_s in zip(self.spans, own):
            name = s["name"]
            if name in ("config.load", "config.build_model"):
                add("config.load_s", self_s)
            elif name == "model.build_model":
                add("model.build_s", self_s)
            else:
                add(f"{name}.calls", 1)
                add(f"{name}.self_s", self_s)
            if name == "solver.policy_evaluate":
                add("solver.policy_evaluate.sweeps", s["sweeps"])
                add("solver.policy_evaluate.fallbacks", int(s["method"] != "sweeps"))
                add("solver.policy_evaluate.unconverged", int(not s["residual"] <= RESIDUAL_TOL))
            elif name == "solver.spi_solve" and s["caller"] == "constrained":
                add("constrained.spi_solves", 1)
            elif name == "constrained.solve_cmdp":
                add("constrained.search_iterations", s["iterations"])
            elif name == "evaluation.stationary_metrics":
                parent = s["parent"]
                if parent is not None and self.spans[parent]["name"] == "constrained.build_mixture":
                    add("constrained.build_mixture.stationary_calls", 1)
            elif name == "evaluation.simulate":
                add("evaluation.simulate.slots", s["slots"])
        return m

    def write(self, path):
        t0 = self.spans[0]["start"] if self.spans else 0.0
        own = self.self_times()
        rows = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0, "self": o}
            for s, o in zip(self.spans, own)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _attributes(name, result) -> dict:
    """Counts read from a traced call's return value."""
    if name == "solver.policy_evaluate":
        return {"sweeps": int(result.sweeps), "method": result.method, "residual": float(result.residual)}
    if name == "constrained.solve_cmdp":
        return {"iterations": int(result.trace.iterations)}
    if name == "evaluation.simulate":
        return {"slots": int(result.horizon)}
    return {}
