"""Tests of the benchmark's own reference computations and tracer.

Run from the repository root:  python3 -m pytest bench/tests
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import oracle  # noqa: E402
from remest import SystemConfig, rvi_solve  # noqa: E402
from hostspeed import Clock  # noqa: E402
from run import Api  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import KNOWN_FAULTS, BudgetGrid  # noqa: E402


def test_stationary_law_of_two_state_chain_is_closed_form():
    mu = oracle.stationary_law(np.array([[0.8, 0.2], [0.3, 0.7]]))
    np.testing.assert_allclose(mu, [0.6, 0.4], rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def paper_config():
    return SystemConfig.from_file(ROOT / "configs" / "three_state.json")


@pytest.mark.parametrize("timing", ["immediate", "delayed"])
@pytest.mark.parametrize("lam", [2.0, 5.0, 10.0])
def test_value_iteration_gain_agrees_with_rvi_solve(paper_config, timing, lam):
    model = paper_config.build_model(timing=timing)
    low, high = oracle.optimal_gain(oracle.Kernels(model), lam)
    _, gb = rvi_solve(model, lam)
    assert high - low < 1e-8
    assert abs(0.5 * (low + high) - gb.gain) <= 1e-6


def test_certificate_flags_map_at_030_and_passes_the_other_eleven():
    workload = BudgetGrid()
    api = Api(Clock())
    state = workload.setup(api, 0, ROOT)
    ops = workload.check(state, workload.run(api, state, 0))
    assert len(ops) == 12
    failures = {op.name: set(op.failures) for op in ops if op.failures}
    assert failures == {"map f=0.30": {"duality"}}
    assert ("budget-grid", "map f=0.30", "duality") in KNOWN_FAULTS


def test_self_time_is_span_minus_child_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap(inner, "model.build_model")

    def outer():
        traced_inner()
        traced_inner()
        time.sleep(0.01)

    tracer.wrap(outer, "config.build_model")()
    own = tracer.self_times()
    spans = tracer.spans
    assert [s["name"] for s in spans] == ["config.build_model", "model.build_model", "model.build_model"]
    assert spans[1]["parent"] == 0 and spans[2]["parent"] == 0
    total = spans[0]["end"] - spans[0]["start"]
    assert own[0] == pytest.approx(total - own[1] - own[2], abs=1e-12)
    layers = tracer.layer_metrics()
    assert layers["config.load_s"] == pytest.approx(own[0])
    assert layers["model.build_s"] == pytest.approx(own[1] + own[2])
