import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from remest import (
    ConvergenceFailure,
    DeterministicPolicy,
    DomainError,
    SystemConfig,
    ThresholdView,
    build_model,
    check_submodularity,
    check_switching_structure,
    check_value_monotonicity,
    never_transmit_policy,
    policy_evaluate,
    reactive_policy,
    rvi_solve,
    solve_cmdp,
    spi_solve,
    stationary_metrics,
    sweep_lambda,
    symmetric_chain,
    validate_chain,
)
import remest.solver
from remest.evaluation import STATIONARY_TOL
from remest.solver import RESIDUAL_TOL, _pinned_lu, _repriced, induced_kernel, reachable_set
from conftest import LAMBDA_GRID, MAIN_ROWS, main_age_function, small_random_model


def zero_cost_model():
    """All distortions zero: every slot costs exactly lam per transmission."""
    return build_model(
        validate_chain(MAIN_ROWS), 0.7, np.zeros((3, 3)), main_age_function(),
        5, 5, "map",
    )


def dense_stationary(model, policy):
    """Brute-force oracle: dense solve of the balance equations of the
    induced kernel, one of them replaced by the normalisation."""
    kernel = induced_kernel(model, policy.actions).toarray()
    n = kernel.shape[0]
    a = kernel.T - np.eye(n)
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(a, b)
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()


def dense_pinned_solution(model, policy, lam):
    """Dense solve of [[I - K, 1], [e_ref, 0]] [h; g] = [c; 0] for the three
    cost rows (lam-cost, error cost, transmit indicator), K built entry by
    entry from the model's targets."""
    s_count, n = model.idle_targets.shape
    a = policy.actions.astype(bool)
    kernel = np.zeros((s_count, s_count))
    for s in range(s_count):
        w = model.p_s if a[s] else 0.0
        for k in range(n):
            kernel[s, model.idle_targets[s, k]] += (1.0 - w) * model.source_rows[s, k]
            kernel[s, model.succ_targets[s, k]] += w * model.source_rows[s, k]
    system = np.zeros((s_count + 1, s_count + 1))
    system[:s_count, :s_count] = np.eye(s_count) - kernel
    system[:s_count, s_count] = 1.0
    system[s_count, model.ref_index] = 1.0
    err = np.where(a, model.tx_cost, model.idle_cost)
    tx = a.astype(float)
    rhs = np.zeros((s_count + 1, 3))
    rhs[:s_count] = np.column_stack([err + lam * tx, err, tx])
    return np.linalg.solve(system, rhs)


class TestPolicyEvaluate:
    @pytest.mark.parametrize("timing", ["immediate", "delayed"])
    def test_matches_dense_pinned_solve(self, timing):
        rng = np.random.default_rng(7)
        for _ in range(3):
            model = small_random_model(rng, timing=timing)
            lam = float(rng.uniform(0.5, 8.0))
            for policy in (reactive_policy(model), spi_solve(model, lam)[0]):
                gb = policy_evaluate(model, policy, lam)
                sol = dense_pinned_solution(model, policy, lam)
                assert gb.method == "pinned-lu"
                assert abs(gb.gain - sol[-1, 0]) < 1e-10
                assert abs(gb.j_component - sol[-1, 1]) < 1e-10
                assert abs(gb.f_component - sol[-1, 2]) < 1e-10
                assert np.abs(gb.bias - sol[:-1, 0]).max() < 1e-10

    def test_constant_cost_model(self):
        model = zero_cost_model()
        policy = DeterministicPolicy(np.ones(model.num_mdp_states, dtype=np.uint8))
        gb = policy_evaluate(model, policy, lam=2.5)
        assert abs(gb.gain - 2.5) < 1e-10
        assert np.abs(gb.bias).max() < 1e-8
        assert abs(gb.f_component - 1.0) < 1e-10
        assert abs(gb.j_component) < 1e-10

    def test_reactive_symmetric_perfect_channel(self):
        # Renewal argument: with a perfect channel every error is cleared in
        # the slot it appears, so no cost accrues and a fifth of slots (the
        # hop rate 2*sigma) carry a transmission.
        model = build_model(
            symmetric_chain(3, 0.1), 1.0, "hamming", main_age_function(), 20, 20, "map"
        )
        policy = reactive_policy(model)
        gb = policy_evaluate(model, policy, lam=3.0)
        assert abs(gb.j_component - 0.0) < 1e-10
        assert abs(gb.f_component - 0.2) < 1e-10
        assert abs(gb.gain - 0.2 * 3.0) < 1e-10
        # Independent dense solve of the same stationary law.
        mu = dense_stationary(model, policy)
        assert abs(float(mu @ policy.actions) - 0.2) < 1e-10

    def test_gain_decomposition(self, main_model):
        policy = reactive_policy(main_model)
        gb = policy_evaluate(main_model, policy, lam=4.0)
        assert abs(gb.gain - (gb.j_component + 4.0 * gb.f_component)) < 1e-8

    def test_bellman_residual(self, main_model):
        policy = reactive_policy(main_model)
        gb = policy_evaluate(main_model, policy, lam=1.0)
        assert gb.residual <= 1e-8
        assert gb.bias[main_model.ref_index] == 0.0

    def test_multichain_never_transmit_falls_back(self, zoh_model):
        # Never transmitting freezes the content coordinate: the hold-last-
        # value model splits into classes with unequal gains and the pinned
        # system is singular; the class-restricted solve must still answer.
        policy = never_transmit_policy(zoh_model)
        gb = policy_evaluate(zoh_model, policy, lam=0.0)
        assert gb.method == "class-solve"
        assert np.isfinite(gb.gain)

    def test_frequency_route_matches_stationary(self, main_model):
        # Two independent computations of the same rate: evaluation gain
        # under the indicator cost vs the stationary expectation.
        policy, gb, _ = spi_solve(main_model, 5.0)
        met = stationary_metrics(main_model, policy)
        assert abs(gb.f_component - met.F) < 1e-8
        assert abs(gb.j_component - met.J) < 1e-8


class TestStationaryMetrics:
    def test_no_mass_off_reachable_class(self, main_model, zoh_model):
        # Only part of the state space is reachable from the reference state:
        # never transmitting freezes the content coordinate, and a solved
        # policy leaves some (content, age) pairs unvisited.
        cases = [
            (zoh_model, never_transmit_policy(zoh_model)),
            (main_model, never_transmit_policy(main_model)),
            (main_model, spi_solve(main_model, 5.0)[0]),
        ]
        for model, policy in cases:
            met = stationary_metrics(model, policy)
            reach = reachable_set(induced_kernel(model, policy.actions), model.ref_index)
            assert np.array_equal(met.reachable, reach)
            off = np.setdiff1d(np.arange(model.num_mdp_states), reach)
            assert off.size > 0
            assert np.all(met.mu[off] == 0.0)
            assert abs(met.mu.sum() - 1.0) < 1e-12


def dense_class_solution(model, tx_prob, lam=0.0):
    """Dense oracle on the class reachable from the reference state: the
    pinned gain/bias solution for the three cost rows, and the stationary
    law."""
    kernel = induced_kernel(model, tx_prob)
    reach = reachable_set(kernel, model.ref_index)
    k = kernel.toarray()[np.ix_(reach, reach)]
    m = reach.size
    system = np.zeros((m + 1, m + 1))
    system[:m, :m] = np.eye(m) - k
    system[:m, m] = 1.0
    system[m, np.searchsorted(reach, model.ref_index)] = 1.0
    a = tx_prob[reach].astype(bool)
    err = np.where(a, model.tx_cost[reach], model.idle_cost[reach])
    rhs = np.zeros((m + 1, 3))
    rhs[:m] = np.column_stack([err + lam * a, err, a.astype(float)])
    balance = k.T - np.eye(m)
    balance[-1] = 1.0
    e_last = np.zeros(m)
    e_last[-1] = 1.0
    return reach, np.linalg.solve(system, rhs), np.linalg.solve(balance, e_last)


class TestPinnedOrder:
    def test_made_on_first_factor_and_reused(self):
        model = small_random_model(np.random.default_rng(3))
        assert "level_layout" not in vars(model)
        policy_evaluate(model, reactive_policy(model), 2.0)
        layout = vars(model)["level_layout"]
        assert np.array_equal(np.sort(layout.order), np.arange(model.num_mdp_states + 1))
        assert np.array_equal(layout.order[layout.position], np.arange(model.num_mdp_states + 1))
        policy_evaluate(model, never_transmit_policy(model), 2.0)
        spi_solve(model, 2.0)
        assert vars(model)["level_layout"] is layout

    @pytest.mark.parametrize("fixture", ["main_model", "paper_model"])
    def test_mixture_stationary_law_matches_dense(self, fixture, request, solved_main):
        model = request.getfixturevalue(fixture)
        mix = solved_main(model, 0.1).policy
        assert mix.p > 0.0
        tx_rate = mix.p * mix.policy_minus.actions + (1.0 - mix.p) * mix.policy_plus.actions
        met = stationary_metrics(model, mix)
        reach, _, mu = dense_class_solution(model, tx_rate)
        assert np.array_equal(met.reachable, reach)
        assert np.abs(met.mu[reach] - mu).max() < 1e-10
        assert abs(met.F - mu @ tx_rate[reach]) < 1e-10

    @pytest.mark.parametrize("fixture", ["zoh_model", "paper_zoh_model"])
    def test_class_solve_matches_dense(self, fixture, request):
        model = request.getfixturevalue(fixture)
        policy = never_transmit_policy(model)
        gb = policy_evaluate(model, policy, 1.5)
        assert gb.method == "class-solve"
        reach, sol, _ = dense_class_solution(model, policy.actions.astype(float), 1.5)
        assert reach.size < model.num_mdp_states
        assert abs(gb.gain - sol[-1, 0]) < 1e-10
        assert abs(gb.j_component - sol[-1, 1]) < 1e-10
        assert abs(gb.f_component - sol[-1, 2]) < 1e-10
        # The bias on this class reaches about 3e5, so it is compared
        # relative to its largest entry.
        scale = max(1.0, np.abs(sol[:-1, 0]).max())
        assert np.abs(gb.bias[reach] - sol[:-1, 0]).max() < 1e-10 * scale


# sha256 of the action tables of spi_solve at these prices, in order,
# recorded before policy evaluation moved from relative sweeps to the
# pinned LU; the solver must keep returning the same policies.
FINGERPRINT_PRICES = (0.5, 2.0, 5.0, 10.0)
ACTION_FINGERPRINTS = {
    "main_model": "19a4fe11721377b47cc3105c5dc5f9dfd344131a065ea6a632cf3c2a0097f9a5",
    "paper_model": "b6d3613e20b5c30a2ae3b6d9a995bd2af1c8c91908d22b4a57797ca5231212da",
}


@pytest.mark.parametrize("fixture", sorted(ACTION_FINGERPRINTS))
def test_action_table_fingerprint(fixture, request):
    model = request.getfixturevalue(fixture)
    digest = hashlib.sha256()
    for lam in FINGERPRINT_PRICES:
        digest.update(spi_solve(model, lam)[0].actions.tobytes())
    assert digest.hexdigest() == ACTION_FINGERPRINTS[fixture]


class TestSpiSolve:
    def test_free_transmissions_give_reactive(self, main_model):
        policy, gb, view = spi_solve(main_model, 0.0)
        assert policy.same_as(reactive_policy(main_model))
        assert set(view.thresholds.values()) == {1}

    def test_threshold_view_roundtrip(self, main_model):
        policy, _, view = spi_solve(main_model, 5.0)
        rebuilt = view.reconstruct(main_model)
        assert rebuilt.same_as(policy)
        again = ThresholdView.from_policy(main_model, policy)
        assert again.thresholds == view.thresholds

    def test_switching_structure_of_output(self, main_model):
        policy, _, _ = spi_solve(main_model, 5.0)
        assert check_switching_structure(policy, main_model) == []

    def test_pinned_states_stay_idle(self, main_model):
        policy, _, _ = spi_solve(main_model, 0.0)
        assert not policy.actions[main_model.idle_pinned].any()

    def test_warm_start_reaches_same_fixed_point(self, main_model):
        cold, gb_cold, _ = spi_solve(main_model, 3.0)
        warm_seed, gb_seed, _ = spi_solve(main_model, 2.5)
        warm, gb_warm, _ = spi_solve(main_model, 3.0, policy0=warm_seed)
        assert cold.same_as(warm)
        assert abs(gb_cold.gain - gb_warm.gain) < 1e-9

    def test_huge_price_stops_transmitting(self, main_model):
        policy, _, view = spi_solve(main_model, 1000.0)
        met = stationary_metrics(main_model, policy)
        assert met.F < 0.1

    def test_symmetric_single_threshold(self, sym_model):
        for lam in (0.0, 3.0, 10.0):
            _, _, view = spi_solve(sym_model, lam)
            assert len(view.distinct()) == 1


class TestRviSolve:
    def test_constant_cost_model(self):
        model = zero_cost_model()
        _, gb = rvi_solve(model, 0.0)
        assert abs(gb.gain) < 1e-9

    def test_agrees_with_spi_reference(self, main_model):
        _, gb_s, _ = spi_solve(main_model, 5.0)
        _, gb_r = rvi_solve(main_model, 5.0)
        assert abs(gb_s.gain - gb_r.gain) < 1e-6

    def test_agrees_with_spi_delayed_timing(self, paper_model):
        for lam in (2.0, 5.0, 10.0):
            _, gb_s, _ = spi_solve(paper_model, lam)
            _, gb_r = rvi_solve(paper_model, lam)
            assert abs(gb_s.gain - gb_r.gain) < 1e-6


class TestStructuralChecks:
    def test_solved_policy_passes_everything(self, main_model):
        policy, gb, _ = spi_solve(main_model, 5.0)
        assert check_switching_structure(policy, main_model) == []
        assert check_value_monotonicity(gb, main_model) <= 1e-8
        assert check_submodularity(main_model, gb) <= 1e-8

    def test_constructed_violation_detected(self, main_model):
        actions = np.zeros(main_model.num_mdp_states, dtype=np.uint8)
        scan = np.flatnonzero(~main_model.idle_pinned)
        triple_base = int(scan[0]) - int(main_model.delta_of[scan[0]])
        actions[triple_base + 1] = 1  # pattern 0,1,0,... along the error age
        bad = DeterministicPolicy(actions)
        kinds = {v["kind"] for v in check_switching_structure(bad, main_model)}
        assert "non-monotone" in kinds

    def test_transmit_at_synced_detected(self, main_model):
        actions = np.zeros(main_model.num_mdp_states, dtype=np.uint8)
        pinned = np.flatnonzero(main_model.idle_pinned)
        actions[pinned[0] : pinned[0] + 1] = 1
        bad = DeterministicPolicy(actions)
        kinds = {v["kind"] for v in check_switching_structure(bad, main_model)}
        assert "transmit-at-synced" in kinds

    def test_all_zero_policy_is_monotone(self, main_model):
        assert check_switching_structure(never_transmit_policy(main_model), main_model) == []

    def test_constant_bias_has_no_violation(self, main_model):
        from remest.solver import GainBias

        gb = GainBias(gain=0.0, bias=np.zeros(main_model.num_mdp_states), lam=1.0)
        assert check_value_monotonicity(gb, main_model) == 0.0

    def test_decreasing_bias_reported(self, main_model):
        from remest.solver import GainBias

        bias = -1.0 * main_model.delta_of.astype(float)
        gb = GainBias(gain=0.0, bias=bias, lam=1.0)
        assert check_value_monotonicity(gb, main_model) > 0.5


class TestInducedKernel:
    def test_rows_are_stochastic(self, main_model):
        for policy in (reactive_policy(main_model), never_transmit_policy(main_model)):
            kernel = induced_kernel(main_model, policy.actions)
            sums = np.asarray(kernel.sum(axis=1)).ravel()
            assert np.abs(sums - 1.0).max() < 1e-12

    def test_mixture_kernel_is_convex_combination(self, main_model):
        a = reactive_policy(main_model)
        b = never_transmit_policy(main_model)
        ka = induced_kernel(main_model, a.actions)
        kb = induced_kernel(main_model, b.actions)
        mix = 0.25 * ka + 0.75 * kb
        sums = np.asarray(sp.csr_matrix(mix).sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-12


class TestThresholdViewFaults:
    """Each single-fault table raises DomainError naming its triple."""

    @staticmethod
    def triple_bases(model, mask):
        # First index of every (x, z, theta) triple whose states satisfy mask.
        return np.flatnonzero(mask & (model.delta_of == 0))

    def assert_fault(self, model, actions, base, text):
        triple = tuple(model.decode(int(base)))[:3]
        with pytest.raises(DomainError, match=text) as info:
            ThresholdView.from_policy(model, DeterministicPolicy(actions))
        assert str(triple) in str(info.value)

    def test_transmit_at_pinned_triple(self, main_model):
        base = self.triple_bases(main_model, main_model.idle_pinned)[0]
        actions = np.zeros(main_model.num_mdp_states, dtype=np.uint8)
        actions[base] = 1
        self.assert_fault(main_model, actions, base, "synced triple")

    def test_zero_one_zero_along_error_age(self, main_model):
        base = self.triple_bases(main_model, ~main_model.idle_pinned)[0]
        actions = np.zeros(main_model.num_mdp_states, dtype=np.uint8)
        actions[base + 1] = 1
        self.assert_fault(main_model, actions, base, "not a canonical switching policy")

    def test_only_the_corner_slot_of_a_same_error_triple(self, main_model):
        base = self.triple_bases(main_model, main_model.case_same_error)[0]
        actions = np.zeros(main_model.num_mdp_states, dtype=np.uint8)
        actions[base + main_model.delta_max] = 1
        self.assert_fault(main_model, actions, base, "truncation corner")

    def test_fresh_error_triple_from_error_age_one(self, main_model):
        fresh = ~main_model.idle_pinned & ~main_model.case_same_error
        bases = self.triple_bases(main_model, fresh)
        assert bases.size == 4
        actions = np.zeros(main_model.num_mdp_states, dtype=np.uint8)
        actions[bases[0] + 1 : bases[0] + main_model.delta_max + 1] = 1
        self.assert_fault(main_model, actions, bases[0], "delta-dependent action")


@pytest.mark.parametrize("fixture", ["paper_model", "zoh_model", "paper_zoh_model"])
def test_threshold_view_roundtrip_other_models(fixture, request):
    model = request.getfixturevalue(fixture)
    for lam in (0.0, 2.0, 5.0, 10.0):
        policy, _, _ = spi_solve(model, lam)
        assert ThresholdView.from_policy(model, policy).reconstruct(model).same_as(policy)
        assert check_switching_structure(policy, model) == []


def test_spi_pass_cap_raises_convergence_failure(main_model, monkeypatch):
    monkeypatch.setattr("remest.solver.SPI_MAX_PASSES", 1)
    with pytest.raises(ConvergenceFailure):
        spi_solve(main_model, 5.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_price_rejected(main_model, lam):
    with pytest.raises(DomainError):
        spi_solve(main_model, lam)
    with pytest.raises(DomainError):
        rvi_solve(main_model, lam)
    with pytest.raises(DomainError):
        sweep_lambda(main_model, [lam])
    if lam > 0:
        with pytest.raises(DomainError):
            solve_cmdp(main_model, 0.1, lambda_max=lam)


def test_spi_settles_on_the_cycling_chain(monkeypatch):
    # SPI once alternated here between two "class-solve" policies of equal
    # gain from the third pass on; 20 passes show it as well as the default
    # 500.
    monkeypatch.setattr("remest.solver.SPI_MAX_PASSES", 20)
    model = build_model(
        validate_chain([[0.2, 0.7, 0.1], [0.1, 0.2, 0.7], [0.7, 0.1, 0.2]]), 0.7, "hamming",
        main_age_function(), 8, 8, "map", timing="delayed",
    )
    spi_solve(model, 20.0)


@pytest.mark.parametrize("timing", ["immediate", "delayed"])
def test_never_transmit_on_zoh_config_meets_residual_tol(timing):
    # A relaxation of the off-class bias once left residuals 8.8e3
    # (immediate) and 8.6e2 (delayed) here.
    model = SystemConfig.from_file("configs/three_state_zoh.json").build_model(timing=timing)
    gb = policy_evaluate(model, never_transmit_policy(model), 0.0)
    assert gb.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("timing", ["immediate", "delayed"])
def test_zoh_never_transmit_law_factors_only_reached_classes(timing, monkeypatch):
    # The chain has three closed classes and a transient block; the law
    # factors only the classes the reference state reaches, each as its
    # bordered system [[I - K_cc, 1], [e_pin, 0]], and no transient block.
    model = SystemConfig.from_file("configs/three_state_zoh.json").build_model(timing=timing)
    factored = []
    splu = remest.solver.spla.splu

    def spy(matrix, *args, **kwargs):
        factored.append(sp.csc_matrix(matrix).toarray())
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(remest.solver.spla, "splu", spy)
    met = stationary_metrics(model, never_transmit_policy(model))
    monkeypatch.undo()
    kernel = dense_kernel(model, np.zeros(model.num_mdp_states))
    closed = dense_closed_classes(kernel)
    assert len(closed) == 3
    reached = [c for c in closed if np.isin(c, met.reachable).all()]
    assert 1 <= len(factored) == len(reached)
    for matrix, members in zip(factored, reached):
        k = members.size
        assert matrix.shape == (k + 1, k + 1)
        block = np.eye(k) - kernel[np.ix_(members, members)]
        assert np.abs(matrix[:k, :k] - block).max() <= 1e-15
        assert (matrix[:k, k] == 1.0).all() and matrix[k, :k].sum() == 1.0


def loop_threshold_view(model, actions):
    """Triple-by-triple reference for ThresholdView.from_policy and
    check_switching_structure: (thresholds or fault message, violations)."""
    dm = model.delta_max
    thresholds, fault, violations = {}, None, []
    for base in range(0, model.num_mdp_states, dm + 1):
        s = model.decode(base)
        key = (s.x, s.z, s.theta)
        seg = actions[base : base + dm + 1]
        if np.any(np.diff(seg.astype(np.int8)) < 0) and not model.idle_pinned[base]:
            violations.append({"triple": key, "kind": "non-monotone"})
        if model.idle_pinned[base]:
            if seg.any():
                violations.append({"triple": key, "kind": "transmit-at-synced"})
                fault = fault or f"policy transmits at synced triple {key}"
            continue
        ones = np.flatnonzero(seg)
        if ones.size == 0:
            thresholds[key] = math.inf
        elif not seg[ones[0]:].all():
            fault = fault or f"policy is not a canonical switching policy at {key}"
        elif not model.case_same_error[base]:
            if ones[0] != 0:
                fault = fault or f"fresh-error triple {key} has a delta-dependent action"
            thresholds[key] = 1
        elif ones[0] == dm:
            fault = fault or f"non-canonical cut at the truncation corner of {key}"
        else:
            thresholds[key] = int(ones[0]) + model.threshold_offset
    return fault or thresholds, violations


@pytest.mark.parametrize("fixture", ["main_model", "paper_model"])
def test_threshold_view_matches_loop_reference(fixture, request):
    model = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    dm = model.delta_max
    rows = model.num_mdp_states // (dm + 1)
    free = ~model.idle_pinned.reshape(-1, dm + 1)
    same = model.case_same_error.reshape(-1, dm + 1)[:, 0]
    tables = [spi_solve(model, lam)[0].actions for lam in (0.0, 3.0, 8.0)]
    for _ in range(4):
        # Random canonical tables: any cut below the corner, or never.
        start = rng.integers(0, dm + 1, rows)
        start[start == dm] = dm + 1
        start[~same] = np.where(rng.random((~same).sum()) < 0.5, 0, dm + 1)
        tables.append(((np.arange(dm + 1) >= start[:, None]) & free).ravel())
    for base in tables:
        for flips in (0, 1, 2):
            actions = base.astype(np.uint8)
            actions[rng.integers(0, actions.size, flips)] ^= 1
            expected, violations = loop_threshold_view(model, actions)
            policy = DeterministicPolicy(actions)
            assert check_switching_structure(policy, model) == violations
            if isinstance(expected, str):
                with pytest.raises(DomainError) as info:
                    ThresholdView.from_policy(model, policy)
                assert str(info.value) == expected
                continue
            view = ThresholdView.from_policy(model, policy)
            assert list(view.thresholds.items()) == list(expected.items())
            assert [type(v) for v in view.thresholds.values()] == [
                type(v) for v in expected.values()
            ]
            assert view.reconstruct(model).same_as(policy)


def coo_pinned_matrix(model, tx_prob):
    """Reference assembly of M through COO, one matrix at a time, columns in
    the natural order: K(q)'s nonzero triplets gathered from the targets,
    then the identity and the border."""
    s_count, n = model.idle_targets.shape
    w = model.p_s * np.asarray(tx_prob, dtype=float)
    rows = np.tile(np.repeat(np.arange(s_count), n), 2)
    cols = np.concatenate([model.idle_targets.ravel(), model.succ_targets.ravel()])
    probs = np.concatenate(
        [((1.0 - w)[:, None] * model.source_rows).ravel(), (w[:, None] * model.source_rows).ravel()]
    )
    keep = probs != 0.0
    rows, cols, probs = rows[keep], cols[keep], probs[keep]
    m = s_count
    diag = np.arange(m)
    return sp.csc_matrix(
        (
            np.concatenate([-probs, np.ones(2 * m + 1)]),
            (
                np.concatenate([rows, diag, diag, [m]]),
                np.concatenate([cols, diag, np.full(m, m), [model.ref_index]]),
            ),
        ),
        shape=(m + 1, m + 1),
    )


@pytest.mark.parametrize("fixture", ["main_model", "paper_model", "zoh_model"])
def test_level_solve_matches_coo_reference(fixture, request, solved_main):
    # The level solve against a plain sparse solve of the same matrix, and
    # the stationary law (the class route) against the transposed one.
    model = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    mix = solved_main(model, 0.1).policy
    tables = [
        never_transmit_policy(model).actions,
        reactive_policy(model).actions,
        # Random tables transmit at pinned states too, as RVI's policies may.
        rng.integers(0, 2, model.num_mdp_states),
        rng.integers(0, 2, model.num_mdp_states),
    ]
    cases = [(DeterministicPolicy(a), a) for a in tables]
    cases.append((mix, mix.p * mix.policy_minus.actions + (1.0 - mix.p) * mix.policy_plus.actions))
    assert tables[2][model.idle_pinned].any()
    s_count = model.num_mdp_states
    rhs = np.vstack([rng.uniform(0.0, 2.0, (s_count, 2)), [0.0, 0.0]])
    unit = np.zeros(s_count + 1)
    unit[-1] = 1.0
    solved = []
    for policy, q in cases:
        q = np.asarray(q, dtype=float)
        if not q.any():
            # Never transmitting splits the chain into closed classes with
            # unequal gains: M is singular.
            with pytest.raises(RuntimeError):
                _pinned_lu(model, q)
            continue
        factor = _pinned_lu(model, q)
        matrix = coo_pinned_matrix(model, q)
        expected = spla.spsolve(matrix, rhs)
        expected_mu = spla.spsolve(matrix.T.tocsc(), unit)
        got = factor.solve(rhs)
        # Biases reach 1e5 on these models: compare against the largest.
        assert np.abs(got - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())
        assert np.abs(stationary_metrics(model, policy).mu - expected_mu[:-1]).max() <= 1e-12
        solved.append((factor, got))
    # The layout is shared: later factors must leave earlier ones alone.
    for factor, got in solved:
        assert np.abs(factor.solve(rhs) - got).max() <= 1e-9 * max(1.0, np.abs(got).max())


def check_level_layout(model):
    """The structure the level solve rests on: idle slots climb one AoI
    level (capped at theta_max), successes land in the reset set, and the
    reference state sits at theta_max."""
    tm, n, dm = model.theta_max, model.n_states, model.delta_max
    layout = model.level_layout
    size = n * n * (dm + 1)
    climb = np.minimum(model.theta_of + 1, tm)
    assert np.array_equal(model.theta_of[model.idle_targets], np.repeat(climb[:, None], n, 1))
    levels = model.theta_of[layout.order[:-1]]
    assert np.array_equal(levels, np.repeat(np.arange(tm + 1), size))
    local = layout.position[model.idle_targets[layout.order[:-1]]] % size
    assert np.array_equal(local.T.reshape(n, tm + 1, size).transpose(1, 0, 2), layout.idle_local)
    resets = layout.order[layout.resets]
    assert np.isin(model.succ_targets, resets).all()
    assert resets.size <= n * n + n * (dm + 1)
    succ = model.succ_targets[layout.order[:-1]]
    one_row = np.unique(np.column_stack([layout.group, succ]), axis=0)[:, 0]
    assert np.array_equal(one_row, np.arange(layout.weights.shape[0]))
    rows = np.zeros((succ.shape[0], resets.size))
    np.put_along_axis(rows, np.searchsorted(resets, succ), model.source_rows[layout.order[:-1]], 1)
    assert np.array_equal(layout.weights[layout.group], rows)
    assert model.theta_of[model.ref_index] == tm
    assert layout.position[model.ref_index] // size == tm


@pytest.mark.parametrize(
    "fixture", ["main_model", "paper_model", "zoh_model", "paper_zoh_model", "sym_model"]
)
def test_level_layout_invariants(fixture, request):
    check_level_layout(request.getfixturevalue(fixture))


@pytest.mark.parametrize("timing", ["immediate", "delayed"])
def test_level_layout_invariants_random_models(timing):
    rng = np.random.default_rng(13)
    for _ in range(5):
        check_level_layout(small_random_model(rng, timing=timing))


def test_pattern_made_on_first_factor_and_reused():
    model = small_random_model(np.random.default_rng(3))
    assert "level_layout" not in vars(model)
    policy_evaluate(model, reactive_policy(model), 2.0)
    layout = vars(model)["level_layout"]
    spi_solve(model, 2.0)
    stationary_metrics(model, never_transmit_policy(model))
    assert vars(model)["level_layout"] is layout
    # int32 throughout: the layout lives as long as the model.
    arrays = [layout.order, layout.position, layout.idle_local, layout.resets, layout.group]
    assert all(a.dtype == np.int32 for a in arrays + list(layout.top))


# Chains far from diagonal dominance: under the delayed timing the success
# targets carry the AoCE of the (source, estimate) pair, so the success rows
# split into more groups G than source states.
CROSS_CHAINS = {
    "cycle": ([[0.2, 0.7, 0.1], [0.1, 0.2, 0.7], [0.7, 0.1, 0.2]], 24, 30),
    "mixed": ([[0.3, 0.6, 0.1], [0.5, 0.2, 0.3], [0.1, 0.3, 0.6]], 17, 23),
}


def cross_model(name, timing="delayed"):
    rows = CROSS_CHAINS[name][0]
    chain = validate_chain(rows)
    return build_model(chain, 0.7, "hamming", main_age_function(), 8, 8, "map", timing=timing)


def test_success_groups_number_at_most_the_reset_states(request):
    fixtures = ["main_model", "paper_model", "zoh_model", "paper_zoh_model", "sym_model"]
    models = [request.getfixturevalue(f) for f in fixtures]
    for name, (_, groups, resets) in CROSS_CHAINS.items():
        model = cross_model(name)
        check_level_layout(model)
        assert model.level_layout.weights.shape == (groups, resets)
        models += [model, cross_model(name, "immediate")]
    rng = np.random.default_rng(13)
    for timing in ("immediate", "delayed"):
        models += [small_random_model(rng, timing=timing) for _ in range(3)]
    for model in models:
        layout = model.level_layout
        assert layout.weights.shape[0] <= layout.resets.size
        if model.timing == "immediate":
            assert layout.weights.shape[0] == model.n_states


@pytest.mark.parametrize("name", list(CROSS_CHAINS))
def test_grouped_deliveries_are_the_success_kernel(name):
    model = cross_model(name)
    layout = model.level_layout
    s_count, order = model.num_mdp_states, model.level_layout.order[:-1]
    rng = np.random.default_rng(7)
    for q in (reactive_policy(model).actions, rng.uniform(0.0, 1.0, s_count)):
        q = np.asarray(q, dtype=float)
        factor = _pinned_lu(model, q)
        # U V^T from the layout: U = diag(p_s q) E, V^T = W S_T.
        u = np.zeros((s_count, layout.weights.shape[0]))
        u[order, layout.group] = factor.send
        uvt = np.zeros((s_count, s_count))
        uvt[:, order[layout.resets]] = u @ layout.weights
        succ = np.zeros((s_count, s_count))
        rows = np.arange(s_count)[:, None]
        np.add.at(succ, (rows, model.succ_targets), (model.p_s * q)[:, None] * model.source_rows)
        assert np.abs(uvt - succ).max() <= 1e-15


@pytest.mark.parametrize("name", list(CROSS_CHAINS))
def test_grouped_solve_matches_dense(name):
    model = cross_model(name)
    policies = [reactive_policy(model), spi_solve(model, 2.0)[0], never_transmit_policy(model)]
    assert policies[1].actions.any()
    for policy in policies:
        q = policy.actions.astype(float)
        reach, sol, mu = dense_class_solution(model, q, 2.0)
        gb = policy_evaluate(model, policy, 2.0)
        assert abs(gb.gain - sol[-1, 0]) <= 1e-10
        assert np.abs(gb.bias[reach] - sol[:-1, 0]).max() <= 1e-10
        met = stationary_metrics(model, policy)
        assert np.array_equal(met.reachable, reach)
        assert np.abs(met.mu[reach] - mu).max() <= 1e-10
        assert abs(met.F - sol[-1, 2]) <= 1e-10 and abs(met.J - sol[-1, 1]) <= 1e-10
    assert policy_evaluate(model, policies[2], 2.0).method == "class-solve"


def test_spi_settles_between_two_nearby_crossings(main_model):
    # The price lies between two per-state zero crossings 8.4e-12 apart, so
    # 21 Q-differences are round-off of about 1e-12, where the largest is
    # 7e4: an absolute tie tolerance of 1e-12 let SPI swap between two
    # policies of equal gain until its pass cap.
    _, gb, _ = spi_solve(main_model, 117.86340955112227)
    assert abs(gb.f_component - 0.0343072) <= 1e-7
    assert abs(gb.gain - 7.444513194966) <= 1e-9


def test_class_route_still_taken_at_high_price(main_config):
    # SPI iterates at high prices reach never-transmit on delta_max = 2, so
    # the reactive start does not make the class route dead code.
    model = main_config.with_overrides(delta_max=2).build_model(timing="delayed")
    gb = policy_evaluate(model, never_transmit_policy(model), 1000.0)
    assert gb.method == "class-solve"
    assert gb.residual <= RESIDUAL_TOL


def dense_kernel(model, tx_prob):
    """K(q) as a dense matrix, built entry by entry from the targets."""
    s_count, n = model.idle_targets.shape
    w = model.p_s * np.asarray(tx_prob, dtype=float)
    kernel = np.zeros((s_count, s_count))
    for s in range(s_count):
        for k in range(n):
            kernel[s, model.idle_targets[s, k]] += (1.0 - w[s]) * model.source_rows[s, k]
            kernel[s, model.succ_targets[s, k]] += w[s] * model.source_rows[s, k]
    return kernel


def dense_closed_classes(kernel):
    """The closed classes of a dense kernel, each a sorted index array."""
    support = sp.csr_matrix(kernel > 0)
    count, label = connected_components(support, directed=True, connection="strong")
    return [
        np.flatnonzero(label == c)
        for c in range(count)
        if (label[support[label == c].indices] == c).all()
    ]


def dense_multichain_solution(model, actions, lam):
    """Dense multichain oracle: each closed class of K solved on its own by
    numpy.linalg.solve, then the transient block, g_T = (I - K_TT)^{-1}
    K_TR g_R and h_T = (I - K_TT)^{-1} (c_T - g_T + K_TR h_R).  Each class's
    bias has zero mean under its stationary law, and the whole bias is then
    shifted to zero at the reference state.  Returns the per-state gains and
    biases (S, 3) of the cost rows (lam-cost, error cost, transmit
    indicator) and the closed classes."""
    kernel = dense_kernel(model, actions)
    a = actions.astype(bool)
    err = np.where(a, model.tx_cost, model.idle_cost)
    costs = np.column_stack([err + lam * a, err, a.astype(float)])
    gains, bias = np.zeros_like(costs), np.zeros_like(costs)
    closed = dense_closed_classes(kernel)
    recurrent = np.zeros(model.num_mdp_states, dtype=bool)
    for members in closed:
        m = members.size
        k = kernel[np.ix_(members, members)]
        system = np.zeros((m + 1, m + 1))
        system[:m, :m] = np.eye(m) - k
        system[:m, m] = 1.0
        system[m, 0] = 1.0
        sol = np.linalg.solve(system, np.vstack([costs[members], np.zeros(3)]))
        balance = k.T - np.eye(m)
        balance[-1] = 1.0
        law = np.linalg.solve(balance, np.eye(m)[-1])
        gains[members], bias[members] = sol[-1], sol[:-1] - law @ sol[:-1]
        recurrent[members] = True
    t = ~recurrent
    k_tr = kernel[t][:, recurrent]
    lhs = np.eye(np.count_nonzero(t)) - kernel[np.ix_(t, t)]
    gains[t] = np.linalg.solve(lhs, k_tr @ gains[recurrent])
    bias[t] = np.linalg.solve(lhs, costs[t] - gains[t] + k_tr @ bias[recurrent])
    return gains, bias - bias[model.ref_index], closed


@pytest.mark.parametrize("timing", ["immediate", "delayed"])
def test_two_transmitting_classes_match_dense_multichain(main_config, timing):
    # Transmitting iff x = z and z is 0 or 1 leaves three closed classes,
    # two of them transmitting: not every class can be read from the
    # theta_max level's idle chain.
    model = main_config.with_overrides(theta_max=6, delta_max=6).build_model(timing=timing)
    actions = ((model.x_of == model.z_of) & (model.z_of <= 1)).astype(np.uint8)
    gb = policy_evaluate(model, DeterministicPolicy(actions), 2.0)
    gains, bias, closed = dense_multichain_solution(model, actions, 2.0)
    assert len(closed) == 3
    assert sorted(bool(actions[c].any()) for c in closed) == [False, True, True]
    assert gb.method == "class-solve" and gb.residual <= RESIDUAL_TOL
    assert np.unique(np.round(gains[:, 0], 6)).size >= 2
    assert np.abs(gb.gains - gains[:, 0]).max() <= 1e-10
    ref = model.ref_index
    assert abs(gb.gain - gains[ref, 0]) <= 1e-10
    assert abs(gb.j_component - gains[ref, 1]) <= 1e-10
    assert abs(gb.f_component - gains[ref, 2]) <= 1e-10
    assert gb.bias[ref] == 0.0
    assert np.abs(gb.bias - bias[:, 0]).max() <= 1e-10 * max(1.0, np.abs(bias[:, 0]).max())


@pytest.mark.parametrize("lam", [20.0, 30.0, 50.0])
def test_spi_matches_rvi_on_the_cycling_chain(lam):
    model = cross_model("cycle")
    _, gb, _ = spi_solve(model, lam)
    assert gb.method == "class-solve"
    assert abs(gb.gain - rvi_solve(model, lam)[1].gain) <= 1e-8


def test_class_set_with_two_closed_classes(main_config):
    # The reactive policy cut to content 0 never transmits at contents 1
    # and 2.  The reference state (content 0) is then transient, and the
    # set reachable from it holds two closed classes, contents 1 and 2 at
    # theta_max.  The law started from the reference state is each class's
    # law weighted by the probability of ending in that class.
    model = main_config.with_overrides(delta_max=2).build_model(timing="delayed")
    q = (reactive_policy(model).actions * (model.z_of == 0)).astype(float)
    kernel = dense_kernel(model, q)
    reach = reachable_set(induced_kernel(model, q), model.ref_index)
    closed = [c for c in dense_closed_classes(kernel) if np.isin(c, reach).all()]
    assert sorted(int(model.z_of[c[0]]) for c in closed) == [1, 2]
    for members in closed:
        assert members.size == 5
        assert (model.theta_of[members] == model.theta_max).all()
        assert np.unique(model.z_of[members]).size == 1
        assert not q[members].any()
        assert model.ref_index not in members
    met = stationary_metrics(model, DeterministicPolicy(q.astype(np.uint8)))
    assert np.array_equal(met.reachable, reach)
    # Absorption probabilities from the transient states, dense.
    recurrent = np.zeros(model.num_mdp_states, dtype=bool)
    for members in dense_closed_classes(kernel):
        recurrent[members] = True
    t = np.flatnonzero(~recurrent)
    k_tt = kernel[np.ix_(t, t)]
    into = np.column_stack([kernel[t][:, c].sum(axis=1) for c in closed])
    absorb = np.linalg.solve(np.eye(t.size) - k_tt, into)[np.searchsorted(t, model.ref_index)]
    assert (absorb > 0.0).all() and abs(absorb.sum() - 1.0) <= 1e-12
    expected = np.zeros(model.num_mdp_states)
    for members, weight in zip(closed, absorb):
        k = kernel[np.ix_(members, members)]
        balance = k.T - np.eye(members.size)
        balance[-1] = 1.0
        expected[members] = weight * np.linalg.solve(balance, np.eye(members.size)[-1])
        # Balance on each class.
        mu = met.mu[members]
        assert np.abs(mu @ k - mu).max() <= STATIONARY_TOL
    assert np.abs(met.mu - expected).max() <= 1e-10
    assert abs(met.F - expected @ q) <= 1e-10


def test_policy_copies_the_callers_table():
    a = np.zeros(4, np.uint8)
    policy = DeterministicPolicy(a)
    a[0] = 1
    assert a.flags.writeable
    assert not policy.actions.any()
    assert not policy.actions.flags.writeable


@pytest.mark.parametrize("timing", ["immediate", "delayed"])
def test_perfect_channel_class_skips_zero_probability_entries(timing):
    # With p_s = 1 the idle entries of a transmitting state have probability
    # 0; the class found for the stationary law must not follow them.
    model = build_model(
        validate_chain(MAIN_ROWS), 1.0, "hamming", main_age_function(), 8, 8, "map",
        timing=timing,
    )
    solution = solve_cmdp(model, 0.1)
    assert solution.is_mixture
    mix = solution.policy
    reactive = reactive_policy(model)
    cases = [
        (reactive, reactive.actions.astype(float)),
        (mix, mix.p * mix.policy_minus.actions + (1.0 - mix.p) * mix.policy_plus.actions),
    ]
    s_count = model.num_mdp_states
    states = np.arange(s_count)[:, None]
    for policy, q in cases:
        met = stationary_metrics(model, policy)
        dense = np.zeros((s_count, s_count))
        np.add.at(dense, (states, model.idle_targets), (1.0 - q)[:, None] * model.source_rows)
        np.add.at(dense, (states, model.succ_targets), q[:, None] * model.source_rows)
        seen = np.zeros(s_count, dtype=bool)
        seen[model.ref_index] = True
        frontier = [model.ref_index]
        while len(frontier):
            frontier = np.flatnonzero((dense[frontier] > 0).any(axis=0) & ~seen)
            seen[frontier] = True
        assert np.array_equal(met.reachable, np.flatnonzero(seen))
        assert np.all(met.mu[~seen] == 0.0)


def count_factors(monkeypatch):
    """Record the transmit probabilities of every ``_pinned_lu`` call."""
    factored = []
    pinned_lu = remest.solver._pinned_lu

    def counted(model, tx_prob):
        factored.append(np.array(tx_prob))
        return pinned_lu(model, tx_prob)

    monkeypatch.setattr(remest.solver, "_pinned_lu", counted)
    return factored


@pytest.mark.parametrize("fixture", ["main_model", "paper_model", "zoh_model", "paper_zoh_model"])
@pytest.mark.parametrize("lam_from, lam_to", [(0.5, 7.5), (7.5, 0.0), (2.0, 20.0)])
def test_repriced_matches_fresh_evaluation(fixture, lam_from, lam_to, request):
    model = request.getfixturevalue(fixture)
    policy = reactive_policy(model)
    start = policy_evaluate(model, policy, lam_from)
    assert start.method == "pinned-lu"
    moved = _repriced(start, lam_to)
    fresh = policy_evaluate(model, policy, lam_to)
    assert moved.lam == lam_to
    assert abs(moved.gain - fresh.gain) < 1e-10
    assert np.abs(moved.bias - fresh.bias).max() < 1e-9
    assert abs(moved.j_component - fresh.j_component) < 1e-10
    assert abs(moved.f_component - fresh.f_component) < 1e-10


@pytest.mark.parametrize("fixture", ["main_model", "paper_model", "paper_zoh_model"])
def test_warm_start_at_fixed_point_factors_nothing(fixture, request, monkeypatch):
    model = request.getfixturevalue(fixture)
    policy, gb, _ = spi_solve(model, 5.0)
    factored = count_factors(monkeypatch)
    store = {policy.actions.tobytes(): gb}
    again, gb_again, _ = spi_solve(model, 5.0, policy0=policy, _store=store)
    assert factored == []
    assert again.same_as(policy)
    assert gb_again.gain == gb.gain
    assert gb_again.residual <= RESIDUAL_TOL
    # Without its evaluation the same start is evaluated, so the count works.
    spi_solve(model, 5.0, policy0=policy)
    assert len(factored) == 1


def test_class_solve_start_is_evaluated_again(main_config, monkeypatch):
    model = main_config.with_overrides(delta_max=2).build_model(timing="delayed")
    never = never_transmit_policy(model)
    gb = policy_evaluate(model, never, 1000.0)
    assert gb.method == "class-solve" and gb.parts is None
    factored = count_factors(monkeypatch)
    spi_solve(model, 1000.0, policy0=never, _store={never.actions.tobytes(): gb})
    assert factored and not factored[0].any()  # the first factor is the start's


@pytest.mark.parametrize("fixture", ["paper_model", "paper_zoh_model"])
def test_warm_sweep_matches_cold_solves(fixture, request):
    model = request.getfixturevalue(fixture)
    for outcome in sweep_lambda(model, LAMBDA_GRID):
        policy, gb, _ = spi_solve(model, outcome.lam)
        assert outcome.policy.same_as(policy), outcome.lam
        assert abs(outcome.gain - gb.gain) < 1e-10
        assert abs(outcome.F - gb.f_component) < 1e-10


def test_start_failing_residual_check_is_evaluated_again(main_model, monkeypatch):
    # The evaluation of another policy does not satisfy the start policy's
    # Bellman equations, so its re-pricing must not be used.
    reactive = reactive_policy(main_model)
    policy, gb, _ = spi_solve(main_model, 5.0)
    assert not policy.same_as(reactive)
    factored = count_factors(monkeypatch)
    store = {reactive.actions.tobytes(): gb}
    warm, gb_warm, _ = spi_solve(main_model, 5.0, policy0=reactive, _store=store)
    assert np.array_equal(factored[0], reactive.actions)
    assert warm.same_as(policy)
    assert abs(gb_warm.gain - gb.gain) < 1e-10


def test_wrong_level_solve_falls_back_to_the_class_route(main_model, monkeypatch):
    # A level solve off by 1e-6 at one state fails the Bellman residual
    # check, so the evaluation is made class by class instead.
    policy = reactive_policy(main_model)
    exact = policy_evaluate(main_model, policy, 2.0)
    assert exact.method == "pinned-lu"
    solve = remest.solver._LevelFactor.solve
    state = (main_model.ref_index + 1) % main_model.num_mdp_states

    def off_by_one_state(self, rhs):
        x = solve(self, rhs)
        x[state] += 1e-6
        return x

    monkeypatch.setattr(remest.solver._LevelFactor, "solve", off_by_one_state)
    gb = policy_evaluate(main_model, policy, 2.0)
    assert gb.method == "class-solve"
    assert abs(gb.gain - exact.gain) <= 1e-9
    assert np.abs(gb.bias - exact.bias).max() <= 1e-9


def test_wrong_class_solve_raises(zoh_model, monkeypatch):
    # Never transmitting on the hold-last-value model splits the chain into
    # closed classes; a class solve off by 1e-6 at one state must not pass.
    policy = never_transmit_policy(zoh_model)
    assert policy_evaluate(zoh_model, policy, 2.0).method == "class-solve"
    class_systems = remest.solver._class_systems

    class OffByOneState:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            x[0] += 1e-6
            return x

    def perturbed(kernel, ref):
        members, lus, *rest = class_systems(kernel, ref)
        largest = int(np.argmax([states.size for states in members]))
        assert members[largest].size > 1  # one state's bias is always zero
        lus[largest] = OffByOneState(lus[largest])
        return (members, lus, *rest)

    monkeypatch.setattr(remest.solver, "_class_systems", perturbed)
    with pytest.raises(ConvergenceFailure):
        policy_evaluate(zoh_model, policy, 2.0)
