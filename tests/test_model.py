import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remest import (
    AgeFunction,
    DistortionDiagonalError,
    DomainError,
    build_model,
    check_assumption1,
    symmetric_chain,
    validate_chain,
)
from remest.solver import _kernel_values, _stage_costs
from conftest import MAIN_ROWS, main_age_function


def main_model_small(theta_max=20, delta_max=20):
    return build_model(
        validate_chain(MAIN_ROWS), 0.7, "hamming", main_age_function(),
        theta_max, delta_max, "map",
    )


class TestAgeFunction:
    def test_reference_values(self):
        rho = main_age_function()
        assert abs(rho.value(0) - 1.5) < 1e-15
        assert abs(rho.value(3) - (1.2 * math.exp(1.65) + 0.3)) < 1e-12

    def test_table_lookup(self):
        rho = AgeFunction.from_table([0.0, 1.0, 2.0])
        assert rho.value(1) == 1.0

    def test_table_geometric_tail(self):
        rho = AgeFunction.from_table([1.0, 2.0], tail_ratio=3.0)
        assert rho.value(2) == 6.0
        assert rho.value(4) == 54.0

    def test_polynomial(self):
        rho = AgeFunction.polynomial([1.0, 0.0, 2.0])
        assert rho.value(3) == 19.0
        assert rho.limit_ratio() == 1.0

    def test_rejects_negative_params(self):
        with pytest.raises(DomainError):
            AgeFunction.exponential_affine(-1.0, 0.5, 0.0)

    def test_rejects_decreasing_table(self):
        rho = AgeFunction.from_table([2.0, 1.0])
        with pytest.raises(DomainError):
            rho.validate_nondecreasing(4)


class TestBuildModel:
    def test_state_count_reference(self):
        model = main_model_small()
        assert model.num_mdp_states == 9 * 21 * 21 == 3969

    def test_state_count_zoh(self):
        model = build_model(
            validate_chain(MAIN_ROWS), 0.7, "hamming", main_age_function(), 1, 20, "zoh"
        )
        assert model.num_mdp_states == 9 * 2 * 21 == 378

    def test_distortion_diagonal_rejected(self):
        d = np.ones((3, 3))
        with pytest.raises(DistortionDiagonalError):
            build_model(
                validate_chain(MAIN_ROWS), 0.7, d, main_age_function(), 20, 20, "map"
            )

    def test_encode_decode_bijection(self):
        model = main_model_small(theta_max=4, delta_max=3)
        seen = set()
        for idx in range(model.num_mdp_states):
            s = model.decode(idx)
            assert model.encode(s.x, s.z, s.theta, s.delta) == idx
            seen.add((s.x, s.z, s.theta, s.delta))
        assert len(seen) == model.num_mdp_states


class TestAssumptionCheck:
    def test_reference_configuration_holds(self):
        report = check_assumption1(main_model_small())
        assert report.holds
        assert abs(report.limit_ratio - math.exp(0.55)) < 1e-12
        assert abs(report.bound_per_state.min() - 1.0 / (0.8 * 0.3)) < 1e-12

    def test_polynomial_always_holds_when_persistence_below_one(self):
        model = build_model(
            validate_chain(MAIN_ROWS), 0.7, "hamming",
            AgeFunction.polynomial([1.0, 1.0]), 10, 10, "map",
        )
        report = check_assumption1(model)
        assert report.holds and report.limit_ratio == 1.0

    def test_fast_growth_fails(self):
        # Growth ratio 3 against persistence bound 1/(0.9 * 0.5) = 2.22.
        chain = validate_chain([[0.9, 0.1], [0.1, 0.9]])
        rho = AgeFunction.exponential_affine(1.0, math.log(3.0), 0.0)
        model = build_model(chain, 0.5, "hamming", rho, 5, 5, "map")
        report = check_assumption1(model)
        assert not report.holds
        assert abs(report.limit_ratio - 3.0) < 1e-12


class TestDynamics:
    def test_symmetric_same_error_case(self):
        model = build_model(
            symmetric_chain(3, 0.1), 0.7, "hamming", main_age_function(), 20, 20, "map"
        )
        i = int(model.encode(0, 1, 2, 3))
        assert (model.est_next[i], model.delta_next[i]) == (1, 4)

    def test_self_syncing_case(self):
        # Content 1 at age 1 flips to estimate 0 at age 2 on the main chain,
        # so a source sitting at 0 becomes synced by aging alone.
        model = main_model_small()
        i = int(model.encode(0, 1, 1, 2))
        assert (model.est_next[i], model.delta_next[i]) == (0, 0)

    def test_fresh_error_on_estimate_flip(self):
        # (x=1, z=1, theta=1): estimate flips 1 -> 0, neither source nor the
        # old estimate: a new error of age 1.
        model = main_model_small()
        i = int(model.encode(1, 1, 1, 1))
        assert (model.est_next[i], model.delta_next[i]) == (0, 1)

    def test_two_state_flip_chain_case(self):
        chain_a = validate_chain([[0.8, 0.2], [0.3, 0.7]])
        model = build_model(chain_a, 0.7, "hamming", main_age_function(), 10, 10, "map")
        i = int(model.encode(1, 1, 2, 1))
        assert (model.est_next[i], model.delta_next[i]) == (0, 1)

    def test_idle_fan_probabilities(self):
        model = main_model_small()
        idle = np.zeros(model.num_mdp_states, dtype=np.uint8)
        column = _kernel_values(model, idle)[:, 1234]
        assert abs(column.sum() - 1.0) < 1e-12
        assert (column[model.n_states :] == 0.0).all()
        assert _stage_costs(model, idle)[1][1234] == 0

    def test_transmit_fan_probabilities_and_weights(self):
        model = main_model_small()
        n = model.n_states
        kernel = _kernel_values(model, np.ones(model.num_mdp_states))
        assert kernel.shape == (2 * n, model.num_mdp_states)
        assert abs(kernel[:, 987].sum() - 1.0) < 1e-12
        # The success entries, at succ_targets[987], carry p_s * Q(x, x').
        x = model.decode(987).x
        assert np.abs(kernel[n:, 987] - 0.7 * model.chain.rows[x]).max() < 1e-12

    def test_success_targets_are_fresh_synced(self):
        model = main_model_small()
        for idx in (0, 777, 2048, 3968):
            s = model.decode(idx)
            for tgt in model.succ_targets[idx]:
                t = model.decode(int(tgt))
                assert t.z == s.x and t.theta == 0 and t.delta == 0

    def test_info_age_saturates(self):
        model = main_model_small()
        at_cap = np.flatnonzero(model.theta_of == model.theta_max)
        targets = model.idle_targets[at_cap]
        assert (model.theta_of[targets] == model.theta_max).all()

    def test_error_age_saturates_in_same_error(self):
        model = main_model_small()
        mask = (model.delta_of == model.delta_max) & model.case_same_error
        assert mask.any()
        assert (model.delta_next[mask] == model.delta_max).all()

    def test_age_zero_only_with_error_age_zero(self):
        model = main_model_small()
        for arr in (model.idle_targets, model.succ_targets):
            flat = arr.ravel()
            theta0 = model.theta_of[flat] == 0
            assert (model.delta_of[flat][theta0] == 0).all()

    def test_stage_cost_reference_case(self):
        # Same estimate, wrong, error age 2: one slot costs rho(3).
        model = build_model(
            symmetric_chain(3, 0.1), 0.7, "hamming", main_age_function(), 20, 20, "map"
        )
        i = int(model.encode(0, 1, 3, 2))
        err, tx = _stage_costs(model, np.zeros(model.num_mdp_states, dtype=np.uint8))
        rho3 = 1.2 * math.exp(0.55 * 3) + 0.3
        assert abs(err[i] + 5.0 * tx[i] - rho3) < 1e-12
        assert abs(rho3 - 6.548380) < 1e-4

    def test_synced_slot_costs_nothing(self):
        model = main_model_small()
        idx = int(np.flatnonzero(model.synced_after_aging)[0])
        err, tx = _stage_costs(model, np.zeros(model.num_mdp_states, dtype=np.uint8))
        assert err[idx] + 7.0 * tx[idx] == 0.0

    def test_transmit_cost_identity(self):
        # cost(transmit) - cost(idle) == lam - p_s * idle_error_cost.
        model = main_model_small()
        lam = 2.5
        idle_err, idle_tx = _stage_costs(model, np.zeros(model.num_mdp_states, dtype=np.uint8))
        send_err, send_tx = _stage_costs(model, np.ones(model.num_mdp_states, dtype=np.uint8))
        lhs = (send_err + lam * send_tx) - (idle_err + lam * idle_tx)
        rhs = lam - 0.7 * model.idle_cost
        for idx in (5, 444, 1303, 3000):
            assert abs(lhs[idx] - rhs[idx]) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.permutations([0, 1, 2]), st.integers(0, 3968))
    def test_symmetric_model_permutation_invariance(self, perm, idx):
        model = build_model(
            symmetric_chain(3, 0.1), 0.7, "hamming", main_age_function(), 20, 20, "map"
        )
        perm = list(perm)
        s = model.decode(idx)
        t_idx = int(model.encode(perm[s.x], perm[s.z], s.theta, s.delta))
        # Row s of the targets lists state s's K(q) entries in _kernel_values order.
        targets = np.hstack([model.idle_targets, model.succ_targets])
        for u in (0, 1):
            actions = np.full(model.num_mdp_states, u, dtype=np.uint8)
            err, tx = _stage_costs(model, actions)
            cost = err + 1.0 * tx
            assert abs(cost[idx] - cost[t_idx]) < 1e-12
            kernel = _kernel_values(model, actions)
            mapped = {}
            for tgt, p in zip(targets[idx], kernel[:, idx]):
                if p > 0.0:
                    d = model.decode(int(tgt))
                    key = int(model.encode(perm[d.x], perm[d.z], d.theta, d.delta))
                    mapped[key] = mapped.get(key, 0.0) + p
            perm_pairs = {}
            for tgt, p in zip(targets[t_idx], kernel[:, t_idx]):
                if p > 0.0:
                    perm_pairs[int(tgt)] = perm_pairs.get(int(tgt), 0.0) + p
            assert set(mapped) == set(perm_pairs)
            for key, p in mapped.items():
                assert abs(p - perm_pairs[key]) < 1e-12


class TestDelayedTiming:
    @staticmethod
    def sym_delayed():
        # Symmetric chain: the estimate always equals the held content.
        return build_model(
            symmetric_chain(3, 0.1), 0.7, "hamming", main_age_function(), 20, 20,
            "map", timing="delayed",
        )

    def test_unknown_timing_rejected(self):
        with pytest.raises(DomainError):
            build_model(
                validate_chain(MAIN_ROWS), 0.7, "hamming", main_age_function(),
                5, 5, "map", timing="late",
            )

    def test_success_arrives_next_slot_at_age_one(self):
        model = self.sym_delayed()
        for idx in (0, 777, 2048, 3968):
            s = model.decode(idx)
            for tgt in model.succ_targets[idx]:
                t = model.decode(int(tgt))
                assert t.z == s.x and t.theta == 1

    def test_error_age_follows_source_estimate_pair(self):
        # Estimate 1 is wrong for source 0 at error age 2.  Idle: the source
        # staying at 0 keeps the pair, moving to 2 makes a fresh error, moving
        # to 1 syncs.
        model = self.sym_delayed()
        idx = int(model.encode(0, 1, 3, 2))
        ages = [model.decode(int(t)).delta for t in model.idle_targets[idx]]
        assert ages == [3, 0, 1]

    def test_slot_charged_whatever_the_action(self):
        model = self.sym_delayed()
        idx = int(model.encode(0, 1, 3, 2))
        rho2 = main_age_function().value(2)
        for u in (0, 1):
            err, tx = _stage_costs(model, np.full(model.num_mdp_states, u, dtype=np.uint8))
            assert err[idx] == pytest.approx(rho2)
            assert err[idx] + 5.0 * tx[idx] == pytest.approx(5.0 * u + rho2, abs=1e-12)

    def test_pinned_where_current_estimate_is_right(self):
        model = self.sym_delayed()
        assert (model.idle_pinned == (model.z_of == model.x_of)).all()
