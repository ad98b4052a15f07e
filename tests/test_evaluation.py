import numpy as np
import pytest

import remest.evaluation
from remest import (
    ConvergenceFailure,
    DeterministicPolicy,
    DomainError,
    SupportMismatchError,
    build_model,
    kl_truncation,
    policy_evaluate,
    reactive_policy,
    simulate,
    stationary_metrics,
    sweep_lambda,
    symmetric_chain,
    validate_chain,
)
from conftest import LAMBDA_GRID, MAIN_ROWS, main_age_function

# SimReport.as_dict() of the simulator as it stood before the slots ran in
# blocks, one slot at a time on numpy scalars.  The block simulator must give
# every field bit for bit.  Cases: (model fixture, policy, horizon, seed).
PINNED_SIM = [
    # f = 0.1 mixture, immediate timing; 200 017 slots span several blocks
    # and end in a partial one.
    ("main_model", "mixture", 200_017, 7, {
        "horizon": 200000, "seed": 7, "empirical_F": 0.100175,
        "empirical_J_model": 1.2520142230171296,
        "empirical_J_strict": 1.1550076417168444,
        "se_F": 0.0007804449934204858, "se_J_model": 0.007702008162439411,
        "se_J_strict": 0.006576780055589767,
        "channel_success_rate": 0.7008235587721487,
        "transmissions": 20035, "n_batches": 50,
    }),
    # f = 0.1 mixture, delayed timing.
    ("paper_model", "mixture", 50_000, 123, {
        "horizon": 50000, "seed": 123, "empirical_F": 0.0977,
        "empirical_J_model": 1.5881206313066374,
        "empirical_J_strict": 1.5881206313066374,
        "se_F": 0.0014038576589279314, "se_J_model": 0.018454664508099627,
        "se_J_strict": 0.018454664508099627,
        "channel_success_rate": 0.7064483111566019,
        "transmissions": 4885, "n_batches": 50,
    }),
    # Deterministic policy: no coin stream is drawn.
    ("main_model", "reactive", 10**4, 20240901, {
        "horizon": 10000, "seed": 20240901, "empirical_F": 0.353,
        "empirical_J_model": 0.30374114672008534,
        "empirical_J_strict": 0.2972735441214497,
        "se_F": 0.006343886660335577, "se_J_model": 0.01396303905737167,
        "se_J_strict": 0.01321172711206118,
        "channel_success_rate": 0.6946175637393768,
        "transmissions": 3530, "n_batches": 50,
    }),
    # delta_max = 2 under the delayed timing: both error ages follow the
    # pair-reset rule, so they differ only where the strict age passes the
    # truncation and its cost reads rho beyond model.rho_values.
    ("short_delta_model", "reactive", 50_000, 7, {
        "horizon": 50000, "seed": 7, "empirical_F": 0.34542,
        "empirical_J_model": 0.9071361418930133,
        "empirical_J_strict": 0.9469996313890572,
        "se_F": 0.002777473525287589, "se_J_model": 0.00751411188241084,
        "se_J_strict": 0.00903374683638311,
        "channel_success_rate": 0.698164553297435,
        "transmissions": 17271, "n_batches": 50,
    }),
]


@pytest.fixture(scope="module")
def short_delta_model(main_config):
    return main_config.with_overrides(delta_max=2).build_model(timing="delayed")


class TestStationaryMetrics:
    def test_always_transmit_perfect_channel(self):
        model = build_model(
            validate_chain(MAIN_ROWS), 1.0, "hamming", main_age_function(), 8, 8, "map"
        )
        policy = DeterministicPolicy(np.ones(model.num_mdp_states, dtype=np.uint8))
        met = stationary_metrics(model, policy)
        assert abs(met.F - 1.0) < 1e-10
        assert met.J < 1e-10

    def test_reactive_symmetric_perfect_channel(self):
        model = build_model(
            symmetric_chain(3, 0.1), 1.0, "hamming", main_age_function(), 20, 20, "map"
        )
        met = stationary_metrics(model, reactive_policy(model))
        assert abs(met.F - 0.2) < 1e-10
        assert met.J < 1e-10

    def test_mass_sums_to_one_on_reachable_class(self, main_model):
        met = stationary_metrics(main_model, reactive_policy(main_model))
        assert abs(met.mu.sum() - 1.0) < 1e-10
        assert (met.mu >= 0).all()
        assert met.F == pytest.approx(float(met.mu @ reactive_policy(main_model).actions))

    def test_l_at_combines_parts(self, main_model):
        met = stationary_metrics(main_model, reactive_policy(main_model))
        assert met.L_at(3.0) == pytest.approx(met.J + 3.0 * met.F)

    def test_frequency_matches_evaluation_gain(self, main_model):
        # Dual route: stationary expectation vs evaluation-equation gain.
        policy = reactive_policy(main_model)
        met = stationary_metrics(main_model, policy)
        gb = policy_evaluate(main_model, policy, lam=0.0)
        assert abs(met.F - gb.f_component) < 1e-8


class TestSweepLambda:
    def test_single_point_grid(self, main_model):
        outs = sweep_lambda(main_model, [0.0])
        met = stationary_metrics(main_model, reactive_policy(main_model))
        assert outs[0].F == pytest.approx(met.F, abs=1e-10)

    def test_rejects_unsorted_grid(self, main_model):
        with pytest.raises(DomainError):
            sweep_lambda(main_model, [1.0, 0.5])

    def test_library_error_recorded_programming_error_raised(self, main_model, monkeypatch):
        solve = remest.evaluation.spi_solve

        def failing_at_one(model, lam, **kwargs):
            if lam == 1.0:
                raise ConvergenceFailure("stub failure at lam = 1")
            return solve(model, lam, **kwargs)

        monkeypatch.setattr(remest.evaluation, "spi_solve", failing_at_one)
        outs = sweep_lambda(main_model, [0.5, 1.0, 2.0])
        assert outs[1].diagnostics["error"] == "ConvergenceFailure: stub failure at lam = 1"
        assert outs[1].policy is None
        assert outs[0].policy is not None and outs[2].policy is not None

        def broken(model, lam, **kwargs):
            raise TypeError("stub programming error")

        monkeypatch.setattr(remest.evaluation, "spi_solve", broken)
        with pytest.raises(TypeError):
            sweep_lambda(main_model, [0.5])

    @pytest.mark.parametrize("fixture", ["main_model", "paper_model"])
    def test_rates_match_stationary_metrics(self, fixture, request):
        # The sweep reads J and F from the evaluation's extra right-hand
        # sides; the stationary law of the same policy must give them too.
        model = request.getfixturevalue(fixture)
        for o in sweep_lambda(model, LAMBDA_GRID[::4]):
            met = stationary_metrics(model, o.policy)
            assert abs(o.J - met.J) < 1e-10
            assert abs(o.F - met.F) < 1e-10

    def test_monotone_rates(self, main_sweep):
        fs = [o.F for o in main_sweep]
        js = [o.J for o in main_sweep]
        assert all(b <= a + 1e-9 for a, b in zip(fs, fs[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(js, js[1:]))

    def test_relaxed_cost_concave(self, main_sweep):
        ls = np.array([o.L for o in main_sweep])
        second = np.diff(ls, 2)
        assert second.max() <= 1e-9

    def test_gain_matches_stationary_combination(self, main_sweep):
        for o in main_sweep[::8]:
            assert o.gain == pytest.approx(o.J + o.lam * o.F, abs=1e-7)

    def test_symmetric_thresholds_monotone_in_price(self, sym_sweep):
        thresholds = [o.view.distinct()[0] for o in sym_sweep]
        finite = [t for t in thresholds if t != float("inf")]
        assert all(b >= a for a, b in zip(finite, finite[1:]))


class TestKlTruncation:
    def test_identical_truncations_vanish(self, main_config):
        kl = kl_truncation(main_config, 12, 12, 12, 12)
        assert kl == 0.0

    def test_smaller_error_truncation_nonnegative(self, main_config):
        kl = kl_truncation(main_config, 12, 12, 12, 8)
        assert kl >= 0.0

    def test_mismatch_raises_without_optin(self, main_config):
        with pytest.raises(SupportMismatchError) as err:
            kl_truncation(main_config, 20, 20, 1, 20)
        assert err.value.states

    def test_mismatch_optin_returns_infinite(self, main_config):
        kl = kl_truncation(main_config, 20, 20, 1, 20, infinite_on_mismatch=True)
        assert kl == float("inf")

    def test_rejects_oversized_small_space(self, main_config):
        with pytest.raises(DomainError):
            kl_truncation(main_config, 10, 10, 12, 10)


class TestSimulate:
    def test_seed_reproducibility(self, main_model):
        policy = reactive_policy(main_model)
        r1 = simulate(main_model, policy, 10**4, 7)
        r2 = simulate(main_model, policy, 10**4, 7)
        assert r1.as_dict() == r2.as_dict()

    def test_different_seeds_differ(self, main_model):
        policy = reactive_policy(main_model)
        r1 = simulate(main_model, policy, 10**4, 7)
        r2 = simulate(main_model, policy, 10**4, 8)
        assert r1.empirical_F != r2.empirical_F

    def test_horizon_floor(self, main_model):
        with pytest.raises(DomainError):
            simulate(main_model, reactive_policy(main_model), 100, 7)

    def test_matches_stationary_rates(self, main_model):
        policy = reactive_policy(main_model)
        met = stationary_metrics(main_model, policy)
        rep = simulate(main_model, policy, 2 * 10**5, 123)
        assert abs(rep.empirical_F - met.F) <= 4 * rep.se_F
        assert abs(rep.empirical_J_model - met.J) <= 4 * rep.se_J_model

    def test_delayed_timing_matches_stationary_rates(self, paper_model, solved_main):
        policy = solved_main(paper_model, 0.1).policy
        met = stationary_metrics(paper_model, policy)
        rep = simulate(paper_model, policy, 2 * 10**5, 123)
        assert abs(rep.empirical_F - met.F) <= 4 * rep.se_F
        assert abs(rep.empirical_J_model - met.J) <= 4 * rep.se_J_model

    def test_channel_rate_near_reliability(self, main_model):
        rep = simulate(main_model, reactive_policy(main_model), 2 * 10**5, 5)
        se = np.sqrt(0.7 * 0.3 / rep.transmissions)
        assert abs(rep.channel_success_rate - 0.7) <= 4 * se

    def test_error_scaling_with_horizon(self, main_model):
        policy = reactive_policy(main_model)
        se_small = simulate(main_model, policy, 10**5, 99).se_J_model
        se_large = simulate(main_model, policy, 10**6, 99).se_J_model
        ratio = se_small / se_large
        assert 2.0 < ratio < 4.8  # consistent with 1/sqrt(T) shrinkage

    def test_strict_and_model_semantics_both_tracked(self, main_model):
        rep = simulate(main_model, reactive_policy(main_model), 10**4, 3)
        assert rep.empirical_J_model >= 0.0
        assert rep.empirical_J_strict >= 0.0

    @pytest.mark.parametrize("model_name, kind, horizon, seed, expected", PINNED_SIM)
    def test_report_pinned(self, request, solved_main, model_name, kind, horizon, seed, expected):
        model = request.getfixturevalue(model_name)
        if kind == "mixture":
            policy = solved_main(model, 0.1).policy
        else:
            policy = reactive_policy(model)
        rep = simulate(model, policy, horizon, seed)
        assert rep.as_dict() == expected
        if model_name == "short_delta_model":
            assert rep.empirical_J_strict != rep.empirical_J_model

    def test_mixture_uses_fresh_coin(self, main_model, solved_main):
        sol = solved_main(main_model, 0.1)
        rep = simulate(main_model, sol.policy, 10**5, 11)
        met = stationary_metrics(main_model, sol.policy)
        assert abs(rep.empirical_F - met.F) <= 4 * rep.se_F
