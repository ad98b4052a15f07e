import numpy as np
import pytest

import remest.evaluation
from remest import (
    AgeFunction,
    ConvergenceFailure,
    DeterministicPolicy,
    DomainError,
    MixturePolicy,
    SimReport,
    SupportMismatchError,
    build_model,
    kl_truncation,
    never_transmit_policy,
    policy_evaluate,
    reactive_policy,
    simulate,
    solve_cmdp,
    spi_solve,
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


def reference_simulate(model, policy, horizon, seed):
    """Slot-by-slot simulator that re-derives both slot timings from the
    chain, the channel and the estimate table, never reading the model's
    successor tables: the independent check that those tables encode the
    timing.  It draws the three streams and prices the slots as ``simulate``
    does, one slot at a time and so far slower."""
    p, act_minus, act_plus = remest.evaluation._mixture_parts(policy)
    mixed = act_plus is not act_minus
    n_batches = 50
    batch_len = horizon // n_batches
    used = batch_len * n_batches
    src_ss, ch_ss, coin_ss = np.random.SeedSequence(seed).spawn(3)
    u_src = np.random.default_rng(src_ss).random(used)
    delivered = (np.random.default_rng(ch_ss).random(used) < model.p_s).tolist()
    coin = (np.random.default_rng(coin_ss).random(used) < p).tolist() if mixed else [True] * used

    n, tm, dm = model.n_states, model.theta_max, model.delta_max
    succ = [
        np.minimum(np.searchsorted(row, u_src, side="right"), n - 1).tolist()
        for row in np.cumsum(model.chain.rows, axis=1)
    ]
    table = model.estimates.table.tolist()
    minus, plus = act_minus.tolist(), act_plus.tolist()
    delayed = model.timing == "delayed"
    fresh_age = 1 if delayed else 0

    xstar = int(model.x_of[model.ref_index])
    x = z = xstar
    theta = tm
    delta_model = delta_strict = 0
    x_prev, xhat_prev = xstar, xstar
    xs, xhats, ages_m, ages_s, us = [], [], [], [], []
    ch_success = 0
    for i in range(used):
        acts = minus if coin[i] else plus
        u = acts[((x * n + z) * (tm + 1) + theta) * (dm + 1) + delta_model]
        if delayed:
            xhat = table[z][theta]
        if u and delivered[i]:
            ch_success += 1
            z, theta = x, fresh_age
        elif theta < tm:
            theta += 1
        if not delayed:
            # Immediate timing: the estimate-reset rule on the post-action
            # estimate, compared with the previous slot's pair.
            xhat = table[z][theta]
            if xhat == x:
                delta_model = delta_strict = 0
            else:
                same_pair = x == x_prev and xhat == xhat_prev
                delta_model = min(delta_model + 1, dm) if xhat == xhat_prev else 1
                delta_strict = delta_strict + 1 if same_pair else 1
        xs.append(x)
        xhats.append(xhat)
        ages_m.append(delta_model)
        ages_s.append(delta_strict)
        us.append(u)
        x_prev, xhat_prev = x, xhat
        x = succ[x][i]
        if delayed:
            # Delayed timing: the pair-reset rule on the next slot's
            # (source, estimate) pair, compared with this slot's.
            xhat = table[z][theta]
            if xhat == x:
                delta_model = delta_strict = 0
            elif x == x_prev and xhat == xhat_prev:
                delta_model = min(delta_model + 1, dm)
                delta_strict += 1
            else:
                delta_model = delta_strict = 1

    d_pair = model.distortion[xs, xhats]
    strict = np.array(ages_s)
    rho_strict = model.rho.values(max(int(strict.max()), dm))
    tx_flag = np.array(us, dtype=float)
    tx_total = int(np.count_nonzero(tx_flag))

    def batch_stats(series):
        means = series.reshape(n_batches, batch_len).mean(axis=1)
        return float(series.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))

    f_mean, f_se = batch_stats(tx_flag)
    jm_mean, jm_se = batch_stats(d_pair * model.rho_values[ages_m])
    js_mean, js_se = batch_stats(d_pair * rho_strict[strict])
    return SimReport(
        horizon=used, seed=seed, empirical_F=f_mean, empirical_J_model=jm_mean,
        empirical_J_strict=js_mean, se_F=f_se, se_J_model=jm_se, se_J_strict=js_se,
        channel_success_rate=ch_success / tx_total if tx_total else float("nan"),
        transmissions=tx_total, n_batches=n_batches,
    )


CYCLE3 = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]


def oracle_case_model(chain, estimator, timing, p_s, delta_max):
    """A small model for the oracle comparison: a seeded random n-state
    chain (chain = n) or the 3-cycle (chain = "cycle3")."""
    if chain == "cycle3":
        rows = CYCLE3
    else:
        rng = np.random.default_rng(chain)
        rows = rng.dirichlet(np.full(chain, 0.8), size=chain) + 1.5 * np.eye(chain)
        rows = rows / rows.sum(axis=1, keepdims=True)
    n = len(rows)
    d = np.random.default_rng(7).uniform(0.5, 2.0, size=(n, n))
    np.fill_diagonal(d, 0.0)
    rho = AgeFunction.exponential_affine(1.0, 0.3, 0.2)
    return build_model(validate_chain(rows), p_s, d, rho, 5, delta_max, estimator, timing=timing)


def oracle_case_policy(model, kind):
    if kind == "reactive":
        return reactive_policy(model)
    if kind == "never":
        return never_transmit_policy(model)
    policy = solve_cmdp(model, 0.15, 1000.0, 1e-6).policy
    assert isinstance(policy, MixturePolicy)
    return policy


def same_report(a, b):
    """Field-by-field equality of two reports, NaN equal to NaN."""
    return a == b


# (chain, estimator, timing, p_s, delta_max, policy).  A horizon of 40 017
# keeps 40 000 slots: one full block of 2^15 slots and a partial one.
ORACLE_CASES = [
    (2, "map", "immediate", 0.6, 5, "reactive"),
    (2, "zoh", "delayed", 1.0, 5, "mixture"),
    (2, "map", "delayed", 0.8, 2, "never"),
    (3, "map", "delayed", 0.8, 5, "mixture"),
    (3, "zoh", "immediate", 1.0, 5, "reactive"),
    (3, "map", "immediate", 0.7, 2, "mixture"),
    (4, "map", "immediate", 0.9, 5, "never"),
    (4, "map", "delayed", 1.0, 2, "reactive"),
    (4, "zoh", "delayed", 0.5, 5, "mixture"),
    (4, "zoh", "immediate", 0.7, 5, "mixture"),
    ("cycle3", "map", "immediate", 0.7, 5, "reactive"),
    # The start state's estimate is wrong here: the first slot's pair opens
    # an error run at age 0.
    ("cycle3", "map", "delayed", 0.7, 5, "mixture"),
    ("cycle3", "zoh", "immediate", 1.0, 5, "mixture"),
    ("cycle3", "zoh", "delayed", 0.7, 5, "never"),
    ("cycle3", "zoh", "delayed", 1.0, 2, "reactive"),
]


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

    @pytest.mark.parametrize("chain, estimator, timing, p_s, delta_max, kind", ORACLE_CASES)
    def test_matches_slot_by_slot_reference(self, chain, estimator, timing, p_s, delta_max, kind):
        model = oracle_case_model(chain, estimator, timing, p_s, delta_max)
        policy = oracle_case_policy(model, kind)
        got = simulate(model, policy, 40_017, 11)
        assert same_report(got, reference_simulate(model, policy, 40_017, 11)), got

    @pytest.mark.parametrize("timing", ["immediate", "delayed"])
    @pytest.mark.parametrize("source", ["cycle3", "perfect_channel"])
    @pytest.mark.parametrize("kind", ["reactive", "f=0.1"])
    def test_edge_cases_match_stationary_rates(self, source, timing, kind):
        # A periodic source (hold-last-value receiver, whose estimate the
        # cycle leaves wrong) and a channel that never fails.
        if source == "cycle3":
            model = build_model(
                validate_chain(CYCLE3), 0.7, "hamming", main_age_function(), 1, 20, "zoh",
                timing=timing,
            )
        else:
            model = build_model(
                validate_chain(MAIN_ROWS), 1.0, "hamming", main_age_function(), 20, 20, "map",
                timing=timing,
            )
        if kind == "reactive":
            policy = reactive_policy(model)
        else:
            policy = solve_cmdp(model, 0.1, 1000.0, 1e-6).policy
        met = stationary_metrics(model, policy)
        rep = simulate(model, policy, 2 * 10**5, 3)
        assert abs(rep.empirical_F - met.F) <= 6 * rep.se_F
        assert abs(rep.empirical_J_model - met.J) <= 6 * rep.se_J_model

    def test_mixture_uses_fresh_coin(self, main_model, solved_main):
        sol = solved_main(main_model, 0.1)
        rep = simulate(main_model, sol.policy, 10**5, 11)
        met = stationary_metrics(main_model, sol.policy)
        assert abs(rep.empirical_F - met.F) <= 4 * rep.se_F

    def test_never_transmitting_report_equals_its_rerun(self, main_model):
        policy = never_transmit_policy(main_model)
        r1 = simulate(main_model, policy, 10**4, 7)
        assert r1.channel_success_rate != r1.channel_success_rate  # NaN
        assert r1 == simulate(main_model, policy, 10**4, 7)
        assert r1 != simulate(main_model, policy, 10**4, 8)


def sequential_walk(table, code, start):
    """The record ``_walk`` must give, one slot at a time."""
    rec = [start]
    for c in code.tolist():
        rec.append(int(table[c + rec[-1]]))
    return rec


class TestLaneWalk:
    @pytest.mark.parametrize("kind", ["merging", "permutation", "constant"])
    @pytest.mark.parametrize("k", [1, 7, 1000, 16384, 32768])
    def test_matches_sequential_walk(self, kind, k):
        # States 0..49 times m = 3, codes in 0..2.  Random successors merge
        # walks; a permutation per code never does, so the block is walked in
        # order after the first round; constant successors meet at once.
        S, m = 50, 3
        rng = np.random.default_rng(k)
        if kind == "merging":
            nxt = rng.integers(0, S, (S, m))
        elif kind == "permutation":
            nxt = np.stack([rng.permutation(S) for _ in range(m)], axis=1)
        else:
            nxt = np.full((S, m), 4)
        table = (nxt * m).astype(np.int32).ravel()
        code = rng.integers(0, m, k).astype(np.int32)
        rec = np.empty(k + 1, np.int32)
        rec[0] = 17 * m
        remest.evaluation._walk(table, code, rec)
        assert rec.tolist() == sequential_walk(table, code, 17 * m)

    @pytest.mark.parametrize("horizon", [40_017, 10_007])
    @pytest.mark.parametrize("chain, estimator, timing, p_s, delta_max, kind", ORACLE_CASES)
    def test_short_lanes_match_reference(
        self, monkeypatch, chain, estimator, timing, p_s, delta_max, kind, horizon
    ):
        # Lanes of 1 to 3 slots, so nearly every lane is repaired; the
        # cut-over to the one-slot finish at none, the default and every lane.
        model = oracle_case_model(chain, estimator, timing, p_s, delta_max)
        policy = oracle_case_policy(model, kind)
        want = reference_simulate(model, policy, horizon, 11)
        block = remest.evaluation.SIM_BLOCK
        for size in (1, 2, 3):
            for scalar in (0, remest.evaluation.SIM_SCALAR_LANES, block):
                monkeypatch.setattr(remest.evaluation, "SIM_LANES", -(-block // size))
                monkeypatch.setattr(remest.evaluation, "SIM_SCALAR_LANES", scalar)
                assert same_report(simulate(model, policy, horizon, 11), want), (size, scalar)

    @staticmethod
    def reports_by_constants(monkeypatch, model, policy, horizon):
        """One report per (SIM_BLOCK, SIM_LANES): lanes of 128 slots, the
        block boundaries and the number of lanes moved."""
        reports = []
        for block, lanes in ((1 << 12, 32), (1 << 14, 128), (1 << 15, 256)):
            monkeypatch.setattr(remest.evaluation, "SIM_BLOCK", block)
            monkeypatch.setattr(remest.evaluation, "SIM_LANES", lanes)
            reports.append(simulate(model, policy, horizon, 11))
        return reports

    @pytest.mark.parametrize("chain, estimator, timing, p_s, delta_max, kind", ORACLE_CASES)
    def test_reports_independent_of_constants(
        self, monkeypatch, chain, estimator, timing, p_s, delta_max, kind
    ):
        model = oracle_case_model(chain, estimator, timing, p_s, delta_max)
        policy = oracle_case_policy(model, kind)
        first, *rest = self.reports_by_constants(monkeypatch, model, policy, 40_017)
        assert all(same_report(first, r) for r in rest), [first, *rest]

    @pytest.mark.parametrize("fixture", ["main_model", "paper_model"])
    def test_mixture_reports_independent_of_constants(
        self, monkeypatch, request, solved_main, fixture
    ):
        model = request.getfixturevalue(fixture)
        policy = solved_main(model, 0.1).policy
        first, *rest = self.reports_by_constants(monkeypatch, model, policy, 70_017)
        assert all(same_report(first, r) for r in rest), [first, *rest]

    @pytest.mark.parametrize("timing", ["immediate", "delayed"])
    def test_error_run_across_blocks_matches_reference(self, monkeypatch, timing):
        # A sticky source and a hold-last-value receiver that never hears
        # from it: each sojourn away from the start state's source is one
        # error run of about 5 000 slots, carried across blocks of 1 024.
        # The linear age penalty prices every strict age apart.  (The
        # 3-cycle's source moves every slot, so its error runs are 1 slot.)
        rows = [[0.9998, 0.0002], [0.0002, 0.9998]]
        model = build_model(
            validate_chain(rows), 0.7, "hamming", AgeFunction.polynomial([1.0, 1.0]),
            5, 5, "zoh", timing=timing,
        )
        policy = never_transmit_policy(model)
        # The source path from the seed's source stream: the longest error
        # run spans at least three block boundaries.
        src = np.random.default_rng(np.random.SeedSequence(11).spawn(3)[0])
        x = xstar = int(model.x_of[model.ref_index])
        run = longest = 0
        for u in src.random(40_000).tolist():
            x = int(u >= rows[x][0])
            run = run + 1 if x != xstar else 0
            longest = max(longest, run)
        assert longest > 3 << 10
        monkeypatch.setattr(remest.evaluation, "SIM_BLOCK", 1 << 10)
        got = simulate(model, policy, 40_017, 11)
        assert same_report(got, reference_simulate(model, policy, 40_017, 11)), got

    @pytest.mark.parametrize("fixture", ["main_model", "paper_model"])
    def test_low_rate_policy_matches_reference(self, request, fixture):
        # Transmitting in about 2-3% of slots, walks from different states
        # meet slowly: the lanes' worst case.
        model = request.getfixturevalue(fixture)
        policy = spi_solve(model, 100.0)[0]
        got = simulate(model, policy, 40_017, 11)
        assert got.empirical_F < 0.05
        assert same_report(got, reference_simulate(model, policy, 40_017, 11))


class TestInputChecks:
    @pytest.mark.parametrize("call", ["simulate", "policy_evaluate", "stationary_metrics"])
    def test_foreign_policy_rejected(self, main_model, paper_zoh_model, solved_main, call):
        larger, smaller = reactive_policy(main_model), never_transmit_policy(paper_zoh_model)
        mixture = solved_main(main_model, 0.1).policy
        run = {
            "simulate": lambda model, policy: simulate(model, policy, 10**4, 1),
            "policy_evaluate": lambda model, policy: policy_evaluate(model, policy, 1.0),
            "stationary_metrics": stationary_metrics,
        }[call]
        with pytest.raises(DomainError, match="3969 actions, the model 378 states"):
            run(paper_zoh_model, larger)
        with pytest.raises(DomainError, match="378 actions, the model 3969 states"):
            run(main_model, smaller)
        if call != "policy_evaluate":
            with pytest.raises(DomainError):
                run(paper_zoh_model, mixture)

    @pytest.mark.parametrize("horizon, seed", [(10**4, -1), (10**4, 1.5), (1e5, 1), ("10000", 1)])
    def test_simulate_rejects_bad_horizon_or_seed(self, main_model, horizon, seed):
        with pytest.raises(DomainError):
            simulate(main_model, reactive_policy(main_model), horizon, seed)

    def test_simulate_accepts_numpy_integers(self, main_model):
        policy = reactive_policy(main_model)
        got = simulate(main_model, policy, np.int64(10**4), np.uint32(7))
        assert got == simulate(main_model, policy, 10**4, 7)

    @pytest.mark.parametrize(
        "actions", [np.full(5, 2), np.full(5, 2, np.uint8), [0, 1, -1], [0.0, 0.5], [1, np.nan]]
    )
    def test_action_outside_zero_one_rejected(self, actions):
        with pytest.raises(DomainError):
            DeterministicPolicy(np.asarray(actions))

    @pytest.mark.parametrize(
        "actions, want", [([True, False], [1, 0]), ([0.0, 1.0], [0, 1]), ([1, 1], [1, 1])]
    )
    def test_zero_one_actions_accepted(self, actions, want):
        assert DeterministicPolicy(np.asarray(actions)).actions.tolist() == want
