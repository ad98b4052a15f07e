import numpy as np
import pytest

import remest.constrained
import remest.solver
from remest import (
    BadBracketError,
    ConvergenceFailure,
    DegenerateSlopesError,
    DeterministicPolicy,
    InfeasiblePairError,
    MixturePolicy,
    SystemConfig,
    bisection_solve,
    build_mixture,
    check_switching_structure,
    intersection_step,
    never_transmit_policy,
    policy_evaluate,
    reactive_policy,
    solve_cmdp,
    stationary_metrics,
)
from remest.constrained import F_MATCH_TOL
from conftest import small_random_model

BUDGETS = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]


def reference_build_mixture(model, policy_minus, policy_plus, f_max, f_minus, f_plus):
    """The calibration the pinned solve replaced, kept as the oracle: an
    Illinois regula falsi on the stationary law of the randomized kernel
    (``stationary_metrics``), seeded by the linear interpolation p_lin."""
    diff = [int(i) for i in np.flatnonzero(policy_minus.actions != policy_plus.actions)]
    if f_minus - f_plus <= F_MATCH_TOL:
        p_lin = 0.0
    else:
        p_lin = (f_max - f_plus) / (f_minus - f_plus)
    p_lin = min(max(p_lin, 0.0), 1.0)
    rates = {}

    def freq_gap(p):
        met = stationary_metrics(model, MixturePolicy(p, policy_minus, policy_plus, diff))
        rates[p] = (met.F, met.J)
        return met.F - f_max

    def illinois(a, fa, b, fb, xtol=1e-12):
        kept = 0  # -1: a was kept last step, +1: b was kept
        for _ in range(100):
            c = (a * fb - b * fa) / (fb - fa)
            fc = freq_gap(c)
            if fc == 0.0:
                return c
            if fc < 0.0:
                a, fa = c, fc
                if kept == 1:
                    fb *= 0.5
                kept = 1
            else:
                b, fb = c, fc
                if kept == -1:
                    fa *= 0.5
                kept = -1
            if b - a <= xtol:
                return c
        raise AssertionError("reference root-find did not settle")

    gap_lin = freq_gap(p_lin)
    if abs(gap_lin) <= F_MATCH_TOL * 1e-2:
        p_star = p_lin
    elif gap_lin > 0:
        p_star = illinois(0.0, f_plus - f_max, p_lin, gap_lin)
    else:
        p_star = illinois(p_lin, gap_lin, 1.0, f_minus - f_max)
    return p_star, rates[p_star]


def counted_evaluations(monkeypatch):
    """Patch the evaluator core that calibration calls; returns the list of
    the transmit-probability tables it was called with."""
    calls = []
    core = remest.constrained._evaluate

    def counting(model, q, *args, **kwargs):
        calls.append(q)
        return core(model, q, *args, **kwargs)

    monkeypatch.setattr(remest.constrained, "_evaluate", counting)
    return calls


def mixture_pairs(model, budgets=BUDGETS):
    """(f_max, policy_minus, policy_plus, f_minus, f_plus) of every budget
    whose constrained solve is a mixture."""
    for f_max in budgets:
        sol = solve_cmdp(model, f_max)
        if sol.is_mixture:
            pm, pp = sol.policy.policy_minus, sol.policy.policy_plus
            fm, fp = (policy_evaluate(model, pol, 0.0).f_component for pol in (pm, pp))
            yield f_max, pm, pp, fm, fp


def assert_matches_reference(model, f_max, pm, pp, fm, fp):
    mix = build_mixture(model, pm, pp, f_max, f_minus=fm, f_plus=fp)
    p_ref, (f_ref, j_ref) = reference_build_mixture(model, pm, pp, f_max, fm, fp)
    f, j = mix._rates
    assert abs(mix.p - p_ref) <= 1e-10
    assert abs(f - f_ref) <= 1e-10 and abs(j - j_ref) <= 1e-10
    met = stationary_metrics(model, mix)
    assert abs(f - met.F) <= 1e-10 and abs(j - met.J) <= 1e-10


class TestIntersectionStep:
    def test_two_line_arithmetic(self):
        lam, l_tilde = intersection_step((0.0, 10.0, 0.5, 10.0), (10.0, 12.0, 0.1, 13.0))
        assert lam == 5.0
        assert l_tilde == 12.5

    def test_degenerate_slopes(self):
        with pytest.raises(DegenerateSlopesError):
            intersection_step((0.0, 10.0, 0.3, 10.0), (10.0, 12.0, 0.3, 13.0))

    def test_recovers_corner_of_synthetic_pwlc(self):
        # Two-segment concave curve: slopes 0.4 then 0.1, corner at lam=6.
        def curve(lam):
            j1, f1 = 1.0, 0.4
            j2 = j1 + 6.0 * (f1 - 0.1)
            f2 = 0.1
            return min(j1 + f1 * lam, j2 + f2 * lam)

        lam_minus, lam_plus = 2.0, 11.0
        p_minus = (lam_minus, 1.0, 0.4, curve(lam_minus))
        p_plus = (lam_plus, 1.0 + 6.0 * 0.3, 0.1, curve(lam_plus))
        lam, l_tilde = intersection_step(p_minus, p_plus)
        assert abs(lam - 6.0) < 1e-12
        assert abs(l_tilde - curve(6.0)) < 1e-12

    def test_intersection_inside_bracket(self):
        lam, _ = intersection_step((1.0, 2.0, 0.6, 2.6), (9.0, 4.0, 0.2, 5.8))
        assert 1.0 <= lam <= 9.0

    def test_breakpoint_at_bracket_end_stays_inside(self):
        # The zero-price end is itself the breakpoint (delayed timing, MAP,
        # f = 0.3): the two J values differ by one ulp, which alone would
        # put the intersection at a negative price.
        lo = (0.0, 0.9408522661490768, 0.31453886697557165, 0.9408522661490768)
        hi = (0.5447273880031006, 0.9408522661490767, 0.2957953232361056, 1.1019800799590134)
        lam, l_tilde = intersection_step(lo, hi)
        assert lam == 0.0
        assert l_tilde == lo[3]


class TestBisection:
    def test_slack_budget_returns_zero(self, main_model):
        lam, trace = bisection_solve(main_model, 1.0, 1000.0, 1e-3)
        assert lam == 0.0
        assert trace.iterations == 1

    def test_bad_bracket(self, sym_model):
        with pytest.raises(BadBracketError):
            bisection_solve(sym_model, 0.01, 1000.0, 1e-3)

    def test_iteration_count_and_interval(self, main_model):
        lam, trace = bisection_solve(main_model, 0.1, 1000.0, 1e-3)
        expected = int(np.ceil(np.log2(1000.0 / 1e-3)))
        assert abs(trace.iterations - expected) <= 2
        lo, hi = trace.points[-1]["interval"]
        assert hi - lo < 1e-3

    def test_agrees_with_intersection_search(self, main_model, solved_main):
        lam_bis, _ = bisection_solve(main_model, 0.1, 1000.0, 1e-3)
        sol = solved_main(main_model, 0.1)
        assert abs(lam_bis - sol.lam_star) < 1e-3


class TestSolveCmdp:
    def test_slack_budget_is_reactive(self, main_model, solved_main):
        sol = solved_main(main_model, 1.0)
        assert sol.kind == "deterministic"
        assert sol.lam_star == 0.0
        assert sol.policy.same_as(reactive_policy(main_model))

    def test_nested_intervals_and_interior_points(self, main_model, solved_main):
        sol = solved_main(main_model, 0.1)
        intervals = [tuple(p["interval"]) for p in sol.trace.points]
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert lo2 >= lo1 - 1e-12 and hi2 <= hi1 + 1e-12
        for prev, point in zip(sol.trace.points, sol.trace.points[1:]):
            lo, hi = prev["interval"]
            assert lo - 1e-9 <= point["lam"] <= hi + 1e-9

    def test_mixture_meets_budget_exactly(self, main_model, solved_main):
        sol = solved_main(main_model, 0.1)
        assert sol.kind == "mixture"
        assert abs(sol.F - 0.1) <= 1e-6
        met = stationary_metrics(main_model, sol.policy)
        assert abs(met.F - 0.1) <= 1e-6

    def test_feasibility(self, main_model, solved_main):
        for f_max in (0.1, 0.15):
            sol = solved_main(main_model, f_max)
            assert sol.F <= f_max + 1e-6

    def test_mixture_pieces_are_switching_policies(self, main_model, solved_main):
        from remest import check_switching_structure

        sol = solved_main(main_model, 0.1)
        assert check_switching_structure(sol.policy.policy_minus, main_model) == []
        assert check_switching_structure(sol.policy.policy_plus, main_model) == []

    def test_differing_states_are_error_states(self, main_model, solved_main):
        sol = solved_main(main_model, 0.1)
        diff = np.array(sol.policy.differing_states)
        assert diff.size > 0
        assert not main_model.idle_pinned[diff].any()

    def test_iteration_count_invariant_to_mixture_epsilon(self, main_model):
        counts = set()
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            sol = solve_cmdp(main_model, 0.1, 1000.0, eps)
            counts.add(sol.trace.iterations)
        assert len(counts) == 1

    def test_mixture_views_differ_by_one_threshold_step(self, main_model, solved_main):
        # The two policies around the critical price differ by a single
        # threshold value: every disagreeing triple takes the same k -> k+1
        # step (one collapsed information state on the product space).
        for f_max in (0.1, 0.15):
            sol = solved_main(main_model, f_max)
            assert sol.is_mixture
            tm, tp = sol.view_minus.thresholds, sol.view_plus.thresholds
            steps = {(tm[k], tp[k]) for k in tm if tm[k] != tp[k]}
            assert len(steps) == 1
            old, new = steps.pop()
            assert new == old + 1

    def test_symmetric_mixture_thresholds_adjacent(self, sym_model):
        for f_max in (0.1, 0.15, 0.2):
            sol = solve_cmdp(sym_model, f_max, 1000.0, 1e-6)
            assert sol.kind == "mixture"
            (thr_minus,) = sol.view_minus.distinct()
            (thr_plus,) = sol.view_plus.distinct()
            assert thr_plus == thr_minus + 1


class TestBuildMixture:
    def test_linear_interpolation_arithmetic(self, main_model, solved_main):
        sol = solved_main(main_model, 0.1)
        pm, pp = sol.policy.policy_minus, sol.policy.policy_plus
        f_minus = stationary_metrics(main_model, pm).F
        f_plus = stationary_metrics(main_model, pp).F
        mix = build_mixture(main_model, pm, pp, 0.1)
        expected = (0.1 - f_plus) / (f_minus - f_plus)
        assert abs(mix.p_linear - expected) < 1e-12

    @pytest.mark.parametrize("fixture", ["main_model", "paper_model", "zoh_model"])
    def test_default_frequencies_come_from_the_evaluator(
        self, fixture, request, solved_main, monkeypatch
    ):
        # Without f_minus / f_plus the two ends are read off the root-find's
        # own solve at p = 1 and p = 0, with no stationary law, and the
        # mixture matches the one built from the stationary frequencies.
        import remest.evaluation

        model = request.getfixturevalue(fixture)
        sol = solved_main(model, 0.1)
        pm, pp = sol.policy.policy_minus, sol.policy.policy_plus
        given = build_mixture(
            model, pm, pp, 0.1,
            f_minus=stationary_metrics(model, pm).F, f_plus=stationary_metrics(model, pp).F,
        )
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return stationary_metrics(*args, **kwargs)

        for module in (remest.evaluation, remest.constrained):
            monkeypatch.setattr(module, "stationary_metrics", counted)
        mix = build_mixture(model, pm, pp, 0.1)
        assert calls == []
        assert abs(mix.p - given.p) <= 1e-12
        assert abs(mix.p_linear - given.p_linear) <= 1e-12
        assert np.abs(np.subtract(mix._rates, given._rates)).max() <= 1e-12

    def test_budget_at_feasible_end_gives_p_zero(self, main_model, solved_main):
        sol = solved_main(main_model, 0.1)
        pm, pp = sol.policy.policy_minus, sol.policy.policy_plus
        f_plus = stationary_metrics(main_model, pp).F
        mix = build_mixture(main_model, pm, pp, f_plus)
        assert mix.p <= 1e-6

    def test_infeasible_pair_rejected(self, main_model):
        with pytest.raises(InfeasiblePairError):
            build_mixture(
                main_model,
                never_transmit_policy(main_model),
                never_transmit_policy(main_model),
                0.5,
            )

    def test_recalibrated_frequency_hits_budget(self, main_model, solved_main):
        sol = solved_main(main_model, 0.1)
        met = stationary_metrics(main_model, sol.policy)
        assert abs(met.F - 0.1) < 1e-6


def test_delayed_budget_at_delta_max_two(main_config):
    # Once raised ConvergenceFailure; now a mixture (lambda* about 2.734).
    model = main_config.with_overrides(delta_max=2).build_model(timing="delayed")
    sol = solve_cmdp(model, 0.1)
    assert sol.kind == "mixture"
    assert abs(sol.F - 0.1) <= 1e-6
    assert check_switching_structure(sol.policy.policy_minus, model) == []
    assert check_switching_structure(sol.policy.policy_plus, model) == []


def test_sides_of_lambda_star_start_from_their_bracket_ends(main_config):
    # The 5-state chain of the benchmark's price-sweep-large workload at
    # truncation 30.  At lambda* = 40.074 the largest |Q-difference| is
    # about 1.75e7, so the relative tie band (1.75e-5) holds the switching
    # states at both lambda* -/+ eps: from one warm start both solves gave
    # F = 0.099910 and the pair raised InfeasiblePairError.
    rng = np.random.default_rng(0)
    rows = rng.dirichlet(np.full(5, 0.8), size=5) + 2.0 * np.eye(5)
    doc = main_config.with_overrides(theta_max=30, delta_max=30).to_dict()
    doc.update(alphabet_size=5, transition=(rows / rows.sum(axis=1, keepdims=True)).tolist())
    model = SystemConfig.from_dict(doc).build_model(timing="immediate")
    sol = solve_cmdp(model, 0.1)
    assert sol.kind == "mixture"
    assert abs(sol.lam_star - 40.07399) <= 1e-4
    assert abs(sol.F - 0.1) <= 1e-6
    assert abs(stationary_metrics(model, sol.policy).F - 0.1) <= 1e-6


@pytest.mark.parametrize("fixture", ["main_model", "zoh_model", "paper_model", "paper_zoh_model"])
def test_budget_above_reactive_frequency_is_free(fixture, request, solved_main):
    # Budgets above the reactive policy's F (0.3441 and 0.3174 under the
    # delayed timing) bind nothing: the zero-price policy is optimal.
    model = request.getfixturevalue(fixture)
    reactive = stationary_metrics(model, reactive_policy(model))
    for f_max in (0.35, 0.5):
        sol = solved_main(model, f_max)
        assert sol.kind == "deterministic"
        assert sol.lam_star == 0.0
        assert abs(sol.J - reactive.J) <= 1e-8


class TestCalibrationOracle:
    """The pinned-solve calibration against ``reference_build_mixture``."""

    @pytest.mark.parametrize("fixture", ["main_model", "zoh_model", "paper_model", "paper_zoh_model"])
    def test_config_models(self, fixture, request, monkeypatch):
        model = request.getfixturevalue(fixture)
        pairs = list(mixture_pairs(model))
        assert pairs
        for f_max, pm, pp, fm, fp in pairs:
            calls = counted_evaluations(monkeypatch)
            build_mixture(model, pm, pp, f_max, f_minus=fm, f_plus=fp)
            assert 1 <= len(calls) <= 3
            monkeypatch.undo()
            assert_matches_reference(model, f_max, pm, pp, fm, fp)

    def test_delayed_delta_max_two(self, main_config):
        model = main_config.with_overrides(delta_max=2).build_model(timing="delayed")
        pairs = list(mixture_pairs(model))
        assert pairs
        for pair in pairs:
            assert_matches_reference(model, *pair)

    @pytest.mark.parametrize("timing", ["immediate", "delayed"])
    def test_random_small_models(self, timing):
        rng = np.random.default_rng(11)
        seen = 0
        for _ in range(4):
            model = small_random_model(rng, timing=timing)
            for pair in mixture_pairs(model, budgets=[0.1, 0.2]):
                assert_matches_reference(model, *pair)
                seen += 1
        assert seen


def one_state_pair(model):
    """Reactive policy less one transmitting state that carries mass, the
    reactive policy itself over-transmitting: a pair that differs in one
    state, with the budget halfway between their frequencies."""
    plus = reactive_policy(model)
    mu = stationary_metrics(model, plus).mu
    state = int(np.argmax(np.where(plus.actions == 1, mu, -1.0)))
    actions = plus.actions.copy()
    actions[state] = 0
    feasible = DeterministicPolicy(actions)
    f_minus = policy_evaluate(model, plus, 0.0).f_component
    f_plus = policy_evaluate(model, feasible, 0.0).f_component
    assert f_minus - f_plus > 1e-4
    return plus, feasible, f_minus, f_plus, 0.5 * (f_minus + f_plus)


@pytest.mark.parametrize("fixture", ["main_model", "zoh_model", "paper_model", "paper_zoh_model"])
def test_one_state_pair_settles_in_two_evaluations(fixture, request, monkeypatch):
    # One differing state: by renewal-reward at it, F(p) is a ratio of two
    # affine functions of p, which the first fitted step recovers exactly.
    model = request.getfixturevalue(fixture)
    pm, pp, fm, fp, f_max = one_state_pair(model)
    calls = counted_evaluations(monkeypatch)
    mix = build_mixture(model, pm, pp, f_max, f_minus=fm, f_plus=fp)
    assert len(calls) == 2
    assert len(mix.differing_states) == 1
    p_ref, _ = reference_build_mixture(model, pm, pp, f_max, fm, fp)
    assert abs(mix.p - p_ref) <= 1e-12


class TestCalibrationFallback:
    def test_class_route_rates_are_checked(self, main_model, solved_main, monkeypatch):
        # The full-space solve refuses every mixture, so each one goes to the
        # class route; its rates must still be the stationary ones, which
        # the full-space solve gives once it is back.
        def refuse(*args, **kwargs):
            raise RuntimeError("refused")

        on_class = remest.solver._class_solve
        routes = []

        def class_route(*args, **kwargs):
            gb = on_class(*args, **kwargs)
            routes.append(gb.residual)
            return gb

        sol = solved_main(main_model, 0.1)
        pm, pp = sol.policy.policy_minus, sol.policy.policy_plus
        monkeypatch.setattr(remest.solver, "_pinned_lu", refuse)
        monkeypatch.setattr(remest.solver, "_class_solve", class_route)
        mix = build_mixture(main_model, pm, pp, 0.1)
        assert len(routes) >= 2 and max(routes) <= 1e-8
        monkeypatch.undo()
        met = stationary_metrics(main_model, mix)
        f, j = mix._rates
        assert abs(f - met.F) <= 1e-10 and abs(j - met.J) <= 1e-10
        assert abs(mix.p - sol.policy.p) <= 1e-10

    def test_no_factor_raises(self, main_model, solved_main, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("refused")

        sol = solved_main(main_model, 0.1)
        pm, pp = sol.policy.policy_minus, sol.policy.policy_plus
        monkeypatch.setattr(remest.solver, "_pinned_lu", refuse)
        monkeypatch.setattr(remest.solver, "_class_systems", refuse)
        with pytest.raises(ConvergenceFailure):
            build_mixture(main_model, pm, pp, 0.1, f_minus=0.2, f_plus=0.05)

    def test_unchecked_residual_raises(self, main_model, solved_main, monkeypatch):
        sol = solved_main(main_model, 0.1)
        pm, pp = sol.policy.policy_minus, sol.policy.policy_plus
        monkeypatch.setattr(remest.constrained, "RESIDUAL_TOL", -1.0)
        with pytest.raises(ConvergenceFailure, match="residual"):
            build_mixture(main_model, pm, pp, 0.1, f_minus=0.2, f_plus=0.05)


def solution_record(sol):
    """Everything a constrained solution reports, for comparison with ==:
    kind, lambda*, p, J, F, the action tables, the views and the trace."""
    pol = sol.policy
    pols = [pol.policy_minus, pol.policy_plus] if sol.is_mixture else [pol]
    views = [v.thresholds for v in (sol.view_minus, sol.view_plus) if v is not None]
    p = pol.p if sol.is_mixture else None
    tables = [q.actions.tobytes() for q in pols]
    return sol.kind, sol.lam_star, p, sol.J, sol.F, tables, views, sol.trace.points, sol.trace.extras


def counted_spi_solves(monkeypatch):
    """Patch the ``spi_solve`` the price search calls; returns the list of
    the prices it was called at."""
    prices = []
    solve = remest.constrained.spi_solve

    def counting(model, lam, *args, **kwargs):
        prices.append(lam)
        return solve(model, lam, *args, **kwargs)

    monkeypatch.setattr(remest.constrained, "spi_solve", counting)
    return prices


class TestSearchPrefix:
    """Searches on one model share the budget-independent prefix (price 0,
    lambda_max and the first step) and still give what each budget gives
    on a model of its own.  Each test builds its models: the session
    fixtures would carry other tests' prefixes."""

    SHUFFLED = [0.20, 0.05, 0.30, 0.10, 0.25, 0.15]

    @staticmethod
    def fresh(main_config, estimator, timing):
        if estimator == "zoh":
            main_config = main_config.with_overrides(theta_max=1, estimator="zoh")
        return main_config.build_model(timing=timing)

    @pytest.mark.parametrize("timing", ["immediate", "delayed"])
    @pytest.mark.parametrize("estimator", ["map", "zoh"])
    def test_budgets_in_any_order_equal_fresh_solves(self, main_config, estimator, timing):
        alone = {f: solution_record(solve_cmdp(self.fresh(main_config, estimator, timing), f))
                 for f in BUDGETS}
        for order in (BUDGETS, self.SHUFFLED):
            model = self.fresh(main_config, estimator, timing)
            for f in order:
                assert solution_record(solve_cmdp(model, f)) == alone[f]

    def test_bisection_interleaved_equals_fresh(self, main_config):
        model = self.fresh(main_config, "map", "delayed")
        for f in (0.1, 0.2):
            cmdp = solution_record(solve_cmdp(model, f))
            lam, trace = bisection_solve(model, f, 1000.0, 1e-3)
            other = self.fresh(main_config, "map", "delayed")
            fresh_lam, fresh_trace = bisection_solve(other, f, 1000.0, 1e-3)
            assert (lam, trace.points) == (fresh_lam, fresh_trace.points)
            assert cmdp == solution_record(solve_cmdp(other, f))

    def test_other_lambda_max_shares_only_price_zero(self, main_config, monkeypatch):
        model = self.fresh(main_config, "zoh", "delayed")
        solve_cmdp(model, 0.1)
        prices = counted_spi_solves(monkeypatch)
        shared = solution_record(solve_cmdp(model, 0.1, lambda_max=500.0))
        on_model = prices[:]
        prices.clear()
        other = self.fresh(main_config, "zoh", "delayed")
        alone = solution_record(solve_cmdp(other, 0.1, lambda_max=500.0))
        assert shared == alone
        assert prices[0] == 0.0 and on_model == prices[1:]

    def test_prefix_reaches_spi_solve_three_times(self, main_config, monkeypatch):
        model = self.fresh(main_config, "zoh", "delayed")
        prices = counted_spi_solves(monkeypatch)
        solutions = [solve_cmdp(model, f) for f in BUDGETS]
        lam_1 = solutions[0].trace.points[0]["lam"]
        assert all(sol.trace.points[0]["lam"] == lam_1 for sol in solutions)
        assert sum(lam in (0.0, 1000.0, lam_1) for lam in prices) == 3
        shared = len(prices)
        for f in BUDGETS:
            solve_cmdp(self.fresh(main_config, "zoh", "delayed"), f)
        assert len(prices) - shared == shared + 3 * (len(BUDGETS) - 1)

    def test_returned_view_does_not_alias_the_prefix(self, main_config):
        # f = 0.5 is above F(0): the answer is the stored price-0 point.
        model = self.fresh(main_config, "map", "delayed")
        first = solve_cmdp(model, 0.5)
        assert first.lam_star == 0.0 and first.view_plus.thresholds
        first.view_plus.thresholds.clear()
        again = solve_cmdp(model, 0.5)
        alone = solve_cmdp(self.fresh(main_config, "map", "delayed"), 0.5)
        assert again.view_plus.thresholds == alone.view_plus.thresholds


class TestEvaluationStore:
    """A price search evaluates each policy once, re-pricing its store
    (``_PointSolver.store``), and builds threshold views only for the
    policies it returns.  Models are built inside each test, as in
    ``TestSearchPrefix``."""

    fresh = staticmethod(TestSearchPrefix.fresh)

    @pytest.mark.parametrize("timing", ["immediate", "delayed"])
    @pytest.mark.parametrize("estimator", ["map", "zoh"])
    def test_store_moves_no_result(self, main_config, estimator, timing, monkeypatch):
        model = self.fresh(main_config, estimator, timing)
        stored = [solution_record(solve_cmdp(model, f)) for f in BUDGETS]
        solve = remest.constrained.spi_solve

        def without_store(model, lam, *args, _store=None, **kwargs):
            return solve(model, lam, *args, **kwargs)

        monkeypatch.setattr(remest.constrained, "spi_solve", without_store)
        model = self.fresh(main_config, estimator, timing)
        assert [solution_record(solve_cmdp(model, f)) for f in BUDGETS] == stored

    @pytest.mark.parametrize("timing", ["immediate", "delayed"])
    @pytest.mark.parametrize("estimator", ["map", "zoh"])
    def test_each_policy_evaluated_once_and_viewed_only_on_return(
        self, main_config, estimator, timing, monkeypatch
    ):
        tables, views = [], []
        evaluate = remest.solver.policy_evaluate
        from_policy = remest.solver.ThresholdView.from_policy

        def counted_evaluate(model, policy, lam):
            tables.append(policy.actions.tobytes())
            return evaluate(model, policy, lam)

        def counted_view(model, policy):
            views.append(policy.actions.tobytes())
            return from_policy(model, policy)

        monkeypatch.setattr(remest.solver, "policy_evaluate", counted_evaluate)
        monkeypatch.setattr(remest.solver.ThresholdView, "from_policy", staticmethod(counted_view))
        model = self.fresh(main_config, estimator, timing)
        for f in BUDGETS:  # the first search solves the prefix, the others read it
            tables.clear()
            views.clear()
            sol = solve_cmdp(model, f)
            assert len(set(tables)) == len(tables), f
            assert len(views) == (2 if sol.is_mixture else 1), f
            tables.clear()
            views.clear()
            bisection_solve(model, f, 1000.0, 1e-3)
            assert len(set(tables)) == len(tables) and views == [], f
