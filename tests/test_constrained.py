import numpy as np
import pytest

from remest import (
    BadBracketError,
    DegenerateSlopesError,
    InfeasiblePairError,
    bisection_solve,
    build_mixture,
    check_switching_structure,
    intersection_step,
    never_transmit_policy,
    reactive_policy,
    solve_cmdp,
    stationary_metrics,
)


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
