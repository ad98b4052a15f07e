"""Constrained solve: find the transmission price whose relaxed optimum meets
the frequency budget, then return a deterministic policy or a two-policy
mixture.

The price search intersects tangents of the piecewise-linear concave
relaxed-cost curve (slope = transmission frequency), which converges in at
most one step per linear segment and independently of any tolerance.  A
plain bisection on the frequency is kept as the baseline.  All frequency
and cost numbers come from the exact evaluation of the solved policies, and
of their mixture by the same solve, never from simulation.  The first
solves of either search do not depend on the budget; the model keeps them,
so a grid of budgets on one model solves them once, and a search evaluates
each policy once (``_PointSolver``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadBracketError,
    ConvergenceFailure,
    DegenerateSlopesError,
    DomainError,
    InfeasiblePairError,
    NoProgressError,
)
from .evaluation import stationary_metrics
from .model import SystemModel
from .solver import (
    RESIDUAL_TOL,
    DeterministicPolicy,
    ThresholdView,
    _evaluate,
    _keep,
    _stage_costs,
    spi_solve,
)

F_MATCH_TOL = 1e-6
L_MATCH_RTOL = 1e-8
SEARCH_MAX_STEPS = 100
PREFIX_SOLVES = 3  # price 0, lambda_max, then the first step: no budget read


@dataclass
class SearchPoint:
    lam: float
    J: float
    F: float
    L: float

    def as_tuple(self):
        return (self.lam, self.J, self.F, self.L)


@dataclass
class SearchTrace:
    """Ordered record of the multiplier search: every solved point plus the
    bracket it left behind."""

    method: str
    points: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def record(self, point: SearchPoint, interval: tuple):
        self.points.append(
            {
                "lam": point.lam,
                "F": point.F,
                "J": point.J,
                "L": point.L,
                "interval": (float(interval[0]), float(interval[1])),
            }
        )

    @property
    def iterations(self) -> int:
        return len(self.points)


@dataclass
class MixturePolicy:
    """Per-slot randomization between two switching policies.

    With probability p the infeasible policy (solved just below the critical
    price, transmits more) acts; otherwise the feasible one.  p is first set
    by the linear interpolation of the two frequencies and then recalibrated
    so the long-run frequency of the randomized policy (its evaluation's
    gain for the coin-weighted transmit probability) meets the budget
    exactly; both values are kept.  ``_rates`` is (F, J) at p when
    ``build_mixture`` has evaluated it, so that ``solve_cmdp`` does not.
    """

    p: float
    policy_minus: DeterministicPolicy
    policy_plus: DeterministicPolicy
    differing_states: list
    p_linear: float = float("nan")
    _rates: tuple[float, float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"mixture probability {self.p} outside [0, 1]")


@dataclass
class ConstrainedSolution:
    kind: str  # "deterministic" | "mixture"
    lam_star: float
    policy: DeterministicPolicy | MixturePolicy
    F: float
    J: float
    trace: SearchTrace
    view_minus: ThresholdView | None = None
    view_plus: ThresholdView | None = None

    @property
    def is_mixture(self) -> bool:
        return self.kind == "mixture"


def intersection_step(point_minus, point_plus):
    """Intersect the two tangents of the concave relaxed-cost curve.

    Inputs are (lam, J, F, L) tuples at the bracket ends with F_minus >
    F_plus strictly; returns the abscissa of the intersection and the
    tangent height there.  For points on a concave piecewise-linear curve
    the abscissa falls inside the bracket; when an end of the bracket is
    itself the breakpoint, round-off can put it a few ulps outside, and it is
    clamped back.
    """
    lam_m, j_m, f_m, l_m = point_minus
    lam_p, j_p, f_p, l_p = point_plus
    if lam_m >= lam_p:
        raise DomainError(f"bracket not ordered: {lam_m} >= {lam_p}")
    if f_m <= f_p:
        raise DegenerateSlopesError(
            f"tangent slopes {f_m} and {f_p} do not cross; both ends share a segment"
        )
    lam_next = min(max((j_p - j_m) / (f_m - f_p), lam_m), lam_p)
    l_tilde = f_m * (lam_next - lam_m) + l_m
    return float(lam_next), float(l_tilde)


class _PointSolver:
    """SPI per price, with warm starts and caching.  Each entry is (policy,
    SearchPoint); J and F are read from the solved policy's ``GainBias``,
    not from a second (stationary) solve, and no threshold view is built.
    Each solve starts from ``_warm``, the last solved policy unless the
    caller sets another.  ``store`` keeps each "pinned-lu" evaluation the
    search makes or reads, by action table, and ``spi_solve`` re-prices an
    evaluation found there instead of evaluating that policy again; the
    re-priced floats are the fresh ones (DECISIONS.md section 10).  A
    solve's result is thus fixed by the path of prices solved so far.  The
    first PREFIX_SOLVES of them never read the budget, so they are kept on
    the model (``SystemModel.search_prefix``), keyed by that path, and
    shared by every later search that takes the same path (DECISIONS.md
    section 9)."""

    def __init__(self, model: SystemModel):
        self.model = model
        self.cache = {}
        self.store = {}
        self._warm = None
        self._path = ()

    def solve(self, lam: float):
        lam = float(lam)
        if lam in self.cache:
            return self.cache[lam]
        self._path += (lam,)
        memo = self.model.search_prefix if len(self._path) <= PREFIX_SOLVES else {}
        if self._path not in memo:
            policy, gb, _ = spi_solve(self.model, lam, self._warm, _store=self.store, _view=False)
            memo[self._path] = policy, replace(gb, bias=None)
        policy, gb = memo[self._path]
        _keep(self.store, policy, gb)
        j, f = gb.j_component, gb.f_component
        entry = (policy, SearchPoint(lam=lam, J=j, F=f, L=j + lam * f))
        self.cache[lam] = entry
        self._warm = policy
        return entry


def _open_bracket(model: SystemModel, f_max: float, lambda_max: float, method: str):
    """Start a price search: check f_max, solve at price 0 and, unless that
    fits the budget (then traced), at lambda_max.  Returns the point solver,
    the trace and both entries, the second None when price 0 fits.  Raises
    BadBracketError when lambda_max still over-transmits."""
    if not (0.0 < f_max <= 1.0):
        raise DomainError(f"f_max {f_max} outside (0, 1]")
    ps = _PointSolver(model)
    trace = SearchTrace(method=method)
    first = ps.solve(0.0)
    if first[-1].F <= f_max:
        trace.record(first[-1], (0.0, 0.0))
        return ps, trace, first, None
    last = ps.solve(lambda_max)
    if last[-1].F >= f_max:
        raise BadBracketError(
            f"F at lambda_max is {last[-1].F:.6f} >= budget {f_max}; raise lambda_max"
        )
    return ps, trace, first, last


def _deterministic(model, lam_star: float, entry, trace: SearchTrace) -> ConstrainedSolution:
    """The constrained solution that is the solved policy of ``entry``."""
    policy, pt = entry
    return ConstrainedSolution(
        kind="deterministic", lam_star=lam_star, policy=policy, F=pt.F, J=pt.J,
        trace=trace, view_plus=ThresholdView.from_policy(model, policy),
    )


def bisection_solve(
    model: SystemModel,
    f_max: float,
    lambda_max: float,
    epsilon_tol: float,
):
    """Baseline bisection on the transmission frequency.

    Halves the bracket by the sign of F - f_max until it is narrower than
    epsilon_tol; the iteration count is ceil(log2(lambda_max/epsilon_tol)).
    The solves at 0 and lambda_max are shared with every earlier search on
    the model with the same lambda_max, and lambda_max / 2 with every
    earlier bisection.
    """
    ps, trace, _, last = _open_bracket(model, f_max, lambda_max, "bisection")
    if last is None:
        return 0.0, trace
    lo, hi = 0.0, float(lambda_max)
    while hi - lo >= epsilon_tol:
        mid = 0.5 * (lo + hi)
        pt = ps.solve(mid)[-1]
        if pt.F >= f_max:
            lo = mid
        else:
            hi = mid
        trace.record(pt, (lo, hi))
    return 0.5 * (lo + hi), trace


def build_mixture(
    model: SystemModel,
    policy_minus: DeterministicPolicy,
    policy_plus: DeterministicPolicy,
    f_max: float,
    *,
    f_minus: float | None = None,
    f_plus: float | None = None,
) -> MixturePolicy:
    """Mix two policies so the stationary transmission frequency hits f_max.

    policy_minus must over-transmit and policy_plus stay within budget.  The
    linear interpolation seeds p; a root-find (``_mobius_root``) on F(p)
    then pins it to the budget.  F(p) and J(p) are the gains of the policy
    evaluator's solve (``solver._evaluate``) for the coin-weighted transmit
    probability and cost rows, both columns' residuals checked (DECISIONS.md
    section 8).  f_minus and f_plus are the two policies' stationary
    frequencies, computed here when not given.
    """
    if f_minus is None:
        f_minus = stationary_metrics(model, policy_minus).F
    if f_plus is None:
        f_plus = stationary_metrics(model, policy_plus).F
    if not (f_plus <= f_max + F_MATCH_TOL and f_max <= f_minus + F_MATCH_TOL):
        raise InfeasiblePairError(
            f"budget {f_max} outside the pair's frequencies [{f_plus:.6f}, {f_minus:.6f}]"
        )
    a_minus, a_plus = policy_minus.actions, policy_plus.actions
    diff = [int(i) for i in np.flatnonzero(a_minus != a_plus)]
    p_lin = (f_max - f_plus) / (f_minus - f_plus) if f_minus - f_plus > F_MATCH_TOL else 0.0
    p_lin = min(max(p_lin, 0.0), 1.0)

    rates = {}  # p -> (F, J); the root-find ends on a p it evaluated

    c_minus, c_plus = _stage_costs(model, a_minus), _stage_costs(model, a_plus)
    def freq_gap(p):
        # Rows (error, tx) as stationary_metrics mixes them; tx is the coin's q.
        costs = p * c_minus + (1.0 - p) * c_plus
        gb = _evaluate(model, costs[1], costs, 0.0, split=True)
        if not gb.residual <= RESIDUAL_TOL:
            raise ConvergenceFailure(f"mixture at p = {p!r} has residual {gb.residual:.2e}")
        rates[p] = (gb.f_component, gb.j_component)
        return gb.f_component - f_max

    gap_lin = freq_gap(p_lin)
    if abs(gap_lin) <= F_MATCH_TOL * 1e-2:
        p_star = p_lin
    else:
        # p = 0 is policy_plus alone and p = 1 policy_minus alone.
        g0, g1 = f_plus - f_max, f_minus - f_max
        if g0 > 0 or g1 < 0:
            raise InfeasiblePairError(
                f"stationary frequency range [{f_plus:.6f}, {f_minus:.6f}] misses {f_max}"
            )
        points = [(0.0, g0), (1.0, g1), (p_lin, gap_lin)]
        bracket = (points[0], points[2]) if gap_lin > 0 else (points[2], points[1])
        p_star = _mobius_root(freq_gap, points, *bracket)
    return MixturePolicy(
        p=float(p_star), policy_minus=policy_minus, policy_plus=policy_plus,
        differing_states=diff, p_linear=float(p_lin), _rates=rates[p_star],
    )


def _mobius_root(fn, points, lo, hi, xtol=1e-12, max_iters=100):
    """Root of fn in the bracket [a, b] of lo = (a, fn(a)) and hi = (b,
    fn(b)), fn(a) <= 0 <= fn(b), from three (p, fn(p)) ``points``, the last
    an end of the bracket.  Each step evaluates fn at the root of the
    g(p) = (u + v p) / (1 + w p) through the last three points, or at the
    bracket's regula-falsi point when that root is not inside it.  Stops on
    an exact zero, a bracket narrower than xtol, or a next step shorter than
    xtol, and returns the point evaluated last.
    """
    (a, fa), (b, fb) = lo, hi
    points = list(points)
    c = points[-1][0]
    for _ in range(max_iters):
        p, g = np.array(points[-3:]).T
        try:  # u + v p - w p g = g at each point
            u, v, _ = np.linalg.solve(np.column_stack([np.ones(3), p, -p * g]), g)
            nxt = -float(u) / float(v)
        except (np.linalg.LinAlgError, ZeroDivisionError):  # two points share a p
            nxt = float("nan")
        if not a < nxt < b:
            nxt = (a * fb - b * fa) / (fb - fa)
        if abs(nxt - c) <= xtol:
            return c
        c, fc = nxt, fn(nxt)
        if fc < 0.0:
            a, fa = c, fc
        else:
            b, fb = c, fc
        if fc == 0.0 or b - a <= xtol:
            return c
        points.append((c, fc))
    raise ConvergenceFailure(f"mixture root-find bracket still {b - a:.2e} wide")


def solve_cmdp(
    model: SystemModel,
    f_max: float,
    lambda_max: float = 1000.0,
    epsilon_mix: float = 1e-6,
) -> ConstrainedSolution:
    """Full constrained solve by intersection search over the price.

    Returns the zero-price policy when it already fits the budget; otherwise
    iterates tangent intersections until either a solved point meets the
    budget exactly (deterministic optimum) or the intersection lands on the
    curve, in which case the two policies just below and above the critical
    price are mixed.  The solves at 0, lambda_max and the first
    intersection are shared with every earlier search on the model with the
    same lambda_max; the result is the same as on a fresh model.
    """
    ps, trace, first, last = _open_bracket(model, f_max, lambda_max, "intersection")
    if last is None:
        return _deterministic(model, 0.0, first, trace)

    (lo_policy, lo), (hi_policy, hi) = first, last
    lam_star = None
    for _ in range(SEARCH_MAX_STEPS):
        if lo.F <= f_max or hi.F > f_max:
            raise NoProgressError(
                f"bracket frequencies [{hi.F:.6f}, {lo.F:.6f}] no longer straddle {f_max}"
            )
        lam_next, l_tilde = intersection_step(lo.as_tuple(), hi.as_tuple())
        entry = ps.solve(lam_next)
        pt = entry[-1]
        trace.record(pt, (lo.lam, hi.lam))
        if abs(pt.F - f_max) <= F_MATCH_TOL:
            # The budget sits on this segment: the solved policy is optimal
            # with equality, no mixing needed.
            return _deterministic(model, lam_next, entry, trace)
        if abs(pt.L - l_tilde) <= L_MATCH_RTOL * max(1.0, abs(pt.L)):
            lam_star = lam_next
            break
        if pt.F > f_max:
            lo_policy, lo = entry
        else:
            hi_policy, hi = entry
    if lam_star is None:
        raise NoProgressError(f"intersection search did not settle in {SEARCH_MAX_STEPS} steps")

    eps = max(epsilon_mix, epsilon_mix * lam_star)
    # Warm-start each side from its bracket end: ties at lambda* -/+ eps keep the start's action.
    ps._warm = lo_policy
    minus = ps.solve(max(lam_star - eps, 0.0))
    ps._warm = hi_policy
    plus = ps.solve(lam_star + eps)
    trace.extras["epsilon"] = eps
    for entry in (plus, minus):
        if abs(entry[-1].F - f_max) <= F_MATCH_TOL:
            return _deterministic(model, lam_star, entry, trace)
    (pol_m, pt_m), (pol_p, pt_p) = minus, plus
    mix = build_mixture(model, pol_m, pol_p, f_max, f_minus=pt_m.F, f_plus=pt_p.F)
    trace.extras["p_linear"] = mix.p_linear
    trace.extras["p_recalibrated"] = mix.p
    f, j = mix._rates
    return ConstrainedSolution(
        kind="mixture", lam_star=lam_star, policy=mix, F=f, J=j, trace=trace,
        view_minus=ThresholdView.from_policy(model, pol_m),
        view_plus=ThresholdView.from_policy(model, pol_p),
    )
