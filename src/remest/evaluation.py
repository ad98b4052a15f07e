"""Exact and empirical policy evaluation.

Exact route: stationary law of the policy-induced chain restricted to the
states reachable from the reference state, then frequency and error cost as
expectations under it.  Empirical route: a seeded slot-by-slot simulator
that follows the model's slot timing and tracks two consecutive-error-age
semantics (the truncated rule the decision process uses, and the raw
pair-reset rule) so their gap is measured instead of guessed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConvergenceFailure, DomainError, RemestError, SupportMismatchError
from .model import SystemModel
from .solver import (
    DeterministicPolicy,
    GainBias,
    ThresholdView,
    _class_lu,
    reachable_set,
    spi_solve,
)

STATIONARY_TOL = 1e-11
SIM_BLOCK = 1 << 14  # slots per block of the simulator's draws and records


@dataclass
class StationaryMetrics:
    """Stationary law over state indices with the derived rates."""

    mu: np.ndarray
    F: float
    J: float
    reachable: np.ndarray

    def L_at(self, lam: float) -> float:
        return self.J + lam * self.F


def _mixture_parts(policy):
    """Normalize a policy argument to (prob, actions_a, actions_b)."""
    from .constrained import MixturePolicy  # local: avoids an import cycle

    if isinstance(policy, MixturePolicy):
        return policy.p, policy.policy_minus.actions, policy.policy_plus.actions
    if isinstance(policy, DeterministicPolicy):
        return 1.0, policy.actions, policy.actions
    raise DomainError(f"unsupported policy type {type(policy).__name__}")


def stationary_metrics(model: SystemModel, policy) -> StationaryMetrics:
    """Exact frequency and error cost of a deterministic or mixture policy.

    The stationary law is solved directly on the set reachable from the
    reference state, with the factor that policy evaluation uses
    (``solver._pinned_lu``, transposed), K's rows off that set masked out
    (``solver._class_lu``), and its balance residual is checked against
    STATIONARY_TOL.  The law is then kept on the closed class of its
    heaviest state; every other state carries exactly zero mass.
    """
    p, act_minus, act_plus = _mixture_parts(policy)
    tx_rate = p * act_minus + (1.0 - p) * act_plus
    kernel, reach, factor = _class_lu(model, tx_rate)
    rhs = np.zeros(model.num_mdp_states + 1)
    rhs[-1] = 1.0
    sol = factor.solve(rhs, trans="T")
    resid = np.abs(factor.matvec(sol, trans="T") - rhs).max()
    if not resid <= STATIONARY_TOL:
        raise ConvergenceFailure(f"stationary law balance residual {resid:.2e}")
    # The law lives on the closed class, the states reachable from its
    # heaviest state; the solve leaves round-off on the rest of the reach
    # set, which is transient when the reference state is.
    closed = reachable_set(kernel, int(np.argmax(sol[:-1])))
    mu = np.zeros(model.num_mdp_states)
    mu[closed] = np.clip(sol[closed], 0.0, None)
    mu /= mu.sum()

    cost_minus = np.where(act_minus.astype(bool), model.tx_cost, model.idle_cost)
    cost_plus = np.where(act_plus.astype(bool), model.tx_cost, model.idle_cost)
    err_cost = p * cost_minus + (1.0 - p) * cost_plus
    f = float(mu @ tx_rate)
    j = float(mu @ err_cost)
    return StationaryMetrics(mu=mu, F=f, J=j, reachable=reach)


@dataclass
class SolveOutcome:
    """One point of the price sweep: price, gain, its (J, F) split, policy."""

    lam: float
    gain: float
    J: float
    F: float
    policy: DeterministicPolicy | None
    view: ThresholdView | None
    gainbias: GainBias | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def L(self) -> float:
        return self.J + self.lam * self.F


def sweep_lambda(model: SystemModel, lambda_grid) -> list[SolveOutcome]:
    """Solve the relaxed problem along an ascending price grid.

    Each solve warm-starts from the previous solved policy and its
    ``GainBias``, which ``spi_solve`` re-prices instead of evaluating that
    policy again.  A library error
    (RemestError) at one point is recorded in that outcome's diagnostics and
    the sweep continues; any other exception propagates.
    """
    grid = [float(l) for l in lambda_grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise DomainError("lambda grid must be sorted ascending")
    outcomes = []
    policy0 = start = None
    for lam in grid:
        try:
            policy, gb, view = spi_solve(model, lam, policy0=policy0, _start=start)
        except RemestError as exc:
            outcomes.append(
                SolveOutcome(
                    lam=lam, gain=float("nan"), J=float("nan"), F=float("nan"),
                    policy=None, view=None, gainbias=None,
                    diagnostics={"error": f"{type(exc).__name__}: {exc}"},
                )
            )
            continue
        outcomes.append(
            SolveOutcome(
                lam=lam,
                gain=gb.gain,
                J=gb.j_component,
                F=gb.f_component,
                policy=policy,
                view=view,
                gainbias=gb,
                diagnostics={"method": gb.method},
            )
        )
        policy0, start = policy, gb
    return outcomes


def kl_truncation(
    config,
    theta_ref: int,
    delta_ref: int,
    theta_small: int,
    delta_small: int,
    infinite_on_mismatch: bool = False,
) -> float:
    """Information loss of solving at a smaller truncation.

    Solves the constrained problem at both truncations, projects the
    reference stationary law onto the small state space by aggregating all
    saturated ages into the truncation boundary, and returns the divergence
    of the small law from the projection.  No smoothing: mass on states the
    projection never visits raises SupportMismatchError, or returns
    math.inf (the divergence of mutually singular laws) when
    infinite_on_mismatch is set.
    """
    from .constrained import solve_cmdp  # local: avoids an import cycle

    if theta_small > theta_ref or delta_small > delta_ref:
        raise DomainError("small truncation must not exceed the reference")

    def solved_mu(theta_max, delta_max):
        cfg = config.with_overrides(theta_max=theta_max, delta_max=delta_max)
        model = cfg.build_model()
        solution = solve_cmdp(
            model, cfg.f_max, cfg.lambda_max, cfg.tolerances.mixture
        )
        return model, stationary_metrics(model, solution.policy).mu

    model_ref, mu_ref = solved_mu(theta_ref, delta_ref)
    model_small, mu_small = solved_mu(theta_small, delta_small)

    proj = np.zeros(model_small.num_mdp_states)
    tgt = model_small.encode(
        model_ref.x_of,
        model_ref.z_of,
        np.minimum(model_ref.theta_of, theta_small),
        np.minimum(model_ref.delta_of, delta_small),
    )
    np.add.at(proj, tgt, mu_ref)

    support = mu_small > 0
    missing = np.flatnonzero(support & (proj <= 0))
    if missing.size:
        if infinite_on_mismatch:
            return float("inf")
        states = [model_small.decode(int(i)) for i in missing[:8]]
        raise SupportMismatchError(
            f"{missing.size} truncated states carry mass the reference never visits",
            states=states,
        )
    kl = float(np.sum(mu_small[support] * np.log(mu_small[support] / proj[support])))
    return max(kl, 0.0)


@dataclass
class SimReport:
    """Empirical rates from one seeded run, with batch-means standard errors.

    empirical_J_model follows the model's truncated error age (estimate-reset
    under the immediate timing, pair-reset under the delayed timing: the
    exact mirror of the decision process); empirical_J_strict follows the
    raw pair-reset rule without truncation.
    """

    horizon: int
    seed: int
    empirical_F: float
    empirical_J_model: float
    empirical_J_strict: float
    se_F: float
    se_J_model: float
    se_J_strict: float
    channel_success_rate: float
    transmissions: int
    n_batches: int

    def as_dict(self) -> dict:
        return asdict(self)


def simulate(model: SystemModel, policy, horizon: int, seed: int) -> SimReport:
    """Seeded slot-by-slot run of source, channel, policy and receiver.

    Three independent named streams (source, channel, mixture coin) are
    spawned from the seed so that changing the policy never perturbs the
    source path; the coin stream is drawn only for a mixture.  The slot order
    follows ``model.timing``: under the delayed timing the slot is charged at
    its own estimate and error age before delivery, and delivered content
    arrives next slot at age 1.

    The slots run in blocks of SIM_BLOCK.  Each block draws its uniforms from
    the three streams (successive draws give the same doubles as one draw of
    the whole horizon), precomputes every source row's successor and the
    channel and coin outcomes as Python lists, steps the slots on plain ints,
    and then prices the block's (source, estimate, error age) records with
    array products.  The report is bit-reproducible for a fixed seed, and
    equal field by field to the reports of earlier versions that stepped one
    slot at a time on numpy scalars (``tests/test_evaluation.py`` pins them).
    """
    if horizon < 10**4:
        raise DomainError("horizon must be at least 10^4")
    p, act_minus, act_plus = _mixture_parts(policy)
    mixed = act_plus is not act_minus

    src_ss, ch_ss, coin_ss = np.random.SeedSequence(seed).spawn(3)
    rng_src = np.random.default_rng(src_ss)
    rng_ch = np.random.default_rng(ch_ss)
    rng_coin = np.random.default_rng(coin_ss)

    n, tm, dm = model.n_states, model.theta_max, model.delta_max
    cum_rows = np.cumsum(model.chain.rows, axis=1)
    table = model.estimates.table.tolist()
    dist = model.distortion
    rho_strict = model.rho_values
    p_s = model.p_s
    minus, plus = act_minus.tolist(), act_plus.tolist()

    xstar = int(model.x_of[model.ref_index])
    x = xstar
    z, theta = xstar, tm
    delta_model = 0
    x_prev, xhat_prev = xstar, xstar
    delta_strict = 0

    n_batches = 50
    batch_len = horizon // n_batches
    used = batch_len * n_batches
    cost_m = np.empty(used)
    cost_s = np.empty(used)
    tx_flag = np.empty(used)
    ch_success = 0

    delayed = model.timing == "delayed"
    fresh_age = 1 if delayed else 0
    pick_minus = [True] * min(SIM_BLOCK, used)  # a deterministic policy's "coin"

    for start in range(0, used, SIM_BLOCK):
        k = min(SIM_BLOCK, used - start)
        u_src = rng_src.random(k)
        succ = [
            np.minimum(np.searchsorted(row, u_src, side="right"), n - 1).tolist()
            for row in cum_rows
        ]
        delivered = (rng_ch.random(k) < p_s).tolist()
        coin = (rng_coin.random(k) < p).tolist() if mixed else pick_minus
        xs, xhats, ages_m, ages_s, us = [], [], [], [], []

        for i in range(k):
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
                    delta_model = (
                        (delta_model + 1 if delta_model < dm else dm)
                        if xhat == xhat_prev else 1
                    )
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
                    delta_model = delta_model + 1 if delta_model < dm else dm
                    delta_strict += 1
                else:
                    delta_model = delta_strict = 1

        block = slice(start, start + k)
        d_pair = dist[xs, xhats]
        strict = np.array(ages_s)
        top = int(strict.max())
        if top >= rho_strict.size:
            rho_strict = model.rho.values(top)
        cost_m[block] = d_pair * model.rho_values[ages_m]
        cost_s[block] = d_pair * rho_strict[strict]
        tx_flag[block] = us
    tx_total = int(np.count_nonzero(tx_flag))

    def batch_stats(series):
        means = series.reshape(n_batches, batch_len).mean(axis=1)
        return float(series.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))

    f_mean, f_se = batch_stats(tx_flag)
    jm_mean, jm_se = batch_stats(cost_m)
    js_mean, js_se = batch_stats(cost_s)
    return SimReport(
        horizon=used,
        seed=seed,
        empirical_F=f_mean,
        empirical_J_model=jm_mean,
        empirical_J_strict=js_mean,
        se_F=f_se,
        se_J_model=jm_se,
        se_J_strict=js_se,
        channel_success_rate=ch_success / tx_total if tx_total else float("nan"),
        transmissions=tx_total,
        n_batches=n_batches,
    )
