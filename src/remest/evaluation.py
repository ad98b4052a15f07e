"""Exact and empirical policy evaluation.

Exact route: stationary law of the policy-induced chain started from the
reference state, then frequency and error cost as expectations under it.
Empirical route: a seeded walk on the model's own successor tables, so it
follows the model's slot timing without a second copy of it, pricing two
consecutive-error-age semantics (the truncated rule the decision process
uses, and the raw pair-reset rule) so their gap is measured instead of
guessed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ConvergenceFailure, DomainError, RemestError, SupportMismatchError
from .model import SystemModel
from .solver import (
    DeterministicPolicy,
    GainBias,
    ThresholdView,
    _check_actions,
    _class_systems,
    _keep,
    _stage_costs,
    induced_kernel,
    reachable_set,
    spi_solve,
)

STATIONARY_TOL = 1e-11
SIM_BLOCK = 1 << 15  # slots per block of the simulator's draws and records
SIM_LANES = 256  # lanes a block's walk is cut into (DECISIONS.md section 11)
SIM_SCALAR_LANES = 8  # the repair finishes this few lanes one slot at a time


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

    K(q) is cut to the states the reference state reaches, a closed set,
    and split there into its closed classes (``solver._class_systems``):
    the law is each class's law weighted by the chance of ending in that
    class from the reference state.  One class holding the reference state,
    the unichain case, is one sparse LU of that class's bordered system.
    Transient and unreached states carry exactly zero mass, and the balance
    residual max|mu K - mu| is checked against STATIONARY_TOL.
    """
    p, act_minus, act_plus = _mixture_parts(policy)
    _check_actions(model, act_minus, act_plus)
    costs = p * _stage_costs(model, act_minus) + (1.0 - p) * _stage_costs(model, act_plus)
    kernel = induced_kernel(model, costs[1])
    reach = reachable_set(kernel, model.ref_index)
    ref = int(np.searchsorted(reach, model.ref_index))
    mu = np.zeros(model.num_mdp_states)
    try:
        members, _, laws, _, absorb, _ = _class_systems(kernel[reach][:, reach], ref)
    except RuntimeError as exc:  # exactly singular
        raise ConvergenceFailure(f"stationary law not solved: {exc}") from exc
    for states, law, w in zip(members, laws, absorb[ref]):
        mu[reach[states]] = w * law
    mu = np.clip(mu, 0.0, None)
    mu /= mu.sum()
    resid = np.abs(kernel.T @ mu - mu).max()
    if not resid <= STATIONARY_TOL:
        raise ConvergenceFailure(f"stationary law balance residual {resid:.2e}")
    f = float(mu @ costs[1])
    j = float(mu @ costs[0])
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

    Each solve warm-starts from the previous solved policy, with a
    read-only store of that policy's ``GainBias``, which ``spi_solve``
    re-prices instead of evaluating that policy again.  A library error
    (RemestError) at one point is recorded in that outcome's diagnostics and
    the sweep continues; any other exception propagates.
    """
    grid = [float(l) for l in lambda_grid]
    if not all(map(math.isfinite, grid)):
        raise DomainError("lambda grid holds a non-finite price")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise DomainError("lambda grid must be sorted ascending")
    outcomes = []
    policy0 = store = None
    for lam in grid:
        try:
            policy, gb, view = spi_solve(model, lam, policy0=policy0, _store=store)
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
        policy0, store = policy, MappingProxyType(_keep({}, policy, gb))
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
    raw pair-reset rule without truncation.  channel_success_rate is NaN
    when the policy never transmits; two reports are equal when every field
    is, NaN equal to NaN.
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

    def __eq__(self, other):
        if not isinstance(other, SimReport):
            return NotImplemented
        return all(
            x == y or (x != x and y != y)
            for x, y in zip(self.as_dict().values(), other.as_dict().values())
        )


def _walk(table: np.ndarray, code: np.ndarray, rec: np.ndarray) -> None:
    """Fill ``rec[1 : k + 1]`` with the walk ``rec[i + 1] = table[code[i] +
    rec[i]]`` over the k codes, in lanes (DECISIONS.md section 11).

    The codes are cut into at most SIM_LANES lanes of equal length.  All
    lanes step together from the block's start state ``rec[0]``, one gather
    per slot: lane 0's start is right, every other lane's a guess.  Then
    each lane walks again from its predecessor's end until its state equals
    its own record at the same slot: the step is a function of the code, so
    from there on the two walks agree.  A lane that reaches its end without
    meeting its record has a new end, and the lane after it is walked
    again.  By induction from lane 0 the record is the sequential walk's,
    bit for bit.  Where most lanes of a round reach their end unmet, the
    rest of the block is walked in order, one slot at a time.
    """
    k = code.size
    size = -(-k // SIM_LANES)  # slots per lane
    P = -(-k // size)
    padded = np.zeros(P * size, np.int32)  # code 0 is a valid index
    padded[:k] = code
    C = np.ascontiguousarray(padded.reshape(P, size).T)  # C[t, j]: lane j's slot t
    R = np.empty((size, P), np.int32)  # R[t, j]: lane j's state after slot t
    s = np.full(P, rec[0], np.int32)
    # Every index is in range; mode "clip" only spares take a buffered copy.
    for t in range(size):
        table.take(C[t] + s, out=R[t], mode="clip")
        s = R[t]

    step, cm, rm = memoryview(table), memoryview(C.ravel()), memoryview(R.ravel())

    def finish(j, t, s):
        """Walk lane j on from slot t and state s until it meets its record;
        False when it reaches its end first."""
        for i in range(t * P + j, size * P, P):
            s = step[cm[i] + s]
            if s == rm[i]:
                return True
            rm[i] = s
        return False

    # Walk the lanes still to check together while there are many, each
    # from its predecessor's end as it stands when the round starts.  Once a
    # lane meets its record the two agree, so the last slot walked tells
    # which lanes have met.
    dirty = np.arange(1, P)
    first = k  # the slots from here on are walked in order
    while dirty.size > SIM_SCALAR_LANES:
        codes, old = C[:, dirty], R[:, dirty]
        new = np.empty_like(old)
        s = R[-1, dirty - 1]
        for t in range(size):
            table.take(codes[t] + s, out=new[t], mode="clip")
            s = new[t]
            off = s != old[t]
            if np.count_nonzero(off) <= SIM_SCALAR_LANES:
                break
        R[: t + 1, dirty] = new[: t + 1]
        # A lane that has not met holds the new walk up to slot t and the
        # old one after it: finish it before a later lane is checked.
        ran = [j for j in dirty[off].tolist() if not finish(j, t + 1, rm[t * P + j])]
        rare = 2 * len(ran) > dirty.size
        dirty = np.array([j + 1 for j in ran if j + 1 < P], np.intp)
        if rare:
            # Most lanes ran to their end unmet: walks rarely meet within a
            # lane.  The lanes before the first one left are right; walk on
            # in order from there.
            first = int(dirty[0]) * size if dirty.size else k
            break
    else:
        # Check the few lanes left in order, each from its predecessor's end.
        redo = set(dirty.tolist())
        moved = False  # whether lane j - 1's end has moved
        for j in range(int(dirty[0]) if dirty.size else P, P):
            if moved or j in redo:
                moved = not finish(j, 0, rm[(size - 1) * P + j - 1])
    rec[1 : first + 1] = R.T.reshape(-1)[:first]
    out = memoryview(rec)
    s, i = out[first], first + 1
    for c in memoryview(code[first:]):
        s = step[c + s]
        out[i] = s
        i += 1


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, not {value!r}") from None


def simulate(model: SystemModel, policy, horizon: int, seed: int) -> SimReport:
    """Seeded run of source, channel, policy and receiver, walked on the
    decision process's own successor tables.

    Three independent named streams (source, channel, mixture coin) are
    spawned from the seed so that changing the policy never perturbs the
    source path; the coin stream is drawn only for a mixture.  From state s
    the next state is ``succ_targets[s, x']`` when the coin-selected action
    is 1 and the delivery succeeds, and ``idle_targets[s, x']`` otherwise,
    so the run follows ``model.timing`` through the targets alone; it starts
    at ``model.ref_index``.  The step table is indexed by the source draw's
    class (the breakpoints of the chain's cumulative rows cut [0, 1) into
    classes that move every row alike), so a slot costs one buffer index.
    The slots run in blocks of SIM_BLOCK, each block's uniforms drawn at
    once (the same doubles as one draw of the whole horizon), its walk cut
    into lanes that step together (``_walk``) and its record of states
    priced with ``take`` on per-state tables.  Horizon and seed are
    nonnegative integers; the policy's action tables cover the model's states.

    The report is bit-reproducible for a fixed seed, and equal field by
    field to a slot-by-slot simulator that re-derives both timings from the
    chain, the channel and the estimate table (``tests/test_evaluation.py``,
    DECISIONS.md section 7).
    """
    horizon, seed = _integer(horizon, "horizon"), _integer(seed, "seed")
    if horizon < 10**4:
        raise DomainError("horizon must be at least 10^4")
    if seed < 0:
        raise DomainError(f"seed {seed} is negative")
    p, act_minus, act_plus = _mixture_parts(policy)
    _check_actions(model, act_minus, act_plus)
    mixed = act_plus is not act_minus

    streams = np.random.SeedSequence(seed).spawn(3)
    rng_src, rng_ch, rng_coin = (np.random.default_rng(ss) for ss in streams)

    n, S = model.n_states, model.num_mdp_states
    cum_rows = np.cumsum(model.chain.rows, axis=1)
    breaks = np.unique(cum_rows)
    m = breaks.size + 1
    # moves[r, j]: the source's next state from row r for a draw in class j;
    # class 0 lies below every breakpoint.
    reps = np.concatenate(([-1.0], breaks))
    moves = np.minimum([np.searchsorted(row, reps, side="right") for row in cum_rows], n - 1)
    # acts[coin]: a mixture's coin picks act_minus at 1; a deterministic
    # policy has one row and coin 0.  Layer 0 of the step table (layer, s,
    # class) holds the idle successors, layer 1 + coin a delivered slot's.
    acts = np.stack([act_plus, act_minus] if mixed else [act_minus]).astype(bool)
    step = np.empty((1 + acts.shape[0], S, m), np.int32)
    for r in range(n):
        rows = slice(r * S // n, (r + 1) * S // n)  # the states with source r
        idle = model.idle_targets[rows][:, moves[r]]
        succ = model.succ_targets[rows][:, moves[r]]
        step[0, rows] = idle
        step[1:, rows] = np.where(acts[:, rows, None], succ, idle)
    step *= m  # an entry is a row offset: the next slot reads step[code + entry]
    step = step.ravel()
    layer = S * m
    inner = breaks[breaks < 1.0]  # a draw is below 1: the class counts these

    n_batches = 50
    batch_len = horizon // n_batches
    used = batch_len * n_batches
    cost_m, cost_s = np.empty((2, used))
    tx_flag = np.empty(used, bool)  # sums of flags are exact: same means as float64
    ch_success = 0

    delayed = model.timing == "delayed"
    # Per-state pricing tables: a slot's (source, estimate) pair is its own
    # state's source with the priced state's estimate, its model cost the
    # pair's distortion times the priced state's error-age penalty.  The
    # delayed timing prices the slot's own state: both are per-state tables.
    flags = acts.ravel()  # flags[coin * S + s]: the action at s
    pair_x = model.x_of * n
    dist = model.distortion.ravel()
    wrong = 1 - np.eye(n, dtype=np.intp).ravel()  # pair -> 1 where x != estimate
    rho_model = model.rho_values[model.delta_of]
    rho_strict = model.rho_values
    if delayed:
        pair_tbl = pair_x + model.est_prev
        cost_tbl = dist[pair_tbl] * rho_model
    size = min(SIM_BLOCK, used)
    rec = np.empty(size + 1, np.int32)  # the block's states, times m
    rec[0] = model.ref_index * m
    local, changed = np.arange(size), np.empty(size, bool)
    since_buf, run_buf = np.empty((2, size), np.intp)
    # The run of (source, estimate) pairs in progress before the first slot:
    # none under the immediate timing; under the delayed timing the first
    # slot's own pair, begun so that the slot reads the start state's error
    # age 0.
    xstar = int(model.x_of[model.ref_index])
    run_pair = xstar * n + (int(model.est_prev[model.ref_index]) if delayed else xstar)
    run_from = 1 if delayed else 0
    coin = 0

    for start in range(0, used, SIM_BLOCK):
        k = min(SIM_BLOCK, used - start)
        draw = rng_src.random(k)
        code = np.zeros(k, np.int32)
        for b in inner:
            code += draw >= b
        delivered = rng_ch.random(k) < model.p_s
        if mixed:
            coin = (rng_coin.random(k) < p).astype(np.int32)
        code += delivered * (1 + coin) * layer

        _walk(step, code, rec)
        # intp indices: a gather casts int32 ones at several times its cost.
        # Every index is in range; mode "clip" spares take a buffered copy.
        states = (rec[: k + 1] // m).astype(np.intp)
        own = states[:k]
        block = slice(start, start + k)
        rec[0] = rec[k]
        u = flags.take(coin * S + own if mixed else own, out=tx_flag[block], mode="clip")
        ch_success += int(np.count_nonzero(u & delivered))
        if delayed:
            pair = pair_tbl.take(own)
            d_pair = dist.take(pair)
            cost_tbl.take(own, out=cost_m[block], mode="clip")
        else:
            priced = states[1:]  # the immediate timing charges the next state
            pair = pair_x.take(own)
            pair += model.est_prev.take(priced)
            d_pair = dist.take(pair)
            np.multiply(d_pair, rho_model.take(priced), out=cost_m[block])

        # Strict error age: 0 on a right estimate, else the length of the run
        # of equal (source, estimate) pairs ending at the slot.  With since a
        # slot's distance from the carried run's start (>= 0 wherever the
        # pair changes), the running maximum of since * changed is the slot's
        # run start on the same count (np.where there would branch on flags).
        np.not_equal(pair[1:], pair[:-1], out=changed[1:k])
        changed[0] = pair[0] != run_pair
        since = np.subtract(local[:k], run_from - start, out=since_buf[:k])
        run_start = np.multiply(since, changed[:k], out=run_buf[:k])
        np.maximum.accumulate(run_start, out=run_start)
        run_pair, run_from = int(pair[-1]), run_from + int(run_start[-1])
        strict = np.subtract(since, run_start, out=run_start)
        strict += 1
        strict *= wrong.take(pair)
        top = int(strict.max())
        if top >= rho_strict.size:
            rho_strict = model.rho.values(top)
        np.multiply(d_pair, rho_strict.take(strict), out=cost_s[block])
    tx_total = int(np.count_nonzero(tx_flag))

    def batch_stats(series):
        means = series.reshape(n_batches, batch_len).mean(axis=1)
        return float(series.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))

    f_mean, f_se = batch_stats(tx_flag)
    jm_mean, jm_se = batch_stats(cost_m)
    js_mean, js_se = batch_stats(cost_s)
    return SimReport(
        horizon=used, seed=seed,
        empirical_F=f_mean, empirical_J_model=jm_mean, empirical_J_strict=js_mean,
        se_F=f_se, se_J_model=jm_se, se_J_strict=js_se,
        channel_success_rate=ch_success / tx_total if tx_total else float("nan"),
        transmissions=tx_total, n_batches=n_batches,
    )
