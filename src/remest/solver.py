"""Average-cost solvers for the relaxed problem at a fixed transmission price.

Two independent routes are kept deliberately separate:

* ``spi_solve`` runs policy iteration restricted to switching policies
  (transmit only when the impending consecutive-error age reaches a
  per-(source, content, info-age) threshold; states that will be synced
  after aging are pinned to idle).
* ``rvi_solve`` runs plain relative value iteration over all state-action
  pairs and serves as the unstructured oracle.

Policy evaluation and the stationary law (``evaluation.stationary_metrics``)
share one direct solve: a sparse LU of the pinned bordered system
[[I - K(q), 1], [e_ref, 0]], where K(q) is the kernel induced by a per-state
transmit probability q and the bias is pinned to zero at the model's
reference state.  Every such system of one model has its nonzeros inside
one CSC pattern, so the pattern and a fill-reducing column order are made
once per model, on the first factorization; every factor after it is one
numeric fill of that pattern, columns already in that order, and SuperLU
neither assembles nor orders the matrix again.  On a chain with several
closed classes, the class of the reference state is a row mask of that same
fill (K's rows off it zeroed), not a second system.  K(q) is listed row by
row, so the kernel the class search walks is a CSR made with no sort.  The
same pinned solve yields J and F of the policy, and its bias at any price,
since the relaxed cost at price lam is the error cost plus lam times the
transmit indicator.  So SPI's callers read J and F from its ``GainBias``,
and a warm start re-prices its start policy's evaluation instead of
factoring again.
The improvement pass, the threshold view and the structural checks work on
the (triples, delta_max + 1) reshape of the state space, one row per
(x, z, theta) triple, with no Python loop; SPI, RVI and the submodularity
check share one Q-factor routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from .errors import ConvergenceFailure, DomainError
from .model import SystemModel

INF = math.inf
TIE_TOL = 1e-12
RESIDUAL_TOL = 1e-8
SPI_MAX_PASSES = 500
RVI_SPAN_TOL = 1e-10
RVI_MAX_SWEEPS = 10**6


@dataclass
class DeterministicPolicy:
    """Dense action table over state indices, values in {0, 1}."""

    actions: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.actions, dtype=np.uint8)
        a.setflags(write=False)
        self.actions = a

    def same_as(self, other: "DeterministicPolicy") -> bool:
        return np.array_equal(self.actions, other.actions)

    @property
    def size(self) -> int:
        return self.actions.size


@dataclass
class GainBias:
    """Solution of the fixed-policy evaluation equations.

    ``gain`` is the average cost, ``bias`` the relative value vector, zero
    at the model's reference state.  ``j_component`` and ``f_component``
    decompose the gain into the error-cost part and the transmission
    frequency (gain == j + lam * f); they are the right-hand sides of the
    pinned solve, not read from a stationary law.  ``parts`` is the (2, S)
    array of the matching bias parts, h_err and h_tx, with bias == h_err +
    lam * h_tx.  None of them depends on the price, so a "pinned-lu"
    evaluation holds the policy's gain and bias at every price
    (``_repriced``).  ``parts`` is None for "class-solve" and "rvi": the
    class route's off-class bias is relaxed at one price, so it is never
    re-priced.  ``residual`` is the largest Bellman residual of (gain,
    bias).  ``method`` names the route: "pinned-lu" (the full-space solve),
    "class-solve" (a multichain policy, see ``policy_evaluate``) or "rvi".
    ``sweeps`` counts value-iteration sweeps and is 0 for a direct solve.
    """

    gain: float
    bias: np.ndarray
    lam: float
    j_component: float | None = None
    f_component: float | None = None
    residual: float = float("nan")
    method: str = "pinned-lu"
    sweeps: int = 0
    parts: np.ndarray | None = None


@dataclass
class ThresholdView:
    """Per-triple transmit thresholds on the consecutive-error age.

    Keys are (x, z, theta) triples that face an error; the value is the
    smallest error age at which the policy transmits (an int, or math.inf
    for never).  The age counted is the impending one under the immediate
    timing and the current AoCE under the delayed timing
    (``model.threshold_offset``).  Under the immediate timing, triples whose
    estimate is about to change reset the impending age to 1, so their only
    expressible thresholds are 1 and infinity.  Both directions work on the
    (triples, delta_max + 1) reshape of the action table, one row per triple.
    """

    thresholds: dict
    delta_max: int

    def distinct(self) -> list:
        return sorted(set(self.thresholds.values()))

    def reconstruct(self, model: SystemModel) -> DeterministicPolicy:
        keys = np.array(list(self.thresholds), dtype=np.int64).reshape(-1, 3)
        thr = np.array(list(self.thresholds.values()), dtype=float)
        rows = model.encode(keys[:, 0], keys[:, 1], keys[:, 2], 0) // (model.delta_max + 1)
        same = _by_triple(model, model.case_same_error)[rows, 0]
        first = np.where(same, thr - model.threshold_offset, np.where(thr <= 1, 0, INF))
        actions = np.zeros(model.num_mdp_states, dtype=np.uint8)
        _by_triple(model, actions)[rows] = np.arange(model.delta_max + 1) >= first[:, None]
        return DeterministicPolicy(actions)

    @staticmethod
    def from_policy(model: SystemModel, policy: DeterministicPolicy) -> "ThresholdView":
        a = _by_triple(model, policy.actions).astype(bool)
        pinned = _by_triple(model, model.idle_pinned)[:, 0]
        same = _by_triple(model, model.case_same_error)[:, 0]
        sends = a.any(axis=1)
        first = a.argmax(axis=1)  # first transmitting slot; 0 when none
        canonical = (np.logical_or.accumulate(a, axis=1) == a).all(axis=1)
        fault = np.select(
            [
                pinned & sends,
                ~pinned & ~canonical,
                ~pinned & sends & same & (first == model.delta_max),
                ~pinned & sends & ~same & (first != 0),
            ],
            [1, 2, 3, 4],
        )
        bad = np.flatnonzero(fault)
        if bad.size:
            triple = _triple_keys(model, bad[:1])[0]
            raise DomainError(
                (
                    f"policy transmits at synced triple {triple}",
                    f"policy is not a canonical switching policy at {triple}",
                    # Only the saturated slot transmits; same impending age
                    # as its neighbor, not expressible as a clean threshold.
                    f"non-canonical cut at the truncation corner of {triple}",
                    f"fresh-error triple {triple} has a delta-dependent action",
                )[fault[bad[0]] - 1]
            )
        free = np.flatnonzero(~pinned)
        thr = np.where(same, first + model.threshold_offset, 1)[free].tolist()
        values = (t if s else INF for t, s in zip(thr, sends[free]))
        return ThresholdView(dict(zip(_triple_keys(model, free), values)), model.delta_max)


def _by_triple(model: SystemModel, values: np.ndarray) -> np.ndarray:
    """The (triples, delta_max + 1) reshape: one row per (x, z, theta) triple."""
    return values.reshape(-1, model.delta_max + 1)


def _triple_keys(model: SystemModel, rows: np.ndarray) -> list:
    """(x, z, theta) tuples of plain ints for rows of the triple reshape."""
    base = rows * (model.delta_max + 1)
    return list(zip(*(v[base].tolist() for v in (model.x_of, model.z_of, model.theta_of))))


def never_transmit_policy(model: SystemModel) -> DeterministicPolicy:
    return DeterministicPolicy(np.zeros(model.num_mdp_states, dtype=np.uint8))


def reactive_policy(model: SystemModel) -> DeterministicPolicy:
    """Transmit wherever a standing error persists through aging (threshold 1)."""
    return DeterministicPolicy((~model.idle_pinned).astype(np.uint8))


def induced_kernel(model: SystemModel, tx_prob: np.ndarray) -> sp.csr_matrix:
    """Sparse one-step kernel K(q) = P_idle + diag(p_s q)(P_succ - P_idle).

    ``tx_prob`` is the per-state transmit probability q: the 0/1 action
    table of a deterministic policy, or the coin-weighted table of a mixture.
    Row s is state s's 2n ``_kernel_values`` as listed, with no sort: an
    idle and a success entry to one target stay two entries of the row.
    """
    probs = _kernel_values(model, tx_prob)
    s_count = model.num_mdp_states
    cols = _pinned_entries(model)[1][: probs.size]
    indptr = np.arange(0, probs.size + 1, probs.size // s_count)
    kernel = sp.csr_matrix((probs, cols, indptr), shape=(s_count, s_count))
    kernel.eliminate_zeros()  # csgraph counts explicit zeros as edges
    return kernel


def _kernel_values(model: SystemModel, tx_prob: np.ndarray) -> np.ndarray:
    """K(q) at its triplets, the leading entries of ``_pinned_entries``:
    each state's n idle entries, then its n success entries."""
    w = model.p_s * np.asarray(tx_prob, dtype=float)
    return np.einsum("sj,sk->sjk", np.stack([1.0 - w, w], 1), model.source_rows).ravel()


def _pinned_entries(model: SystemModel):
    """Row and column of every entry of M = [[I - K(q), 1], [e_ref, 0]] over
    every q: row by row, the idle, then the success targets of each state
    (pinned ones too), then the identity, the border column and the border
    row."""
    m, n = model.idle_targets.shape
    diag = np.arange(m)
    targets = np.hstack([model.idle_targets, model.succ_targets]).ravel()
    rows = np.concatenate([np.repeat(diag, 2 * n), diag, diag, [m]], dtype=np.int32)
    cols = np.concatenate([targets, diag, np.full(m, m), [model.ref_index]], dtype=np.int32)
    return rows, cols


def fill_order(model: SystemModel) -> np.ndarray:
    """COLAMD column order of the pinned system over the union pattern of
    every switching policy and mixture (``SystemModel.pinned_order``)."""
    rows, cols = _pinned_entries(model)
    probs = _kernel_values(model, 0.5 * ~model.idle_pinned)
    data = np.concatenate([-probs, np.ones(rows.size - probs.size)])
    keep = np.flatnonzero(data)
    size = model.num_mdp_states + 1
    matrix = sp.csc_matrix((data[keep], (rows[keep], cols[keep])), shape=(size, size))
    del rows, cols, probs, data, keep  # the peak memory is set inside splu
    return np.argsort(spla.splu(matrix, relax=1, panel_size=1).perm_c)


def pinned_pattern(model: SystemModel):
    """Sorted CSC structure of every pinned system of the model, columns in
    ``pinned_order`` (``SystemModel.pinned_pattern``): ``indices``,
    ``indptr``, and the data slot of each of ``_pinned_entries``, split into
    K's triplets and the unit entries."""
    rows, cols = _pinned_entries(model)
    size = model.num_mdp_states + 1
    pos = np.argsort(model.pinned_order)  # column c of M is stored at pos[c]
    keys, slot = np.unique(pos[cols] * size + rows, return_inverse=True)
    slot = slot.astype(np.int32)
    k = 2 * model.idle_targets.size
    indptr = np.searchsorted(keys, np.arange(size + 1) * size)
    return (keys % size).astype(np.int32), indptr.astype(np.int32), slot[:k], slot[k:]


def _pinned_matrix(model: SystemModel, tx_prob: np.ndarray, states=None):
    """M[:, order] for transmit probability q, one numeric fill of the
    model's ``pinned_pattern``, and its column order ``order``.

    ``states``, when given, is a closed set of the chain containing the
    reference state.  K's rows off it are zeroed, so each state off it keeps
    only its own row h + g = c, which no state of the set reads: the set's
    equations are those of the restricted chain, and the stationary law is
    zero off it.
    """
    indices, indptr, k_slot, const_slot = model.pinned_pattern
    values = _kernel_values(model, tx_prob)
    if states is not None:
        off = np.ones(model.num_mdp_states, dtype=bool)
        off[states] = False
        values.reshape(off.size, -1)[off] = 0.0
    data = -np.bincount(k_slot, values, indices.size)
    data[const_slot] += 1.0
    size = indptr.size - 1
    # eliminate_zeros works in place: keep the cached pattern intact.
    matrix = sp.csc_matrix((data, indices.copy(), indptr.copy()), shape=(size, size))
    matrix.eliminate_zeros()
    return matrix, model.pinned_order


@dataclass
class _PinnedFactor:
    """LU of M[:, order] (``matrix``); ``solve`` answers M x = rhs, or
    M^T x = rhs with trans="T", in M's own unknowns."""

    matrix: sp.csc_matrix
    lu: spla.SuperLU
    order: np.ndarray

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        if trans == "T":
            return self.lu.solve(rhs[self.order], trans="T")
        y = self.lu.solve(rhs)
        x = np.empty_like(y)
        x[self.order] = y
        return x


def _pinned_lu(model: SystemModel, tx_prob: np.ndarray, states=None):
    """Sparse LU of the pinned system M = [[I - K(q), 1], [e_ref, 0]].

    The unknowns are (bias, gain): M [h; g] = [c; 0] is the gain/bias system
    with h = 0 at the model's reference state, and M^T [mu; 0] = [0; 1] is
    the stationary law.  ``states``, when given, is a closed set of the
    chain containing the reference state, and K's rows off it are masked
    out (``_pinned_matrix``); the system keeps its full size.  The matrix is
    one numeric fill of the model's ``pinned_pattern``, its columns already
    in ``pinned_order``, so SuperLU skips its own ordering.  Returns a
    ``_PinnedFactor``; raises RuntimeError when M is exactly singular.
    """
    matrix, order = _pinned_matrix(model, tx_prob, states)
    # relax = panel_size = 1 keep SuperLU's working memory down: at
    # S = 24 025 one factor raises the peak by about 18 MiB against 25 MiB
    # with the defaults, and a price sweep there runs no slower.
    lu = spla.splu(matrix, permc_spec="NATURAL", relax=1, panel_size=1)
    return _PinnedFactor(matrix, lu, order)


def _class_lu(model: SystemModel, tx_prob: np.ndarray):
    """K(q), the closed class reachable from the reference state, and the
    LU of the pinned system masked to that class (``_pinned_lu``).  Raises
    ConvergenceFailure when that system is singular."""
    kernel = induced_kernel(model, tx_prob)
    reach = reachable_set(kernel, model.ref_index)
    try:
        return kernel, reach, _pinned_lu(model, tx_prob, reach)
    except RuntimeError as exc:  # exactly singular
        raise ConvergenceFailure(f"class of the reference state is not unichain: {exc}") from exc


def reachable_set(kernel: sp.csr_matrix, start: int) -> np.ndarray:
    """Indices reachable from ``start`` (including it) on the kernel support."""
    order = breadth_first_order(kernel, start, directed=True, return_predecessors=False)
    return np.sort(order)


def _stage_costs(model: SystemModel, actions: np.ndarray) -> np.ndarray:
    """Stacked per-state costs under the policy: rows (error, tx).  The
    relaxed cost at price lam is the first row plus lam times the second."""
    a = actions.astype(bool)
    return np.vstack([np.where(a, model.tx_cost, model.idle_cost), a.astype(float)])


def _span(x: np.ndarray) -> float:
    return float(x.max() - x.min())


def policy_evaluate(model: SystemModel, policy: DeterministicPolicy, lam: float) -> GainBias:
    """Gain and bias of a fixed policy, bias pinned to zero at model.ref_index.

    One sparse LU of the pinned system gives the (J, F) split and the bias
    parts (h_err, h_tx) as two right-hand sides; the gain and bias at lam
    are J + lam * F and h_err + lam * h_tx, the formula ``_repriced``
    applies at any other price.  When that system is singular or the
    residual of (gain, bias) exceeds RESIDUAL_TOL (a policy whose chain
    splits into closed classes with unequal gains), the system is solved on
    the class of the reference state instead and the other states are
    relaxed against its gain.
    """
    q = policy.actions.astype(float)
    costs = _stage_costs(model, policy.actions)
    rhs = np.vstack([costs.T, np.zeros((1, 2))])
    # The bias and its parts outlive the factor, so they are allocated
    # first: placed above SuperLU's freed work memory they would keep the
    # heap from shrinking, and the peak resident memory of a constrained
    # solve creeps up by MiBs.
    parts = np.empty((2, model.num_mdp_states))
    bias = np.empty(model.num_mdp_states)
    try:
        factor = _pinned_lu(model, q)
    except RuntimeError:  # exactly singular
        return _evaluate_on_class(model, q, lam, costs)
    sol = factor.solve(rhs)
    priced = sol[:, 0] + lam * sol[:, 1]  # (bias, gain) at lam
    resid = factor.matrix @ priced[factor.order] - (rhs[:, 0] + lam * rhs[:, 1])
    resid = float(np.abs(resid).max())
    if not resid <= RESIDUAL_TOL:
        return _evaluate_on_class(model, q, lam, costs)
    parts[:] = sol[:-1].T
    bias[:] = priced[:-1]
    j, f = sol[-1]
    return GainBias(
        gain=float(priced[-1]),
        bias=bias,
        lam=lam,
        j_component=float(j),
        f_component=float(f),
        residual=resid,
        method="pinned-lu",
        parts=parts,
    )


def _evaluate_on_class(model, q, lam, costs) -> GainBias:
    """Evaluation of a policy whose chain has several closed classes.

    Solves exactly on the class of the reference state and relaxes the
    remaining states against that gain (best effort; their actions get
    corrected by subsequent improvement steps).  The reported residual
    covers all states.  The relaxed bias holds at lam alone, so no
    ``parts`` are kept and the result is never re-priced.
    """
    kernel, reach, factor = _class_lu(model, q)
    sol = factor.solve(np.vstack([costs.T, np.zeros((1, 2))]))
    if not np.all(np.isfinite(sol)):
        raise ConvergenceFailure("class-restricted evaluation returned non-finite values")
    j, f = sol[-1]
    gain = j + lam * f
    cost = costs[0] + lam * costs[1]
    bias = sol[:-1, 0] + lam * sol[:-1, 1]
    off = np.setdiff1d(np.arange(bias.size), reach, assume_unique=True)
    if off.size:
        bias[off] = 0.0
        k_off = kernel[off]
        for _ in range(2000):
            new_off = cost[off] - gain + k_off @ bias
            delta = np.abs(new_off - bias[off]).max()
            bias[off] = new_off
            if delta < 1e-10:
                break
    resid = float(np.abs(gain + bias - cost - kernel @ bias).max())
    return GainBias(
        gain=float(gain),
        bias=bias,
        lam=lam,
        j_component=float(j),
        f_component=float(f),
        residual=resid,
        method="class-solve",
    )


def _repriced(gb: GainBias, lam: float) -> GainBias:
    """The "pinned-lu" evaluation ``gb`` at price lam: gain J + lam * F and
    bias h_err + lam * h_tx, with no solve.  Its residual is left unknown."""
    gain, bias = gb.j_component + lam * gb.f_component, gb.parts[0] + lam * gb.parts[1]
    return replace(gb, gain=gain, bias=bias, lam=lam, residual=float("nan"))


def _q_factors(model: SystemModel, lam: float, v: np.ndarray):
    """Q-factors (idle, transmit) of every state under the value vector v."""
    ev_i = model.ev_idle(v)
    ev_s = model.ev_success(v)
    return model.idle_cost + ev_i, lam + model.tx_cost + model.p_f * ev_i + model.p_s * ev_s


def _evaluation(model: SystemModel, policy: DeterministicPolicy, lam: float, start=None):
    """The policy's ``GainBias`` at lam and its Q-factors (idle, transmit).

    ``start``, when given, is the policy's evaluation at another price.  A
    "pinned-lu" one is re-priced, and kept when its Bellman residual
    max|g + h - Q_pi|, read off the Q-factors the improvement pass needs
    anyway, is within RESIDUAL_TOL.  Otherwise the policy is evaluated
    afresh.
    """
    if start is not None and start.parts is not None:
        gb = _repriced(start, lam)
        q0, q1 = _q_factors(model, lam, gb.bias)
        gb.residual = float(np.abs(gb.gain + gb.bias - np.where(policy.actions, q1, q0)).max())
        if gb.residual <= RESIDUAL_TOL:
            return gb, q0, q1
    gb = policy_evaluate(model, policy, lam)
    return (gb, *_q_factors(model, lam, gb.bias))


def _structured_improvement(model: SystemModel, d: np.ndarray, incumbent: np.ndarray) -> np.ndarray:
    """One structured improvement pass on the Q-factor difference d = transmit
    - idle: ascend the error-age axis per triple, switch to transmit at the
    first improving age, keep transmit above it.

    Ties fall back to the incumbent action to prevent policy cycling.  Each
    (x, z, theta) triple is one row of the (triples, delta_max + 1) reshape;
    returns the new action table.
    """
    dm = model.delta_max
    d = _by_triple(model, d)
    inc = _by_triple(model, incumbent) == 1
    prefer = np.where(d < -TIE_TOL, True, np.where(d > TIE_TOL, False, inc))
    # Same-error triples transmit from the first preferred age below the
    # truncation corner on; the corner alone never sets the threshold.
    ramp = np.logical_or.accumulate(prefer[:, np.minimum(np.arange(dm + 1), dm - 1)], axis=1)
    # Fresh-error triples face impending error age 1 in every slot, so the
    # whole triple shares the decision of its first slot.
    same = _by_triple(model, model.case_same_error)[:, :1]
    free = ~_by_triple(model, model.idle_pinned)[:, :1]
    actions = np.where(same, ramp, prefer[:, :1]) & free
    return actions.astype(np.uint8).ravel()


def spi_solve(
    model: SystemModel,
    lam: float,
    policy0: DeterministicPolicy | None = None,
    *,
    _start: GainBias | None = None,
) -> tuple[DeterministicPolicy, GainBias, ThresholdView]:
    """Structured policy iteration from the reactive policy.

    Alternates exact evaluation with the structured improvement pass until
    the policy is a fixed point, and returns it with its evaluation and view.
    The reactive start keeps the first evaluation off the class route on
    the hold-last-value model, where never-transmit is multichain.  A warm
    start (policy0) only changes the path, not the fixed point.  The
    library's warm-started callers also pass policy0's ``GainBias`` from the
    previous price as ``_start``, whose re-pricing replaces the first
    evaluation when it passes the residual check (``_evaluation``).
    """
    if lam < 0:
        raise DomainError("transmission price must be nonnegative")
    actions = (policy0 if policy0 is not None else reactive_policy(model)).actions.copy()
    for _ in range(SPI_MAX_PASSES):
        policy = DeterministicPolicy(actions)
        gb, q0, q1 = _evaluation(model, policy, lam, _start)
        _start = None
        new_actions = _structured_improvement(model, q1 - q0, actions)
        if np.array_equal(new_actions, actions):
            return policy, gb, ThresholdView.from_policy(model, policy)
        actions = new_actions
    raise ConvergenceFailure(
        f"structured policy iteration did not settle within {SPI_MAX_PASSES} passes"
    )


def rvi_solve(model: SystemModel, lam: float) -> tuple[DeterministicPolicy, GainBias]:
    """Unstructured relative value iteration over all state-action pairs.

    Serves as the independent oracle for the structured solver: no policy
    class restriction, plain Bellman minimization from zero until the span
    of successive value differences is below RVI_SPAN_TOL.
    """
    s_ref = model.ref_index
    v = np.zeros(model.num_mdp_states)
    prev_tv = None
    for it in range(RVI_MAX_SWEEPS):
        tv = np.minimum(*_q_factors(model, lam, v))
        if prev_tv is not None and _span(tv - prev_tv) < RVI_SPAN_TOL:
            gain = float(tv[s_ref])
            v = tv - gain
            break
        prev_tv = tv
        v = tv - tv[s_ref]
    else:
        raise ConvergenceFailure(
            f"relative value iteration span above {RVI_SPAN_TOL} after {RVI_MAX_SWEEPS} sweeps"
        )
    q0, q1 = _q_factors(model, lam, v)
    policy = DeterministicPolicy((q1 < q0 - TIE_TOL).astype(np.uint8))
    comp = policy_evaluate(model, policy, lam)
    gb = GainBias(
        gain=gain,
        bias=v,
        lam=lam,
        j_component=comp.j_component,
        f_component=comp.f_component,
        residual=_span(tv - prev_tv),
        method="rvi",
        sweeps=it + 1,
    )
    return policy, gb


def check_switching_structure(policy: DeterministicPolicy, model: SystemModel) -> list:
    """Violations of the switching shape: transmit at a synced state, or an
    action that drops as the error age grows within a triple."""
    a = _by_triple(model, policy.actions).astype(bool)
    pinned = _by_triple(model, model.idle_pinned)[:, 0]
    kind = np.select(
        [pinned & a.any(axis=1), ~pinned & (np.logical_or.accumulate(a, axis=1) != a).any(axis=1)],
        [1, 2],
    )
    bad = np.flatnonzero(kind)
    names = ("transmit-at-synced", "non-monotone")
    return [
        {"triple": t, "kind": names[k - 1]}
        for t, k in zip(_triple_keys(model, bad), kind[bad].tolist())
    ]


def check_value_monotonicity(gainbias: GainBias, model: SystemModel) -> float:
    """Largest drop of the bias along the error-age axis (theory: <= 0)."""
    v = _by_triple(model, gainbias.bias)
    running_max = np.maximum.accumulate(v, axis=1)
    return float((running_max - v).max())


def check_submodularity(model: SystemModel, gainbias: GainBias) -> float:
    """Largest violation of the transmit-advantage monotonicity in the error
    age (the Q-factor cross-difference; theory: <= 0)."""
    q0, q1 = _q_factors(model, gainbias.lam, gainbias.bias)
    d = _by_triple(model, q1 - q0)
    running_min = np.minimum.accumulate(d, axis=1)
    return float((d - running_min).max())
