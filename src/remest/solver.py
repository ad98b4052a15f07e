"""Average-cost solvers for the relaxed problem at a fixed transmission price.

Two independent routes are kept deliberately separate:

* ``spi_solve`` runs policy iteration restricted to switching policies
  (transmit only when the impending consecutive-error age reaches a
  per-(source, content, info-age) threshold; states that will be synced
  after aging are pinned to idle).
* ``rvi_solve`` runs plain relative value iteration over all state-action
  pairs and serves as the unstructured oracle.

Policy evaluation solves the pinned bordered system M = [[I - K(q), 1],
[e_ref, 0]], where K(q) is the kernel induced by a per-state transmit
probability q and the bias is pinned to zero at the model's reference
state.  Each slot the info age either grows by one (capped at theta_max)
or a delivery resets the state into T by one of G success rows.  So M is
M0 - U V^T: M0 holds the idle part and the border and is block-triangular
along the age levels, and U V^T, of rank G + 1, holds the deliveries and
the pin.  M0 is solved by a SuperLU factor of its theta_max block and one
gather per lower level, M by a Sherman-Morrison-Woodbury update of that
(``_LevelFactor``).  The level layout (``LevelLayout``) is made once per
model, on the first factorization.  A chain with several closed classes
is evaluated class by class instead (``_class_solve``), and SPI compares
its gains before its biases.  Both routes check their answer by one
Bellman residual (``_residual``), which applies K(q) through the model's
successor tables (``SystemModel.ev_idle``/``ev_success``), as the
Q-factors do.  The class route's class systems
(``_class_systems``) also give every stationary law
(``evaluation.stationary_metrics``), on the states the reference state
reaches.  The pinned solve yields J and F of the policy, and its bias at
any price, since the relaxed cost at price lam is the error cost plus lam
times the transmit indicator.  So SPI's callers read J and F from its
``GainBias``, and SPI re-prices a policy's evaluation made at another
price instead of solving again; a mixture's J and F are read from the
same solve.  The improvement pass, the threshold view and the structural
checks work on the (triples, delta_max + 1) reshape of the state space,
one row per (x, z, theta) triple, with no Python loop; SPI, RVI and the
submodularity check share one Q-factor routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import ConvergenceFailure, DomainError
from .model import SystemModel

INF = math.inf
TIE_TOL = 1e-12
RESIDUAL_TOL = 1e-8
SPI_MAX_PASSES = 500
RVI_SPAN_TOL = 1e-10
RVI_MAX_SWEEPS = 10**6
_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), (np.empty(1),))


@dataclass
class DeterministicPolicy:
    """Dense action table over state indices, values in {0, 1}."""

    actions: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.actions)
        if raw.dtype == np.uint8:  # the solver's own tables: one pass
            bad = raw.size and raw.max() > 1
        else:
            bad = not ((raw == 0) | (raw == 1)).all()
        if bad:
            raise DomainError("policy actions must be 0 or 1")
        self.actions = np.array(raw, dtype=np.uint8)  # a copy: the caller's stays writable
        self.actions.setflags(write=False)

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
    frequency (gain == j + lam * f); they are the gains of the pinned
    solve for the two cost rows, not read from a stationary law.  ``parts``
    is the (2, S) array of the matching bias parts, h_err and h_tx, with
    bias == h_err + lam * h_tx.  None of them depends on the price, so a
    "pinned-lu" evaluation holds the policy's gain and bias at every price
    (``_repriced``).  ``parts`` is None for "class-solve" and "rvi", which
    are never re-priced.  ``gains`` is every state's gain on "class-solve",
    whose closed classes can differ in gain (``gain``, J and F are the
    reference state's), and None on the unichain routes.  ``residual`` is
    the largest Bellman residual of (gain, bias) (``_residual``), or of each
    cost row for a caller that reads J and F on their own; a re-priced
    evaluation reads it off SPI's Q-factors (``_evaluation``), and "rvi"
    holds the span of its last value difference.  ``method`` names the
    route: "pinned-lu" (the full-space level solve of ``_pinned_lu``),
    "class-solve" (a multichain policy, ``_class_solve``) or "rvi".
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
    gains: np.ndarray | None = None


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
        same = _by_triple(model, model.case_same_error)[:, 0]
        sends = a.any(axis=1)
        first = a.argmax(axis=1)  # first transmitting slot; 0 when none
        shape = _shape_faults(model, a)
        # Without a shape fault only unpinned triples send.
        fault = np.select(
            [shape > 0, sends & same & (first == model.delta_max), sends & ~same & (first != 0)],
            [shape, 3, 4],
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
        free = np.flatnonzero(~_by_triple(model, model.idle_pinned)[:, 0])
        thr = np.where(same, first + model.threshold_offset, 1)[free].tolist()
        values = (t if s else INF for t, s in zip(thr, sends[free]))
        return ThresholdView(dict(zip(_triple_keys(model, free), values)), model.delta_max)


def _by_triple(model: SystemModel, values: np.ndarray) -> np.ndarray:
    """The (triples, delta_max + 1) reshape: one row per (x, z, theta) triple."""
    return values.reshape(-1, model.delta_max + 1)


def _shape_faults(model: SystemModel, a: np.ndarray) -> np.ndarray:
    """Switching-shape fault of each row of the boolean triple reshape
    ``a``: 1 if a synced triple transmits, 2 if the action drops as the
    error age grows, 0 if neither."""
    pinned = _by_triple(model, model.idle_pinned)[:, 0]
    drops = (np.logical_or.accumulate(a, axis=1) != a).any(axis=1)
    return np.select([pinned & a.any(axis=1), ~pinned & drops], [1, 2])


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
    cols = np.hstack([model.idle_targets, model.succ_targets]).ravel()
    indptr = np.arange(0, probs.size + 1, probs.shape[0])
    kernel = sp.csr_matrix((probs.T.ravel(), cols, indptr), shape=(s_count, s_count))
    kernel.eliminate_zeros()  # csgraph counts explicit zeros as edges
    return kernel


def _kernel_values(model: SystemModel, tx_prob: np.ndarray) -> np.ndarray:
    """K(q) at its triplets, (2n, S): column s holds state s's n idle
    entries, then its n success entries, by next source state."""
    n = model.n_states
    w = model.p_s * np.asarray(tx_prob, dtype=float)
    # A state's source row depends on its x alone, the slowest index.
    rows = model.chain.rows.T[None, :, :, None]
    return (np.stack([1.0 - w, w]).reshape(2, 1, n, -1) * rows).reshape(2 * n, w.size)


def _closed_classes(graph: sp.csr_matrix) -> np.ndarray:
    """Closed classes of a chain whose support is ``graph``: its strongly
    connected components with no edge out, numbered from 0, -1 off them."""
    count, label = connected_components(graph, directed=True, connection="strong")
    tail = np.repeat(label, np.diff(graph.indptr))  # the component of each edge's tail
    leaves = np.bincount(tail, tail != label[graph.indices], count) == 0
    return np.where(leaves[label], np.cumsum(leaves)[label] - 1, -1)


@dataclass(frozen=True)
class LevelLayout:
    """The pinned system's unknowns in AoI levels (``SystemModel.level_layout``).

    Level theta holds the L = n^2 (delta_max + 1) states of info age theta in
    (x, z, delta) order, and the gain comes last, after level theta_max:
    level position p holds unknown ``order[p]``, and unknown u sits at
    ``position[u]``.  An idle slot moves a state of level theta to level
    min(theta + 1, theta_max): ``idle_local[theta, k, i]`` is the position,
    within that level, of the idle target of the level's i-th state when
    the source moves to k.  A success moves a state to a reset state:
    ``resets`` holds the level positions of the reset set T.  States with
    equal success targets share a success row: ``group[p]`` numbers the row
    of level position p, and ``weights`` (G, |T|) holds the G rows at the
    columns of T, so the success part of K(q) is diag(p_s q) E W S_T (E the
    S x G group indicator, S_T picking T).  ``top`` is the CSC pattern of
    the theta_max block with its border, columns in a fill-reducing order
    (block column c is stored at ``top_position[c]``): indices, indptr, and
    the data slots of the idle entries, of the unit entries (identity and
    border column) and of the border row.  ``top_closed`` numbers the
    closed classes of the idle chain on the theta_max level (its bottom
    strongly connected components), -1 off them, by position in that
    level.
    """

    order: np.ndarray
    position: np.ndarray
    idle_local: np.ndarray
    resets: np.ndarray
    group: np.ndarray
    weights: np.ndarray
    top: tuple
    top_position: np.ndarray
    top_closed: np.ndarray


def level_layout(model: SystemModel) -> LevelLayout:
    """The model's ``LevelLayout``; every index array is int32."""
    n, tm, dm = model.n_states, model.theta_max, model.delta_max
    size = n * n * (dm + 1)
    s_count = model.num_mdp_states
    # The dense index runs (x, z, theta, delta); levels move theta first.
    states = np.arange(s_count).reshape(n * n, tm + 1, dm + 1).transpose(1, 0, 2).ravel()
    order = np.append(states, s_count)
    position = np.argsort(order)
    idle_local = position[model.idle_targets[states].T] % size
    # Targets carry the content x, so a distinct row of them is a success row.
    reset_states, col = np.unique(model.succ_targets[states], return_inverse=True)
    # Rows numbered in lexicographic order by one np.unique: big-endian bytes
    # sort as the numbers do (axis=0 numbers them alike, ten times slower).
    succ = np.ascontiguousarray(col.reshape(-1, n), dtype=">u4")
    _, group = np.unique(succ.view(f"V{4 * n}").ravel(), return_inverse=True)
    weights = np.zeros((group.max() + 1, reset_states.size))
    weights[group[:, None], col.reshape(-1, n)] = model.source_rows[states]
    diag = np.arange(size)
    rows = np.concatenate([np.tile(diag, n), diag, diag, np.full(size, size)])
    cols = np.concatenate([idle_local[:, tm * size :].ravel(), diag, np.full(size, size), diag])
    # COLAMD order of the block, taken once from a factor of a matrix with
    # its pattern; every factor after it is told to keep that order.
    k = size * n
    data = np.concatenate([np.full(k, -0.5 / n), np.ones(2 * size), np.full(size, 1.0 / size)])
    block = sp.csc_matrix((data, (rows, cols)), shape=(size + 1, size + 1))
    top_position = spla.splu(block, relax=1, panel_size=1).perm_c
    keys, slot = np.unique(top_position[cols] * (size + 1) + rows, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(size + 2) * (size + 1))
    top = (keys % (size + 1), indptr, slot[:k], slot[k : k + 2 * size], slot[k + 2 * size :])
    # The idle chain never leaves the theta_max level.
    live = model.source_rows[states[tm * size :]].T > 0
    tail, head = np.broadcast_to(diag, live.shape)[live], idle_local[:, tm * size :][live]
    top_closed = _closed_classes(sp.csr_matrix((np.ones(tail.size), (tail, head)), (size, size)))
    return LevelLayout(
        order=order.astype(np.int32),
        position=position.astype(np.int32),
        idle_local=idle_local.reshape(n, tm + 1, size).transpose(1, 0, 2).astype(np.int32),
        resets=position[reset_states].astype(np.int32),
        group=group.astype(np.int32),
        weights=weights,
        top=tuple(a.astype(np.int32) for a in top),
        top_position=top_position.astype(np.int32),
        top_closed=top_closed.astype(np.int32),
    )


@dataclass
class _LevelFactor:
    """The pinned system M, split as M = M0 - U V^T and solved along the AoI
    levels (``_pinned_lu``).

    M0 keeps the idle part of K and the border, with its pin row spread
    evenly over the theta_max level (``pin``) instead of set at the
    reference state.  U V^T holds the rest: the success part, G columns
    with U = diag(p_s q) E and V^T = W S_T (``LevelLayout``), and the move
    of the pin to the reference state, one more column.  M0 is
    block-triangular in the level order, so M0^{-1} is a SuperLU solve of
    its theta_max block with the border (``lu``) followed by one gather per
    lower level from the level above (``_sweep``).  Spreading the pin keeps
    that block nonsingular when the theta_max level holds one closed class
    without the reference state, as a policy that never transmits at some
    content does.  A solve sweeps U with its right-hand side, closes the
    capacitance C = I - V^T M0^{-1} U and applies the
    Sherman-Morrison-Woodbury update (Hager, SIAM Review 31(2), 1989).
    ``block`` is the theta_max block itself, kept to refine its solves.
    ``send`` holds p_s q in level order, and ``idle`` (theta_max + 1, n, L)
    K's idle entries in level order.
    """

    model: SystemModel
    layout: LevelLayout
    idle: np.ndarray
    send: np.ndarray
    pin: np.ndarray
    block: sp.csc_matrix
    lu: spla.SuperLU

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M x = rhs in M's own unknowns."""
        lay = self.layout
        b = np.take(np.reshape(rhs, (lay.order.size, -1)), lay.order, axis=0)
        k = b.shape[1]
        # One sweep gives M0^{-1} [b, U]; z = M0^{-1} U closes the capacitance.
        x = np.zeros((lay.order.size, k + lay.weights.shape[0] + 1))
        x[:, :k] = b
        x[np.arange(self.send.size), k + lay.group] = self.send
        x[-1, -1] = -1.0
        self._sweep(x)
        b, z = x[:, :k], x[:, k:]
        cap = -self._vt(z)
        cap.flat[:: cap.shape[0] + 1] += 1.0
        lu, piv, info = _GETRF(cap)
        if info > 0:
            raise RuntimeError("capacitance is exactly singular")
        # M^{-1} = (I + z C^{-1} V^T) M0^{-1}.
        b += z @ _GETRS(lu, piv, self._vt(b))[0]
        return np.take(b, lay.position, axis=0).reshape(np.shape(rhs))

    def _vt(self, x: np.ndarray) -> np.ndarray:
        """V^T x: W times x at T, and x at the reference state less its pin
        average."""
        lay = self.layout
        top = x.shape[0] - self.pin.size - 1
        ref = x[lay.position[self.model.ref_index]] - self.pin @ x[top:-1]
        return np.vstack([lay.weights @ x[lay.resets], ref])

    def _sweep(self, x: np.ndarray) -> None:
        """x <- M0^{-1} x in place: the theta_max block with the gain, then
        each lower level from the level above."""
        size = self.pin.size
        top = x.shape[0] - size - 1
        y = self.lu.solve(x[top:])
        # One step of iterative refinement: biases reach 1e5, and J and F
        # must hold to 1e-12 for the price search.
        y += self.lu.solve(x[top:] - self.block @ y)
        x[top:] = np.take(y, self.layout.top_position, axis=0)
        x[:top] -= x[-1]
        for theta in range(top // size - 1, -1, -1):
            lo = theta * size
            above = np.take(x[lo + size : lo + 2 * size], self.layout.idle_local[theta], axis=0)
            x[lo : lo + size] += np.einsum("kl,klc->lc", self.idle[theta], above)


def _pinned_lu(model: SystemModel, tx_prob: np.ndarray) -> _LevelFactor:
    """Factor of the pinned system M = [[I - K(q), 1], [e_ref, 0]].

    The unknowns are (bias, gain): M [h; g] = [c; 0] is the gain/bias system
    with h = 0 at the model's reference state.  Only the theta_max block
    with its border, one numeric fill of the model's ``level_layout``
    pattern, goes to SuperLU; the rest is solved along the levels
    (``_LevelFactor``).  Raises RuntimeError when M is exactly singular, and
    when two closed classes of the theta_max level's idle chain
    (``LevelLayout.top_closed``) hold no transmitting state: they are closed
    classes of K(q) too, and both that block and M are singular.
    """
    lay = model.level_layout
    n, size = model.n_states, lay.idle_local.shape[2]
    sends = np.asarray(tx_prob)[lay.order[-size - 1 : -1]] > 0
    quiet = np.bincount(lay.top_closed + 1, sends, lay.top_closed.max() + 2)[1:] == 0
    if np.count_nonzero(quiet) >= 2:
        raise RuntimeError("two closed classes at theta_max never transmit")
    kernel = _kernel_values(model, tx_prob)
    send = model.p_s * np.asarray(tx_prob, dtype=float)[lay.order[:-1]]
    pin = np.full(size, 1.0 / size)
    idle = kernel[:n].take(lay.order[:-1], axis=1).reshape(n, -1, size).transpose(1, 0, 2)
    indices, indptr, k_slot, unit_slot, pin_slot = lay.top
    data = -np.bincount(k_slot, idle[-1].ravel(), indices.size)
    data[unit_slot] += 1.0
    data[pin_slot] = pin
    block = sp.csc_matrix((data, indices, indptr), shape=(size + 1, size + 1))
    lu = spla.splu(block, permc_spec="NATURAL", relax=1, panel_size=1)
    return _LevelFactor(model, lay, idle, send, pin, block, lu)


def _class_systems(kernel: sp.csr_matrix, ref: int):
    """A stochastic matrix ``kernel`` cut into its closed classes
    (``_closed_classes``) and transient states T, by plain sparse LU.

    Returns (members, lus, laws, transient, absorb, lu_t).  ``lus[c]``
    factors class c's M = [[I - K_cc, 1], [e_pin, 0]], pinned at state
    ``ref`` if the class holds it, else at its lowest state;
    M [h; g] = [c; 0] is its bias and gain, M^T [mu; 0] = [0; 1] its law
    ``laws[c]``.  ``absorb`` (S, classes) holds the chances of ending in
    each class, A_T = (I - K_TT)^{-1} K_TR A_R; ``lu_t`` factors I - K_TT
    (None without T).  Raises RuntimeError on a singular system."""
    label = _closed_classes(kernel)
    members = [np.flatnonzero(label == c) for c in range(label.max() + 1)]
    lus, laws = [], []
    for states in members:
        k, pin = states.size, int(np.argmax(states == ref))  # 0 without it
        k_cc = kernel[states][:, states]
        block = [[sp.eye(k) - k_cc, np.ones((k, 1))], [np.eye(1, k, pin), None]]
        lus.append(spla.splu(sp.bmat(block, format="csc")))
        laws.append(lus[-1].solve(np.eye(1, k + 1, k)[0], trans="T")[:-1])
    transient = np.flatnonzero(label < 0)
    absorb = (label[:, None] == np.arange(len(members))).astype(float)
    lu_t = None
    if transient.size:
        k_t = kernel[transient]
        lu_t = spla.splu(sp.csc_matrix(sp.eye(transient.size) - k_t[:, transient]))
        absorb[transient] = lu_t.solve(k_t @ absorb)
    return members, lus, laws, transient, absorb, lu_t


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


def _check_actions(model: SystemModel, *tables: np.ndarray) -> None:
    """Raise DomainError unless every action table covers model's states."""
    for actions in tables:
        if actions.size != model.num_mdp_states:
            raise DomainError(
                f"policy has {actions.size} actions, the model {model.num_mdp_states} states"
            )


def policy_evaluate(model: SystemModel, policy: DeterministicPolicy, lam: float) -> GainBias:
    """Gain and bias of a fixed policy, bias pinned to zero at model.ref_index.

    One solve of the pinned system (``_pinned_lu``) gives the (J, F) split
    and the bias parts (h_err, h_tx) as two right-hand sides; the gain and
    bias at lam are J + lam * F and h_err + lam * h_tx, the formula
    ``_repriced`` applies at any other price.  When that system is singular
    or the residual of (gain, bias) exceeds RESIDUAL_TOL (a policy whose
    chain splits into closed classes with unequal gains), the policy is
    evaluated class by class instead (``_class_solve``), which meets
    RESIDUAL_TOL or raises ConvergenceFailure.  Both routes check the same
    residual (``_residual``), through the model's successor tables.
    """
    _check_actions(model, policy.actions)
    return _evaluate(model, policy.actions.astype(float), _stage_costs(model, policy.actions), lam)


def _evaluate(model, q, costs, lam, split=False) -> GainBias:
    """``policy_evaluate`` for a transmit probability q, a 0/1 action table
    or a mixture's coin-weighted one, with its cost rows (error, tx).  The
    residual checked is that of (gain, bias) at lam, or with ``split`` that
    of each column, for callers that read J and F on their own."""
    try:
        sol = _pinned_lu(model, q).solve(np.vstack([costs.T, np.zeros((1, 2))]))
    except RuntimeError:  # singular
        return _class_solve(model, q, lam, costs, split)
    sol[:-1] -= sol[model.ref_index]  # h = 0 at ref exactly; K's rows sum to one
    priced = sol[:, 0] + lam * sol[:, 1]  # (bias, gain) at lam
    price = np.array([1.0, lam])
    cols = zip(sol[-1], sol[:-1].T, costs) if split else [(priced[-1], priced[:-1], price @ costs)]
    resid = max(_residual(model, q, *col) for col in cols)
    if not resid <= RESIDUAL_TOL:
        return _class_solve(model, q, lam, costs, split)
    j, f = sol[-1]
    return GainBias(
        gain=float(priced[-1]), bias=priced[:-1], lam=lam, j_component=float(j),
        f_component=float(f), residual=resid, parts=np.ascontiguousarray(sol[:-1].T),
    )


def _class_solve(model, q, lam, costs, split=False) -> GainBias:
    """``_evaluate`` of a policy with several closed classes, class by class
    (multichain policy evaluation, Puterman 1994, ch. 8-9).

    Each closed class solves its own system (``_class_systems``), its bias
    moved to zero mean under its law, as the policy's bias is (P* h = 0):
    the offset between classes, read by SPI where their gains tie
    (``_preferred``), then owes nothing to the pins.  Transient states get
    g_T = (I - K_TT)^{-1} K_TR g_R and h_T = (I - K_TT)^{-1} (c_T - g_T +
    K_TR h_R), both cost rows at once; a constant zeroes h at the reference
    state, whose gains are J and F.  Raises ConvergenceFailure on a singular
    system or when max(|g - Kg|, |g + h - c - Kh|), at lam or per column
    with ``split``, exceeds RESIDUAL_TOL.  No ``parts``: never re-priced.
    """
    kernel = induced_kernel(model, q)
    try:
        members, lus, laws, t, absorb, lu_t = _class_systems(kernel, model.ref_index)
    except RuntimeError as exc:  # exactly singular
        raise ConvergenceFailure(f"class-by-class evaluation failed: {exc}") from exc
    cost = costs.T
    gain, bias = np.zeros((len(lus), 2)), np.zeros_like(cost)
    for c, (states, lu, law) in enumerate(zip(members, lus, laws)):
        sol = lu.solve(np.vstack([cost[states], np.zeros((1, 2))]))
        bias[states], gain[c] = sol[:-1] - law @ sol[:-1], sol[-1]
    gain = absorb @ gain
    if t.size:
        bias[t] = lu_t.solve(cost[t] - gain[t] + kernel[t] @ bias)
    bias -= bias[model.ref_index]
    price = np.array([1.0, lam])
    g, h = gain @ price, bias @ price
    cols = zip(gain.T, bias.T, costs) if split else [(g, h, price @ costs)]
    resid = max(_residual(model, q, *col) for col in cols)
    if not resid <= RESIDUAL_TOL:
        raise ConvergenceFailure(f"class-by-class evaluation has residual {resid:.2e}")
    j, f = gain[model.ref_index]
    return GainBias(
        gain=float(j + lam * f), bias=h, lam=lam, j_component=float(j),
        f_component=float(f), residual=resid, method="class-solve", gains=g,
    )


def _kernel_times(model: SystemModel, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K(q) v for one value row, by the model's successor tables."""
    ev_i = model.ev_idle(v)
    return ev_i + model.p_s * q * (model.ev_success(v) - ev_i)


def _residual(model: SystemModel, q, gain, bias: np.ndarray, cost: np.ndarray) -> float:
    """Bellman residual max(|g - Kg|, |g + h - c - Kh|) of a gain and bias
    for the cost row c under K(q); the |g - Kg| term only for a per-state g."""
    resid = np.abs(gain + bias - cost - _kernel_times(model, q, bias)).max()
    if np.ndim(gain):
        resid = max(resid, np.abs(gain - _kernel_times(model, q, gain)).max())
    return float(resid)


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


def _evaluation(model: SystemModel, policy: DeterministicPolicy, lam: float, store):
    """The policy's ``GainBias`` at lam and its Q-factors (idle, transmit).

    ``store`` maps action tables (their bytes) to evaluations made at other
    prices, read for their price-free J, F and ``parts`` only.  A
    "pinned-lu" entry of the policy is re-priced, and used when its Bellman
    residual max|g + h - Q_pi|, read off the Q-factors the improvement pass
    needs anyway, is within RESIDUAL_TOL.  Otherwise the policy is evaluated
    afresh, and the result goes into the store (``_keep``).
    """
    start = store.get(policy.actions.tobytes())
    if start is not None and start.parts is not None:
        gb = _repriced(start, lam)
        q0, q1 = _q_factors(model, lam, gb.bias)
        gb.residual = float(np.abs(gb.gain + gb.bias - np.where(policy.actions, q1, q0)).max())
        if gb.residual <= RESIDUAL_TOL:
            return gb, q0, q1
    gb = policy_evaluate(model, policy, lam)
    _keep(store, policy, gb)
    return (gb, *_q_factors(model, lam, gb.bias))


def _keep(store, policy: DeterministicPolicy, gb: GainBias):
    """Put the policy's "pinned-lu" evaluation, J, F and ``parts`` but not
    its priced bias, into a store of ``_evaluation`` that is a dict and does
    not hold one (a read-only mapping is left as it is).  Returns the store."""
    if gb.parts is not None and isinstance(store, dict):
        store.setdefault(policy.actions.tobytes(), replace(gb, bias=None))
    return store


def _tie_tol(d: np.ndarray) -> float:
    """Ties are |d| <= TIE_TOL max|d|: Q round-off grows with the biases."""
    return TIE_TOL * max(1.0, float(np.abs(d).max()))


def _preferred(model: SystemModel, gb: GainBias, d: np.ndarray, incumbent) -> np.ndarray:
    """Where transmitting beats idling under ``gb``, from the Q-factor
    difference d = transmit - idle.  With ``gb.gains`` (several closed
    classes) the expected next gain decides first, as in multichain policy
    iteration (Puterman 1994, section 9.2), and d only where gains tie,
    within RESIDUAL_TOL max(1, max|g|), the accuracy the class route checks.
    d ties within ``_tie_tol``; a tie keeps the incumbent action."""
    tol = _tie_tol(d)
    prefer = np.where(np.abs(d) > tol, d < 0, incumbent == 1)
    if gb.gains is not None:
        dg = model.p_s * (model.ev_success(gb.gains) - model.ev_idle(gb.gains))
        band = RESIDUAL_TOL * max(1.0, float(np.abs(gb.gains).max()))
        prefer = np.where(np.abs(dg) > band, dg < 0, prefer)
    return prefer


def _structured_improvement(model: SystemModel, prefer: np.ndarray) -> np.ndarray:
    """One structured improvement pass on where transmitting improves on
    idling (``_preferred``): ascend the error-age axis per triple, switch to
    transmit at the first improving age, keep transmit above it.  Each (x,
    z, theta) triple is one row of the (triples, delta_max + 1) reshape;
    returns the new action table."""
    dm = model.delta_max
    prefer = _by_triple(model, prefer)
    # Same-error triples transmit from the first preferred age below the
    # truncation corner on; the corner alone never sets the threshold.
    ramp = np.logical_or.accumulate(prefer[:, np.minimum(np.arange(dm + 1), dm - 1)], axis=1)
    # Fresh-error triples face impending error age 1 in every slot, so the
    # whole triple shares the decision of its first slot.
    same = _by_triple(model, model.case_same_error)[:, :1]
    free = ~_by_triple(model, model.idle_pinned)[:, :1]
    actions = np.where(same, ramp, prefer[:, :1]) & free
    return actions.astype(np.uint8).ravel()


def _check_price(lam: float) -> None:
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"transmission price {lam} is not finite and nonnegative")


def spi_solve(
    model: SystemModel,
    lam: float,
    policy0: DeterministicPolicy | None = None,
    *,
    _store: dict | MappingProxyType | None = None,
    _view: bool = True,
) -> tuple[DeterministicPolicy, GainBias, ThresholdView | None]:
    """Structured policy iteration from the reactive policy.

    Alternates exact evaluation with the structured improvement pass until
    the policy is a fixed point, and returns it with its evaluation and view.
    The reactive start keeps the first evaluation off the class route on
    the hold-last-value model, where never-transmit is multichain.  A warm
    start (policy0) only changes the path, not the fixed point.  Callers
    may pass a ``_store`` of evaluations made at other prices
    (``_evaluation``): the price search its own, the sweep a read-only one
    of the previous point.  With ``_view`` false no view is built (None).
    """
    _check_price(lam)
    store = MappingProxyType({}) if _store is None else _store
    actions = (policy0 if policy0 is not None else reactive_policy(model)).actions
    for _ in range(SPI_MAX_PASSES):
        policy = DeterministicPolicy(actions)
        gb, q0, q1 = _evaluation(model, policy, lam, store)
        new_actions = _structured_improvement(model, _preferred(model, gb, q1 - q0, actions))
        if np.array_equal(new_actions, actions):
            return policy, gb, ThresholdView.from_policy(model, policy) if _view else None
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
    _check_price(lam)
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
    policy = DeterministicPolicy((q1 - q0 < -_tie_tol(q1 - q0)).astype(np.uint8))
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
    kind = _shape_faults(model, _by_triple(model, policy.actions).astype(bool))
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
