"""Independent reference computations for the benchmark's correctness checks.

Everything here is plain scipy over the model's public arrays
(``idle_targets``, ``succ_targets``, ``source_rows``, ``idle_cost``,
``tx_cost``, ``p_s``, ``ref_index``).  Nothing calls the library's solvers or
evaluators, so a check that compares the two is a comparison between two
separate implementations.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order


def _gather_matrix(targets: np.ndarray, rows: np.ndarray) -> sp.csr_matrix:
    """CSR matrix with entry rows[s, k] at (s, targets[s, k]), duplicates summed."""
    s_count, n = targets.shape
    row_idx = np.repeat(np.arange(s_count), n)
    return sp.csr_matrix(
        (rows.ravel(), (row_idx, targets.ravel())), shape=(s_count, s_count)
    )


class Kernels:
    """The two action kernels of a model: idle (or failed) and successful delivery."""

    def __init__(self, model):
        self.idle = _gather_matrix(model.idle_targets, model.source_rows)
        self.succ = _gather_matrix(model.succ_targets, model.source_rows)
        self.p_s = float(model.p_s)
        self.idle_cost = np.asarray(model.idle_cost, dtype=float)
        self.tx_cost = np.asarray(model.tx_cost, dtype=float)
        self.ref = int(model.ref_index)

    def induced(self, tx_prob: np.ndarray) -> sp.csr_matrix:
        """Kernel under a per-state transmit probability (0/1 for a deterministic policy)."""
        w = sp.diags(self.p_s * np.asarray(tx_prob, dtype=float))
        return sp.csr_matrix(self.idle + w @ (self.succ - self.idle))

    def error_cost(self, tx_prob: np.ndarray) -> np.ndarray:
        return self.idle_cost + tx_prob * (self.tx_cost - self.idle_cost)


def transmit_probability(policy) -> np.ndarray:
    """Per-state transmit probability of a deterministic or mixture policy.

    Reads only the public fields ``actions`` or ``p``, ``policy_minus`` and
    ``policy_plus``: a per-slot coin picks ``policy_minus`` with probability p.
    """
    if hasattr(policy, "actions"):
        return np.asarray(policy.actions, dtype=float)
    p = float(policy.p)
    return p * np.asarray(policy.policy_minus.actions, dtype=float) + (1.0 - p) * np.asarray(
        policy.policy_plus.actions, dtype=float
    )


def closed_class(kernel: sp.csr_matrix, start: int) -> np.ndarray:
    """Sorted indices reachable from ``start``; a closed set of the chain."""
    order = breadth_first_order(kernel, start, directed=True, return_predecessors=False)
    return np.sort(order)


def _bordered_lu(kernel: sp.csr_matrix, start: int):
    """LU of the pinned gain/bias matrix [[I - K, 1], [e_start, 0]] on the class of ``start``.

    Returns (reach, lu).  The same factor solves the gain/bias system and,
    transposed, the stationary law: M^T [mu; c] = [0; 1] forces c = 0,
    mu (I - K) = 0 and sum(mu) = 1.
    """
    reach = closed_class(kernel, start)
    m = reach.size
    sub = kernel[reach][:, reach]
    top = sp.hstack([sp.identity(m, format="csr") - sub, np.ones((m, 1))])
    pin = sp.csr_matrix(([1.0], ([0], [int(np.searchsorted(reach, start))])), shape=(1, m + 1))
    try:
        lu = spla.splu(sp.csc_matrix(sp.vstack([top, pin])))
    except RuntimeError as exc:  # exactly singular: more than one closed class
        raise ArithmeticError(f"pinned system is singular: {exc}") from exc
    return reach, lu


def stationary_law(kernel, start: int = 0) -> np.ndarray:
    """Stationary law of the chain restricted to the states reachable from ``start``.

    States outside that set carry no mass.  Raises ``ArithmeticError`` if the
    restricted chain has more than one closed class.
    """
    kernel = sp.csr_matrix(kernel, dtype=float)
    reach, lu = _bordered_lu(kernel, start)
    rhs = np.zeros(reach.size + 1)
    rhs[-1] = 1.0
    mu_sub = lu.solve(rhs, trans="T")[:-1]
    sub = kernel[reach][:, reach]
    resid = np.abs(sub.T @ mu_sub - mu_sub).max()
    if not np.all(np.isfinite(mu_sub)) or resid > 1e-11 or mu_sub.min() < -1e-12:
        raise ArithmeticError(f"stationary solve failed (balance residual {resid:.2e})")
    mu = np.zeros(kernel.shape[0])
    mu[reach] = np.clip(mu_sub, 0.0, None)
    return mu / mu.sum()


def rates(kernels: Kernels, policy) -> tuple[float, float]:
    """Exact (F, J) of a policy: transmission frequency and error cost per slot."""
    tx = transmit_probability(policy)
    mu = stationary_law(kernels.induced(tx), kernels.ref)
    return float(mu @ tx), float(mu @ kernels.error_cost(tx))


def pinned_gain(kernels: Kernels, policy, lam: float) -> float:
    """Gain of a policy from the pinned gain/bias system (I - K) h + g 1 = c, h[ref] = 0."""
    tx = transmit_probability(policy)
    cost = kernels.error_cost(tx) + lam * tx
    reach, lu = _bordered_lu(kernels.induced(tx), kernels.ref)
    sol = lu.solve(np.concatenate([cost[reach], [0.0]]))
    if not np.all(np.isfinite(sol)):
        raise ArithmeticError("pinned gain/bias system is singular")
    return float(sol[-1])


def optimal_gain(kernels: Kernels, lam: float, width: float = 1e-8, max_sweeps: int = 200_000):
    """Bracket of the optimal average cost at price ``lam`` by relative value iteration.

    Plain Bellman minimisation over both actions at every state, with no
    structural restriction.  For any value vector v, min(Tv - v) and
    max(Tv - v) bound the optimal gain from below and above; iteration stops
    once the bracket is narrower than ``width``.  Returns (low, high).
    """
    p_s = kernels.p_s
    c0 = kernels.idle_cost
    c1 = lam + kernels.tx_cost
    v = np.zeros(kernels.idle.shape[0])
    for _ in range(max_sweeps):
        ev_idle = kernels.idle @ v
        ev_succ = kernels.succ @ v
        tv = np.minimum(c0 + ev_idle, c1 + (1.0 - p_s) * ev_idle + p_s * ev_succ)
        diff = tv - v
        low, high = float(diff.min()), float(diff.max())
        if high - low < width:
            return low, high
        v = tv - tv[kernels.ref]
    raise ArithmeticError(f"value iteration bracket still {high - low:.2e} wide")
