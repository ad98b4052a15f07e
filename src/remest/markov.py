"""Finite Markov-chain algebra: validation, matrix powers, stationary laws, beliefs.

A validated chain is immutable apart from its power cache, which is an
append-only memo (populated eagerly up to the model's age truncation at
build time, lazily beyond), so concurrent readers are safe.  The stationary
law is one direct solve of the balance equations, periodic chains included;
``Distribution.argmax`` breaks ties within 1e-12 toward the lowest index, so
round-off never picks between exactly tied states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    ConvergenceFailure,
    DomainError,
    NegativeEntryError,
    ReducibleChainError,
    RowSumError,
)

ROW_SUM_TOL = 1e-9
PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Probability vector over the source alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1:
            raise DomainError("distribution must be a vector")
        if np.any(p < -PROB_SUM_TOL):
            raise NegativeEntryError("distribution has a negative entry")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise RowSumError(f"distribution sums to {p.sum():.17g}, expected 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def argmax(self) -> int:
        """Lowest-index state within 1e-12 of the maximum probability, so
        that round-off never decides between exactly tied states."""
        return self.tie_set()[0]

    def tie_set(self, tol: float = 1e-12) -> list[int]:
        """All states within ``tol`` of the maximum probability."""
        m = self.probs.max()
        return [int(i) for i in np.flatnonzero(self.probs >= m - tol)]


@dataclass
class MarkovChain:
    """Row-stochastic transition matrix with a memoized power cache."""

    n_states: int
    rows: np.ndarray
    power_cache: dict = field(default_factory=dict, repr=False)
    _stationary: Distribution | None = field(default=None, repr=False)

    def stationary(self) -> Distribution:
        if self._stationary is None:
            self._stationary = stationary(self)
        return self._stationary

    def prefetch_powers(self, up_to: int) -> None:
        """Populate the power cache for exponents 0..up_to."""
        matrix_power(self, up_to)


def validate_chain(rows) -> MarkovChain:
    """Validate a square row-stochastic matrix and wrap it as a chain.

    Rejects rows that do not sum to one (beyond 1e-9), negative or >1
    entries, and reducible chains (the digraph of strictly positive entries
    must be strongly connected).
    """
    q = np.array(rows, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DomainError(f"transition matrix must be square, got shape {q.shape}")
    n = q.shape[0]
    if n < 2:
        raise DomainError("chain needs at least two states")
    if np.any(q < 0.0):
        i, j = np.argwhere(q < 0.0)[0]
        raise NegativeEntryError(f"negative entry {q[i, j]:.17g} at ({i}, {j})")
    if np.any(q > 1.0 + ROW_SUM_TOL):
        i, j = np.argwhere(q > 1.0 + ROW_SUM_TOL)[0]
        raise NegativeEntryError(f"entry {q[i, j]:.17g} at ({i}, {j}) exceeds 1")
    sums = q.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        i = int(bad[0])
        raise RowSumError(f"row {i} sums to {sums[i]:.17g}")
    support = csr_matrix(q > 0.0)
    n_comp, _ = connected_components(support, directed=True, connection="strong")
    if n_comp != 1:
        raise ReducibleChainError(
            f"support digraph splits into {n_comp} strongly connected components"
        )
    q.setflags(write=False)
    eye = np.eye(n)
    eye.setflags(write=False)
    return MarkovChain(n_states=n, rows=q, power_cache={0: eye, 1: q})


def matrix_power(chain: MarkovChain, n: int) -> np.ndarray:
    """n-step transition matrix Q^n, memoized (n=0 gives the identity)."""
    if n < 0:
        raise DomainError("matrix power needs a nonnegative exponent")
    cache = chain.power_cache
    if n in cache:
        return cache[n]
    # Fill sequentially from the largest cached exponent; belief queries
    # consume every intermediate power anyway.
    k = max(e for e in cache if e <= n)
    m = cache[k]
    while k < n:
        m = m @ chain.rows
        k += 1
        m.setflags(write=False)
        cache[k] = m
    return cache[n]


def stationary(chain: MarkovChain) -> Distribution:
    """Stationary distribution by one direct solve.

    The balance equations nu (Q - I) = 0 with their last row replaced by the
    normalisation sum(nu) = 1 have a unique solution for an irreducible
    chain, periodic or not; a balance residual above 1e-12 raises.
    """
    q = chain.rows
    n = chain.n_states
    a = q.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    nu = np.clip(np.linalg.solve(a, b), 0.0, None)
    nu = nu / nu.sum()
    resid = np.abs(nu @ q - nu).max()
    if resid > 1e-12:
        raise ConvergenceFailure(
            f"stationary distribution residual {resid:.3e} exceeds 1e-12"
        )
    return Distribution(nu)


def symmetric_power_closed_form(n_states: int, sigma: float, n: int) -> np.ndarray:
    """Closed-form n-step matrix for the uniform-offdiagonal symmetric chain.

    The chain has off-diagonal rate sigma and diagonal 1-(n_states-1)*sigma;
    its n-th power is (1-k*sigma)^n * I + (1-(1-k*sigma)^n)/k * ones, with
    k = n_states.  Requires 0 < sigma <= 1/n_states.
    """
    if n_states < 2:
        raise DomainError("need at least two states")
    if not (0.0 < sigma <= 1.0 / n_states):
        raise DomainError(
            f"sigma={sigma} outside (0, 1/{n_states}] for the symmetric form"
        )
    if n < 0:
        raise DomainError("exponent must be nonnegative")
    k = n_states
    decay = (1.0 - k * sigma) ** n
    return decay * np.eye(k) + (1.0 - decay) / k * np.ones((k, k))


def symmetric_chain(n_states: int, sigma: float) -> MarkovChain:
    """Validated chain with uniform off-diagonal rate sigma."""
    return validate_chain(symmetric_power_closed_form(n_states, sigma, 1))


def belief(chain: MarkovChain, z: int, theta: int) -> Distribution:
    """Posterior over the current source state given content z of age theta.

    Age zero means the content is the current state (point mass); otherwise
    the belief is row z of the theta-step transition matrix.
    """
    if not (0 <= z < chain.n_states):
        raise DomainError(f"state {z} outside alphabet of size {chain.n_states}")
    if theta < 0:
        raise DomainError("age must be nonnegative")
    if theta == 0:
        p = np.zeros(chain.n_states)
        p[z] = 1.0
        return Distribution(p)
    return Distribution(matrix_power(chain, theta)[z])
