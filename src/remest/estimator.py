"""Receiver-side estimators: MAP-from-(content, age), hold-last-value, steady-state age.

The MAP estimate is a pure function of the last received content and its
age, so the whole table is precomputed up to the model's age truncation.
Argmax ties are broken toward the lowest state index; the rule is fixed and
observable (some chains hit exact 0.5/0.5 posteriors at specific ages).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .markov import MarkovChain, belief, matrix_power


@dataclass(frozen=True)
class EstimateTable:
    """Precomputed estimates for every (content, age) pair up to theta_max.

    Lookups past theta_max return the theta_max column, matching the model's
    age truncation.  Immutable after build.
    """

    chain: MarkovChain
    theta_max: int
    table: np.ndarray

    def lookup(self, z: int, theta: int) -> int:
        return int(self.table[z, min(theta, self.theta_max)])


def map_estimate(chain: MarkovChain, z: int, theta: int) -> int:
    """Most-likely current state given content z received theta slots ago.

    Ties go to the lowest state index.
    """
    if theta == 0:
        return int(z)
    return int(np.argmax(matrix_power(chain, theta)[z]))


def zoh_estimate(z: int, theta: int) -> int:
    """Hold-last-value estimate: repeats the content regardless of age."""
    return int(z)


def build_estimate_table(
    chain: MarkovChain, theta_max: int, mode: str = "map"
) -> EstimateTable:
    """Build the (n_states x theta_max+1) estimate table.

    mode="map" fills MAP estimates; mode="zoh" repeats the content for every
    age.  The age-zero column is always the content itself.
    """
    if theta_max < 1:
        raise DomainError("theta_max must be at least 1")
    if mode not in ("map", "zoh"):
        raise DomainError(f"unknown estimator mode {mode!r}")
    n = chain.n_states
    table = np.empty((n, theta_max + 1), dtype=np.int64)
    for z in range(n):
        table[z, 0] = z
        for theta in range(1, theta_max + 1):
            table[z, theta] = z if mode == "zoh" else map_estimate(chain, z, theta)
    table.setflags(write=False)
    return EstimateTable(chain=chain, theta_max=theta_max, table=table)


def steady_state_age(
    chain: MarkovChain, z: int, theta_probe: int
) -> int | None:
    """Smallest age from which the estimate stays pinned to the long-run mode.

    Returns the smallest theta0 <= theta_probe such that for every age in
    [theta0, theta_probe] the posterior's (tie-tolerant) argmax set meets the
    argmax set of the stationary law.  Exact posterior ties count as
    consistent with either tied state, so a single knife-edge age does not
    break an otherwise settled estimate.  Returns None when even the probe
    age has not settled.
    """
    if theta_probe < 1:
        raise DomainError("theta_probe must be at least 1")
    target = set(chain.stationary().tie_set())

    def consistent(theta: int) -> bool:
        b = belief(chain, z, theta)
        return bool(target.intersection(b.tie_set()))

    if not consistent(theta_probe):
        return None
    theta0 = theta_probe
    for theta in range(theta_probe - 1, -1, -1):
        if not consistent(theta):
            break
        theta0 = theta
    return theta0
