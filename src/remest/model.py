"""Truncated decision-process model over (source, content, info age, error age).

State layout: s = (x, z, theta, delta) where x is the current source state,
z the last received content, theta the age of that content at the *previous*
slot, and delta the consecutive-error age at the previous slot.  Both ages
saturate at their truncation bounds.  The dense index packs the tuple as
((x*n + z)*(theta_max+1) + theta)*(delta_max+1) + delta, so the delta axis
of any (x, z, theta) triple is contiguous.

Two slot timings are available (``timing``); they differ only in how
``SystemModel.__post_init__`` fills the targets, costs and pinned states.

``"immediate"`` (default): the source moves by the chain, the receiver
either gets fresh content (transmission succeeded: content=x, age 0, synced,
error age 0) or ages by one.  Under aging the new estimate is the table
entry at theta+1; the error age becomes 0 if that estimate matches x,
increments if the estimate is unchanged and still wrong, and resets to 1 if
the estimate moved to a fresh wrong value.  The slot is charged at the
post-action estimate and error age, so a success costs nothing.

``"delayed"``: theta and delta are the current slot's AoI and AoCE, and
slot t is charged d(x, estimate) * rho(delta) whatever the action.  Content
sent in slot t reaches the receiver in slot t+1 with AoI 1.  The error age
grows while the (source, estimate) pair stays the same, resets to 1 when
the pair changes and to 0 when the estimate is right.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DistortionDiagonalError, DomainError
from .estimator import EstimateTable, build_estimate_table
from .markov import MarkovChain


class AgeKind(enum.Enum):
    EXPONENTIAL_AFFINE = "exponential_affine"
    POLYNOMIAL = "polynomial"
    TABLE = "table"


@dataclass(frozen=True)
class AgeFunction:
    """Non-decreasing penalty weight on the consecutive-error age.

    Kinds:
      exponential_affine: a * exp(b*delta) + c        (a, b, c >= 0)
      polynomial:         sum coeffs[k] * delta**k    (validated by sampling)
      table:              explicit values, extended geometrically by
                          tail_ratio past the last entry so the growth-rate
                          limit is well defined.
    """

    kind: AgeKind
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    coeffs: tuple = ()
    table: tuple = ()
    tail_ratio: float = 1.0

    @staticmethod
    def exponential_affine(a: float, b: float, c: float) -> "AgeFunction":
        if a < 0 or b < 0 or c < 0:
            raise DomainError("exponential-affine parameters must be nonnegative")
        return AgeFunction(kind=AgeKind.EXPONENTIAL_AFFINE, a=a, b=b, c=c)

    @staticmethod
    def polynomial(coeffs) -> "AgeFunction":
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            raise DomainError("polynomial needs at least one coefficient")
        return AgeFunction(kind=AgeKind.POLYNOMIAL, coeffs=cs)

    @staticmethod
    def from_table(values, tail_ratio: float = 1.0) -> "AgeFunction":
        vs = tuple(float(v) for v in values)
        if not vs:
            raise DomainError("table age function needs at least one value")
        if tail_ratio <= 0:
            raise DomainError("tail_ratio must be positive")
        return AgeFunction(kind=AgeKind.TABLE, table=vs, tail_ratio=float(tail_ratio))

    def value(self, delta: int) -> float:
        if delta < 0:
            raise DomainError("error age must be nonnegative")
        if self.kind is AgeKind.EXPONENTIAL_AFFINE:
            return self.a * math.exp(self.b * delta) + self.c
        if self.kind is AgeKind.POLYNOMIAL:
            return float(sum(c * delta**k for k, c in enumerate(self.coeffs)))
        if delta < len(self.table):
            return self.table[delta]
        return self.table[-1] * self.tail_ratio ** (delta - len(self.table) + 1)

    def values(self, up_to: int) -> np.ndarray:
        return np.array([self.value(d) for d in range(up_to + 1)], dtype=float)

    def limit_ratio(self) -> float:
        """Limit of value(d+1)/value(d) as d grows (growth-rate of the tail)."""
        if self.kind is AgeKind.EXPONENTIAL_AFFINE:
            return math.exp(self.b) if self.a > 0 else 1.0
        if self.kind is AgeKind.POLYNOMIAL:
            return 1.0
        return self.tail_ratio

    def validate_nondecreasing(self, up_to: int) -> None:
        vals = self.values(up_to)
        if np.any(vals < 0):
            raise DomainError("age penalty must be nonnegative")
        if np.any(np.diff(vals) < -1e-12):
            d = int(np.flatnonzero(np.diff(vals) < -1e-12)[0])
            raise DomainError(
                f"age penalty decreases between ages {d} and {d + 1}"
            )


class MdpState(NamedTuple):
    x: int
    z: int
    theta: int
    delta: int
    index: int


@dataclass
class SystemModel:
    """Immutable bundle of chain, channel, costs, truncations and kernels.

    All per-state dynamic quantities are precomputed as flat arrays indexed
    by the dense state index; solvers gather through them, and the sparse
    kernels are assembled from them.  idle_cost and tx_cost are the
    expected error cost of a slot when idling and when transmitting.
    """

    chain: MarkovChain
    p_s: float
    distortion: np.ndarray
    rho: AgeFunction
    theta_max: int
    delta_max: int
    estimates: EstimateTable
    estimator_mode: str = "map"
    timing: str = "immediate"

    # Derived, filled in __post_init__.
    p_f: float = field(init=False)
    n_states: int = field(init=False)
    num_mdp_states: int = field(init=False)
    ref_index: int = field(init=False)

    def __post_init__(self):
        self.p_f = 1.0 - self.p_s
        n = self.chain.n_states
        self.n_states = n
        tm, dm = self.theta_max, self.delta_max
        self.num_mdp_states = n * n * (tm + 1) * (dm + 1)
        self.rho_values = self.rho.values(dm)

        idx = np.arange(self.num_mdp_states)
        self.delta_of = idx % (dm + 1)
        rest = idx // (dm + 1)
        self.theta_of = rest % (tm + 1)
        rest = rest // (tm + 1)
        self.z_of = rest % n
        self.x_of = rest // n

        table = self.estimates.table
        theta_plus = np.minimum(self.theta_of + 1, tm)
        self.est_prev = table[self.z_of, self.theta_of]
        xp = np.arange(n)[None, :]
        if self.timing == "immediate":
            self.est_next = table[self.z_of, theta_plus]
            self.synced_after_aging = self.est_next == self.x_of
            same_error = (~self.synced_after_aging) & (self.est_next == self.est_prev)
            self.delta_next = np.where(
                self.synced_after_aging,
                0,
                np.where(same_error, np.minimum(self.delta_of + 1, dm), 1),
            )
            self.case_same_error = same_error
            # Switching policies act only on states that face an error after
            # aging; where the slot resolves itself (the post-aging estimate
            # matches the source) transmission buys nothing and the action is
            # pinned to idle.  Thresholds count the impending error age.
            self.idle_pinned = self.synced_after_aging
            self.threshold_offset = 1
            self.idle_cost = (
                self.distortion[self.x_of, self.est_next]
                * self.rho_values[self.delta_next]
            )
            self.tx_cost = self.p_f * self.idle_cost
            # Gather targets: column x' of row s is the successor when the
            # source moves to x'.  Idle keeps (z, theta+1, delta_next);
            # success resets to fresh content (x, age 0, error age 0).
            self.idle_targets = self.encode(
                xp,
                self.z_of[:, None],
                theta_plus[:, None],
                self.delta_next[:, None],
            )
            self.succ_targets = self.encode(xp, self.x_of[:, None], 0, 0)
        elif self.timing == "delayed":
            # est_prev is the slot's own estimate here.  States where it is
            # right are pinned to idle and thresholds count the current AoCE.
            self.idle_pinned = self.est_prev == self.x_of
            self.case_same_error = ~self.idle_pinned
            self.threshold_offset = 0
            self.idle_cost = (
                self.distortion[self.x_of, self.est_prev]
                * self.rho_values[self.delta_of]
            )
            self.tx_cost = self.idle_cost

            def error_age_after(est):
                # 0 when the estimate matches x'; one more while the
                # (source, estimate) pair stays the same; 1 on a fresh pair.
                same_pair = (xp == self.x_of[:, None]) & (
                    est == self.est_prev
                )[:, None]
                return np.where(
                    est[:, None] == xp,
                    0,
                    np.where(same_pair, np.minimum(self.delta_of + 1, dm)[:, None], 1),
                )

            self.idle_targets = self.encode(
                xp,
                self.z_of[:, None],
                theta_plus[:, None],
                error_age_after(table[self.z_of, theta_plus]),
            )
            fresh = table[self.x_of, 1]
            self.succ_targets = self.encode(
                xp, self.x_of[:, None], 1, error_age_after(fresh)
            )
        else:
            raise DomainError(f"unknown timing {self.timing!r}")
        self.source_rows = np.ascontiguousarray(self.chain.rows[self.x_of])

        nu = self.chain.stationary()
        xstar = nu.argmax()
        self.ref_index = int(self.encode(xstar, xstar, tm, 0))

    @functools.cached_property
    def level_layout(self):
        """The pinned system's unknowns in AoI levels, made on the first
        factorization (``solver.level_layout``) rather than at build time."""
        from .solver import level_layout  # local: solver imports this module

        return level_layout(self)

    @functools.cached_property
    def search_prefix(self) -> dict:
        """Solved points of the price search's budget-independent prefix,
        (policy, price-free ``GainBias``) keyed by the path of prices
        (``constrained._PointSolver``)."""
        return {}

    def encode(self, x, z, theta, delta):
        """Dense index of (x, z, theta, delta); accepts arrays."""
        n, tm, dm = self.n_states, self.theta_max, self.delta_max
        return ((np.asarray(x) * n + z) * (tm + 1) + theta) * (dm + 1) + delta

    def decode(self, index: int) -> MdpState:
        n, tm, dm = self.n_states, self.theta_max, self.delta_max
        delta = index % (dm + 1)
        rest = index // (dm + 1)
        theta = rest % (tm + 1)
        rest = rest // (tm + 1)
        z = rest % n
        x = rest // n
        return MdpState(int(x), int(z), int(theta), int(delta), int(index))

    # -- expected-continuation gathers -------------------------------------
    def ev_idle(self, values: np.ndarray) -> np.ndarray:
        """E[V(next) | s, idle] for a value row (or stacked rows)."""
        if values.ndim == 1:
            return np.einsum("sk,sk->s", values[self.idle_targets], self.source_rows)
        return np.einsum("rsk,sk->rs", values[:, self.idle_targets], self.source_rows)

    def ev_success(self, values: np.ndarray) -> np.ndarray:
        if values.ndim == 1:
            return np.einsum("sk,sk->s", values[self.succ_targets], self.source_rows)
        return np.einsum("rsk,sk->rs", values[:, self.succ_targets], self.source_rows)


def build_model(
    chain: MarkovChain,
    p_s: float,
    distortion,
    rho: AgeFunction,
    theta_max: int,
    delta_max: int,
    estimator_mode: str = "map",
    timing: str = "immediate",
) -> SystemModel:
    """Assemble and validate the full truncated model.

    distortion may be the string "hamming" or an explicit nonnegative matrix
    with zero diagonal.  The estimate table is built here so every consumer
    shares one table per model.  timing selects the slot dynamics (see the
    module docstring): "immediate" or "delayed".
    """
    if not (0.0 < p_s <= 1.0):
        raise DomainError(f"success probability {p_s} outside (0, 1]")
    if theta_max < 1 or delta_max < 1:
        raise DomainError("truncation bounds must be at least 1")
    n = chain.n_states
    if isinstance(distortion, str):
        if distortion != "hamming":
            raise DomainError(f"unknown distortion spec {distortion!r}")
        d = np.ones((n, n)) - np.eye(n)
    else:
        d = np.array(distortion, dtype=float)
        if d.shape != (n, n):
            raise DomainError(f"distortion shape {d.shape} != ({n}, {n})")
        if np.any(d < 0):
            raise DomainError("distortion entries must be nonnegative")
        if np.any(np.abs(np.diag(d)) > 0):
            i = int(np.flatnonzero(np.abs(np.diag(d)) > 0)[0])
            raise DistortionDiagonalError(f"distortion diagonal nonzero at state {i}")
    d.setflags(write=False)
    rho.validate_nondecreasing(delta_max + 1)
    chain.prefetch_powers(theta_max)
    estimates = build_estimate_table(chain, theta_max, mode=estimator_mode)
    return SystemModel(
        chain=chain,
        p_s=float(p_s),
        distortion=d,
        rho=rho,
        theta_max=int(theta_max),
        delta_max=int(delta_max),
        estimates=estimates,
        estimator_mode=estimator_mode,
        timing=timing,
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Ratio-test report: tail growth of the age penalty against the error
    persistence rate of each state."""

    holds: bool
    limit_ratio: float
    bound_per_state: np.ndarray
    ok_per_state: np.ndarray


def check_assumption1(model: SystemModel) -> AssumptionReport:
    """Check the cost-boundedness ratio test for every source state.

    The limit of rho(d+1)/rho(d) must stay below 1/(Q_ii * p_f), the inverse
    error-persistence probability of state i, for every i.
    """
    ratio = model.rho.limit_ratio()
    diag = np.diag(model.chain.rows)
    persistence = diag * model.p_f
    with np.errstate(divide="ignore"):
        bound = np.where(persistence > 0, 1.0 / persistence, np.inf)
    ok = ratio < bound
    return AssumptionReport(
        holds=bool(ok.all()),
        limit_ratio=float(ratio),
        bound_per_state=bound,
        ok_per_state=ok,
    )
