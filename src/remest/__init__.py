"""Transmission scheduling for remote estimation of finite-state Markov sources.

The library builds the decision process over (source state, last received
content, information age, consecutive-error age), solves the price-relaxed
problem by structured policy iteration, finds the budget-optimal policy (a
deterministic switching policy or a two-policy mixture) by intersection
search on the price, and evaluates everything both exactly and by seeded
simulation.
"""

from .config import SystemConfig, Tolerances
from .constrained import (
    ConstrainedSolution,
    MixturePolicy,
    SearchTrace,
    bisection_solve,
    build_mixture,
    intersection_step,
    solve_cmdp,
)
from .errors import (
    BadBracketError,
    ConfigError,
    ConvergenceFailure,
    DegenerateSlopesError,
    DistortionDiagonalError,
    DomainError,
    InfeasiblePairError,
    NegativeEntryError,
    NoProgressError,
    ReducibleChainError,
    RemestError,
    RowSumError,
    SupportMismatchError,
)
from .estimator import (
    EstimateTable,
    build_estimate_table,
    map_estimate,
    steady_state_age,
    zoh_estimate,
)
from .evaluation import (
    SimReport,
    SolveOutcome,
    StationaryMetrics,
    kl_truncation,
    simulate,
    stationary_metrics,
    sweep_lambda,
)
from .markov import (
    Distribution,
    MarkovChain,
    belief,
    matrix_power,
    stationary,
    symmetric_chain,
    symmetric_power_closed_form,
    validate_chain,
)
from .model import (
    AgeFunction,
    AssumptionReport,
    MdpState,
    SystemModel,
    build_model,
    check_assumption1,
)
from .solver import (
    DeterministicPolicy,
    GainBias,
    ThresholdView,
    check_submodularity,
    check_switching_structure,
    check_value_monotonicity,
    never_transmit_policy,
    policy_evaluate,
    reactive_policy,
    rvi_solve,
    spi_solve,
)

__version__ = "0.1.0"
