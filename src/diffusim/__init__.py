"""Compartmental information diffusion in a grouped population.

Members of a fixed set of groups move between three states: susceptible
(may start spreading), active (spreading) and deactivated (stopped, may
become susceptible again). The package provides the mean-field ODE
system, its disease-free and endemic equilibria, the next-generation
reproduction number with calibration, a discrete-time Markov chain
counterpart with ensemble statistics and exact small-system propagation,
optional logistic population growth, and a CSV-producing CLI.
"""

from .config import ScenarioConfig, bundled_config, load_config, parse_config, render_config
from .dtmc import (
    FULL,
    PAPER_LITERAL,
    DiscreteState,
    Event,
    ExactPropagation,
    ExtinctionSummary,
    TransitionTable,
    canonical_events,
    derive_replica_seed,
    event_probabilities,
    exact_propagation,
    extinction_time_stochastic,
    max_stable_dt,
    monte_carlo_mean,
    simulate_replica,
)
from .errors import (
    ConfigError,
    DiffusionError,
    DomainError,
    NumericError,
    StepSizeError,
)
from .integrate import IntegrationConfig, integrate
from .logistic import LogisticConfig
from .model import (
    ContinuousState,
    EquilibriumPoint,
    ModelParams,
    disease_free_equilibrium,
    endemic_equilibrium,
    ode_rhs,
)
from .threshold import (
    NextGenDecomposition,
    build_decomposition,
    calibrate_alpha,
    r0_rank_one,
)
from .trajectory import TrajectoryTable, format_value

__version__ = "0.1.0"

__all__ = [
    "ContinuousState",
    "ConfigError",
    "DiffusionError",
    "DiscreteState",
    "DomainError",
    "EquilibriumPoint",
    "Event",
    "ExactPropagation",
    "ExtinctionSummary",
    "FULL",
    "IntegrationConfig",
    "LogisticConfig",
    "ModelParams",
    "NextGenDecomposition",
    "NumericError",
    "PAPER_LITERAL",
    "ScenarioConfig",
    "StepSizeError",
    "TrajectoryTable",
    "TransitionTable",
    "build_decomposition",
    "bundled_config",
    "calibrate_alpha",
    "canonical_events",
    "derive_replica_seed",
    "disease_free_equilibrium",
    "endemic_equilibrium",
    "event_probabilities",
    "exact_propagation",
    "extinction_time_stochastic",
    "format_value",
    "integrate",
    "load_config",
    "max_stable_dt",
    "monte_carlo_mean",
    "ode_rhs",
    "parse_config",
    "r0_rank_one",
    "render_config",
    "simulate_replica",
    "__version__",
]
