"""The public API: ``diffusim.__all__`` is pinned, so that adding or
removing a public name is a deliberate edit here as well."""

import diffusim

PUBLIC = [
    "ConfigError",
    "ContinuousState",
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
    "__version__",
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
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(diffusim.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(diffusim, name)] == []
