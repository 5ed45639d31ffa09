"""Feasibility numerics for testing continuous spontaneous localization
with a pulsed optical Talbot-Lau interferometer."""

__version__ = "0.1.0"

from .params import (
    CONSTANTS,
    ClusterSpecies,
    CslParams,
    EnvironmentConfig,
    GratingConfig,
    PhysicalConstants,
    cluster_radius,
    default_grating,
    gold_cluster,
    load_config,
    total_interference_time,
)
from .mie import AbsorptionProfile, absorption_profile
from .interferometer import (
    FringeObservables,
    flux_for_target_visibility,
    observables,
    transmissivity,
    visibility,
)
from .csl import (
    CslReduction,
    critical_mass,
    csl_visibility_ratio,
    exclusion_boundary,
)
from .decoherence import (
    DecoherenceBudget,
    DecoherenceModel,
    collision_rate,
    blackbody_rates,
    critical_contour,
    decoherence_budget,
)

__all__ = [
    "CONSTANTS",
    "AbsorptionProfile",
    "ClusterSpecies",
    "CslParams",
    "CslReduction",
    "DecoherenceBudget",
    "DecoherenceModel",
    "EnvironmentConfig",
    "FringeObservables",
    "GratingConfig",
    "PhysicalConstants",
    "absorption_profile",
    "blackbody_rates",
    "cluster_radius",
    "collision_rate",
    "critical_contour",
    "critical_mass",
    "csl_visibility_ratio",
    "decoherence_budget",
    "default_grating",
    "exclusion_boundary",
    "flux_for_target_visibility",
    "gold_cluster",
    "load_config",
    "observables",
    "total_interference_time",
    "transmissivity",
    "visibility",
]
