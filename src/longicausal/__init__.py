"""longicausal: causal effects of time-varying injection volumes on counts.

Marginal structural models fit by stabilized inverse-probability-of-treatment
weighting, the seeded Monte Carlo comparison of naive/adjusted/MSM Poisson
estimators under treatment-confounder feedback, and the well/quake panel
assembly pipeline.
"""

from .baselines import GRParams, gr_expected_count, gr_rate_factor
from .estimators import (
    CI_MULTIPLIER,
    ESTIMATOR_NAMES,
    EstimatorReport,
    estimate,
    relative_risk,
)
from .exceptions import (
    DegenerateVarianceError,
    DomainError,
    LongicausalError,
    PanelError,
    SchemaError,
    SimulationError,
    SingularDesignError,
    WeightError,
)
from .glm import wald_test
from .iptw import WeightSet, stabilized_weights
from .panel import PanelDataset, read_panel_csv, write_panel_csv
from .simulate import (
    DgpParams,
    MonteCarloSummary,
    SimulationConfig,
    generate_dataset,
    replicate_seed,
    run_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "CI_MULTIPLIER",
    "DegenerateVarianceError",
    "DgpParams",
    "DomainError",
    "ESTIMATOR_NAMES",
    "EstimatorReport",
    "GRParams",
    "LongicausalError",
    "MonteCarloSummary",
    "PanelDataset",
    "PanelError",
    "SchemaError",
    "SimulationConfig",
    "SimulationError",
    "SingularDesignError",
    "WeightError",
    "WeightSet",
    "estimate",
    "generate_dataset",
    "gr_expected_count",
    "gr_rate_factor",
    "read_panel_csv",
    "relative_risk",
    "replicate_seed",
    "run_monte_carlo",
    "stabilized_weights",
    "wald_test",
    "write_panel_csv",
]
