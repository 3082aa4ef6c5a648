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
    adjusted_poisson,
    msm_iptw,
    naive_poisson,
    relative_risk,
)
from .exceptions import (
    DegenerateVarianceError,
    DomainError,
    LongicausalError,
    PanelError,
    PositivityError,
    SchemaError,
    SimulationError,
    SingularDesignError,
    WeightError,
)
from .glm import FitResult, fit_glm, sandwich_cov, wald_test
from .iptw import (
    BinaryAteResult,
    TreatmentModels,
    WeightSet,
    ate_iptw_binary,
    fit_treatment_models,
    stabilized_weights,
)
from .panel import (
    PanelDataset,
    binarize_treatment,
    read_panel_csv,
    write_panel_csv,
)
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
    "BinaryAteResult",
    "CI_MULTIPLIER",
    "DegenerateVarianceError",
    "DgpParams",
    "DomainError",
    "ESTIMATOR_NAMES",
    "EstimatorReport",
    "FitResult",
    "GRParams",
    "LongicausalError",
    "MonteCarloSummary",
    "PanelDataset",
    "PanelError",
    "PositivityError",
    "SchemaError",
    "SimulationConfig",
    "SimulationError",
    "SingularDesignError",
    "TreatmentModels",
    "WeightError",
    "WeightSet",
    "adjusted_poisson",
    "ate_iptw_binary",
    "binarize_treatment",
    "fit_glm",
    "fit_treatment_models",
    "generate_dataset",
    "gr_expected_count",
    "gr_rate_factor",
    "msm_iptw",
    "naive_poisson",
    "read_panel_csv",
    "relative_risk",
    "replicate_seed",
    "run_monte_carlo",
    "sandwich_cov",
    "stabilized_weights",
    "wald_test",
    "write_panel_csv",
]
