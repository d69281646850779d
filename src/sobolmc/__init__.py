"""Monte Carlo estimation of Sobol' sensitivity indices.

Pick-freeze estimators of the closed and total indices (correlation,
oracle-centered, and generalized four-vector kinds), product-form and
tabulated test models with exact ANOVA, a brute-force enumeration oracle,
and a replicated efficiency benchmark harness.
"""

from .core import (
    MAX_DIM,
    BlockSampler,
    DimensionError,
    EvalCounter,
    IndexSet,
    RngSpec,
    blend,
)
from .estimators import (
    KINDS,
    Accumulator,
    EstimateReport,
    EstimatorKind,
    accumulate_terms,
    run_estimator,
    run_multi_u,
)
from .experiments import (
    CSV_HEADER,
    EfficiencyRow,
    EfficiencyTable,
    ExperimentConfig,
    config_from_json,
    efficiency,
    g_function_study,
    product6_study,
    run_efficiency_experiment,
)
from .models import (
    AnovaReport,
    BudgetError,
    DiscreteModel,
    FactorKind,
    FactorMoments,
    GFunction,
    Model,
    ProductModel,
    analytic_anova,
    builtin_model,
    discrete_anova,
    factor_raw_moments,
    g_as_product,
    model_from_json,
    product_anova,
    product_set_indices,
)
from .theory import (
    QFactors,
    argmin_v,
    diff_fourth_moment,
    diff_fourth_moment_proxy,
    enumerate_expectation,
    q_uv,
    q_v,
)
from .verification import verify_suite

__version__ = "0.1.0"
