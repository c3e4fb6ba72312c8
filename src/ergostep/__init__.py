"""Invariant distributions of ergodic diffusions via decreasing-step
weighted empirical measures, with weak-order-one (Euler) and weak-order-two
kernels and an experiment harness for the associated central limit regimes."""

from .catalog import (
    double_well,
    gauss_hermite_expectation,
    monomial1d,
    coordinate_monomial,
    normal_law,
    observable_from_name,
    ou1d,
    ou_invariant_law,
    ou_nd,
    quadratic_lyapunov,
)
from .diagnostics import (
    MomentMatchReport,
    ProbeReport,
    WeakOrderResult,
    default_grid,
    moment_match_report,
    recursive_control_probe,
    weak_order_probe,
)
from .empirical import (
    AnalyticLaw1D,
    SummaryStats,
    WeightedEmpiricalMeasure,
    merge_statistics,
    wasserstein1_atoms,
    wasserstein1_to,
)
from .harness import (
    CltReport,
    ConfigError,
    ErgodicReport,
    ExperimentConfig,
    ExperimentError,
    RateReport,
    RegimeDecision,
    classify_regime,
    emit,
    fit_loglog,
    ks_normality,
    parse_config_file,
    run_clt_experiment,
    run_ergodic_experiment,
    run_rate_experiment,
)
from .innovations import (
    InnovationDist,
    assemble_w,
    gaussian_moment,
    joint_outcomes,
    kappa_outcomes,
    sample_kappa,
)
from .model import (
    DiffusionModel,
    Enumerate,
    InsufficientDerivativesError,
    InsufficientOrderError,
    LyapunovSpec,
    MonteCarlo,
    Observable,
    OperatorValue,
    drift_generator,
    generator_apply,
    generator_observable,
    linear_combination,
    m1_euler,
    m1_talay,
    m2_talay,
    sigma_tilde,
    vf_operator,
)
from .schedules import StepSchedule, WeightSchedule, order_weights, variance_clock
from .schemes import (
    BatchResult,
    DivergenceError,
    SchemeState,
    simulate,
    simulate_batch,
    trajectory_generators,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
