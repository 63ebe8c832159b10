"""Mini-batched stochastic prox-linear method for rank-one matrix sensing:
simulation, deterministic trajectory prediction, and offline hyperparameter
tuning."""

__version__ = "0.1.0"

from .errors import (
    IllConditionedEtaError,
    InfeasibleInitializationError,
    InvalidDimensionError,
    NoFeasiblePointError,
    NonConvergenceError,
    NumericalInputError,
    PredictionError,
    ProxtuneError,
    SimulationError,
    SingularSystemError,
    ValidationError,
)
from .expect import (
    ExpectationEngine,
    get_engine,
    mc_expect2,
)
from .model import (
    Batch,
    GroundTruth,
    InitSpec,
    ProblemParams,
    generate_ground_truth,
    init_iterates,
    sample_batch,
)
from .predict import (
    DetQuantities,
    DetTrajectory,
    FixedPointR,
    compute_H,
    compute_parallel,
    compute_V,
    compute_V34,
    det_map,
    det_quantities,
    in_theory_region,
    predict_trajectory,
    solve_eta,
    solve_r,
)
from .simulate import (
    EmpiricalTrajectory,
    ExperimentConfig,
    LambdaSchedule,
    TrialsResult,
    prox_linear_step,
    run_empirical,
    run_trials,
    subproblem_objective,
)
from .state import (
    StateVec,
    err_of,
    frob_err,
    sandwich_check,
    state_frob_err,
    state_of,
)
from .tune import (
    Recommendation,
    TuneGrid,
    TuneReport,
    TuneRow,
    build_report,
    iteration_complexity,
    recommend,
    sweep,
    theory_summary,
)
