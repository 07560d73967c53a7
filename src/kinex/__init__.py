"""kinex: a simulation lab for relaxation in kinetic wealth-exchange models.

Random pairs of agents redistribute their combined wealth under a
conservation constraint; the ensemble relaxes toward a stationary wealth
distribution.  This package measures that relaxation through the mean
absolute per-step wealth change, fits exponential decay laws to extract
relaxation times, runs the random-resistor-network analog of the same
observable, and checks the closed-form decay-rate predictions.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    InsufficientData,
    InvalidParameter,
    InvalidSize,
    KinexError,
    LogDomainError,
    NoDecayWindow,
    NotDecaying,
    ShapeError,
    TopologyMismatch,
    WindowContainsCrossing,
)
from .exchange import (
    DELTA_ONE_AGENT,
    DISTRIBUTED_SAVING,
    EQUAL_UNIT,
    FIXED_SAVING,
    GENERAL,
    LATTICE_2D,
    MEAN_FIELD,
    PURE_GAMBLING,
    UNIFORM_RANDOM,
    AgentEnsemble,
    ModelSpec,
    exchange_distributed_saving,
    exchange_fixed_saving,
    exchange_general,
    exchange_pure_gambling,
    init_ensemble,
    run_time_step,
)
from .expfit import ExpFitResult, auto_window, fit_pure, fit_shifted
from .relaxation import RelaxationSeries, equilibrium_window_stats, run_relaxation
from .reports import read_series_csv, write_series_csv
from .rrn import (
    ResistorLattice,
    build_lattice,
    node_current_residuals,
    relax_sweep,
    run_rrn_relaxation,
    solve_kirchhoff_dense,
)
from .streams import RngStream
from .theory import (
    GeneralParams,
    OdeSolution,
    decay_rate,
    k_positive_for_half,
    map_random_saving,
    predict,
    solution_from_first_two,
)

__all__ = [
    "__version__",
    "AgentEnsemble",
    "ModelSpec",
    "RngStream",
    "RelaxationSeries",
    "ExpFitResult",
    "ResistorLattice",
    "GeneralParams",
    "OdeSolution",
    "KinexError",
    "ConfigError",
    "InsufficientData",
    "InvalidParameter",
    "InvalidSize",
    "LogDomainError",
    "NoDecayWindow",
    "NotDecaying",
    "ShapeError",
    "TopologyMismatch",
    "WindowContainsCrossing",
    "PURE_GAMBLING",
    "FIXED_SAVING",
    "DISTRIBUTED_SAVING",
    "GENERAL",
    "MEAN_FIELD",
    "LATTICE_2D",
    "EQUAL_UNIT",
    "UNIFORM_RANDOM",
    "DELTA_ONE_AGENT",
    "exchange_pure_gambling",
    "exchange_fixed_saving",
    "exchange_distributed_saving",
    "exchange_general",
    "init_ensemble",
    "run_time_step",
    "run_relaxation",
    "equilibrium_window_stats",
    "write_series_csv",
    "read_series_csv",
    "fit_shifted",
    "fit_pure",
    "auto_window",
    "build_lattice",
    "relax_sweep",
    "run_rrn_relaxation",
    "solve_kirchhoff_dense",
    "node_current_residuals",
    "map_random_saving",
    "decay_rate",
    "k_positive_for_half",
    "predict",
    "solution_from_first_two",
]
