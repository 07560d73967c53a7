"""kinex: a simulation lab for relaxation in kinetic wealth-exchange models.

Random pairs of agents redistribute their combined wealth under a
conservation constraint; the ensemble relaxes toward a stationary wealth
distribution.  This package measures that relaxation through the mean
absolute per-step wealth change, fits exponential decay laws to extract
relaxation times, runs the random-resistor-network analog of the same
observable, and checks the closed-form decay-rate predictions.

The public names below are imported from their modules on first use (PEP 562),
so ``import kinex`` and the CLI's start load none of the modules a run does
not call.
"""

import importlib

__version__ = "0.1.0"

# module: the public names it holds
_HOMES = {
    "errors": (
        "KinexError", "ConfigError", "InsufficientData", "InvalidParameter", "InvalidSize",
        "LogDomainError", "NoDecayWindow", "NotDecaying", "ShapeError", "TopologyMismatch",
        "WindowContainsCrossing",
    ),
    "exchange": (
        "AgentEnsemble", "ModelSpec", "PURE_GAMBLING", "FIXED_SAVING", "DISTRIBUTED_SAVING",
        "GENERAL", "MEAN_FIELD", "LATTICE_2D", "EQUAL_UNIT", "UNIFORM_RANDOM", "DELTA_ONE_AGENT",
        "exchange_pure_gambling", "exchange_fixed_saving", "exchange_distributed_saving",
        "exchange_general", "init_ensemble", "run_time_step",
    ),
    "streams": ("RngStream",),
    "relaxation": ("RelaxationSeries", "run_relaxation", "equilibrium_window_stats"),
    "reports": ("write_series_csv", "read_series_csv"),
    "expfit": ("ExpFitResult", "fit_shifted", "fit_pure", "auto_window"),
    "rrn": (
        "ResistorLattice", "build_lattice", "relax_sweep", "run_rrn_relaxation",
        "solve_kirchhoff_dense", "node_current_residuals",
    ),
    "theory": (
        "GeneralParams", "OdeSolution", "map_random_saving", "decay_rate", "k_positive_for_half",
        "predict", "solution_from_first_two",
    ),
}

__all__ = ["__version__", *(name for names in _HOMES.values() for name in names)]


def _importer(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` (PEP 562) that imports each name of ``homes``,
    ``{module: names}`` over this package's modules, from its module on first
    use and binds it in ``namespace``, the module's globals, so that later
    lookups, and a name patched there, never reach it."""
    home_of = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{home_of[name]}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _importer(globals(), _HOMES)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
