"""Batch front-end: parse an experiment config, dispatch runs, persist outputs.

One structured config file (YAML; plain key-value with nesting) drives every
experiment.  Top-level keys are shared defaults; a section named after a
subcommand overrides them for that experiment, so a single file can describe
the whole study.  Each run writes CSV outputs plus a manifest.json with
content digests; identical configs reproduce identical data digests.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import _importer
from .errors import ConfigError, KinexError, NotDecaying
from .exchange import DISTRIBUTED_SAVING, LATTICE_2D, PURE_GAMBLING, ModelSpec
from .expfit import FORM_PURE, FORM_SHIFTED, auto_window, fit_pure, fit_shifted
from .relaxation import DEFAULT_TAIL_FRACTION, INIT_HALF, equilibrium_window_stats, run_relaxation
from .reports import (
    RunManifest,
    read_series_csv,
    write_fit_csv,
    write_hist_csv,
    write_lambda_bins_csv,
    write_series_csv,
    write_tau_table,
    write_x0_table,
)
from .streams import RngStream

# The dist and rrn subcommands' functions are this module's attributes as its
# imports are, but imported on first use, so that no other subcommand's start
# compiles their modules.  Their handlers call them through this module, so
# that a name set here (a test's patch, the benchmark's tracer) is the one called.
__getattr__ = _importer(globals(), {
    "distribution": ("fit_histogram_slope", "lambda_binned_means", "run_equilibrium",
                     "wealth_histogram"),
    "rrn": ("build_lattice", "node_current_residuals", "relax_sweep", "run_rrn_relaxation",
            "solve_kirchhoff_dense"),
})
_this = sys.modules[__name__]

# Largest lattice `kinex rrn` cross-checks with the dense solve: a 2500 x 2500
# matrix is 50 MB, where the preset side 100 (9800 nodes) would need 0.77 GB.
DENSE_MAX_INTERIOR = 2_500


@dataclass
class ExperimentConfig:
    """Normalized settings for one experiment run."""

    experiment: str
    model: ModelSpec = field(default_factory=ModelSpec)
    n_agents: int = 100
    t_max: int = 200
    n_configs: int = 10_000  # full-scale averaging; desk presets override to 500
    master_seed: int = 0
    output_dir: Path = Path("out")
    workers: int = 1
    tail_fraction: float = DEFAULT_TAIL_FRACTION
    # sweep lists
    eps_values: tuple[float, ...] = ()
    lambda_windows: tuple[tuple[float, float], ...] = ()
    g_windows: tuple[tuple[float, float], ...] = ()
    # rrn
    side: int = 100
    rrn_init: str = INIT_HALF
    dense_check: bool = False
    # dist
    bins: int = 50
    equilibration_steps: int | None = None
    sample_steps: int = 100
    fit_configs: int = 100
    # fit
    series_csv: str | None = None
    fit_x0: float | None = None
    fit_window: tuple[int, int] | None = None


def _pair(value, cast=float) -> tuple:
    lo, hi = value
    return cast(lo), cast(hi)


def _bool(value) -> bool:
    """Only a YAML boolean: ``bool("false")`` would read a quoted string as true."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a boolean")
    return value


# YAML value -> annotated field type, for ExperimentConfig and ModelSpec alike.
_CASTS = {
    "int": int,
    "float": float,
    "bool": _bool,
    "str": str,
    "Path": Path,
    "tuple[float, float]": _pair,
    "tuple[int, int]": lambda v: _pair(v, int),
    "tuple[float, ...]": lambda v: tuple(float(x) for x in v),
    "tuple[tuple[float, float], ...]": lambda v: tuple(_pair(w) for w in v),
}


def _typed(cls, raw: dict) -> dict:
    """The non-null entries of ``raw`` naming fields of ``cls``, cast to their annotated types."""
    typed = {}
    for f in fields(cls):
        kind = f.type.removesuffix(" | None")
        if raw.get(f.name) is None or kind not in _CASTS:
            continue
        try:
            typed[f.name] = _CASTS[kind](raw[f.name])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{f.name}={raw[f.name]!r} cannot be read as {kind}") from e
    return typed


def _cell_label(cell) -> str:
    """A sweep cell's value as its output file names spell it."""
    return "_".join(f"{v:g}" for v in (cell if isinstance(cell, tuple) else (cell,)))


MODEL_KEYS = {f.name for f in fields(ModelSpec)} - {"eps_fixed"}  # set through `epsilon`
CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} - {"experiment"}


def build_model(raw: dict | None, experiment: str) -> ModelSpec:
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError("model must be a mapping")
    raw = dict(raw or {})
    eps = raw.pop("epsilon", "default")
    if eps == "default":
        # the propensity-window family is defined at a balanced split
        eps_fixed = 0.5 if experiment == "lambda-family" else None
    elif eps in (None, "uniform"):
        eps_fixed = None
    else:
        try:
            eps_fixed = float(eps)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"epsilon={eps!r} is not a number, 'uniform' or 'default'") from e

    unknown = sorted(set(raw) - MODEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown model keys: {unknown}")
    spec = ModelSpec(eps_fixed=eps_fixed, **_typed(ModelSpec, raw))
    spec.validate()
    return spec


def load_experiment_config(
    path: str | Path,
    experiment: str,
    *,
    out: str | None = None,
    seed: int | None = None,
    threads: int | None = None,
) -> ExperimentConfig:
    """Read the config file and apply CLI/env overrides.

    Worker-count precedence: --threads, then KINEX_THREADS, then the file.
    Unknown keys and values no run could use raise ConfigError here, before
    anything is simulated or written.
    """
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8: {e.reason} at byte {e.start}") from e
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(e, "problem", None) or " ".join(str(e).split())
        raise ConfigError(f"malformed config {path}{where}: {problem}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")

    merged = {k: v for k, v in raw.items() if k not in HANDLERS}
    section = raw.get(experiment)
    if section is not None:
        if not isinstance(section, dict):
            raise ConfigError(f"section {experiment!r} must be a mapping")
        for k, v in section.items():
            if k == "model" and isinstance(merged.get("model"), dict) and isinstance(v, dict):
                merged["model"] = {**merged["model"], **v}
            else:
                merged[k] = v
    unknown = sorted(set(merged) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")

    if threads is None:
        env = os.environ.get("KINEX_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError as e:
                raise ConfigError(f"KINEX_THREADS={env!r} is not an integer") from e

    overrides = {"master_seed": seed, "output_dir": out, "workers": threads}
    merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = ExperimentConfig(
        experiment=experiment,
        model=build_model(merged.get("model"), experiment),
        **_typed(ExperimentConfig, merged),
    )
    least_counts = {
        "workers": 1, "n_agents": 2, "n_configs": 1, "fit_configs": 1, "bins": 1, "sample_steps": 0,
        "equilibration_steps": 0, "master_seed": 0, "side": 3,
    }
    for name, least in least_counts.items():
        value = getattr(cfg, name)
        if value is not None and value < least:
            raise ConfigError(f"{name}={value} must be >= {least}")
    if not 0.0 < cfg.tail_fraction <= 0.5:
        raise ConfigError(f"tail_fraction={cfg.tail_fraction} outside (0, 0.5]")
    side = cfg.model.lattice_side
    lattice = cfg.model.pairing == LATTICE_2D and experiment not in ("rrn", "fit")
    if lattice and side * side != cfg.n_agents:
        raise ConfigError(f"lattice_side={side} squared != n_agents={cfg.n_agents}")
    if experiment != "fit" and cfg.t_max < 10:
        raise ConfigError(f"t_max={cfg.t_max} must be >= 10, the shortest series a plateau fits")
    bad = [eps for eps in cfg.eps_values if not 0.0 <= eps <= 1.0]
    if bad:
        raise ConfigError(f"eps_values {bad} outside [0, 1]")
    bad = [w for w in cfg.lambda_windows if not 0.0 <= w[0] < w[1] <= 1.0]
    if bad:
        raise ConfigError(f"lambda_windows {bad} not within 0 <= lo < hi <= 1")
    bad = [w for w in cfg.g_windows if not 0.0 <= w[0] < w[1]]
    if bad:
        raise ConfigError(f"g_windows {bad} need 0 <= lo < hi")
    for name in ("eps_values", "lambda_windows", "g_windows"):
        labels = [_cell_label(cell) for cell in getattr(cfg, name)]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"{name} would name two cells' output files alike: {labels}")
    n_dense = (cfg.side - 2) * cfg.side
    if experiment == "rrn" and cfg.dense_check and n_dense > DENSE_MAX_INTERIOR:
        raise ConfigError(
            f"dense_check at side={cfg.side} needs a {n_dense}-node dense solve;"
            f" the limit is {DENSE_MAX_INTERIOR} interior nodes"
        )
    if experiment == "eps-sweep" and cfg.model.rule != DISTRIBUTED_SAVING:
        raise ConfigError("eps-sweep is defined for the distributed-saving model")
    cells = {"lambda-family": "lambda_windows", "eps-sweep": "eps_values", "rrn": "g_windows"}
    if experiment in cells and not getattr(cfg, cells[experiment]):
        raise ConfigError(f"{experiment} needs a non-empty {cells[experiment]} list")
    if experiment == "fit" and not cfg.series_csv:
        raise ConfigError("fit needs series_csv pointing at a series file")
    return cfg


def _fit_series(series, tail_fraction, forms, x0=None, window=None):
    """The fit pass: plateau x0 and auto window unless given, then each form.

    Returns (window, {form: ExpFitResult or the KinexError its fit raised}).
    When the auto window fails, window is None and every form carries its error.
    """
    if x0 is None:
        x0, _ = equilibrium_window_stats(series, tail_fraction)
    if window is None:
        try:
            window = auto_window(series, x0, tail_fraction)
        except KinexError as e:
            return None, dict.fromkeys(forms, e)
    fits = {}
    for form in forms:
        try:
            if form == FORM_SHIFTED:
                fits[form] = fit_shifted(series, window, x0)
            else:
                fits[form] = fit_pure(series, window)
        except KinexError as e:
            fits[form] = e
    return window, fits


def _window_sweep(cfg, run, prefix, windows, cells, note, extra=lambda w: None) -> list:
    """Each window's series as ``series_<prefix>_<window>.csv``, its pure fit,
    and the decay-time table of the fits, which are returned."""
    fits = []
    for w, series in zip(windows, cells):
        write_series_csv(series, run.path(f"series_{prefix}_{_cell_label(w)}.csv"), extra(w))
        fits.append(_fit_series(series, cfg.tail_fraction, (FORM_PURE,))[1][FORM_PURE])
    write_tau_table(run.path("tau_table.csv"), windows, fits, header_note=note)
    return fits


def cmd_relax(cfg: ExperimentConfig) -> list[str]:
    """Single relaxation run: series CSV plus a fit report."""
    with RunManifest(asdict(cfg), cfg.experiment, cfg.output_dir) as run:
        series = run_relaxation(
            cfg.model, cfg.n_agents, cfg.t_max, cfg.n_configs, cfg.master_seed, cfg.workers
        )
        write_series_csv(series, run.path("series_relax.csv"))
        forms = (FORM_SHIFTED, FORM_PURE) if cfg.model.eps_fixed == 0.5 else (FORM_SHIFTED,)
        window, fits = _fit_series(series, cfg.tail_fraction, forms)
        write_fit_csv(run.path("fit_relax.csv"), window, fits, header_note=f"spec={series.spec}")
    return []


def cmd_lambda_family(cfg: ExperimentConfig) -> list[str]:
    """One run per propensity window, with a decay-time table ordered by window mean."""
    windows = sorted(cfg.lambda_windows, key=sum)
    specs = tuple(replace(cfg.model, rule=DISTRIBUTED_SAVING, lambda_window=w) for w in windows)
    with RunManifest(asdict(cfg), cfg.experiment, cfg.output_dir) as run:
        cells = run_relaxation(
            specs, cfg.n_agents, cfg.t_max, cfg.n_configs, cfg.master_seed, cfg.workers
        )
        fits = _window_sweep(cfg, run, "lw", windows, cells, "propensity windows, ordered by mean")
        taus = [fit.tau for fit in fits if not isinstance(fit, KinexError)]
        violations = []
        if len(taus) < len(fits):
            violations.append("some windows produced no decay-time fit")
        elif not all(a < b for a, b in zip(taus, taus[1:])):
            violations.append("decay time is not strictly increasing with the window mean")
        run.notes.extend(violations)
    return violations


def cmd_eps_sweep(cfg: ExperimentConfig) -> list[str]:
    """Plateau estimate per split parameter; marks the minimum."""
    values = sorted(cfg.eps_values)
    specs = tuple(replace(cfg.model, eps_fixed=eps) for eps in values)
    with RunManifest(asdict(cfg), cfg.experiment, cfg.output_dir) as run:
        plateaus = []
        cells = run_relaxation(
            specs, cfg.n_agents, cfg.t_max, cfg.n_configs, cfg.master_seed, cfg.workers
        )
        for eps, series in zip(values, cells):
            write_series_csv(series, run.path(f"series_eps_{_cell_label(eps)}.csv"))
            plateaus.append(equilibrium_window_stats(series, cfg.tail_fraction))

        argmin = min(range(len(values)), key=lambda k: plateaus[k][0])
        run.notes.append(f"plateau minimum at eps={values[argmin]:g}")
        write_x0_table(run.path("x0_table.csv"), values, plateaus, argmin)
    return []


def cmd_dist(cfg: ExperimentConfig) -> list[str]:
    """Pooled equilibrium wealth histogram (+ propensity-binned means)."""
    with RunManifest(asdict(cfg), cfg.experiment, cfg.output_dir) as run:
        equil = cfg.equilibration_steps
        if equil is None:
            # discard max(5*tau, 50) steps; tau from a reduced-size relaxation fit
            n_probe = min(cfg.fit_configs, cfg.n_configs)
            probe = run_relaxation(
                cfg.model, cfg.n_agents, cfg.t_max, n_probe, cfg.master_seed, cfg.workers
            )
            diverged = probe.t[~np.isfinite(probe.x_mean)]
            if diverged.size:  # a model that never settles has no equilibrium to sample
                raise NotDecaying(f"the probe relaxation is first not finite at step {diverged[0]}")
            fit = _fit_series(probe, cfg.tail_fraction, (FORM_SHIFTED,))[1][FORM_SHIFTED]
            if isinstance(fit, KinexError):
                equil = 50
                run.notes.append(f"equilibration_steps=50 (auto; probe fit failed: {type(fit).__name__})")
            else:
                equil = max(int(np.ceil(5 * fit.tau)), 50)
                run.notes.append(f"equilibration_steps={equil} (auto)")

        pool = _this.run_equilibrium(
            cfg.model,
            cfg.n_agents,
            equil,
            cfg.sample_steps,
            cfg.n_configs,
            cfg.master_seed,
            cfg.workers,
        )
        edges, counts, density = _this.wealth_histogram(pool.wealth, cfg.bins)
        note = f"spec={cfg.model.digest()} pooled={pool.wealth.size}"
        write_hist_csv(run.path("hist_wealth.csv"), edges, counts, density, header_note=note)

        if cfg.model.rule == PURE_GAMBLING:
            try:
                slope, r2 = _this.fit_histogram_slope(edges, counts)
                run.notes.append(f"histogram semi-log slope={slope!r} r2={r2!r}")
            except KinexError as e:
                run.notes.append(f"histogram slope fit failed: {type(e).__name__}")

        if cfg.model.rule == DISTRIBUTED_SAVING:
            lo, hi, means = _this.lambda_binned_means(
                pool.saving, pool.wealth_time_avg, n_bins=5, window=cfg.model.lambda_window
            )
            write_lambda_bins_csv(run.path("lambda_bins.csv"), lo, hi, means)
    return []


def cmd_rrn(cfg: ExperimentConfig) -> list[str]:
    """Resistor-network relaxation per conductance window, with decay-time table."""
    windows = sorted(cfg.g_windows, key=sum)
    with RunManifest(asdict(cfg), cfg.experiment, cfg.output_dir) as run:
        cells = _this.run_rrn_relaxation(
            cfg.side, tuple(windows), cfg.t_max, cfg.n_configs, cfg.master_seed, cfg.workers,
            cfg.rrn_init,
        )
        _window_sweep(cfg, run, "g", windows, cells, "conductance windows, ordered by mean",
                      lambda w: {"L": cfg.side, "g_window": f"{w[0]:g}:{w[1]:g}"})
        if cfg.dense_check:
            rng = RngStream(cfg.master_seed, 0)
            lat = _this.build_lattice(cfg.side, cfg.g_windows[0], rng, cfg.rrn_init)
            for _ in range(200_000):
                if _this.relax_sweep(lat) < 1e-12:
                    break
            exact = _this.solve_kirchhoff_dense(lat)
            gap = float(np.abs(lat.potential[1:-1, :] - exact).max())
            residual = float(np.abs(_this.node_current_residuals(lat)).max())
            run.notes.append(f"dense-solver endpoint gap={gap!r} node residual={residual!r}")
    return []


def cmd_fit(cfg: ExperimentConfig) -> list[str]:
    """Re-fit an existing series CSV, at the configured plateau and window if given."""
    with RunManifest(asdict(cfg), cfg.experiment, cfg.output_dir) as run:
        series = read_series_csv(cfg.series_csv)
        window, fits = _fit_series(
            series, cfg.tail_fraction, (FORM_SHIFTED, FORM_PURE), cfg.fit_x0, cfg.fit_window
        )
        write_fit_csv(
            run.path("fit_series.csv"), window, fits, header_note=f"source={Path(cfg.series_csv).name}"
        )
    return []


HANDLERS = {
    "relax": cmd_relax,
    "dist": cmd_dist,
    "eps-sweep": cmd_eps_sweep,
    "lambda-family": cmd_lambda_family,
    "rrn": cmd_rrn,
    "fit": cmd_fit,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kinex",
        description="Relaxation experiments for kinetic wealth-exchange models "
        "and their resistor-network analog.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config file (YAML)")
        sp.add_argument("--strict", action="store_true", help="nonzero exit on report assertions")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--threads", type=int, default=None, help="worker count (KINEX_THREADS fallback)")
    args = parser.parse_args(argv)

    try:
        cfg = load_experiment_config(
            args.config, args.experiment, out=args.out, seed=args.seed, threads=args.threads
        )
        violations = HANDLERS[args.experiment](cfg)
    except ConfigError as e:
        print(f"kinex: config error: {e}", file=sys.stderr)
        return 2
    except KinexError as e:
        print(f"kinex: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"kinex: i/o error: {e}", file=sys.stderr)
        return 2

    for v in violations:
        print(f"kinex: assertion: {v}", file=sys.stderr)
    if violations and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
