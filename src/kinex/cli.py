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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .distribution import (
    fit_histogram_slope,
    lambda_binned_means,
    run_equilibrium,
    wealth_histogram,
)
from .errors import ConfigError, KinexError
from .exchange import DISTRIBUTED_SAVING, PURE_GAMBLING, ModelSpec
from .expfit import FORM_PURE, FORM_SHIFTED, auto_window, fit_error_row, fit_pure, fit_shifted
from .relaxation import (
    DEFAULT_TAIL_FRACTION,
    equilibrium_window_stats,
    read_series_csv,
    run_relaxation,
    write_series_csv,
)
from .reports import (
    RunManifest,
    write_fit_csv,
    write_hist_csv,
    write_lambda_bins_csv,
    write_tau_table,
    write_x0_table,
)
from .rrn import INIT_HALF, build_lattice, node_current_residuals, relax_sweep, run_rrn_relaxation, solve_kirchhoff_dense
from .streams import RngStream

EXPERIMENTS = ("relax", "dist", "eps-sweep", "lambda-family", "rrn", "fit")


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
    strict: bool = False
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


def _as_window(value, name: str) -> tuple[float, float]:
    try:
        lo, hi = value
        return float(lo), float(hi)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name} must be a [lo, hi] pair, got {value!r}") from e


def build_model(raw: dict | None, experiment: str) -> ModelSpec:
    raw = dict(raw or {})
    eps = raw.pop("epsilon", "default")
    if eps == "default":
        # the propensity-window family is defined at a balanced split
        eps_fixed = 0.5 if experiment == "lambda-family" else None
    elif eps in (None, "uniform"):
        eps_fixed = None
    else:
        eps_fixed = float(eps)

    kwargs = {}
    for key in ("rule", "pairing", "init"):
        if key in raw:
            kwargs[key] = str(raw.pop(key))
    for key in ("lambda_window", "eps1_window", "eps2_window"):
        if key in raw:
            kwargs[key] = _as_window(raw.pop(key), key)
    for key, cast in (("lambda_fixed", float), ("lattice_side", int), ("init_total", float)):
        if key in raw and raw[key] is not None:
            kwargs[key] = cast(raw.pop(key))
        else:
            raw.pop(key, None)
    if raw:
        raise ConfigError(f"unknown model keys: {sorted(raw)}")
    spec = ModelSpec(eps_fixed=eps_fixed, **kwargs)
    spec.validate()
    return spec


def load_experiment_config(
    path: str | Path,
    experiment: str,
    *,
    out: str | None = None,
    seed: int | None = None,
    threads: int | None = None,
    strict: bool = False,
) -> ExperimentConfig:
    """Read the config file and apply CLI/env overrides.

    Worker-count precedence: --threads, then KINEX_THREADS, then the file.
    """
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")

    merged = {k: v for k, v in raw.items() if k not in EXPERIMENTS}
    section = raw.get(experiment)
    if section is not None:
        if not isinstance(section, dict):
            raise ConfigError(f"section {experiment!r} must be a mapping")
        for k, v in section.items():
            if k == "model" and isinstance(merged.get("model"), dict) and isinstance(v, dict):
                merged["model"] = {**merged["model"], **v}
            else:
                merged[k] = v

    if threads is None:
        env = os.environ.get("KINEX_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError as e:
                raise ConfigError(f"KINEX_THREADS={env!r} is not an integer") from e

    cfg = ExperimentConfig(
        experiment=experiment,
        model=build_model(merged.get("model"), experiment),
        strict=strict,
    )
    for key, cast in (
        ("n_agents", int),
        ("t_max", int),
        ("n_configs", int),
        ("master_seed", int),
        ("workers", int),
        ("tail_fraction", float),
        ("side", int),
        ("bins", int),
        ("sample_steps", int),
        ("fit_configs", int),
        ("rrn_init", str),
        ("dense_check", bool),
        ("series_csv", str),
        ("fit_x0", float),
    ):
        if key in merged and merged[key] is not None:
            setattr(cfg, key, cast(merged[key]))
    if merged.get("equilibration_steps") is not None:
        cfg.equilibration_steps = int(merged["equilibration_steps"])
    if merged.get("output_dir") is not None:
        cfg.output_dir = Path(merged["output_dir"])
    if merged.get("eps_values") is not None:
        cfg.eps_values = tuple(float(v) for v in merged["eps_values"])
    if merged.get("lambda_windows") is not None:
        cfg.lambda_windows = tuple(_as_window(w, "lambda_windows") for w in merged["lambda_windows"])
    if merged.get("g_windows") is not None:
        cfg.g_windows = tuple(_as_window(w, "g_windows") for w in merged["g_windows"])
    if merged.get("fit_window") is not None:
        lo, hi = merged["fit_window"]
        cfg.fit_window = (int(lo), int(hi))

    if seed is not None:
        cfg.master_seed = seed
    if out is not None:
        cfg.output_dir = Path(out)
    if threads is not None:
        cfg.workers = threads
    if cfg.workers < 1:
        raise ConfigError(f"workers={cfg.workers} must be >= 1")
    if not 0.0 < cfg.tail_fraction <= 0.5:
        raise ConfigError(f"tail_fraction={cfg.tail_fraction} outside (0, 0.5]")
    return cfg


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {k: v for k, v in cfg.__dict__.items() if k != "model"}
    echo["output_dir"] = str(cfg.output_dir)
    echo["model"] = dict(cfg.model.__dict__)
    return echo


def _fit_series(series, tail_fraction, want_pure: bool, want_shifted: bool = True):
    """Standard fit pass: plateau estimate, auto window, then the requested forms.

    Returns (csv_rows, results_by_form); failures become tagged rows.
    """
    rows: list[str] = []
    results: dict[str, object] = {}
    x0, _ = equilibrium_window_stats(series, tail_fraction)
    try:
        window = auto_window(series, x0, tail_fraction)
    except KinexError as e:
        if want_shifted:
            rows.append(fit_error_row(FORM_SHIFTED, None, e))
        if want_pure:
            rows.append(fit_error_row(FORM_PURE, None, e))
        return rows, results
    if want_shifted:
        try:
            fit = fit_shifted(series, window, x0)
            rows.append(fit.csv_row())
            results[FORM_SHIFTED] = fit
        except KinexError as e:
            rows.append(fit_error_row(FORM_SHIFTED, window, e))
    if want_pure:
        try:
            fit = fit_pure(series, window)
            rows.append(fit.csv_row())
            results[FORM_PURE] = fit
        except KinexError as e:
            rows.append(fit_error_row(FORM_PURE, window, e))
    return rows, results


def cmd_relax(cfg: ExperimentConfig) -> list[str]:
    """Single relaxation run: series CSV plus a fit report."""
    manifest = RunManifest(config=_config_echo(cfg), experiment=cfg.experiment)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    series = run_relaxation(
        cfg.model, cfg.n_agents, cfg.t_max, cfg.n_configs, cfg.master_seed, cfg.workers
    )
    series_path = out / "series_relax.csv"
    write_series_csv(series, series_path)
    manifest.record(series_path)

    want_pure = cfg.model.eps_fixed == 0.5
    rows, _ = _fit_series(series, cfg.tail_fraction, want_pure=want_pure)
    fit_path = out / "fit_relax.csv"
    write_fit_csv(fit_path, rows, header_note=f"spec={series.digest_label()}")
    manifest.record(fit_path)
    manifest.close(out)
    return []


def cmd_lambda_family(cfg: ExperimentConfig) -> list[str]:
    """One run per propensity window, with a decay-time table ordered by window mean."""
    if not cfg.lambda_windows:
        raise ConfigError("lambda-family needs a non-empty lambda_windows list")
    manifest = RunManifest(config=_config_echo(cfg), experiment=cfg.experiment)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    windows = sorted(cfg.lambda_windows, key=lambda w: (w[0] + w[1]) / 2)
    tau_rows = []
    taus = []
    for w in windows:
        spec = replace(cfg.model, rule=DISTRIBUTED_SAVING, lambda_window=w)
        series = run_relaxation(
            spec, cfg.n_agents, cfg.t_max, cfg.n_configs, cfg.master_seed, cfg.workers
        )
        series_path = out / f"series_lw_{w[0]:g}_{w[1]:g}.csv"
        write_series_csv(series, series_path)
        manifest.record(series_path)
        _, results = _fit_series(series, cfg.tail_fraction, want_pure=True, want_shifted=False)
        fit = results.get(FORM_PURE)
        if fit is None:
            tau_rows.append({"window_lo": w[0], "window_hi": w[1], "status": "NoFit"})
        else:
            tau_rows.append(
                {
                    "window_lo": w[0],
                    "window_hi": w[1],
                    "tau": fit.tau,
                    "tau_stderr": fit.tau_stderr,
                    "r_squared": fit.r_squared,
                    "status": "ok",
                }
            )
            taus.append(fit.tau)

    violations = []
    if len(taus) == len(windows) and len(taus) > 1:
        if not all(a < b for a, b in zip(taus, taus[1:])):
            violations.append("decay time is not strictly increasing with the window mean")
    elif len(taus) < len(windows):
        violations.append("some windows produced no decay-time fit")
    for v in violations:
        manifest.notes.append(v)

    table_path = out / "tau_table.csv"
    write_tau_table(table_path, tau_rows, header_note="propensity windows, ordered by mean")
    manifest.record(table_path)
    manifest.close(out)
    return violations


def cmd_eps_sweep(cfg: ExperimentConfig) -> list[str]:
    """Plateau estimate per split parameter; marks the minimum."""
    if cfg.model.rule != DISTRIBUTED_SAVING:
        raise ConfigError("eps-sweep is defined for the distributed-saving model")
    if not cfg.eps_values:
        raise ConfigError("eps-sweep needs a non-empty eps_values list")
    manifest = RunManifest(config=_config_echo(cfg), experiment=cfg.experiment)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for eps in sorted(cfg.eps_values):
        spec = replace(cfg.model, eps_fixed=eps)
        series = run_relaxation(
            spec, cfg.n_agents, cfg.t_max, cfg.n_configs, cfg.master_seed, cfg.workers
        )
        series_path = out / f"series_eps_{eps:g}.csv"
        write_series_csv(series, series_path)
        manifest.record(series_path)
        x0, sem = equilibrium_window_stats(series, cfg.tail_fraction)
        rows.append({"eps": eps, "x0": x0, "x0_stderr": sem, "is_argmin": False})

    argmin = min(range(len(rows)), key=lambda i: rows[i]["x0"])
    rows[argmin]["is_argmin"] = True
    manifest.notes.append(f"plateau minimum at eps={rows[argmin]['eps']:g}")

    table_path = out / "x0_table.csv"
    write_x0_table(table_path, rows)
    manifest.record(table_path)
    manifest.close(out)
    return []


def cmd_dist(cfg: ExperimentConfig) -> list[str]:
    """Pooled equilibrium wealth histogram (+ propensity-binned means)."""
    manifest = RunManifest(config=_config_echo(cfg), experiment=cfg.experiment)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    equil = cfg.equilibration_steps
    if equil is None:
        # discard max(5*tau, 50) steps; tau from a reduced-size relaxation fit
        probe = run_relaxation(
            cfg.model,
            cfg.n_agents,
            cfg.t_max,
            min(cfg.fit_configs, cfg.n_configs),
            cfg.master_seed,
            cfg.workers,
        )
        _, results = _fit_series(probe, cfg.tail_fraction, want_pure=False)
        fit = results.get(FORM_SHIFTED)
        equil = max(int(np.ceil(5 * fit.tau)), 50) if fit is not None else 50
        manifest.notes.append(f"equilibration_steps={equil} (auto)")

    pool = run_equilibrium(
        cfg.model,
        cfg.n_agents,
        equil,
        cfg.sample_steps,
        cfg.n_configs,
        cfg.master_seed,
        cfg.workers,
    )
    edges, counts, density = wealth_histogram(pool.wealth, cfg.bins)
    hist_path = out / "hist_wealth.csv"
    write_hist_csv(
        hist_path,
        edges,
        counts,
        density,
        header_note=f"spec={cfg.model.digest()} pooled={pool.wealth.size}",
    )
    manifest.record(hist_path)

    if cfg.model.rule == PURE_GAMBLING:
        try:
            slope, r2 = fit_histogram_slope(edges, counts)
            manifest.notes.append(f"histogram semi-log slope={slope!r} r2={r2!r}")
        except KinexError as e:
            manifest.notes.append(f"histogram slope fit failed: {type(e).__name__}")

    if cfg.model.rule == DISTRIBUTED_SAVING:
        lo, hi, means = lambda_binned_means(
            pool.saving, pool.wealth_time_avg, n_bins=5, window=cfg.model.lambda_window
        )
        bins_path = out / "lambda_bins.csv"
        write_lambda_bins_csv(bins_path, lo, hi, means)
        manifest.record(bins_path)

    manifest.close(out)
    return []


def cmd_rrn(cfg: ExperimentConfig) -> list[str]:
    """Resistor-network relaxation per conductance window, with decay-time table."""
    if not cfg.g_windows:
        raise ConfigError("rrn needs a non-empty g_windows list")
    manifest = RunManifest(config=_config_echo(cfg), experiment=cfg.experiment)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    tau_rows = []
    for w in sorted(cfg.g_windows, key=lambda w: (w[0] + w[1]) / 2):
        series = run_rrn_relaxation(
            cfg.side, w, cfg.t_max, cfg.n_configs, cfg.master_seed, cfg.workers, cfg.rrn_init
        )
        series_path = out / f"series_g_{w[0]:g}_{w[1]:g}.csv"
        write_series_csv(series, series_path, extra={"L": cfg.side, "g_window": f"{w[0]:g}:{w[1]:g}"})
        manifest.record(series_path)
        _, results = _fit_series(series, cfg.tail_fraction, want_pure=True, want_shifted=False)
        fit = results.get(FORM_PURE)
        if fit is None:
            tau_rows.append({"window_lo": w[0], "window_hi": w[1], "status": "NotDecaying"})
        else:
            tau_rows.append(
                {
                    "window_lo": w[0],
                    "window_hi": w[1],
                    "tau": fit.tau,
                    "tau_stderr": fit.tau_stderr,
                    "r_squared": fit.r_squared,
                    "status": "ok",
                }
            )

    if cfg.dense_check:
        lat = build_lattice(cfg.side, cfg.g_windows[0], RngStream(cfg.master_seed, 0), cfg.rrn_init)
        for _ in range(200_000):
            if relax_sweep(lat) < 1e-12:
                break
        exact = solve_kirchhoff_dense(lat)
        gap = float(np.abs(lat.potential[1:-1, :] - exact).max())
        residual = float(np.abs(node_current_residuals(lat)).max())
        manifest.notes.append(f"dense-solver endpoint gap={gap!r} node residual={residual!r}")

    table_path = out / "tau_table.csv"
    write_tau_table(table_path, tau_rows, header_note="conductance windows, ordered by mean")
    manifest.record(table_path)
    manifest.close(out)
    return []


def cmd_fit(cfg: ExperimentConfig) -> list[str]:
    """Re-fit an existing series CSV."""
    if not cfg.series_csv:
        raise ConfigError("fit needs series_csv pointing at a series file")
    manifest = RunManifest(config=_config_echo(cfg), experiment=cfg.experiment)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    series = read_series_csv(cfg.series_csv)
    if cfg.fit_x0 is not None or cfg.fit_window is not None:
        x0 = cfg.fit_x0
        if x0 is None:
            x0, _ = equilibrium_window_stats(series, cfg.tail_fraction)
        window = cfg.fit_window
        if window is None:
            window = auto_window(series, x0, cfg.tail_fraction)
        rows = []
        try:
            rows.append(fit_shifted(series, window, x0).csv_row())
        except KinexError as e:
            rows.append(fit_error_row(FORM_SHIFTED, window, e))
        try:
            rows.append(fit_pure(series, window).csv_row())
        except KinexError as e:
            rows.append(fit_error_row(FORM_PURE, window, e))
    else:
        rows, _ = _fit_series(series, cfg.tail_fraction, want_pure=True)

    fit_path = out / "fit_series.csv"
    write_fit_csv(fit_path, rows, header_note=f"source={Path(cfg.series_csv).name}")
    manifest.record(fit_path)
    manifest.close(out)
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
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config file (YAML)")
        sp.add_argument("--strict", action="store_true", help="nonzero exit on report assertions")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--threads", type=int, default=None, help="worker count (KINEX_THREADS fallback)")
    args = parser.parse_args(argv)

    try:
        cfg = load_experiment_config(
            args.config,
            args.experiment,
            out=args.out,
            seed=args.seed,
            threads=args.threads,
            strict=args.strict,
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
    if violations and cfg.strict:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
