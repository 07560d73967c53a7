"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Settings that a criterion pins (model, sizes, configuration counts, seeds
policy, tolerances) are hard-coded here; remaining knobs (series length, fit
windows where unpinned) use the package defaults noted inline.  Runtime limits
are asserted alongside the substantive checks.
"""

import time

import numpy as np
import yaml

from kinex import (
    ModelSpec,
    RngStream,
    auto_window,
    build_lattice,
    equilibrium_window_stats,
    fit_pure,
    fit_shifted,
    init_ensemble,
    relax_sweep,
    run_relaxation,
    run_rrn_relaxation,
    run_time_step,
    solve_kirchhoff_dense,
)
from kinex.cli import main
from kinex.kernel import library, seed_words
from kinex.distribution import fit_histogram_slope, lambda_binned_means, run_equilibrium, wealth_histogram
from kinex.relaxation import RelaxationSeries

SEED = 20260811
WORKERS = 4

DISTRIBUTED = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0))
BALANCED = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_c01_conservation_over_1e6_interactions():
    t0 = time.perf_counter()
    rng = RngStream(SEED, 0)
    ens = init_ensemble(DISTRIBUTED, 100, rng)
    total0 = ens.total_wealth()
    for _ in range(10_000):  # 10^4 steps x 100 interactions
        run_time_step(ens, DISTRIBUTED, rng)
    drift = abs(ens.total_wealth() - total0) / total0
    elapsed = time.perf_counter() - t0
    ok = drift < 1e-9 and elapsed < 5.0
    report(1, ok, f"wealth drift {drift:.2e} over 1e6 interactions in {elapsed:.2f}s")
    assert drift < 1e-9
    assert elapsed < 5.0


def test_c02_boltzmann_gibbs_histogram():
    t0 = time.perf_counter()
    spec = ModelSpec(rule="pure_gambling")
    pool = run_equilibrium(spec, 100, 200, 0, 500, master_seed=SEED, workers=WORKERS)
    edges, counts, _ = wealth_histogram(pool.wealth, 50)
    slope, r2 = fit_histogram_slope(edges, counts)
    target = -1.0 / pool.wealth.mean()
    rel_err = abs(slope - target) / abs(target)
    elapsed = time.perf_counter() - t0
    ok = rel_err < 0.05 and r2 > 0.98 and elapsed < 30.0
    report(2, ok, f"slope {slope:.4f} vs {target:.4f} ({rel_err:.2%}), r2={r2:.4f}, {elapsed:.1f}s")
    assert rel_err < 0.05
    assert r2 > 0.98
    assert elapsed < 30.0


def test_c03_pure_exponential_at_balanced_split():
    # Known red: the configuration-averaged observable of this model is a
    # superposition of pair rates reaching down to zero, so its semi-log curve
    # is convex on every window the auto selector can return (measured ceiling
    # r2 ~ 0.98 at the minimal 8-point window, ~0.85 at defaults).
    t0 = time.perf_counter()
    series = run_relaxation(BALANCED, 100, 200, 500, master_seed=SEED, workers=WORKERS)
    x0, _ = equilibrium_window_stats(series)
    window = auto_window(series, x0)
    fit = fit_pure(series, window)
    elapsed = time.perf_counter() - t0
    ok = fit.r_squared > 0.99 and elapsed < 60.0
    report(3, ok, f"fit_pure over auto window {window}: r2={fit.r_squared:.4f}, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert fit.r_squared > 0.99, (
        f"r2={fit.r_squared:.4f} <= 0.99: the averaged relaxation mixes decay rates "
        "accumulating at zero, so no initial window is a single exponential"
    )


def test_c04_decay_time_ordering_across_windows():
    t0 = time.perf_counter()
    taus = []
    for window in [(0.0, 1.0), (0.5, 1.0), (0.7, 1.0)]:
        spec = ModelSpec(rule="distributed_saving", lambda_window=window, eps_fixed=0.5)
        series = run_relaxation(spec, 100, 200, 500, master_seed=SEED, workers=WORKERS)
        x0, _ = equilibrium_window_stats(series)
        fit = fit_pure(series, auto_window(series, x0))
        taus.append(fit.tau)
    elapsed = time.perf_counter() - t0
    increasing = all(a < b for a, b in zip(taus, taus[1:]))
    ok = increasing and elapsed < 180.0
    report(4, ok, f"taus {[f'{t:.1f}' for t in taus]} strictly increasing={increasing}, {elapsed:.0f}s")
    assert increasing
    assert elapsed < 180.0


def test_c05_plateau_minimum_at_balanced_split():
    t0 = time.perf_counter()
    stats = {}
    for eps in [0.45, 0.48, 0.5, 0.52, 0.55]:
        spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=eps)
        series = run_relaxation(spec, 100, 200, 500, master_seed=SEED, workers=WORKERS)
        stats[eps] = equilibrium_window_stats(series)
    elapsed = time.perf_counter() - t0
    x0s = {eps: m for eps, (m, _) in stats.items()}
    argmin = min(x0s, key=x0s.get)
    margin = min(v for eps, v in x0s.items() if eps != 0.5) - x0s[0.5]
    sem_max = max(sem for _, sem in stats.values())
    ok = argmin == 0.5 and margin > 3 * sem_max and elapsed < 300.0
    report(5, ok, f"argmin eps={argmin}, margin {margin:.2e} vs 3*sem {3 * sem_max:.2e}, {elapsed:.0f}s")
    assert argmin == 0.5
    assert margin > 3 * sem_max
    assert elapsed < 300.0


def test_c06_decay_rate_positivity_theorem():
    t0 = time.perf_counter()
    g = RngStream(SEED, 9).gen
    lam_i = g.random(1_000_000)
    lam_j = g.random(1_000_000)
    k = 1.0 - 0.5 * (lam_i + lam_j)
    violations = int(np.count_nonzero(k <= 0.0))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 1.0
    report(6, ok, f"{violations} non-positive rates in 1e6 sampled pairs, {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 1.0


def test_c07_rrn_exponential_relaxation():
    # the criterion pins L, the conductance windows, the realization count and
    # the tolerances; the fit window is free and is pre-registered here as the
    # post-transient stretch [1500, 4500] of a 5000-sweep series (about 1.2 to
    # 3.6 decay times), where the decay claim applies
    t0 = time.perf_counter()
    fits = []
    for g_window in [(0.0, 1.0), (0.2, 1.0), (0.5, 1.0)]:
        series = run_rrn_relaxation(100, g_window, 5000, 20, master_seed=SEED, workers=WORKERS)
        fits.append(fit_pure(series, (1500, 4500)))
    elapsed = time.perf_counter() - t0
    r2_ok = all(f.r_squared > 0.99 for f in fits)
    distinct = all(
        abs(fits[a].tau - fits[b].tau) > np.hypot(fits[a].tau_stderr, fits[b].tau_stderr)
        for a in range(3)
        for b in range(a + 1, 3)
    )
    ok = r2_ok and distinct and elapsed < 120.0
    report(
        7,
        ok,
        f"taus {[f'{f.tau:.0f}' for f in fits]}, min r2 {min(f.r_squared for f in fits):.5f}, "
        f"distinct={distinct}, {elapsed:.0f}s",
    )
    assert r2_ok
    assert distinct
    assert elapsed < 120.0


def test_c08_rrn_fixed_point_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for c in range(10):
        lat = build_lattice(10, (0.0, 1.0), seed_words(library(), SEED, c, c + 1)[0])
        for _ in range(20_000):
            if relax_sweep(lat) < 1e-13:
                break
        exact = solve_kirchhoff_dense(lat)
        worst = max(worst, float(np.abs(lat.potential[1:-1, :] - exact).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    report(8, ok, f"max gap to dense solve {worst:.2e} over 10 realizations, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_c09_wealth_propensity_monotonicity():
    t0 = time.perf_counter()
    pool = run_equilibrium(DISTRIBUTED, 100, 100, 100, 200, master_seed=SEED, workers=WORKERS)
    _, _, means = lambda_binned_means(pool.saving, pool.wealth_time_avg, n_bins=5, window=(0.0, 1.0))
    elapsed = time.perf_counter() - t0
    monotone = bool(np.all(np.diff(means) >= 0.0))
    ok = monotone and elapsed < 60.0
    report(9, ok, f"binned mean wealth {[f'{m:.2f}' for m in means]}, {elapsed:.0f}s")
    assert monotone
    assert elapsed < 60.0


def test_c10_thread_count_reproducibility(tmp_path):
    cfg_file = tmp_path / "exp.yaml"
    cfg_file.write_text(
        yaml.safe_dump(
            {
                "n_agents": 100,
                "t_max": 200,
                "n_configs": 500,
                "master_seed": SEED,
                "model": {"rule": "distributed_saving", "lambda_window": [0.0, 1.0], "epsilon": 0.5},
                "lambda-family": {"lambda_windows": [[0.0, 1.0], [0.5, 1.0], [0.7, 1.0]]},
                "eps-sweep": {"eps_values": [0.45, 0.48, 0.5, 0.52, 0.55]},
            }
        ),
        encoding="utf-8",
    )
    runs = ("relax", "lambda-family", "eps-sweep")
    mismatches = []
    for name in runs:
        outputs = {}
        for workers in (1, 4):
            out = tmp_path / f"{name}-w{workers}"
            main([name, "--config", str(cfg_file), "--out", str(out), "--threads", str(workers)])
            outputs[workers] = {
                p.name: p.read_bytes() for p in sorted(out.glob("series_*.csv"))
            }
        if outputs[1] != outputs[4]:
            mismatches.append(name)
        if not outputs[1]:
            mismatches.append(f"{name}: no series written")
    ok = not mismatches
    report(10, ok, f"byte-identical series across workers 1 vs 4: {sorted(runs)}")
    assert not mismatches, mismatches


def test_c11_fit_oracle_synthetic_taus():
    t0 = time.perf_counter()
    worst = 0.0
    for tau in [2.0, 10.0, 25.0, 100.0]:
        t = np.arange(1, 201)
        window = (2, min(180, int(15 * tau)))  # keep the residual above float resolution
        series = RelaxationSeries(
            t=t, x_mean=1.7 * np.exp(-t / tau), n_configs=1, n_agents=1, master_seed=0
        )
        fit = fit_pure(series, window)
        worst = max(worst, abs(fit.tau - tau) / tau)
        shifted = RelaxationSeries(
            t=t, x_mean=0.9 - 0.4 * np.exp(-t / tau), n_configs=1, n_agents=1, master_seed=0
        )
        sfit = fit_shifted(shifted, window, 0.9)
        worst = max(worst, abs(sfit.tau - tau) / tau)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6
    report(11, ok, f"max relative tau error {worst:.2e} for taus 2/10/25/100, {elapsed:.2f}s")
    assert worst < 1e-6
