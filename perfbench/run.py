#!/usr/bin/env python3
"""kinex benchmark: four subcommand workloads, end-to-end and per-layer metrics.

Run from the repository root (no install needed; kinex is imported from ./src):

    python3 perfbench/run.py --workload relax-n100 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced
    python3 perfbench/run.py --list              # every metric with its unit, and the layer map
    python3 -m pytest perfbench -q               # smoke test at tiny sizes

Each repetition runs ``kinex.cli.main`` in a fresh interpreter (child.py) on a
generated config, always with ``--out`` into a temporary directory inside the
checkout and an explicit ``--threads``; ``KINEX_THREADS`` is cleared.  The
first repetition of every run uses the preset master seed 20260811, whose
output digests are pinned in reference.json; later repetitions use master
seeds drawn from ``--seed``.  Every repetition is checked (exit code, manifest
digests, fit status, plateau and decay times against the reference in the
run's own standard errors); a repetition failing any check counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over repetitions, no
spans).  The speed of a shared host drifts by tens of percent within seconds
(CPU time follows wall time, so it is not scheduling).  Every repetition
therefore also times a fixed reference loop that does not involve kinex, just
before and just after the handler and at the run's worker count, and run_s is
rescaled by (pinned loop time / measured loop time).  Set-up is mostly the
import of numpy, whose speed moves by up to 3x within minutes and not in step
with a compute loop.  So setup_s is rescaled the same way by the time a fresh
interpreter takes to import kinex's dependencies (numpy and yaml), taken just
before and just after each repetition.  Both are seconds at the host speed
recorded in reference.json.  The raw times and reference times are printed on
the "# env" line.

``--trace 1`` runs cycles of three passes on one master seed: subcommand-level
spans at 1 worker, all spans at 1 worker (kernel spans are lost inside forked
pool workers), and subcommand-level spans at the workload's worker count.  It
reports the per-layer metrics, unscaled, as medians over cycles.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PRESET_SEED = 20260811
MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # start no repetition that would end past this
DEP_IMPORT = "import time; t = time.perf_counter(); import numpy, yaml; print(time.perf_counter() - t)"

DS_MODEL = {
    "rule": "distributed_saving",
    "lambda_window": [0.0, 1.0],
    "epsilon": 0.5,
    "pairing": "mean_field",
    "init": "equal_unit",
}
LATTICE_MODEL = {
    "rule": "pure_gambling",
    "epsilon": "uniform",
    "pairing": "lattice2d",
    "lattice_side": 32,
    "init": "equal_unit",
}

# Why each workload exists is recorded in BENCHMARK.json.  "reference_loop" is
# the kind of fixed work (child.py) whose timing rescales this workload's times;
# "tiny" overrides are for the smoke test only.
WORKLOADS = {
    "relax-n100": {
        "reference_loop": "python",
        "experiment": "relax",
        "workers": 1,
        "config": {"n_agents": 100, "t_max": 200, "n_configs": 100, "model": DS_MODEL},
        "tiny": {"n_configs": 3},
    },
    "lambda-family-n1000": {
        "reference_loop": "python",
        "experiment": "lambda-family",
        "workers": 2,
        "config": {
            "n_agents": 1000,
            "t_max": 200,
            "n_configs": 10,
            "model": DS_MODEL,
            "lambda_windows": [[0.0, 1.0], [0.5, 1.0], [0.7, 1.0]],
        },
        "tiny": {"n_agents": 40, "t_max": 40, "n_configs": 2},
    },
    "rrn-L100": {
        "reference_loop": "numpy",
        "experiment": "rrn",
        "workers": 1,
        "config": {
            "side": 100,
            "t_max": 5000,
            "n_configs": 2,
            "g_windows": [[0.0, 1.0]],
            "rrn_init": "half",
            "dense_check": False,
        },
        "tiny": {"side": 8, "t_max": 60, "n_configs": 2},
    },
    "dist-lattice-n1024": {
        "reference_loop": "python",
        "experiment": "dist",
        "workers": 2,
        "config": {
            "n_agents": 1024,
            "n_configs": 60,
            "equilibration_steps": 100,
            "sample_steps": 20,
            "bins": 50,
            "model": LATTICE_MODEL,
        },
        "tiny": {"n_agents": 64, "n_configs": 2, "model": {**LATTICE_MODEL, "lattice_side": 8}},
    },
}


# ---------------------------------------------------------------- inputs


def workload_config(name: str, master_seed: int, tiny: bool) -> dict:
    wl = WORKLOADS[name]
    cfg = {**wl["config"], **(wl["tiny"] if tiny else {})}
    cfg["master_seed"] = master_seed
    return cfg


def _windows(cfg: dict, key: str) -> list:
    return [(float(lo), float(hi)) for lo, hi in cfg[key]]


def updates(experiment: str, cfg: dict) -> int:
    """Elementary updates of one run: pair interactions, or interior node updates for rrn."""
    if experiment == "relax":
        return cfg["n_configs"] * cfg["t_max"] * cfg["n_agents"]
    if experiment == "lambda-family":
        return len(cfg["lambda_windows"]) * cfg["n_configs"] * cfg["t_max"] * cfg["n_agents"]
    if experiment == "rrn":
        side = cfg["side"]
        return len(cfg["g_windows"]) * cfg["n_configs"] * cfg["t_max"] * (side - 2) * side
    if experiment == "dist":
        steps = cfg["equilibration_steps"] + cfg["sample_steps"]
        return cfg["n_configs"] * steps * cfg["n_agents"]
    raise ValueError(experiment)


def rng_calls(experiment: str, cfg: dict) -> int:
    """Per-step stream calls, computed from the inputs: 2 with a fixed eps, 3 with eps uniform."""
    if experiment == "rrn":
        return 0
    per_step = 3 if cfg["model"].get("epsilon") in (None, "uniform") else 2
    return per_step * updates(experiment, cfg) // cfg["n_agents"]


def expected_outputs(experiment: str, cfg: dict) -> set:
    if experiment == "relax":
        return {"series_relax.csv", "fit_relax.csv"}
    if experiment == "lambda-family":
        return {f"series_lw_{lo:g}_{hi:g}.csv" for lo, hi in _windows(cfg, "lambda_windows")} | {
            "tau_table.csv"
        }
    if experiment == "rrn":
        return {f"series_g_{lo:g}_{hi:g}.csv" for lo, hi in _windows(cfg, "g_windows")} | {
            "tau_table.csv"
        }
    return {"hist_wealth.csv"}


def master_seeds(seed: int):
    """The pinned preset seed first, then master seeds drawn from the benchmark seed."""
    yield PRESET_SEED
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**32)


# ---------------------------------------------------------------- checks


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _csv_rows(path: Path) -> list:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            rows.append(line.split(","))
    return rows[1:]  # drop the column header


def _ols(xs: list, ys: list) -> tuple:
    """Least-squares slope and its standard error."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    ss_res = sum((y - my - slope * (x - mx)) ** 2 for x, y in zip(xs, ys))
    return slope, math.sqrt(ss_res / (n - 2) / sxx)


def _close(a: float, b: float, rel: float = 1e-6) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _series(path: Path) -> tuple:
    rows = _csv_rows(path)
    return [int(r[0]) for r in rows], [float(r[1]) for r in rows]


def quantities(experiment: str, cfg: dict, out: Path, problems: list) -> dict:
    """Checked scientific outputs of one run, each as (value, own standard error).

    Standard errors come from the run itself: the plateau's tail standard error
    widened for the tail's lag-1 autocorrelation, the tau_stderr column, or an
    independent least-squares recomputation of the reported fit, which must
    also reproduce the reported value.
    """
    q = {}
    if experiment == "relax":
        t, x = _series(out / "series_relax.csv")
        tail = x[-max(1, round(len(x) * 0.25)) :]
        x0 = statistics.fmean(tail)
        dev = [v - x0 for v in tail]
        rho = sum(a * b for a, b in zip(dev, dev[1:])) / sum(a * a for a in dev)
        rho = min(max(rho, 0.0), 0.99)
        sem = statistics.stdev(tail) / math.sqrt(len(tail))
        q["x0"] = (x0, sem * math.sqrt((1 + rho) / (1 - rho)))
        for form, t_lo, t_hi, fx0, _amp, tau, _r2, status in _csv_rows(out / "fit_relax.csv"):
            if status != "ok":
                problems.append(f"fit {form} status {status}")
                continue
            sel = [(ti, xi) for ti, xi in zip(t, x) if int(t_lo) <= ti <= int(t_hi)]
            if form == "shifted_approach":
                if not _close(float(fx0), x0, 1e-9):
                    problems.append(f"fit x0 {fx0} differs from the series plateau {x0!r}")
                ys = [math.log(abs(float(fx0) - xi)) for _, xi in sel]
            else:
                ys = [math.log(xi) for _, xi in sel]
            slope, se = _ols([float(ti) for ti, _ in sel], ys)
            if not _close(-1.0 / slope, float(tau)):
                problems.append(f"fit {form} tau {tau} not reproduced ({-1.0 / slope!r})")
            q[f"tau.{form}"] = (float(tau), se / slope**2)
    elif experiment in ("lambda-family", "rrn"):
        for lo, hi, tau, tau_se, _r2, status in _csv_rows(out / "tau_table.csv"):
            if status != "ok":
                problems.append(f"tau row {lo}:{hi} status {status}")
                continue
            q[f"tau.{float(lo):g}_{float(hi):g}"] = (float(tau), float(tau_se))
    else:
        rows = _csv_rows(out / "hist_wealth.csv")
        counts = [int(r[2]) for r in rows]
        if sum(counts) != cfg["n_configs"] * cfg["n_agents"]:
            problems.append(f"histogram holds {sum(counts)} samples")
        total = sum(counts)
        width = float(rows[0][1]) - float(rows[0][0])
        used = [(0.5 * (float(r[0]) + float(r[1])), int(r[2])) for r in rows if int(r[2]) >= 10]
        slope, se = _ols([c for c, _ in used], [math.log(n / (total * width)) for _, n in used])
        notes = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["notes"]
        reported = [n for n in notes if n.startswith("histogram semi-log slope=")]
        if not reported or not _close(float(reported[0].split("=")[1].split()[0]), slope):
            problems.append(f"histogram slope note {reported} not reproduced ({slope!r})")
        q["slope"] = (slope, se)
    return q


def check_run(wl_name: str, cfg: dict, out: Path, report: dict | None,
              reference: dict | None) -> tuple:
    """Return (problems, output digests, quantities) for one repetition.

    With a ``reference`` (see load_reference), each quantity must lie within
    ``tolerance_se`` of its own standard errors from the pinned value.
    """
    if report is None:
        return ["child wrote no report"], {}, {}
    if report["exit_code"] != 0:
        return [f"exit code {report['exit_code']}"], {}, {}
    experiment = WORKLOADS[wl_name]["experiment"]
    problems = []
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        listed = manifest["outputs"]
        if set(listed) != expected_outputs(experiment, cfg):
            problems.append(f"manifest lists {sorted(listed)}")
        for name, want in listed.items():
            path = out / name
            if not path.is_file():
                problems.append(f"{name} missing")
            elif digest(path.read_bytes()) != want:
                problems.append(f"{name} digest mismatch")
        q = quantities(experiment, cfg, out, problems)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as e:
        return problems + [f"unreadable outputs: {type(e).__name__}: {e}"], {}, {}
    if reference is not None:
        k = reference["tolerance_se"]
        for key, want in reference["quantities"].items():
            if key not in q:
                problems.append(f"{key} not produced")
                continue
            value, se = q[key]
            if not abs(value - want) <= k * se:
                problems.append(f"{key}={value!r} is {abs(value - want) / se:.1f} se from {want!r}")
    return problems, dict(listed), q


def load_reference(wl_name: str) -> dict:
    """The workload's pinned digests and quantities, with the shared tolerance."""
    pinned = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return {**pinned["workloads"][wl_name], "tolerance_se": pinned["tolerance_se"]}


# ---------------------------------------------------------------- children


def dep_import_s(env: dict) -> float:
    """Seconds a fresh interpreter takes to import numpy and yaml: the reference for setup_s."""
    out = subprocess.run([sys.executable, "-c", DEP_IMPORT], env=env, capture_output=True,
                         text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(out.stdout)


def run_child(wl_name: str, work: Path, tag: str, master_seed: int, workers: int,
              trace: str, tiny: bool, reference: dict | None,
              streams_micro: bool = False) -> dict:
    """One kinex invocation in a fresh interpreter; returns the checked repetition."""
    wl = WORKLOADS[wl_name]
    cfg = workload_config(wl_name, master_seed, tiny)
    rep_dir = work / tag
    rep_dir.mkdir()
    config_path = rep_dir / "config.json"  # JSON is YAML, so the CLI reads it as is
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = rep_dir / "out"
    job = {
        "src": str(SRC),
        "config": str(config_path),
        "experiment": wl["experiment"],
        "out": str(out),
        "threads": workers,
        "trace": trace,
        "reference_loop": wl["reference_loop"],
        "model": cfg.get("model", DS_MODEL),  # for the streams micro-measure
        "micro_seed": master_seed,
        "streams_micro": streams_micro,
        "report": str(rep_dir / "report.json"),
        "argv": [wl["experiment"], "--config", str(config_path), "--out", str(out),
                 "--threads", str(workers)],
    }
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "KINEX_THREADS"}
    dep_before = dep_import_s(env) if trace == "none" else None
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                            cwd=rep_dir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True, text=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err = f"timed out after {CHILD_TIMEOUT_S} s\n{err}"
    dep_s = (dep_before + dep_import_s(env)) / 2 if trace == "none" else None
    report = None
    if (rep_dir / "report.json").is_file():
        report = json.loads((rep_dir / "report.json").read_text(encoding="utf-8"))
        if not Path(report["kinex_file"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"perfbench: kinex came from {report['kinex_file']}, not {SRC}")
    problems, digests, q = check_run(wl_name, cfg, out, report, reference)
    if problems and err:
        problems.append("stderr: " + err.strip().splitlines()[-1])
    shutil.rmtree(rep_dir)
    for p in problems:
        print(f"perfbench: {wl_name} {tag} seed={master_seed}: {p}", file=sys.stderr)
    return {"cfg": cfg, "report": report or {}, "problems": problems, "digests": digests,
            "quantities": q, "master_seed": master_seed, "dep_import_s": dep_s}


# ---------------------------------------------------------------- spans


def span_table(spans: list) -> dict:
    """Per span name: count, inclusive and self seconds, work units and calls that returned."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _w, _ok in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {}
    for i, (name, start, end, _p, work, ok) in enumerate(spans):
        row = table.setdefault(name, {"count": 0, "incl": 0.0, "self": 0.0, "work": 0, "ok": 0})
        row["count"] += 1
        row["incl"] += end - start
        row["self"] += end - start - child_time[i]
        row["work"] += work
        row["ok"] += int(ok)
    return table


def _get(table: dict, names, field: str):
    return sum(table.get(n, {}).get(field, 0) for n in names)


SIMULATE = ("cli.run_relaxation", "cli.run_rrn_relaxation", "cli.run_equilibrium")
FITS = ("cli.fit_shifted", "cli.fit_pure")
FIT_PASS = FITS + ("cli.auto_window", "cli.equilibrium_window_stats")
WRITERS = tuple("cli." + w for w in ("write_series_csv", "write_fit_csv", "write_hist_csv",
                                     "write_lambda_bins_csv", "write_tau_table", "write_x0_table"))
STEP = ("relaxation.run_time_step", "distribution.run_time_step")
INIT = ("relaxation.init_ensemble", "distribution.init_ensemble")


def cycle_metrics(one: dict, full: dict, at_w: dict, workers: int) -> dict:
    """Per-layer metrics from one traced cycle (outer@1, full@1, outer@W)."""
    f = span_table(full["report"]["spans"])
    o = span_table(at_w["report"]["spans"])
    o1 = span_table(one["report"]["spans"])
    step_s = _get(f, STEP, "self")
    interactions = _get(f, STEP, "work")
    sweep_s = _get(f, ("rrn.relax_sweep",), "self")
    sweeps = _get(f, ("rrn.relax_sweep",), "count")
    attempted = _get(o, FITS, "count")
    fits_ok = _get(o, FITS, "ok")
    sim_w = _get(o, SIMULATE, "incl")
    return {
        "exchange.step_s": step_s,
        "exchange.steps": _get(f, STEP, "count"),
        "exchange.interactions": interactions,
        "exchange.interactions_per_s": interactions / step_s if step_s else 0.0,
        "exchange.init_s": _get(f, INIT, "self"),
        "streams.draw_us_per_step_n100": full["report"]["streams_us"]["100"],
        "streams.draw_us_per_step_n1000": full["report"]["streams_us"]["1000"],
        "relaxation.simulate_s": _get(o, ("cli.run_relaxation",), "incl"),
        "relaxation.configs": _get(o, ("cli.run_relaxation",), "work"),
        "fanout.efficiency": _get(o1, SIMULATE, "incl") / (workers * sim_w) if sim_w else 0.0,
        "distribution.equilibrate_s": _get(o, ("cli.run_equilibrium",), "incl"),
        "distribution.histogram_s": _get(o, ("cli.wealth_histogram",), "incl"),
        "rrn.simulate_s": _get(o, ("cli.run_rrn_relaxation",), "incl"),
        "rrn.sweep_us": sweep_s / sweeps * 1e6 if sweeps else 0.0,
        "rrn.sweeps": sweeps,
        "rrn.node_updates_per_s": _get(f, ("rrn.relax_sweep",), "work") / sweep_s
        if sweep_s else 0.0,
        "rrn.build_s": _get(f, ("rrn.build_lattice",), "self"),
        "expfit.fit_s": _get(o, FIT_PASS, "incl"),
        "expfit.fits_attempted": attempted,
        "expfit.fits_ok": fits_ok,
        "expfit.ok_ratio": fits_ok / attempted if attempted else 1.0,
        "reports.write_s": _get(o, WRITERS, "incl"),
        "reports.files": _get(o, WRITERS, "count"),
        "reports.bytes_written": _get(o, WRITERS, "work"),
        "trace.overhead_ratio": full["report"]["run_s"] / one["report"]["run_s"],
    }


def self_time_sum(spans: list) -> float:
    """Self seconds of every span below the subcommand handler (the root, whose time is run_s)."""
    return sum(row["self"] for name, row in span_table(spans).items() if name != "cli.handler")


# ---------------------------------------------------------------- measuring


@contextlib.contextmanager
def private_work_dir():
    """A private directory under the checkout's .perfbench_tmp, removed afterwards."""
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is using it


def _stop(t_start: float, t_rep: float, seconds: float) -> bool:
    """True once ``seconds`` have passed, or when one more repetition would overrun the budget."""
    now = time.perf_counter()
    return now - t_start >= seconds or now - t_start + 1.5 * (now - t_rep) > RUN_BUDGET_S


def measure(wl_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload for ``seconds``; return the result object and run details."""
    wl = WORKLOADS[wl_name]
    workers = wl["workers"]
    experiment = wl["experiment"]
    reference = None if tiny else load_reference(wl_name)
    seeds = master_seeds(seed)
    reps = []
    t_start = time.perf_counter()
    with private_work_dir() as work:
        if not trace:
            while True:
                t0 = time.perf_counter()
                reps.append(run_child(wl_name, work, f"r{len(reps)}", next(seeds), workers,
                                      "none", tiny, reference))
                if len(reps) >= MIN_REPS and _stop(t_start, t0, seconds):
                    break
        else:
            cycles = []
            while True:
                t0 = time.perf_counter()
                s = next(seeds)
                k = len(cycles)
                one = run_child(wl_name, work, f"c{k}a", s, 1, "outer", tiny, reference)
                full = run_child(wl_name, work, f"c{k}b", s, 1, "full", tiny, reference,
                                 streams_micro=True)
                at_w = one if workers == 1 else run_child(wl_name, work, f"c{k}c", s, workers,
                                                          "outer", tiny, reference)
                reps.extend([one, full] if workers == 1 else [one, full, at_w])
                cycles.append((one, full, at_w))
                if _stop(t_start, t0, seconds):
                    break

    failed = sum(1 for r in reps if r["problems"])
    ok = [r for r in reps if not r["problems"]]
    if not ok:
        raise SystemExit(f"perfbench: every repetition of {wl_name} failed")
    pinned = {} if tiny else reference["digests"]
    anchor = reps[0]["digests"]
    bit_identical = sum(1 for name, d in pinned.items() if anchor.get(name) == d)
    info = {"master_seeds": sorted({r["master_seed"] for r in reps}),
            "start_method": ok[0]["report"]["start_method"],
            "numpy": ok[0]["report"].get("numpy"),
            "outputs_pinned": len(pinned), "outputs_bit_identical": bit_identical}
    cfg = ok[0]["cfg"]
    if not trace:
        loop_s = [r["report"]["reference_loop_s"] for r in ok]
        speed = [reference["reference_loop_s"] / t if reference else 1.0 for t in loop_s]
        run_s = [r["report"]["run_s"] * f for r, f in zip(ok, speed)]
        setup_s = [r["report"]["setup_s"] * (reference["dep_import_s"] / r["dep_import_s"]
                                             if reference else 1.0) for r in ok]
        n_updates = updates(experiment, cfg)
        metrics = {
            "updates_per_s": (statistics.median([n_updates / t for t in run_s]), "1/s"),
            "run_s": (statistics.median(run_s), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (statistics.median([r["report"]["maxrss_kb"] / 1024 for r in ok]), "MB"),
        }
        info["run_s_raw"] = [r["report"]["run_s"] for r in ok]
        info["reference_loop_s"] = loop_s
        info["setup_s_raw"] = [r["report"]["setup_s"] for r in ok]
        info["dep_import_s"] = [r["dep_import_s"] for r in ok]
    else:
        good = [c for c in cycles if not any(r["problems"] for r in c)]
        if not good:
            raise SystemExit(f"perfbench: every traced cycle of {wl_name} failed")
        per_cycle = [cycle_metrics(*c, workers) for c in good]
        units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
        # median_low keeps counts whole: each value is one cycle's
        metrics = {name: (statistics.median_low([c[name] for c in per_cycle]), units[name])
                   for name in per_cycle[0]}
        load_s = [r["report"]["config_load_s"] for r in ok]
        metrics["cli.config_load_s"] = (statistics.median(load_s), "s")
        metrics["streams.rng_calls"] = (rng_calls(experiment, cfg), "count")
        metrics["check.outputs_bit_identical"] = (bit_identical, "count")
        info["self_time_sum_s"] = [self_time_sum(c[1]["report"]["spans"]) for c in good]
        info["traced_run_s"] = [c[1]["report"]["run_s"] for c in good]
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "info": info}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "seed": seed}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def list_metrics() -> None:
    bench = load_benchmark()
    for m in bench["end_to_end"]:
        print(f"end_to_end {m['name']:<32} {m['unit']:<6} better={m['better']} bound={m['bound']}")
    for m in bench["per_layer"]:
        print(f"per_layer  {m['name']:<32} {m['unit']:<6} better={m['better']}")
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    for row in layers["layers"]:
        moves = (f"{', '.join(row['moves'])} on {', '.join(row['workloads'])}" if row["moves"]
                 else "no end-to-end metric")
        print(f"layer {row['layer']}: {', '.join(row['metrics'])} -> {moves}; {row['note']}")
    for layer, why in layers["unmeasured"].items():
        print(f"layer {layer}: no metric; {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kinex benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=PRESET_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and the layer map")
    args = parser.parse_args(argv)
    if not (SRC / "kinex" / "cli.py").is_file():
        print(f"perfbench: no kinex sources under {SRC}", file=sys.stderr)
        return 2
    if args.list:
        list_metrics()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    for name in names:
        if WORKLOADS[name]["workers"] > env["nproc"]:
            print(f"perfbench: {name} needs {WORKLOADS[name]['workers']} workers, "
                  f"nproc is {env['nproc']}", file=sys.stderr)
            return 2
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    for name in names:
        for trace in traces:
            run = measure(name, args.seed, seconds, trace)
            record = {**env, **run["info"], "workload": name, "trace": int(trace),
                      "workers": WORKLOADS[name]["workers"]}
            print("# env " + json.dumps(record))
            results.append((name, run["result"]))
    if len(results) == 1:
        print(json.dumps(results[0][1]))
        return 0
    for name, res in results:
        for metric, mv in res["metrics"].items():
            print(f"{name:<20} {metric:<32} {mv['value']:.6g} {mv['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{n}/{k}": v for n, r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
