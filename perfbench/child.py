"""One timed kinex CLI invocation in a fresh interpreter.

Usage: python3 child.py JOB.json

The job file names the source tree, the config, the CLI argv, the trace level
("none", "outer" or "full") and where to write the report.  The child times
``import kinex.cli`` plus ``load_experiment_config`` (the set-up every CLI user
pays), then calls ``kinex.cli.main`` with the subcommand handler wrapped by a
timer, between two timings of a fixed reference loop that track the host's
speed.  With tracing on it replaces public functions in the module namespace
their caller looks them up in, so every call records a span (name, start, end,
parent).  Spans stay in memory and are written with the report at the end.
"""

import json
import os
import sys
import time


def _now():
    return time.perf_counter()


# Functions looked up in kinex.cli by the subcommand handlers.
OUTER = (
    "run_relaxation",
    "run_rrn_relaxation",
    "run_equilibrium",
    "auto_window",
    "fit_shifted",
    "fit_pure",
    "equilibrium_window_stats",
    "wealth_histogram",
    "write_series_csv",
    "write_fit_csv",
    "write_hist_csv",
    "write_lambda_bins_csv",
    "write_tau_table",
    "write_x0_table",
)
# Kernel functions, looked up in the module that runs the per-configuration loop.
KERNEL = (
    ("relaxation", "run_time_step"),
    ("relaxation", "init_ensemble"),
    ("distribution", "run_time_step"),
    ("distribution", "init_ensemble"),
    ("rrn", "relax_sweep"),
    ("rrn", "build_lattice"),
)


class Tracer:
    """In-memory span recorder: [name, start, end, parent, work, ok] per span."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def traced(self, fn, name, work=None):
        """``fn`` wrapped to record a span per call, with ``work(args)`` units of work."""

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0, True]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = _now()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = False
                raise
            finally:
                rec[2] = _now()
                self.stack.pop()
            if work is not None:
                rec[4] = work(args)
            return out

        return wrapper

    def wrap(self, module, attr, name, work=None):
        setattr(module, attr, self.traced(getattr(module, attr), name, work))


def _written_bytes(args):
    return next(os.path.getsize(a) for a in args if isinstance(a, (str, os.PathLike)))


# Work units recorded at the span boundary: agents per step, interior nodes
# per sweep, configurations per simulate call, bytes per written file.
WORK = {
    "run_time_step": lambda a: a[0].n_agents,
    "relax_sweep": lambda a: a[0].n_interior(),
    "run_relaxation": lambda a: a[3],
    "run_rrn_relaxation": lambda a: a[3],
    "run_equilibrium": lambda a: a[4],
}


def _work_fn(attr):
    return _written_bytes if attr.startswith("write_") else WORK.get(attr)


def _streams_micro(job):
    """Median microseconds per stream-step of draws, on a fresh RngStream per repeat.

    A stream-step is kinex's own pair draw (``exchange._draw_pairs``) plus the
    split-parameter draw of ``run_time_step`` when eps is redrawn, for the
    workload's model (relax's model on rrn, which has none).  On a lattice the
    agent count is the nearest square, so "1000" is 32 x 32 = 1024 agents.
    """
    import dataclasses

    from kinex import cli, exchange
    from kinex.streams import RngStream

    spec = cli.build_model(job["model"], job["experiment"])
    out = {}
    for n, steps in ((100, 2000), (1000, 1000)):
        if spec.pairing == exchange.LATTICE_2D:
            side = round(n**0.5)
            spec = dataclasses.replace(spec, lattice_side=side)
            n_agents = side * side
        else:
            n_agents = n
        samples = []
        for rep in range(5):
            g = RngStream(job["micro_seed"], rep).gen
            t0 = _now()
            for _ in range(steps):
                exchange._draw_pairs(spec, n_agents, g)
                if spec.eps_fixed is None:
                    g.random(n_agents).tolist()
            samples.append((_now() - t0) / steps * 1e6)
        samples.sort()
        out[str(n)] = samples[len(samples) // 2]
    return out


def _reference_loop(kind):
    """Seconds for fixed work that does not involve kinex, to track the host's speed.

    "python" mimics the exchange loop (list indexing and float arithmetic),
    "numpy" the resistor-lattice stencil.
    """
    t0 = _now()
    if kind == "numpy":
        import numpy as np

        a = np.full((100, 100), 0.5)
        for _ in range(1300):
            a[1:-1] = 0.25 * (a[:-2] + a[2:] + np.roll(a[1:-1], 1, 1) + np.roll(a[1:-1], -1, 1))
    else:
        w = [1.0] * 100
        for k in range(900_000):
            i = k % 100
            j = (k * 37 + 11) % 100
            total = w[i] + w[j]
            new_i = 0.5 * total
            w[i] = new_i
            w[j] = total - new_i
    return _now() - t0


def _loop_time(kind, workers):
    """Reference-loop seconds at the run's worker count.

    With several workers, the loop runs in that many processes at once and the
    harmonic mean of their times is taken, because pool work goes to whichever
    worker is free.  The pool forks, as kinex's own pools do on Linux.
    """
    if workers == 1:
        return _reference_loop(kind)
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(workers) as pool:
        times = pool.map(_reference_loop, [kind] * workers)
    return workers / sum(1 / t for t in times)


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])

    t0 = _now()
    import kinex.cli as cli

    t1 = _now()
    cli.load_experiment_config(
        job["config"], job["experiment"], out=job["out"], threads=job["threads"]
    )
    t2 = _now()

    tracer = Tracer()
    if job["trace"] in ("outer", "full"):
        for attr in OUTER:
            tracer.wrap(cli, attr, "cli." + attr, _work_fn(attr))
    if job["trace"] == "full":
        import importlib

        for mod_name, attr in KERNEL:
            mod = importlib.import_module("kinex." + mod_name)
            tracer.wrap(mod, attr, mod_name + "." + attr, _work_fn(attr))
    # The handler span is recorded at every trace level: its duration is run_s.
    handlers = cli.HANDLERS
    handlers[job["experiment"]] = tracer.traced(handlers[job["experiment"]], "cli.handler")
    loop_before = _loop_time(job["reference_loop"], job["threads"])
    try:
        code = cli.main(job["argv"])
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:  # report the crash as a failed run, like an uncaught exit
        import traceback

        traceback.print_exc()
        code = 1

    import multiprocessing
    import resource

    # Read before the second loop, whose forked processes would count as children.
    maxrss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    loop_after = _loop_time(job["reference_loop"], job["threads"])
    report = {
        "exit_code": code,
        "reference_loop_s": (loop_before + loop_after) / 2,
        "run_s": next((end - start for name, start, end, *_ in tracer.spans
                       if name == "cli.handler"), None),
        "setup_s": t2 - t0,
        "config_load_s": t2 - t1,
        "maxrss_kb": maxrss_kb,
        "start_method": multiprocessing.get_start_method(),
        "numpy": sys.modules["numpy"].__version__,
        "kinex_file": cli.__file__,
        "spans": tracer.spans,
    }
    if job.get("streams_micro"):
        report["streams_us"] = _streams_micro(job)
    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
