"""Every table kinex writes, the series reader, and the run manifest, which
owns the run directory.

This module alone turns values into table bytes, by one rule (see
:func:`_write_table`), so the same values always give the same bytes, which is
what makes re-run digest comparison a usable reproducibility check.  Callers
hand over values: series, fit results, windows, plateau estimates and arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidParameter, KinexError
from .relaxation import RelaxationSeries


def content_digest(data: bytes) -> str:
    """64-bit content hash, hex-encoded."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_table(
    path: str | Path, title: str, columns: dict[str, Sequence], note: str = "", meta: Sequence[dict] = ()
) -> None:
    """A ``# kinex <title>[; <note>]`` line, a ``# key=value ...`` line per
    ``meta`` mapping, the column names, then one row per index of the columns.

    A value is spelled by ``str``: a Python float as its repr (the shortest
    string that reads back to the same bits), an int as its digits, a status
    or form name as itself.  None, a missing value, is an empty field.  Numpy
    arrays go in as ``tolist()``, so that every float is a Python float.
    """
    lines = [f"# kinex {title}" + (f"; {note}" if note else "")]
    lines += ["# " + " ".join(f"{k}={v}" for k, v in m.items()) for m in meta]
    lines.append(",".join(columns))
    spelled = [["" if v is None else str(v) for v in values] for values in columns.values()]
    lines += map(",".join, zip(*spelled))
    write_text(Path(path), "\n".join(lines) + "\n")


def _fit_columns(fits: Sequence, names: tuple[str, ...]) -> dict[str, list]:
    """Columns ``names`` of the fit results, then ``status``.  A failed fit
    (the KinexError its fit raised) keeps its row, with empty values and its
    error's name as its status."""
    columns = {n: [None if isinstance(fit, KinexError) else getattr(fit, n) for fit in fits] for n in names}
    columns["status"] = [type(fit).__name__ if isinstance(fit, KinexError) else "ok" for fit in fits]
    return columns


def write_series_csv(series: RelaxationSeries, path: str | Path, extra: dict | None = None) -> None:
    """``t,x_mean`` rows under a header naming the series' spec, seed, agent
    and configuration counts, and the ``extra`` key=value pairs if given."""
    meta = [{"spec": series.spec, "seed": series.master_seed, "n": series.n_agents,
             "n_configs": series.n_configs}]
    columns = {"t": series.t.tolist(), "x_mean": series.x_mean.tolist()}
    note = "t in time steps, x_mean in money units per agent"
    _write_table(path, "relaxation series", columns, note, meta + ([extra] if extra else []))


def read_series_csv(path: str | Path) -> RelaxationSeries:
    """Read a series written by :func:`write_series_csv`.  A line that is not
    UTF-8, not a ``t,x_mean`` row of an int and a float, a step that does not
    increase, or a header count that is not an int raises InvalidParameter
    naming the file and the line.  Steps may skip values."""
    meta: dict[str, str | int] = {}
    ts: list[int] = []
    xs: list[float] = []
    number = 0
    try:
        for number, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
            line = raw.decode("utf-8").strip()
            if line.startswith("#"):
                for k, eq, v in (token.partition("=") for token in line[1:].split()):
                    if eq and k not in meta:
                        meta[k] = int(v or 0) if k in ("n_configs", "n", "seed") else v
            elif line and not line.startswith("t,"):
                t_str, x_str = line.split(",")
                t = int(t_str)
                if ts and t <= ts[-1]:
                    raise InvalidParameter(f"{path}, line {number}: step {t} does not follow {ts[-1]}")
                ts.append(t)
                xs.append(float(x_str))
    except ValueError as e:  # UnicodeDecodeError among them
        raise InvalidParameter(f"{path}, line {number}: not a series line: {e}") from e
    return RelaxationSeries(
        t=np.asarray(ts, dtype=np.int64),
        x_mean=np.asarray(xs),
        n_configs=meta.get("n_configs", 0),
        n_agents=meta.get("n", 0),
        master_seed=meta.get("seed", 0),
        spec=meta.get("spec") or "na",
    )


def write_fit_csv(
    path: str | Path, window: tuple[int, int] | None, fits: dict, header_note: str = ""
) -> None:
    """One row per form of ``fits`` ({form: ExpFitResult or the KinexError its
    fit raised}), over ``window``; no window (the automatic one failed) leaves
    the window's fields empty."""
    t_lo, t_hi = window if window is not None else (None, None)
    columns = {"form": list(fits), "t_lo": [t_lo] * len(fits), "t_hi": [t_hi] * len(fits)}
    columns |= _fit_columns(fits.values(), ("x0", "amplitude", "tau", "r_squared"))
    _write_table(path, "fit report", columns, header_note)


def write_hist_csv(
    path: str | Path,
    edges: np.ndarray,
    counts: np.ndarray,
    density: np.ndarray,
    header_note: str = "",
) -> None:
    columns = {
        "bin_lo": edges[:-1].tolist(),
        "bin_hi": edges[1:].tolist(),
        "count": counts.tolist(),
        "density": density.tolist(),
    }
    _write_table(path, "wealth histogram", columns, header_note)


def write_tau_table(
    path: str | Path, windows: Sequence[tuple[float, float]], fits: Sequence, header_note: str = ""
) -> None:
    """One row per sweep cell: its window's bounds, then its fit's decay time
    and quality (an ExpFitResult, or the KinexError its fit raised)."""
    columns = {"window_lo": [w[0] for w in windows], "window_hi": [w[1] for w in windows]}
    columns |= _fit_columns(fits, ("tau", "tau_stderr", "r_squared"))
    _write_table(path, "decay-time table", columns, header_note)


def write_x0_table(
    path: str | Path, eps_values: Sequence[float], plateaus: Sequence[tuple[float, float]], argmin: int
) -> None:
    """Plateau estimate ``(x0, standard error)`` per split parameter; row
    ``argmin`` is marked as the minimum."""
    columns = {
        "eps": eps_values,
        "x0": [x0 for x0, _ in plateaus],
        "x0_stderr": [sem for _, sem in plateaus],
        "is_argmin": [int(k == argmin) for k in range(len(eps_values))],
    }
    _write_table(path, "plateau-vs-eps table", columns)


def write_lambda_bins_csv(
    path: str | Path, bin_lo: np.ndarray, bin_hi: np.ndarray, means: np.ndarray
) -> None:
    columns = {"lambda_lo": bin_lo.tolist(), "lambda_hi": bin_hi.tolist(), "mean_wealth": means.tolist()}
    _write_table(path, "propensity-binned mean wealth", columns)


@dataclass
class RunManifest:
    """Config echo, version, timestamps and per-output content digests; the
    context that owns a run's directory from start to end.

    Entering creates the staging directory ``out_dir/.partial-<pid>``, and any
    missing ``out_dir`` or parent, before anything is simulated.  :meth:`path`
    names an output there.  A clean exit digests each output, moves it into
    ``out_dir`` and writes ``manifest.json``.  Every exit then removes the
    staging directory and, innermost first, each directory entering created,
    up to the first that is not empty: a failed run leaves nothing behind.
    """

    config: dict
    experiment: str
    out_dir: Path
    version: str = __version__
    started: float = field(default_factory=time.time)
    finished: float | None = None
    outputs: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    created: list[Path] = field(default_factory=list, init=False, repr=False)

    @property
    def staging(self) -> Path:
        return self.out_dir / f".partial-{os.getpid()}"

    def path(self, name: str) -> Path:
        """Where output ``name`` is written; a clean exit digests it and moves it."""
        self.outputs[name] = ""
        return self.staging / name

    def __enter__(self) -> RunManifest:
        self.created = [d for d in (self.out_dir, *self.out_dir.parents) if not d.exists()]
        try:
            self.staging.mkdir(parents=True, exist_ok=True)
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.finished = time.time()
                self.outputs = {n: content_digest((self.staging / n).read_bytes()) for n in self.outputs}
                for name in self.outputs:  # every output read before any moves
                    os.replace(self.staging / name, self.out_dir / name)
                payload = {k: v for k, v in vars(self).items() if k not in ("out_dir", "created")}
                text = json.dumps(payload, indent=2, sort_keys=True, default=str)
                write_text(self.out_dir / "manifest.json", text + "\n")
        finally:
            shutil.rmtree(self.staging, ignore_errors=True)
            for made in self.created:
                try:
                    made.rmdir()
                except OSError:
                    break
