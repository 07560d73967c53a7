"""CSV report writers and the run manifest.

All writers emit deterministic bytes for deterministic inputs (floats via
repr, fixed row order), which is what makes re-run digest comparison a usable
reproducibility check.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .expfit import FIT_CSV_HEADER


def content_digest(data: bytes) -> str:
    """64-bit content hash, hex-encoded."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_table(path: Path, title: str, header_note: str, columns: str, rows) -> None:
    """A ``# kinex <title>[; <note>]`` line, the column names, then the rows."""
    lines = [f"# kinex {title}" + (f"; {header_note}" if header_note else ""), columns, *rows]
    write_text(path, "\n".join(lines) + "\n")


def write_fit_csv(path: Path, rows: list[str], header_note: str = "") -> None:
    _write_table(path, "fit report", header_note, FIT_CSV_HEADER, rows)


def write_hist_csv(
    path: Path,
    edges: np.ndarray,
    counts: np.ndarray,
    density: np.ndarray,
    header_note: str = "",
) -> None:
    cols = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist(), density.tolist())
    rows = [f"{lo!r},{hi!r},{c},{d!r}" for lo, hi, c, d in cols]
    _write_table(path, "wealth histogram", header_note, "bin_lo,bin_hi,count,density", rows)


def write_tau_table(path: Path, rows: list[dict], header_note: str = "") -> None:
    """One row per sweep cell: window bounds, fitted decay time, fit quality."""
    lines = [
        f"{r['window_lo']!r},{r['window_hi']!r},{_fmt(r.get('tau'))},"
        f"{_fmt(r.get('tau_stderr'))},{_fmt(r.get('r_squared'))},{r['status']}"
        for r in rows
    ]
    columns = "window_lo,window_hi,tau,tau_stderr,r_squared,status"
    _write_table(path, "decay-time table", header_note, columns, lines)


def write_x0_table(path: Path, rows: list[dict], header_note: str = "") -> None:
    """Plateau estimates per split parameter, with the minimum marked."""
    lines = [f"{r['eps']!r},{r['x0']!r},{r['x0_stderr']!r},{int(r['is_argmin'])}" for r in rows]
    _write_table(path, "plateau-vs-eps table", header_note, "eps,x0,x0_stderr,is_argmin", lines)


def write_lambda_bins_csv(
    path: Path, bin_lo: np.ndarray, bin_hi: np.ndarray, means: np.ndarray, header_note: str = ""
) -> None:
    cols = zip(bin_lo.tolist(), bin_hi.tolist(), means.tolist())
    rows = [f"{lo!r},{hi!r},{m!r}" for lo, hi, m in cols]
    columns = "lambda_lo,lambda_hi,mean_wealth"
    _write_table(path, "propensity-binned mean wealth", header_note, columns, rows)


def _fmt(v) -> str:
    return "" if v is None else repr(v)


@dataclass
class RunManifest:
    """Config echo, version, timestamps and per-output content digests.

    Outputs are named through :meth:`path`, which places them in a staging
    directory inside ``out_dir``.  :meth:`close` digests every named file,
    moves it into ``out_dir`` and writes ``manifest.json``; :meth:`discard`
    removes the staging directory instead, so a failed run leaves ``out_dir``
    as it found it.
    """

    config: dict
    experiment: str
    out_dir: Path
    version: str = __version__
    started: float = field(default_factory=time.time)
    finished: float | None = None
    outputs: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def staging(self) -> Path:
        return self.out_dir / f".partial-{os.getpid()}"

    def path(self, name: str) -> Path:
        """Where output ``name`` is written; it is digested and moved at close."""
        self.staging.mkdir(parents=True, exist_ok=True)
        self.outputs[name] = ""
        return self.staging / name

    def discard(self) -> None:
        shutil.rmtree(self.staging, ignore_errors=True)

    def close(self) -> None:
        self.finished = time.time()
        for name in self.outputs:
            self.outputs[name] = content_digest((self.staging / name).read_bytes())
            os.replace(self.staging / name, self.out_dir / name)
        self.discard()
        payload = {k: v for k, v in vars(self).items() if k != "out_dir"}
        text = json.dumps(payload, indent=2, sort_keys=True, default=str)
        write_text(self.out_dir / "manifest.json", text + "\n")
