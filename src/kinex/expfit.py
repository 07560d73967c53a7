"""Exponential decay fitting via semi-log linear regression.

Two forms are covered: a shifted approach to a plateau, x(t) = x0 - A exp(-t/tau)
(either side of the plateau), and a pure decay x(t) = A exp(-t/tau).  Both
reduce to an ordinary least-squares line in log space, and the relaxation time
is the negative inverse slope.  Log-space regression is deterministic and
matches the graphical straight-line reading the decay curves admit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientData,
    InvalidParameter,
    LogDomainError,
    NoDecayWindow,
    NotDecaying,
    WindowContainsCrossing,
)
from .relaxation import DEFAULT_TAIL_FRACTION, RelaxationSeries, _tail_slice

FORM_SHIFTED = "shifted_approach"
FORM_PURE = "pure_decay"


@dataclass
class ExpFitResult:
    x0: float
    amplitude: float
    tau: float
    window: tuple[int, int]
    r_squared: float
    form: str
    tau_stderr: float = float("nan")


def _linear_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """OLS line through (t, y): (slope, intercept, r_squared, slope_stderr).

    Centered-sum formulation: rescaling t by a power of two rescales the slope
    exactly, which keeps fitted decay times exactly covariant with the time unit.
    """
    n = t.size
    t_mean = t.sum() / n
    y_mean = y.sum() / n
    dt = t - t_mean
    dy = y - y_mean
    sxx = float((dt * dt).sum())
    if sxx == 0.0:
        raise InvalidParameter("degenerate time axis in fit window")
    slope = float((dt * dy).sum()) / sxx
    intercept = y_mean - slope * t_mean
    resid = dy - slope * dt
    ss_res = float((resid * resid).sum())
    ss_tot = float((dy * dy).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    if n > 2:
        slope_stderr = math.sqrt(ss_res / (n - 2) / sxx)
    else:
        slope_stderr = float("nan")
    return slope, float(intercept), min(max(r_squared, 0.0), 1.0), slope_stderr


def _window_arrays(
    series: RelaxationSeries, window: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    t_lo, t_hi = window
    if t_lo >= t_hi:
        raise InvalidParameter(f"window ({t_lo}, {t_hi}) must satisfy t_lo < t_hi")
    mask = (series.t >= t_lo) & (series.t <= t_hi)
    if int(mask.sum()) < 8:
        raise InvalidParameter(f"window ({t_lo}, {t_hi}) holds fewer than 8 samples")
    return series.t[mask].astype(float), series.x_mean[mask]


def _regress_decay(
    t: np.ndarray, y_log: np.ndarray, window: tuple[int, int], x0: float, form: str
) -> ExpFitResult:
    slope, intercept, r_squared, slope_stderr = _linear_fit(t, y_log)
    if slope >= 0.0:
        raise NotDecaying(f"semi-log slope {slope} is not negative")
    tau = -1.0 / slope
    tau_stderr = slope_stderr / (slope * slope)
    return ExpFitResult(
        x0=x0,
        amplitude=math.exp(intercept),
        tau=tau,
        window=window,
        r_squared=r_squared,
        form=form,
        tau_stderr=tau_stderr,
    )


def fit_shifted(series: RelaxationSeries, window: tuple[int, int], x0: float) -> ExpFitResult:
    """Fit x(t) = x0 -/+ A exp(-t/tau) over the window, with x0 given.

    The window must lie strictly on one side of x0; a sample equal to (or
    straddling) x0 has no usable log distance and raises WindowContainsCrossing.
    A non-finite x0 or sample raises NotDecaying.
    """
    t, x = _window_arrays(series, window)
    if not (math.isfinite(x0) and np.isfinite(x).all()):
        raise NotDecaying(f"x0={x0} or a sample in window {window} is not finite")
    diff = x0 - x
    if np.any(diff == 0.0) or (np.any(diff > 0.0) and np.any(diff < 0.0)):
        raise WindowContainsCrossing(f"window {window} touches or crosses x0={x0}")
    return _regress_decay(t, np.log(np.abs(diff)), window, x0, FORM_SHIFTED)


def fit_pure(series: RelaxationSeries, window: tuple[int, int]) -> ExpFitResult:
    """Fit x(t) = A exp(-t/tau) over the window (no plateau subtraction).
    A non-finite sample raises NotDecaying."""
    t, x = _window_arrays(series, window)
    if not np.isfinite(x).all():
        raise NotDecaying(f"a sample in window {window} is not finite")
    if np.any(x <= 0.0):
        raise LogDomainError(f"window {window} contains non-positive samples")
    return _regress_decay(t, np.log(x), window, 0.0, FORM_PURE)


def auto_window(
    series: RelaxationSeries,
    x0: float,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    min_points: int = 8,
) -> tuple[int, int]:
    """Longest initial fit window still distinguishable from the plateau.

    Discards the first sample, then extends the window while |x - x0| stays
    above 3x the standard deviation of the series tail.  Raises NoDecayWindow
    if fewer than ``min_points`` samples qualify, if the tail holds fewer than
    two samples (it has no spread), or if the plateau or a sample of the tail
    is not finite, or the tail's spread overflows a double (a diverging run).
    """
    if len(series) < 20:
        raise InsufficientData(f"series has {len(series)} samples, need >= 20")
    tail = _tail_slice(series, tail_fraction)
    if tail.size < 2:
        raise NoDecayWindow(f"the plateau tail holds {tail.size} sample; its spread needs 2 or more")
    if not (math.isfinite(x0) and np.isfinite(tail).all()):
        raise NoDecayWindow(f"the plateau x0={x0!r} or a sample of the tail is not finite")
    with np.errstate(over="ignore"):
        threshold = 3.0 * float(tail.std(ddof=1))
        dist = np.abs(series.x_mean - x0)
    if math.isinf(threshold):
        raise NoDecayWindow(f"the tail's spread overflows a double: 3*sigma_tail={threshold!r}")
    end = 0
    for k in range(1, len(series)):
        if dist[k] <= threshold:
            break
        end = k
    n_points = end  # samples at indices 1..end
    if n_points < min_points:
        raise NoDecayWindow(
            f"only {n_points} samples clear 3*sigma_tail={threshold!r} above the plateau"
        )
    return int(series.t[1]), int(series.t[end])
