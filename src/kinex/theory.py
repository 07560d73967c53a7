"""Closed-form decay-rate predictions for the two-coefficient exchange map.

The saving-propensity models embed into a linear two-coefficient exchange,
whose continuum limit relaxes exponentially with rate 1 + eps2 - eps1.  For a
balanced split (eps = 1/2) the rate reduces to 1 - (lam_i + lam_j)/2, which is
strictly positive whenever both propensities lie in [0, 1): the map can only
decay toward its asymptote, never diverge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .exchange import DISTRIBUTED_SAVING, ModelSpec, _drawn_propensities
from .streams import RngStream


@dataclass(frozen=True)
class GeneralParams:
    """Coefficients of the linear exchange w_i' = eps1*w_i + eps2*w_j."""

    eps1: float
    eps2: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.eps1) and np.isfinite(self.eps2)):
            raise InvalidParameter("exchange coefficients must be finite")


@dataclass(frozen=True)
class OdeSolution:
    """Relaxation trajectory a + b * exp(-k t); value(0) == a + b."""

    a: float
    b: float
    k: float

    def value(self, t):
        return predict(self.a, self.b, self.k, t)


def map_random_saving(lam_i: float, lam_j: float, eps: float) -> GeneralParams:
    """Embed a saving-propensity pair interaction into the two-coefficient form."""
    if not (0.0 <= lam_i < 1.0 and 0.0 <= lam_j < 1.0):
        raise InvalidParameter(f"lam_i={lam_i}, lam_j={lam_j} outside [0,1)")
    if not 0.0 <= eps <= 1.0:
        raise InvalidParameter(f"eps={eps} outside [0,1]")
    return GeneralParams(eps1=lam_i + eps * (1.0 - lam_i), eps2=eps * (1.0 - lam_j))


def decay_rate(p: GeneralParams) -> float:
    """Relaxation rate of the continuum limit; positive decays, negative grows."""
    return 1.0 + p.eps2 - p.eps1


def k_positive_for_half(
    lam_window: tuple[float, float],
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> bool:
    """Check that balanced-split decay rates are positive across a propensity window.

    The analytic infimum over the window is 1 - lam_max, non-negative for any
    window with 0 <= lo < hi <= 1; the sampled sweep makes the claim
    executable.  The propensities are drawn as the distributed-saving model
    draws them (:func:`exchange._drawn_propensities`), so each lies in
    [lo, hi), below 1.  Returns True only if every sampled pair yields a
    strictly positive rate.
    """
    spec = ModelSpec(rule=DISTRIBUTED_SAVING, lambda_window=tuple(lam_window))
    spec.validate()
    lam_i, lam_j = _drawn_propensities(spec.lambda_window, RngStream(seed).gen.random((2, n_samples)))
    k = 1.0 - 0.5 * (lam_i + lam_j)
    return bool(np.all(k > 0.0))


def predict(a: float, b: float, k: float, t):
    """Evaluate a + b * exp(-k t); decays for k > 0, grows for k < 0."""
    return a + b * np.exp(-k * np.asarray(t, dtype=float))


def solution_from_first_two(w0: float, w1: float, k: float) -> OdeSolution:
    """Pin (a, b) so the trajectory passes through the first two samples."""
    if k == 0.0:
        raise InvalidParameter("k=0 has a constant solution; cannot pin amplitude")
    b = (w0 - w1) / (1.0 - np.exp(-k))
    return OdeSolution(a=w0 - b, b=b, k=k)
