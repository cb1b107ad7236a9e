"""Spectral gain rules driven by the a priori SNR.

All rules take linear xi (and, for the amplitude estimator, the a
posteriori SNR gamma) and return a non-negative gain, rising with xi,
that multiplies the noisy magnitude; Wiener and SRWF gains lie in [0, 1].
The short-time amplitude estimator is the MMSE solution of Ephraim and
Malah (1984), evaluated with SciPy's exponentially scaled Bessel
functions, which hold at every nu; it exceeds 1 at low gamma (6.28 at
xi = 1, gamma = 0.01).  The decision-directed recursion runs the rules
per frame through the unchecked _gain_kernel; dd.enhance checks once.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy.special import i0e, i1e


class GainRule(Enum):
    WIENER = "wiener"
    SRWF = "srwf"
    MMSE_STSA = "mmse-stsa"


def gain_wiener(xi) -> np.ndarray:
    """Wiener filter xi / (1 + xi)."""
    xi = np.asarray(xi, dtype=np.float64)
    return xi / (1.0 + xi)


def gain_srwf(xi) -> np.ndarray:
    """Square-root Wiener filter sqrt(xi / (1 + xi)), the pipeline default."""
    return np.sqrt(gain_wiener(xi))


def _mmse_stsa(xi, gamma) -> np.ndarray:
    """gain_mmse_stsa unchecked: NaN where that rejects the input."""
    nu = xi * gamma / (1.0 + xi)
    half = 0.5 * nu
    return (0.5 * np.sqrt(np.pi)) * (np.sqrt(nu) / gamma) * (
        (1.0 + nu) * i0e(half) + nu * i1e(half))


def gain_mmse_stsa(xi, gamma) -> np.ndarray:
    """MMSE short-time spectral amplitude gain.

    nu = xi * gamma / (1 + xi)
    G  = (sqrt(pi)/2) (sqrt(nu)/gamma) exp(-nu/2) [(1+nu) I0(nu/2) + nu I1(nu/2)]

    computed in exponentially scaled form at every nu.  gamma must be
    strictly positive, and xi * gamma must not overflow.
    """
    xi = np.asarray(xi, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(gamma))):
        raise ValueError("xi and gamma must be finite")
    if np.any(xi < 0) or np.any(gamma <= 0):
        raise ValueError("xi must be >= 0 and gamma > 0")
    # with finite xi >= 0 and gamma > 0 the gain is finite unless nu overflows
    with np.errstate(over="ignore", invalid="ignore"):
        g = _mmse_stsa(xi, gamma)
    if not np.all(np.isfinite(g)):
        raise ValueError("xi * gamma overflows")
    return g


def _gain_kernel(rule: GainRule, xi, gamma) -> np.ndarray:
    """The rule's gain, MMSE-STSA unchecked, for a caller that checks once;
    anything but a GainRule is a ValueError."""
    if rule is GainRule.WIENER:
        return gain_wiener(xi)
    if rule is GainRule.SRWF:
        return gain_srwf(xi)
    if rule is GainRule.MMSE_STSA:
        return _mmse_stsa(xi, gamma)
    raise ValueError(f"unknown gain rule {rule!r}")
