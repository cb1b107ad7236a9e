"""Spectral gain rules driven by the a priori SNR.

All rules take linear xi (and, for the amplitude estimator, the a
posteriori SNR gamma) and return a non-negative gain, rising with xi,
that multiplies the noisy magnitude; Wiener and SRWF gains lie in [0, 1].
The short-time amplitude estimator is the MMSE solution of Ephraim and
Malah (1984), evaluated with SciPy's exponentially scaled Bessel
functions; it exceeds 1 at low gamma (6.28 at xi = 1, gamma = 0.01), and
above nu = 700 takes its Wiener limit, up to 1/2800 lower (a dip there).
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy.special import i0e, i1e


class GainRule(Enum):
    WIENER = "wiener"
    SRWF = "srwf"
    MMSE_STSA = "mmse-stsa"


NU_OVERFLOW = 700.0


def gain_wiener(xi) -> np.ndarray:
    """Wiener filter xi / (1 + xi)."""
    xi = np.asarray(xi, dtype=np.float64)
    return xi / (1.0 + xi)


def gain_srwf(xi) -> np.ndarray:
    """Square-root Wiener filter sqrt(xi / (1 + xi)), the pipeline default."""
    return np.sqrt(gain_wiener(xi))


def gain_mmse_stsa(xi, gamma) -> np.ndarray:
    """MMSE short-time spectral amplitude gain.

    nu = xi * gamma / (1 + xi)
    G  = (sqrt(pi)/2) (sqrt(nu)/gamma) exp(-nu/2) [(1+nu) I0(nu/2) + nu I1(nu/2)]

    computed in exponentially scaled form; cells with nu > 700 use the
    Wiener limit.  gamma must be strictly positive.
    """
    xi = np.asarray(xi, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(gamma))):
        raise ValueError("xi and gamma must be finite")
    if np.any(xi < 0) or np.any(gamma <= 0):
        raise ValueError("xi must be >= 0 and gamma > 0")
    xi, gamma = np.broadcast_arrays(xi, gamma)
    nu = xi * gamma / (1.0 + xi)
    safe = nu <= NU_OVERFLOW
    nu_s = np.where(safe, nu, 0.0)
    g = (
        (0.5 * np.sqrt(np.pi))
        * (np.sqrt(nu_s) / gamma)
        * ((1.0 + nu_s) * i0e(0.5 * nu_s) + nu_s * i1e(0.5 * nu_s))
    )
    return np.where(safe, g, gain_wiener(xi))


def gain_for(rule: GainRule, xi, gamma=None) -> np.ndarray:
    if rule is GainRule.WIENER:
        return gain_wiener(xi)
    if rule is GainRule.SRWF:
        return gain_srwf(xi)
    if rule is GainRule.MMSE_STSA:
        if gamma is None:
            raise ValueError("mmse-stsa requires gamma")
        return gain_mmse_stsa(xi, gamma)
    raise ValueError(f"unknown gain rule {rule!r}")

