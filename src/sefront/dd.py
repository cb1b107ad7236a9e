"""Noise tracking, decision-directed a priori SNR and the enhancement pipeline.

Noise power is tracked by a gated first-order recursion (updates only
where the cell looks speech-absent).  The classical non-neural xi
estimate is the usual decision-directed blend of the previous frame's
post-gain amplitude estimate and the instantaneous max(gamma - 1, 0).
enhance() is the one front-end every xi estimator runs through: stft,
tracked noise, gamma, gain, and resynthesis with the noisy phase; it
runs the decision-directed recursion itself unless it is given xi, and
it takes the noisy spectrogram instead of the waveform when a caller has
already transformed it for its own xi estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dsp import AudioSignal, SpectroGram, istft, stft, _samples
from .gain import GainRule, gain_for

ALPHA_DD = 0.98
ALPHA_NOISE = 0.98
BETA_ABSENCE = 2.0
INIT_FRAMES = 10
_POWER_FLOOR = 1e-12


@dataclass
class DdState:
    """Carry-over between frames: previous post-gain amplitude squared.

    gain is the rule's gain for the frame that produced this state, or
    None before the first step.
    """

    prev_amp_sq: np.ndarray
    gain: np.ndarray | None = None


def dd_xi(
    state: DdState,
    noisy_power_frame,
    lambda_d,
    rule: GainRule = GainRule.SRWF,
):
    """One decision-directed step; returns (xi, gamma, next state).

    gamma = |X|^2 / lambda_d
    xi    = ALPHA_DD * prev_amp_sq / lambda_d + (1 - ALPHA_DD) * max(gamma - 1, 0)

    The state advances with (G |X|)^2 where G is the rule's gain for
    this frame, so the recursion sees the enhanced amplitude; G itself
    is kept as next_state.gain.
    """
    p = np.asarray(noisy_power_frame, dtype=np.float64)
    lam = np.maximum(np.asarray(lambda_d, dtype=np.float64), _POWER_FLOOR)
    gamma = p / lam
    xi = ALPHA_DD * state.prev_amp_sq / lam + (1.0 - ALPHA_DD) * np.maximum(
        gamma - 1.0, 0.0
    )
    g = gain_for(rule, xi, np.maximum(gamma, _POWER_FLOOR))
    next_state = replace(state, prev_amp_sq=(g * g) * p, gain=g)
    return xi, gamma, next_state


def tracked_noise_power(power: np.ndarray) -> np.ndarray:
    """lambda_d per frame for a whole power spectrogram.

    The first INIT_FRAMES frames share their mean power, floored at
    1e-12.  After them a gated recursion runs: cells with
    |X|^2 < BETA_ABSENCE * lambda_d update as
    lambda_d <- ALPHA_NOISE * lambda_d + (1 - ALPHA_NOISE) * |X|^2; the
    rest keep their value, so the estimate stays strictly positive.
    """
    power = np.asarray(power, dtype=np.float64)
    n_init = min(INIT_FRAMES, power.shape[0])
    if n_init == 0:
        raise ValueError("need at least one frame to initialize")
    lam = np.empty_like(power)
    lam[:n_init] = np.maximum(power[:n_init].mean(axis=0), _POWER_FLOOR)
    for l in range(n_init, power.shape[0]):
        prev, p = lam[l - 1], power[l]
        lam[l] = np.where(
            p < BETA_ABSENCE * prev, ALPHA_NOISE * prev + (1.0 - ALPHA_NOISE) * p, prev
        )
    return lam


def enhance(
    noisy,
    rule: GainRule = GainRule.SRWF,
    xi=None,
    out_len: int | None = None,
) -> AudioSignal:
    """Enhance one signal: stft, track, gain, istft.

    noisy is a waveform, or its SpectroGram, which is used as it is (with
    its own config).  With xi=None the decision-directed recursion
    estimates xi frame by frame.  Otherwise xi is the linear a priori SNR
    of another estimator, shaped like the spectrogram (frames, bins), and
    gamma comes from the tracked noise with the same floor the recursion
    uses.  The output is out_len samples long; that defaults to the
    length of a waveform input and to istft's full span for a
    SpectroGram.  Resynthesis reuses the noisy phase.  An all-zero input
    comes back all zero.
    """
    if isinstance(noisy, SpectroGram):
        spec = noisy
    else:
        spec = stft(noisy)
        if out_len is None:
            out_len = _samples(noisy).size
    power = spec.magnitude**2
    lam = tracked_noise_power(power)
    if xi is None:
        state = DdState(np.zeros(spec.config.n_bins))
        gains = np.empty_like(power)
        for l in range(spec.n_frames):
            _, _, state = dd_xi(state, power[l], lam[l], rule)
            gains[l] = state.gain
    else:
        if np.shape(xi) != power.shape:
            raise ValueError("xi shape must match the spectrogram")
        gamma = power / np.maximum(lam, _POWER_FLOOR)
        gains = gain_for(rule, xi, np.maximum(gamma, _POWER_FLOOR))
    shaped = SpectroGram(spec.magnitude * gains, spec.phase, spec.config)
    return istft(shaped, out_len)
