"""Noise tracking, decision-directed a priori SNR and the enhancement pipeline.

Noise power is tracked by a gated first-order recursion (updates only
where the cell looks speech-absent).  The decision-directed xi blends the
previous frame's post-gain amplitude estimate with max(gamma - 1, 0).
enhance() is the one front-end every xi estimator runs through (stft,
tracked noise, gamma, gain, and istft of the gained noisy spectrum G Z,
so no phase is taken or rebuilt); it runs the recursion itself unless
given xi, and takes a spectrogram in place of the waveform.  The
recursion runs an unchecked gain kernel per frame and enhance checks the
MMSE-STSA inputs once per call.  Given xi, only MMSE-STSA reads gamma,
so only it tracks the noise; Wiener and SRWF gains come from xi alone.
Past the power and noise track, enhance allocates only the gains and
G Z, and frees power and track before resynthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import AudioSignal, SpectroGram, istft, stft, _samples
from .gain import GainRule, _gain_kernel, gain_mmse_stsa

ALPHA_DD = 0.98
ALPHA_NOISE = 0.98
BETA_ABSENCE = 2.0
INIT_FRAMES = 10
_POWER_FLOOR = 1e-12


@dataclass
class DdState:
    """Carry-over between frames: the previous post-gain amplitude squared,
    and the gain of the frame that produced it (None before the first)."""

    prev_amp_sq: np.ndarray
    gain: np.ndarray | None = None


def dd_xi(state: DdState, noisy_power_frame, lambda_d, rule: GainRule = GainRule.SRWF):
    """One decision-directed step; returns (xi, gamma, next state).

    gamma = |X|^2 / lambda_d
    xi    = ALPHA_DD * prev_amp_sq / lambda_d + (1 - ALPHA_DD) * max(gamma - 1, 0)

    The state advances with (G |X|)^2 where G is the rule's gain for
    this frame, so the recursion sees the enhanced amplitude; G itself
    is kept as next_state.gain.  G is unchecked: an MMSE-STSA input that
    gain_mmse_stsa rejects gives NaN.  The frame's power, lambda_d and
    state.prev_amp_sq are arrays of one shape.
    """
    p = np.asarray(noisy_power_frame, dtype=np.float64)
    lam = np.maximum(np.asarray(lambda_d, dtype=np.float64), _POWER_FLOOR)
    gamma = p / lam
    xi = ALPHA_DD * state.prev_amp_sq
    xi /= lam
    excess = np.subtract(gamma, 1.0, out=lam)  # lam is read no more
    np.maximum(excess, 0.0, out=excess)
    excess *= 1.0 - ALPHA_DD
    xi += excess
    # only the MMSE-STSA kernel reads gamma
    g = _gain_kernel(rule, xi, np.maximum(gamma, _POWER_FLOOR)
                     if rule is GainRule.MMSE_STSA else gamma)
    amp_sq = g * g
    amp_sq *= p
    return xi, gamma, DdState(amp_sq, g)


def tracked_noise_power(power: np.ndarray) -> np.ndarray:
    """lambda_d per frame for a whole power spectrogram.

    The first INIT_FRAMES frames share their mean power, floored at
    1e-12.  After them a gated recursion runs: cells with
    |X|^2 < BETA_ABSENCE * lambda_d update as
    lambda_d <- ALPHA_NOISE * lambda_d + (1 - ALPHA_NOISE) * |X|^2; the
    rest keep their value, so the estimate stays strictly positive.  A
    NaN power cell is not screened: it makes its track NaN.
    """
    power = np.asarray(power, dtype=np.float64)
    n_init = min(INIT_FRAMES, power.shape[0])
    if n_init == 0:
        raise ValueError("need at least one frame to initialize")
    # each row past n_init holds (1 - ALPHA_NOISE) |X|^2 until its turn;
    # adding ALPHA_NOISE lambda_d to it gives the update's sum, as + commutes
    lam = np.multiply(power, 1.0 - ALPHA_NOISE)
    lam[:n_init] = np.maximum(power[:n_init].mean(axis=0), _POWER_FLOOR)
    scaled = np.empty(power.shape[1])
    present = np.empty(power.shape[1], dtype=bool)
    for l in range(n_init, power.shape[0]):
        prev, cur = lam[l - 1], lam[l]
        cur += np.multiply(prev, ALPHA_NOISE, out=scaled)
        np.multiply(prev, BETA_ABSENCE, out=scaled)
        np.greater_equal(power[l], scaled, out=present)
        np.copyto(cur, prev, where=present)
    return lam


def _dd_gains(power: np.ndarray, lam: np.ndarray, rule: GainRule) -> np.ndarray:
    """The gain of every frame, one dd_xi step each.  An MMSE-STSA input
    that gain_mmse_stsa rejects gives NaN, so the first non-finite frame is
    derived again and gain_mmse_stsa raises the error it would raise there."""
    state = DdState(np.zeros(power.shape[1]))
    gains = np.empty_like(power)
    with np.errstate(all="ignore"):
        for l in range(power.shape[0]):
            _, _, state = dd_xi(state, power[l], lam[l], rule)
            gains[l] = state.gain
        if rule is not GainRule.MMSE_STSA or np.all(np.isfinite(gains)):
            return gains
        l = int(np.argmin(np.all(np.isfinite(gains), axis=1)))
        prev = gains[l - 1] * gains[l - 1] * power[l - 1] if l else np.zeros(power.shape[1])
        xi, gamma, _ = dd_xi(DdState(prev), power[l], lam[l], rule)
    gain_mmse_stsa(xi, np.maximum(gamma, _POWER_FLOOR))
    raise AssertionError("gain_mmse_stsa accepted the inputs of a NaN gain")


def enhance(noisy, rule: GainRule = GainRule.SRWF, xi=None,
            out_len: int | None = None) -> AudioSignal:
    """Enhance one signal: stft, track, gain, istft.

    noisy is a waveform, or its SpectroGram, which is used as it is (with
    its own config) and left unchanged, as is xi.  With xi=None the
    decision-directed recursion estimates xi frame by frame, with the
    MMSE-STSA inputs checked once for the call.  Otherwise xi is the
    linear a priori SNR of another estimator, shaped like the spectrogram
    (frames, bins), and gamma comes from the tracked noise with the same
    floor the recursion uses.  The output is out_len samples long; that
    defaults to the length of a waveform input and to istft's full span
    for a SpectroGram.  Resynthesis is istft of the noisy complex spectrum
    times the gains.  An all-zero input comes back all zero.
    """
    if isinstance(noisy, SpectroGram):
        spec = noisy
    else:
        spec = stft(noisy)
        if out_len is None:
            out_len = _samples(noisy).size
    if xi is not None and np.shape(xi) != spec.spectrum.shape:
        raise ValueError("xi shape must match the spectrogram")
    if xi is None or rule is GainRule.MMSE_STSA:
        power = spec.magnitude**2
        lam = tracked_noise_power(power)
        if xi is None:
            gains = _dd_gains(power, lam, rule)
        else:
            np.maximum(lam, _POWER_FLOOR, out=lam)
            np.divide(power, lam, out=power)  # power becomes gamma, floored below
            gains = gain_mmse_stsa(xi, np.maximum(power, _POWER_FLOOR, out=power))
        del power, lam  # istft's buffers take their place
    else:
        gains = _gain_kernel(rule, xi, None)  # Wiener and SRWF read no gamma
    return istft(SpectroGram.from_spectrum(spec.spectrum * gains, spec.config), out_len)
