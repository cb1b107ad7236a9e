"""Noise tracking, decision-directed a priori SNR and the enhancement pipeline.

Noise power is tracked by a gated first-order recursion (updates only
where the cell looks speech-absent).  The decision-directed xi blends the
previous frame's post-gain amplitude estimate with max(gamma - 1, 0).
enhance() is the one front-end every xi estimator runs through (stft,
tracked noise, gamma, gain, and istft of the gained noisy spectrum G Z,
so no phase is taken or rebuilt); it runs the recursion itself unless
given xi, and takes a spectrogram in place of the waveform.  It makes
one dd_xi call over all frames: gamma and the gamma term of xi are taken
for the run at once, and only the recursion loops, its unchecked gain
kernel writing into preallocated rows; enhance checks the MMSE-STSA
inputs once.  Given xi, only MMSE-STSA reads gamma, so only it tracks
the noise; Wiener and SRWF gains come from xi alone.
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
    """Carry-over between frames: the previous post-gain amplitude squared
    (one frame) and the gain that produced it, every frame's after a run
    (None before the first frame)."""

    prev_amp_sq: np.ndarray
    gain: np.ndarray | None = None


def dd_xi(state: DdState, noisy_power, lambda_d, rule: GainRule = GainRule.SRWF):
    """Decision-directed steps over a frame or a run; returns (xi, gamma, next state).

    gamma = |X|^2 / max(lambda_d, 1e-12)
    xi    = ALPHA_DD * prev_amp_sq / max(lambda_d, 1e-12) + (1 - ALPHA_DD) * max(gamma - 1, 0)

    noisy_power and lambda_d share one shape, a frame (bins,) or a run
    (frames, bins), and state.prev_amp_sq is one frame, or it is a
    ValueError.  xi, gamma and next_state.gain come shaped like the power.
    Each frame advances the state with (G |X|)^2, G the rule's gain for
    the frame, so the recursion sees the enhanced amplitude.  G is
    unchecked: an MMSE-STSA input that gain_mmse_stsa rejects gives NaN.
    """
    p = np.asarray(noisy_power, dtype=np.float64)
    lam = np.asarray(lambda_d, dtype=np.float64)
    frame = np.shape(state.prev_amp_sq)
    if p.shape != lam.shape or p.ndim not in (1, 2) or p.shape[-1:] != frame:
        raise ValueError(f"dd_xi: power {p.shape} and lambda_d {lam.shape} must share a (bins,) or "
                         f"(frames, bins) shape, and state.prev_amp_sq {frame} must be one frame")
    run = p if p.ndim == 2 else p[np.newaxis]
    gains = np.maximum(lam.reshape(run.shape), _POWER_FLOOR)  # a row's lambda_d until its gain
    gamma = run / gains
    xi = np.subtract(gamma, 1.0)
    np.maximum(xi, 0.0, out=xi)
    xi *= 1.0 - ALPHA_DD  # a row's gamma term until its frame's turn
    # only the MMSE-STSA kernel reads gamma, floored, one row at a time
    floored = np.empty(run.shape[1]) if rule is GainRule.MMSE_STSA else None
    prev, amp_sq = state.prev_amp_sq, np.empty(run.shape[1])
    for xi_l, g, gamma_l, p_l in zip(xi, gains, gamma, run):
        np.multiply(prev, ALPHA_DD, out=amp_sq)
        amp_sq /= g
        xi_l += amp_sq
        _gain_kernel(rule, xi_l, gamma_l if floored is None
                     else np.maximum(gamma_l, _POWER_FLOOR, out=floored), g)
        np.multiply(g, g, out=amp_sq)
        amp_sq *= p_l
        prev = amp_sq
    return xi.reshape(p.shape), gamma.reshape(p.shape), DdState(prev, gains.reshape(p.shape))


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
    """The gain of every frame, from one dd_xi run.  An MMSE-STSA input that
    gain_mmse_stsa rejects gives NaN, so gain_mmse_stsa is given the first
    non-finite frame's xi and gamma and raises the error it would raise there."""
    with np.errstate(all="ignore"):
        xi, gamma, state = dd_xi(DdState(np.zeros(power.shape[1])), power, lam, rule)
    if rule is not GainRule.MMSE_STSA or np.all(np.isfinite(state.gain)):
        return state.gain
    l = int(np.argmin(np.all(np.isfinite(state.gain), axis=1)))
    gain_mmse_stsa(xi[l], np.maximum(gamma[l], _POWER_FLOOR))
    raise AssertionError("gain_mmse_stsa accepted the inputs of a NaN gain")


def enhance(noisy, rule: GainRule = GainRule.SRWF, xi=None,
            out_len: int | None = None) -> AudioSignal:
    """Enhance one signal: stft, track, gain, istft.

    noisy is a waveform, or its SpectroGram, which is used as it is (with
    its own config) and left unchanged, as is xi.  With xi=None the
    decision-directed recursion estimates xi frame by frame, with the
    MMSE-STSA inputs checked once for the call.  Otherwise xi is the
    linear a priori SNR of another estimator, shaped like the spectrogram
    (frames, bins), finite and >= 0; gamma comes from the tracked noise
    with the same floor the recursion uses.  The output is out_len samples
    long; that defaults to the length of a waveform input and to istft's
    full span for a SpectroGram.  Resynthesis is istft of the noisy complex
    spectrum times the gains.  An all-zero input comes back all zero.
    """
    if isinstance(noisy, SpectroGram):
        spec = noisy
    else:
        spec = stft(noisy)
        if out_len is None:
            out_len = _samples(noisy).size
    if xi is not None and np.shape(xi) != spec.spectrum.shape:
        raise ValueError("xi shape must match the spectrogram")
    if xi is not None and not np.isfinite(xi).all():  # for every rule, once
        raise ValueError("xi and gamma must be finite")
    if xi is not None and np.any(np.less(xi, 0)):
        raise ValueError("xi must be >= 0 and gamma > 0")
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
