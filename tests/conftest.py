"""Shared toy-signal builders and corpus fixtures.

The synthetic "speech" here is deliberately simple: harmonic tone bursts
with quiet gaps (so voice-activity structure exists for the enhancers to
exploit) plus white and pink noise generators.  Everything is seeded so
tests stay deterministic.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from sefront.corpus import save_wav

SR = 16000

# HYPOTHESIS_PROFILE=ci runs every property test on the same examples each
# time; unset, the default (randomized) profile applies
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def tone_bursts(rng, n_samples):
    """Band-limited harmonic bursts with a 125 ms quiet lead-in."""
    t = np.arange(n_samples) / SR
    f0 = rng.uniform(150.0, 400.0)
    wave = np.zeros(n_samples)
    for k in range(1, 4):
        wave += np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi)) / k
    env = np.zeros(n_samples)
    pos = int(0.125 * SR)
    while pos < n_samples:
        on = int(rng.uniform(0.08, 0.14) * SR)
        off = int(rng.uniform(0.06, 0.12) * SR)
        stop = min(pos + on, n_samples)
        seg = stop - pos
        if seg > 64:
            ramp = min(64, seg // 2)  # 4 ms raised-cosine edges
            e = np.ones(seg)
            edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
            e[:ramp] = edge
            e[seg - ramp:] = edge[::-1]
            env[pos:stop] = e
        pos = stop + off
    x = wave * env
    spec = np.fft.rfft(x)
    f = np.fft.rfftfreq(n_samples, 1.0 / SR)
    spec[(f < 80.0) | (f > 6000.0)] = 0.0
    x = np.fft.irfft(spec, n_samples)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.3 / peak
    return x


def toy_voice(rng, n_samples, lead_in=0.0):
    """Continuous harmonic tone with a syllable-rate envelope.

    Unlike tone_bursts it has no silent gaps (apart from the optional
    quiet lead-in), which suits the noise-tracker tests.
    """
    t = np.arange(n_samples) / SR
    f0 = rng.uniform(100.0, 220.0)
    drift = rng.uniform(-30.0, 30.0)
    phase = 2.0 * np.pi * (f0 * t + 0.5 * drift * t * t)
    wave = np.zeros(n_samples)
    for k in range(1, 5):
        wave += rng.uniform(0.4, 1.0) / k * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    env = 0.5 - 0.5 * np.cos(2.0 * np.pi * rng.uniform(2.0, 4.0) * t)
    x = wave * env
    x *= 0.3 / max(np.max(np.abs(x)), 1e-9)
    if lead_in > 0:
        n_lead = int(lead_in * SR)
        x[:n_lead] = 0.0
    return x


def white_noise(rng, n_samples, rms=0.1):
    return rng.normal(0.0, rms, n_samples)


def pink_noise(rng, n_samples, rms=0.1):
    spec = np.fft.rfft(rng.normal(0.0, 1.0, n_samples))
    f = np.arange(spec.size, dtype=float)
    f[0] = 1.0
    x = np.fft.irfft(spec / np.sqrt(f), n_samples)
    return x * (rms / np.sqrt(np.mean(x * x)))


def quantize(x):
    """Snap samples onto the 16-bit PCM grid, like a save/load round trip."""
    return np.clip(np.rint(np.asarray(x) * 32768.0), -32768, 32767) / 32768.0


@pytest.fixture(scope="session")
def wav_corpus(tmp_path_factory):
    """Small on-disk corpus: 6 clean bursts (1 s) and 4 noises (3 s)."""
    root = tmp_path_factory.mktemp("corpus")
    clean_dir = root / "clean"
    noise_dir = root / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    rng = np.random.default_rng(2024)
    for i in range(6):
        save_wav(tone_bursts(rng, SR), clean_dir / f"utt{i:02d}.wav")
    save_wav(white_noise(rng, 3 * SR), noise_dir / "white_a.wav")
    save_wav(white_noise(rng, 3 * SR), noise_dir / "white_b.wav")
    save_wav(pink_noise(rng, 3 * SR), noise_dir / "pink_a.wav")
    save_wav(pink_noise(rng, 3 * SR), noise_dir / "pink_b.wav")
    return clean_dir, noise_dir
