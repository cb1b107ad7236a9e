"""A priori SNR: oracle values, the bounded training-target map, statistics.

The a priori SNR xi of a noisy spectral cell is the ratio of clean to
noise power.  For training targets it is compressed through the normal
CDF in the dB domain, parameterised per frequency bin by the mean and
standard deviation of xi_dB over a mixed corpus, so every target lands
in (0, 1) and the inverse map recovers xi_dB on the interior.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _scipy
from .corpus import check_corpora, draw_mixtures, mixing_gain, read_recording
from .dsp import DEFAULT_CONFIG, frame_count, stft

NOISE_POWER_FLOOR = 1e-12
MAP_CLAMP = 1e-7
SIGMA_FLOOR_DB = 0.1
STATS_XI_FLOOR = 1e-12  # keeps xi_dB finite when a clean cell is exactly zero

_SQRT2 = np.sqrt(2.0)
_STATS_MAGIC = "xistats-v1"


def oracle_xi(clean, noise) -> np.ndarray:
    """Instantaneous a priori SNR |S|^2 / max(|D|^2, 1e-12) per cell.

    clean and noise are SpectroGrams, or their magnitudes, from the same
    framing of the same-length components of a mixture.
    """
    # new names keep the arguments bound until the return; freeing a
    # caller's spectrograms earlier left train's heap 3 MB higher
    s, d = (getattr(x, "magnitude", x) for x in (clean, noise))
    if s.shape != d.shape:
        raise ValueError("clean and noise spectrogram shapes differ")
    s2 = s**2
    d2 = np.maximum(d**2, NOISE_POWER_FLOOR)
    return s2 / d2


def xi_to_db(xi: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(xi)


def db_to_xi(xi_db: np.ndarray) -> np.ndarray:
    return 10.0 ** (np.asarray(xi_db, dtype=np.float64) / 10.0)


@dataclass
class XiStats:
    """Per-bin mean and standard deviation of xi_dB over a corpus."""

    mu_db: np.ndarray
    sigma_db: np.ndarray
    n_frames: int = 0

    def __post_init__(self):
        self.mu_db = np.atleast_1d(np.asarray(self.mu_db, dtype=np.float64))
        self.sigma_db = np.atleast_1d(np.asarray(self.sigma_db, dtype=np.float64))
        if self.mu_db.shape != self.sigma_db.shape or self.mu_db.ndim != 1:
            raise ValueError("mu and sigma must be 1-D and the same length")
        if self.mu_db.size == 0:
            raise ValueError("stats must cover at least one bin")
        if not (np.all(np.isfinite(self.mu_db)) and np.all(np.isfinite(self.sigma_db))):
            raise ValueError("stats must be finite")
        if np.any(self.sigma_db <= 0):
            raise ValueError("sigma must be strictly positive")
        if self.n_frames < 0:
            raise ValueError(f"frame count must not be negative, got {self.n_frames}")

    @property
    def n_bins(self) -> int:
        return self.mu_db.size


def map_xi(xi_db, stats: XiStats) -> np.ndarray:
    """Map xi_dB into (0, 1) through the per-bin normal CDF.

    bar_xi = 0.5 * (1 + erf((xi_dB - mu) / (sigma * sqrt(2)))).
    Broadcasts over leading frame axes; the last axis must match the
    stats length.
    """
    xi_db = np.asarray(xi_db, dtype=np.float64)
    if xi_db.shape[-1] != stats.n_bins:
        raise ValueError("last axis must match the stats bin count")
    z = (xi_db - stats.mu_db) / (stats.sigma_db * _SQRT2)
    return 0.5 * (1.0 + _scipy.erf(z))


def unmap_xi(bar_xi, stats: XiStats) -> np.ndarray:
    """Invert the bounded map back to linear xi.

    Inputs are clamped to [1e-7, 1 - 1e-7] before inversion, so saturated
    network outputs stay finite; interior values round-trip to within
    2e-10 * sigma dB of xi_dB, most of that next to the clamp.
    """
    bar = np.asarray(bar_xi, dtype=np.float64)
    if bar.shape[-1] != stats.n_bins:
        raise ValueError("last axis must match the stats bin count")
    bar = np.clip(bar, MAP_CLAMP, 1.0 - MAP_CLAMP)
    xi_db = stats.sigma_db * _SQRT2 * _scipy.erfinv(2.0 * bar - 1.0) + stats.mu_db
    return db_to_xi(xi_db)


def _pool_stats(pool: np.ndarray) -> XiStats:
    """Per-bin stats of a (frames x bins) pool, computed in place on it.

    The reductions are the ones np.mean and np.std(ddof=1) run, so the
    result is theirs bit for bit; the pool is left holding the squared
    deviations.
    """
    n = pool.shape[0]
    mu = np.add.reduce(pool, axis=0)
    mu /= n
    if n > 1:
        pool -= mu
        np.square(pool, out=pool)
        sigma = np.add.reduce(pool, axis=0)
        sigma /= n - 1
        np.sqrt(sigma, out=sigma)
    else:
        sigma = np.zeros_like(mu)
    np.maximum(sigma, SIGMA_FLOOR_DB, out=sigma)
    return XiStats(mu, sigma, n)


def _content_key(samples: np.ndarray) -> str:
    """Digest of the samples' bytes, hashed from their buffer: a strided
    signal alone is copied to a contiguous one."""
    return hashlib.blake2b(np.ascontiguousarray(samples), digest_size=16).hexdigest()


def _by_content(recordings, lengths) -> tuple[list, list[int]]:
    """The recordings and their lengths, sorted by the digest of their
    float64 samples; each recording is read once, one at a time."""
    keys = [_content_key(read_recording(r)) for r in recordings]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [recordings[i] for i in order], [lengths[i] for i in order]


def estimate_stats(
    clean_signals,
    noise_signals,
    snr_range=range(-10, 21, 5),
    seed: int = 0,
) -> XiStats:
    """Pool oracle xi_dB over a seeded mixing schedule and take per-bin stats.

    The schedule is training's, corpus.draw_mixtures: each clean
    recording is paired with one noise recording, a random section of
    it, and one SNR from snr_range; as in training, no noise recording
    may be shorter than the longest clean one, and no clean recording
    may be empty.  Both corpora are put in content-digest order before
    the schedule runs over every clean recording, so the result is
    invariant to the order the recordings are passed in.  Clean cells
    with zero magnitude enter the pool at the -120 dB floor.

    A recording is a WAV path or an in-memory signal; every length is
    checked before any samples are read.
    """
    clean = list(clean_signals)
    noise = list(noise_signals)
    snrs = list(snr_range)
    clean_lengths, noise_lengths = check_corpora(clean, noise)
    if not snrs:
        raise ValueError("empty grid")

    clean, clean_lengths = _by_content(clean, clean_lengths)
    noise, noise_lengths = _by_content(noise, noise_lengths)

    rng = np.random.default_rng(seed)
    n_frames = [frame_count(n, DEFAULT_CONFIG.frame_shift) for n in clean_lengths]
    pool = np.empty((sum(n_frames), DEFAULT_CONFIG.n_bins))
    mixtures = draw_mixtures(clean, noise, (clean_lengths, noise_lengths),
                             range(len(clean)), snrs, rng)
    start = 0
    for (x, section, snr_db), rows_n in zip(mixtures, n_frames):
        g = mixing_gain(x, section, snr_db)
        rows = pool[start : start + rows_n]
        np.maximum(oracle_xi(stft(x), stft(g * section)), STATS_XI_FLOOR, out=rows)
        np.log10(rows, out=rows)
        rows *= 10.0
        start += rows_n
    return _pool_stats(pool)


def save_stats(stats: XiStats, path) -> None:
    """Write the line-oriented text format: header, mu row, sigma row."""
    lines = [
        f"{_STATS_MAGIC} {stats.n_bins} {stats.n_frames}",
        " ".join(f"{v:.17g}" for v in stats.mu_db),
        " ".join(f"{v:.17g}" for v in stats.sigma_db),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_stats(path) -> XiStats:
    raw = Path(path).read_bytes()
    try:
        lines = [ln for ln in raw.decode("utf-8").splitlines() if ln.strip()]
        if len(lines) != 3:
            raise ValueError(f"expected 3 lines, got {len(lines)}")
        head = lines[0].split()
        if len(head) != 3 or head[0] != _STATS_MAGIC:
            raise ValueError("bad header")
        n_bins, n_frames = int(head[1]), int(head[2])
        mu = np.array([float(v) for v in lines[1].split()])
        sigma = np.array([float(v) for v in lines[2].split()])
        if mu.size != n_bins or sigma.size != n_bins:
            raise ValueError(f"expected {n_bins} values per row")
        return XiStats(mu, sigma, n_frames)
    except ValueError as exc:  # UnicodeDecodeError too
        raise ValueError(f"stats file: {exc}") from exc
