"""Short-time Fourier analysis and synthesis for 16 kHz speech.

Framing uses a 32 ms symmetric Hamming window with a 16 ms shift and a
512-point DFT, keeping the 257-bin single-sided spectrum (DC and Nyquist
included).  Frames are strided views of the zero-padded signal, and
stft and istft run in blocks of BLOCK_FRAMES frames transformed straight
into their outputs, so neither builds a (frames x fft_size) array.  A
SpectroGram is its complex spectrum; magnitude (np.abs) and phase
(np.angle) are derived on first read and kept, so magnitude-only
analyses never compute the phase.  Synthesis is weighted overlap-add of
the spectrum, so a real gain applied to it is resynthesized with no
phase at all.  Each output sample is normalised by the summed squared
analysis window, which reconstructs unmodified spectra exactly at any
frame position, the partially covered edges included.  Each block
overlap-adds ceil(frame_len / frame_shift) slices of one shift each,
last slice first, so each sample sums its frames in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

SAMPLE_RATE = 16000
BLOCK_FRAMES = 32  # frames per stft/istft block


@dataclass
class AudioSignal:
    """Mono waveform, float64 samples nominally in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class AnalysisConfig:
    """Frame/DFT geometry. Defaults give 257 bins at 16 kHz."""

    frame_len: int = 512
    frame_shift: int = 256
    fft_size: int = 512

    def __post_init__(self):
        if self.frame_len < 2:
            raise ValueError("frame_len must be at least 2")
        if not 0 < self.frame_shift <= self.frame_len:
            raise ValueError("frame_shift must be in (0, frame_len]")
        if self.fft_size < self.frame_len:
            raise ValueError("fft_size must cover frame_len")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


DEFAULT_CONFIG = AnalysisConfig()


class SpectroGram:
    """Single-sided complex spectra, one row per frame, and the config
    they were made with.

    stft builds one from its complex spectrum, which it keeps as it is.
    Built from a magnitude and a phase array, it keeps the two as its
    magnitude and phase and their polar form as its spectrum.  Otherwise
    magnitude and phase are derived from the spectrum on first read and
    kept.
    """

    def __init__(self, magnitude, phase, config: AnalysisConfig = DEFAULT_CONFIG):
        magnitude = np.asarray(magnitude, dtype=np.float64)
        phase = np.asarray(phase, dtype=np.float64)
        if magnitude.shape != phase.shape:
            raise ValueError("magnitude and phase shapes differ")
        if magnitude.ndim != 2:
            raise ValueError("spectra must be 2-D (frames x bins)")
        if magnitude.shape[1] != config.n_bins:
            raise ValueError(f"bins: expected {config.n_bins}, got {magnitude.shape[1]}")
        if np.any(magnitude < 0):
            raise ValueError("magnitude must be non-negative")
        self.magnitude, self.phase = magnitude, phase
        self.spectrum = _polar(magnitude, phase)
        self.config = config

    @classmethod
    def from_spectrum(cls, spectrum: np.ndarray, config: AnalysisConfig) -> "SpectroGram":
        """The spectrogram of a (frames, n_bins) complex spectrum, kept as it is."""
        spec = cls.__new__(cls)
        spec.spectrum, spec.config = spectrum, config
        return spec

    @cached_property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.spectrum)

    @cached_property
    def phase(self) -> np.ndarray:
        return np.angle(self.spectrum)

    @property
    def n_frames(self) -> int:
        return self.spectrum.shape[0]


def _samples(signal) -> np.ndarray:
    if isinstance(signal, AudioSignal):
        return signal.samples
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    return x


@lru_cache(maxsize=8)
def hamming_window(n: int) -> np.ndarray:
    """Symmetric Hamming window, w[i] = 0.54 - 0.46 cos(2 pi i / (n - 1)).

    Every value is strictly positive (edge value 0.08), which keeps the
    overlap-add normalisation well defined.  Built once per length and
    returned read-only.
    """
    if n < 2:
        raise ValueError("window length must be at least 2")
    i = np.arange(n, dtype=np.float64)
    w = 0.54 - 0.46 * np.cos(2.0 * np.pi * i / (n - 1))
    w.flags.writeable = False
    return w


def frame_count(n_samples: int, frame_shift: int) -> int:
    return -(-n_samples // frame_shift)


def frame_signal(signal, config: AnalysisConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Slice a signal into overlapping frames, zero-padding the tail.

    Frame l covers samples [l * frame_shift, l * frame_shift + frame_len).
    The frame count is ceil(len / frame_shift), so every sample lands in
    at least one frame.  The frames are a read-only strided view of the
    padded signal.
    """
    x = _samples(signal)
    if x.size == 0:
        raise ValueError("cannot frame an empty signal")
    n_frames = frame_count(x.size, config.frame_shift)
    padded = np.zeros((n_frames - 1) * config.frame_shift + config.frame_len)
    padded[: x.size] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, config.frame_len)
    return windows[:: config.frame_shift]


def stft(signal, config: AnalysisConfig = DEFAULT_CONFIG) -> SpectroGram:
    """Windowed forward transform. Unnormalized DFT, single-sided bins."""
    frames = frame_signal(signal, config)
    window = hamming_window(config.frame_len)
    n_frames = frames.shape[0]
    spectrum = np.empty((n_frames, config.n_bins), dtype=np.complex128)
    block = np.empty((min(BLOCK_FRAMES, n_frames), config.frame_len))
    for b in range(0, n_frames, BLOCK_FRAMES):
        e = min(b + BLOCK_FRAMES, n_frames)
        windowed = np.multiply(frames[b:e], window, out=block[: e - b])
        np.fft.rfft(windowed, n=config.fft_size, axis=1, out=spectrum[b:e])
    return SpectroGram.from_spectrum(spectrum, config)


def synthesis_length(n_frames: int, config: AnalysisConfig = DEFAULT_CONFIG) -> int:
    return (n_frames - 1) * config.frame_shift + config.frame_len


def istft(spec: SpectroGram, out_len: int | None = None) -> AudioSignal:
    """Weighted overlap-add synthesis with per-sample window normalisation.

    out_len defaults to the full synthesizable span. Requesting more
    samples than the frames cover is an error.
    """
    cfg = spec.config
    total = synthesis_length(spec.n_frames, cfg)
    if out_len is None:
        out_len = total
    if out_len > total:
        raise ValueError(f"out_len {out_len} exceeds synthesizable length {total}")
    if out_len < 0:
        raise ValueError("out_len must be non-negative")

    hop, n_frames = cfg.frame_shift, spec.n_frames
    k = -(-cfg.frame_len // hop)  # shifts one frame spans
    window = hamming_window(cfg.frame_len)
    spectrum = spec.spectrum
    # a block's frames, zero past frame_len up to k whole shifts
    block = np.zeros((min(BLOCK_FRAMES, n_frames), max(cfg.fft_size, k * hop)))
    out = np.zeros((n_frames + k - 1, hop))
    for b in range(0, n_frames, BLOCK_FRAMES):
        e = min(b + BLOCK_FRAMES, n_frames)
        frames = block[: e - b]
        np.fft.irfft(spectrum[b:e], n=cfg.fft_size, axis=1, out=frames[:, : cfg.fft_size])
        frames[:, : cfg.frame_len] *= window
        frames[:, cfg.frame_len : k * hop] = 0.0
        for j in range(k - 1, -1, -1):  # later frames add last to each sample
            out[b + j : e + j] += frames[:, j * hop : (j + 1) * hop]
    wsq = np.pad(window * window, (0, k * hop - cfg.frame_len))
    # the window sum of each row, later frames first: a run of m frames
    # has every distinct one, and rows k-1 .. n_frames-1 share row k-1's
    m = min(n_frames, k)
    norm = np.zeros((m + k - 1, hop))
    for j in range(k - 1, -1, -1):
        norm[j : j + m] += wsq[j * hop : (j + 1) * hop]
    with np.errstate(divide="ignore", invalid="ignore"):  # norm is 0 only past total
        out[: k - 1] /= norm[: k - 1]
        out[k - 1 : n_frames] /= norm[k - 1]
        out[max(n_frames, k - 1) :] /= norm[max(m, k - 1) :]
    return AudioSignal(out.reshape(-1)[:out_len])


def _polar(magnitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """magnitude * (cos(phase) + i sin(phase)), in one complex array."""
    z = np.empty(magnitude.shape, dtype=np.complex128)
    for part, f in ((z.real, np.cos), (z.imag, np.sin)):
        f(phase, out=part)
        part *= magnitude
    return z
