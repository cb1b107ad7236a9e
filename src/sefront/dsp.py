"""Short-time Fourier analysis and synthesis for 16 kHz speech.

Framing uses a 32 ms symmetric Hamming window with a 16 ms shift and a
512-point DFT, keeping the 257-bin single-sided spectrum (DC and Nyquist
included).  Frames are strided views of the zero-padded signal, so
framing copies nothing; the window product makes the one copy.  A
SpectroGram from stft keeps the complex spectrum and derives the phase
with np.angle on first read, so analyses that use magnitudes only
(features, statistics, training targets) never compute it.  Synthesis
is weighted overlap-add: the analysis window is reused for synthesis and
each output sample is normalised by the summed squared window, which
reconstructs unmodified spectra exactly at any frame position, including
the partially covered edges.  It builds the spectrum as magnitude *
cos(phase) + i magnitude * sin(phase) in one complex array (magnitude *
exp(i phase) but for the sign of a zero, which the overlap-add onto +0.0
erases) and overlap-adds ceil(frame_len / frame_shift) blocks of one
shift each, last block first, so each sample sums its frames in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000


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
    """Single-sided magnitude/phase spectra, one row per frame.

    Built from a magnitude and a phase array, or by stft from the complex
    spectrum, in which case phase is np.angle of it, computed on first
    read.
    """

    def __init__(self, magnitude, phase, config: AnalysisConfig = DEFAULT_CONFIG):
        self.magnitude = np.asarray(magnitude, dtype=np.float64)
        self._phase = np.asarray(phase, dtype=np.float64)
        self._spectrum = None
        self.config = config
        if self.magnitude.shape != self._phase.shape:
            raise ValueError("magnitude and phase shapes differ")
        if self.magnitude.ndim != 2:
            raise ValueError("spectra must be 2-D (frames x bins)")
        if self.magnitude.shape[1] != config.n_bins:
            raise ValueError(
                f"bins: expected {config.n_bins}, got {self.magnitude.shape[1]}"
            )
        if np.any(self.magnitude < 0):
            raise ValueError("magnitude must be non-negative")

    @classmethod
    def from_spectrum(cls, spectrum: np.ndarray, config: AnalysisConfig) -> "SpectroGram":
        """Magnitude now and phase on first read, from a (frames, n_bins)
        complex spectrum."""
        spec = cls.__new__(cls)
        spec.magnitude = np.abs(spectrum)
        spec._phase = None
        spec._spectrum = spectrum
        spec.config = config
        return spec

    @property
    def phase(self) -> np.ndarray:
        if self._phase is None:
            self._phase = np.angle(self._spectrum)
            self._spectrum = None
        return self._phase

    @property
    def n_frames(self) -> int:
        return self.magnitude.shape[0]


def _samples(signal) -> np.ndarray:
    if isinstance(signal, AudioSignal):
        return signal.samples
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    return x


def hamming_window(n: int) -> np.ndarray:
    """Symmetric Hamming window, w[i] = 0.54 - 0.46 cos(2 pi i / (n - 1)).

    Every value is strictly positive (edge value 0.08), which keeps the
    overlap-add normalisation well defined.
    """
    if n < 2:
        raise ValueError("window length must be at least 2")
    i = np.arange(n, dtype=np.float64)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * i / (n - 1))


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
    frames = frame_signal(signal, config) * hamming_window(config.frame_len)
    return SpectroGram.from_spectrum(np.fft.rfft(frames, n=config.fft_size, axis=1), config)


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
    frames = np.fft.irfft(_polar(spec.magnitude, spec.phase), n=cfg.fft_size, axis=1)
    if frames.shape[1] < k * hop:
        frames = np.pad(frames, ((0, 0), (0, k * hop - frames.shape[1])))
    frames = frames[:, : k * hop]
    frames[:, : cfg.frame_len] *= window
    frames[:, cfg.frame_len :] = 0.0
    wsq = np.pad(window * window, (0, k * hop - cfg.frame_len))
    out = np.zeros((n_frames + k - 1, hop))
    norm = np.zeros_like(out)
    for j in range(k - 1, -1, -1):  # later frames add last to each sample
        out[j : j + n_frames] += frames[:, j * hop : (j + 1) * hop]
        norm[j : j + n_frames] += wsq[j * hop : (j + 1) * hop]
    out = out.reshape(-1)[:out_len]
    out /= norm.reshape(-1)[:out_len]  # window strictly positive, so norm > 0 here
    return AudioSignal(out)


def _polar(magnitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """magnitude * (cos(phase) + i sin(phase)), in one complex array."""
    z = np.empty(magnitude.shape, dtype=np.complex128)
    for part, f in ((z.real, np.cos), (z.imag, np.sin)):
        f(phase, out=part)
        part *= magnitude
    return z
