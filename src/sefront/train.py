"""Training loop for the spectral target network, plus inference.

Each mini-batch takes a slate of clean recordings, mixes every one with
a random section of a random noise recording at a random integer SNR,
and regresses the noisy magnitudes onto the bounded mapped targets
computed from the oracle a priori SNR of that very mixture.  One Adam
step per batch on globally clipped gradients; a batch is the list of
its examples, each as long as its own recording.  Every noise recording
must be at least as long as the longest clean one, which train() checks
before the first batch.  Recordings are WAV paths or in-memory signals;
each is read when the schedule draws it, the noise only for the section
it mixes.

Everything is driven by one seeded generator, so a rerun with the same
seed reproduces the loss history bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import check_corpora, mix_at_snr, read_recording, recording_length
from .dsp import AnalysisConfig, DEFAULT_CONFIG, SpectroGram, stft
from .rnn import NetworkParams, backward, forward
from .snr import XiStats, map_xi, oracle_xi, unmap_xi, xi_to_db, STATS_XI_FLOOR


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 10
    learn_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip_norm: float = 5.0
    snr_min: int = -10
    snr_max: int = 20
    snr_step: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        # written so that NaN fails too
        if not (0 <= self.learn_rate < np.inf and 0 <= self.grad_clip_norm < np.inf):
            raise ValueError("learn_rate and grad_clip_norm must be finite and non-negative")
        if self.snr_max < self.snr_min or self.snr_step < 1:
            raise ValueError("bad SNR range")

    @property
    def snr_choices(self) -> np.ndarray:
        return np.arange(self.snr_min, self.snr_max + 1, self.snr_step)


class Adam:
    """Plain Adam with bias correction; state keyed by tensor name."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for name, p in tensors.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients together so the global norm is at most max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total

def make_example(clean, noise, snr_db, noise_offset, stats: XiStats,
                 config: AnalysisConfig = DEFAULT_CONFIG):
    """(noisy magnitudes, mapped target) for one mixture."""
    mixed = mix_at_snr(clean, noise, snr_db, noise_offset)
    noisy_spec = stft(mixed.noisy, config)
    xi = oracle_xi(stft(mixed.clean, config), stft(mixed.noise, config))
    target = map_xi(xi_to_db(np.maximum(xi, STATS_XI_FLOOR)), stats)
    return noisy_spec.magnitude, target


def train(
    params: NetworkParams,
    clean_signals,
    noise_signals,
    stats: XiStats,
    cfg: TrainConfig = TrainConfig(),
    config: AnalysisConfig = DEFAULT_CONFIG,
):
    """Train in place; returns (params, per-batch loss history).

    A recording is a WAV path or an in-memory signal.  Every length (and
    so every file's format) is checked before the first batch; the seeded
    draws use only the lengths.  A drawn clean recording is read whole,
    and its noise recording only for the section it mixes, so the corpus
    is never held in memory, only the batch.  Epochs shuffle the clean
    corpus; the trailing remainder that does not fill a batch is dropped,
    so the history length is epochs * (len(clean) // batch_size).
    """
    clean = list(clean_signals)
    noise = list(noise_signals)
    clean_lengths = [recording_length(r) for r in clean]
    noise_lengths = [recording_length(r) for r in noise]
    check_corpora(clean_lengths, noise_lengths)
    if len(clean) < cfg.batch_size:
        raise ValueError(
            f"corpus of {len(clean)} recordings is smaller than "
            f"batch_size {cfg.batch_size}"
        )
    if stats.n_bins != config.n_bins:
        raise ValueError("stats bin count does not match the analysis config")

    rng = np.random.default_rng(cfg.seed)
    opt = Adam(cfg.learn_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    tensors = params.tensors()
    snrs = cfg.snr_choices
    history: list[float] = []

    for _ in range(cfg.epochs):
        order = rng.permutation(len(clean))
        n_batches = len(clean) // cfg.batch_size
        for b in range(n_batches):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            mags, targets = [], []
            for ci in idx:
                n = clean_lengths[ci]
                di = int(rng.integers(len(noise)))
                offset = int(rng.integers(noise_lengths[di] - n + 1))
                snr_db = int(snrs[rng.integers(len(snrs))])
                m, t = make_example(read_recording(clean[ci]),
                                    read_recording(noise[di], offset, n),
                                    snr_db, 0, stats, config)
                mags.append(m)
                targets.append(t)
            loss, grads = backward(params, mags, targets)
            clip_gradients(grads, cfg.grad_clip_norm)
            opt.step(tensors, grads)
            history.append(loss)
    return params, history


def infer_xi(
    params: NetworkParams,
    noisy,
    stats: XiStats,
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Estimated linear a priori SNR per frame and bin, strictly positive.

    noisy is a waveform, or its SpectroGram, which is used as it is (with
    its own config).
    """
    spec = noisy if isinstance(noisy, SpectroGram) else stft(noisy, config)
    n_bins = spec.config.n_bins
    if params.input_dim != n_bins or params.output_dim != n_bins:
        raise ValueError("model dimensions do not match the analysis config")
    if stats.n_bins != n_bins:
        raise ValueError("stats bin count does not match the analysis config")
    pred = forward(params, spec.magnitude)
    return unmap_xi(pred, stats)
