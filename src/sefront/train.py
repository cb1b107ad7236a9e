"""Training loop for the spectral target network, plus inference.

Each mini-batch takes a slate of clean recordings, mixes every one with
a random section of a random noise recording at a random SNR from the
config's range (corpus.draw_mixtures, the schedule estimate_stats also
draws), and regresses the noisy magnitudes onto the bounded mapped
targets computed from the oracle a priori SNR of that very mixture.  One
Adam step per batch on globally clipped gradients.  A batch's examples
are each as long as their own recording; since the drawn lengths are
known before mixing, the batch is laid out once in rnn's packed order
(an rnn.PackedBatch, in the params' dtype, as the gradients and Adam's
state are), each example written into its rows as it is made, and
rnn.backward takes it over, so the batch is held once.  Every noise
recording must be at least as long as the longest clean one, which
train() checks before the first batch.  Recordings are WAV paths or
in-memory signals.

Everything is driven by one seeded generator, so a rerun with the same
seed reproduces the loss history bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import check_corpora, draw_mixtures, mix_at_snr
from .dsp import DEFAULT_CONFIG, SpectroGram, frame_count, stft
from .rnn import NetworkParams, PackedBatch, backward, forward
from .snr import XiStats, map_xi, oracle_xi, unmap_xi, xi_to_db, STATS_XI_FLOOR

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Training settings; snrs is the SNR range (dB) each mixture draws
    from, -10 to 20 dB in 1 dB steps by default, and must not be empty."""

    epochs: int = 10
    batch_size: int = 10
    learn_rate: float = 1e-3
    grad_clip_norm: float = 5.0
    snrs: range = range(-10, 21)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        # written so that NaN fails too
        if not (0 <= self.learn_rate < np.inf and 0 <= self.grad_clip_norm < np.inf):
            raise ValueError("learn_rate and grad_clip_norm must be finite and non-negative")
        if len(self.snrs) == 0:
            raise ValueError("empty SNR range")


class Adam:
    """Plain Adam with bias correction; state keyed by tensor name."""

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        for name, p in tensors.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients together so the global norm is at most max_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total

def make_example(clean, noise_section, snr_db, stats: XiStats):
    """(noisy magnitudes, mapped target) for one mixture."""
    mixed = mix_at_snr(clean, noise_section, snr_db)
    noisy_spec = stft(mixed.noisy)
    xi = oracle_xi(stft(mixed.clean), stft(mixed.noise))
    target = map_xi(xi_to_db(np.maximum(xi, STATS_XI_FLOOR)), stats)
    return noisy_spec.magnitude, target


def train(
    params: NetworkParams,
    clean_signals,
    noise_signals,
    stats: XiStats,
    cfg: TrainConfig = TrainConfig(),
):
    """Train in place; returns (params, per-batch loss history).

    A recording is a WAV path or an in-memory signal.  Every length (and
    so every file's format) is checked before the first batch.  Each
    epoch shuffles the clean corpus, and each batch runs its slice of
    that permutation through corpus.draw_mixtures, which reads only what
    it draws, so only the batch is held in memory.  The trailing
    remainder that does not fill a batch is dropped, so the history
    length is epochs * (len(clean) // batch_size).  A batch whose loss is
    not finite stops training with a FloatingPointError naming it (its
    index in the history); NumPy's overflow and invalid-value warnings
    are silenced inside a step.
    """
    clean = list(clean_signals)
    noise = list(noise_signals)
    lengths = check_corpora(clean, noise)
    if len(clean) < cfg.batch_size:
        raise ValueError(
            f"corpus of {len(clean)} recordings is smaller than "
            f"batch_size {cfg.batch_size}"
        )
    if stats.n_bins != DEFAULT_CONFIG.n_bins:
        raise ValueError("stats bin count does not match the analysis config")

    rng = np.random.default_rng(cfg.seed)
    opt = Adam(cfg.learn_rate)
    tensors = params.tensors()
    history: list[float] = []

    for _ in range(cfg.epochs):
        order = rng.permutation(len(clean))
        for b in range(len(clean) // cfg.batch_size):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            # every drawn length is known, so each example goes straight
            # into its packed rows as it is made
            batch = PackedBatch([frame_count(lengths[0][i], DEFAULT_CONFIG.frame_shift)
                                 for i in idx], params.input_dim, params.output_dim, params.dtype)
            for j, (x, section, snr_db) in enumerate(draw_mixtures(clean, noise, lengths, idx,
                                                                   cfg.snrs, rng)):
                batch.put(j, *make_example(x, section, snr_db, stats))
            # a diverging step is reported once, below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = backward(params, batch)  # takes the batch's targets over
                del batch
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"training loss went non-finite at batch {len(history)}")
                clip_gradients(grads, cfg.grad_clip_norm)
                opt.step(tensors, grads)
            history.append(loss)
    return params, history


def infer_xi(
    params: NetworkParams,
    noisy,
    stats: XiStats,
) -> np.ndarray:
    """Estimated linear a priori SNR per frame and bin, strictly positive.

    noisy is a waveform, or its SpectroGram, which is used as it is (with
    its own config).
    """
    spec = noisy if isinstance(noisy, SpectroGram) else stft(noisy)
    n_bins = spec.config.n_bins
    if params.input_dim != n_bins or params.output_dim != n_bins:
        raise ValueError("model dimensions do not match the analysis config")
    if stats.n_bins != n_bins:
        raise ValueError("stats bin count does not match the analysis config")
    pred = forward(params, spec.magnitude)
    return unmap_xi(pred, stats)
