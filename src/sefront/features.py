"""Evaluation features and scoring: MFCCs, word error rate, segmental SNR.

The recognizer itself is external; this module produces the features a
recognizer front-end would consume, aligns reference and hypothesis
transcripts for WER, and aggregates per-condition scores into the CSV
table the evaluation grid expects.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.fft import dct

from .corpus import _fmt_snr
from .dsp import SAMPLE_RATE, SpectroGram, _samples

N_MEL_FILTERS = 26
LOG_FLOOR = 1e-10
SEG_FRAME_LEN = 512  # 32 ms at 16 kHz
SEG_SNR_MIN = -10.0
SEG_SNR_MAX = 35.0
SEG_CLEAN_ENERGY_FLOOR = 1e-10


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_filterbank(n_bins: int = 257) -> np.ndarray:
    """The 26 triangular filters on a mel-spaced grid from 0 Hz to Nyquist.

    Rows are evaluated at the bin centre frequencies, so adjacent
    triangles tile the band and every bin above the lowest filter edge
    gets positive weight somewhere.  Built once per bin count; the
    returned array is shared and read-only.
    """
    nyquist = SAMPLE_RATE / 2.0
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), N_MEL_FILTERS + 2))
    bin_freqs = np.linspace(0.0, nyquist, n_bins)
    fb = np.zeros((N_MEL_FILTERS, n_bins))
    for m in range(N_MEL_FILTERS):
        lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        up = (bin_freqs - lo) / (mid - lo)
        down = (hi - bin_freqs) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    fb.flags.writeable = False
    return fb


def mfcc(spec: SpectroGram) -> np.ndarray:
    """Mel-frequency cepstra from the magnitude spectrogram.

    Power spectrum -> 26 triangular mel filters -> natural log with a
    1e-10 floor -> orthonormal DCT-II.  Depends on the magnitudes only,
    never the phase.
    """
    if spec.magnitude.shape[1] != spec.config.n_bins:
        raise ValueError("spectrogram bin count does not match its config")
    fb = mel_filterbank(spec.config.n_bins)
    energies = (spec.magnitude**2) @ fb.T
    logs = np.log(np.maximum(energies, LOG_FLOOR))
    return dct(logs, type=2, norm="ortho", axis=1)


_KEEP = "'"


@dataclass(frozen=True)
class Transcript:
    """Ordered lowercase word tokens."""

    words: tuple[str, ...]

    def __post_init__(self):
        for w in self.words:
            if not w or w != w.lower():
                raise ValueError(f"bad token {w!r}: tokens are non-empty lowercase")

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        """Normalize: lowercase, drop punctuation except apostrophes, split."""
        cleaned = "".join(
            c if c.isalnum() or c == _KEEP else " " for c in text.lower()
        )
        return cls(tuple(cleaned.split()))

    def __len__(self):
        return len(self.words)


@dataclass(frozen=True)
class EvalRecord:
    reference: Transcript
    hypothesis: Transcript
    substitutions: int
    deletions: int
    insertions: int
    wer_percent: float

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions


def wer(reference: Transcript, hypothesis: Transcript) -> EvalRecord:
    """Word error rate from a minimal Levenshtein alignment.

    Unit costs for substitution, deletion, insertion.  Ties during the
    backtrace prefer substitution, then insertion, then deletion.  The
    rate is 100 * (S + D + I) / len(reference) and can exceed 100.
    """
    ref, hyp = reference.words, hypothesis.words
    m, n = len(ref), len(hyp)
    if m == 0:
        raise ValueError("reference transcript is empty")

    d = np.zeros((m + 1, n + 1), dtype=np.int64)
    d[:, 0] = np.arange(m + 1)
    d[0, :] = np.arange(n + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            sub = d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            d[i, j] = min(sub, d[i, j - 1] + 1, d[i - 1, j] + 1)

    subs = dels = ins = 0
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i, j] == d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif j > 0 and d[i, j] == d[i, j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1

    total = subs + dels + ins
    return EvalRecord(reference, hypothesis, subs, dels, ins, 100.0 * total / m)


def segmental_snr(clean, processed) -> float:
    """Mean per-frame SNR in dB over 32 ms non-overlapping frames.

    Each frame's 10 log10(clean energy / error energy) is clamped to
    [-10, 35] dB; frames with clean energy below 1e-10 are excluded.
    """
    x = _samples(clean)
    y = _samples(processed)
    if x.size != y.size:
        raise ValueError(f"length mismatch: clean {x.size}, processed {y.size}")
    n_frames = x.size // SEG_FRAME_LEN
    if n_frames == 0:
        raise ValueError(f"need at least {SEG_FRAME_LEN} samples")
    x = x[: n_frames * SEG_FRAME_LEN].reshape(n_frames, SEG_FRAME_LEN)
    y = y[: n_frames * SEG_FRAME_LEN].reshape(n_frames, SEG_FRAME_LEN)
    sig = np.sum(x * x, axis=1)
    err = np.sum((x - y) ** 2, axis=1)
    keep = sig >= SEG_CLEAN_ENERGY_FLOOR
    if not np.any(keep):
        raise ValueError("no frames with clean energy above the floor")
    snr = 10.0 * np.log10(sig[keep] / np.maximum(err[keep], 1e-300))
    return float(np.mean(np.clip(snr, SEG_SNR_MIN, SEG_SNR_MAX)))


@dataclass(frozen=True)
class ConditionScore:
    noise: str
    snr_db: float
    n: int
    wer_percent: float


def transcript_name(output_path: str) -> str:
    return Path(output_path).stem + ".txt"


def _read_transcript(path: Path, entry_name: str) -> Transcript:
    if not path.is_file():
        raise FileNotFoundError(f"{entry_name}: missing transcript {path}")
    return Transcript.from_text(path.read_text(encoding="utf-8"))


def score_manifest(entries, ref_dir, hyp_dir) -> list[ConditionScore]:
    """Mean per-entry WER grouped by (noise source, SNR level).

    Transcripts are one file per entry, named after the entry's output
    file with a .txt suffix, in ref_dir and hyp_dir.
    """
    ref_dir, hyp_dir = Path(ref_dir), Path(hyp_dir)
    groups: dict[tuple[str, float], list[float]] = {}
    for e in entries:
        name = transcript_name(e.output_path)
        ref = _read_transcript(ref_dir / name, e.output_path)
        hyp = _read_transcript(hyp_dir / name, e.output_path)
        rec = wer(ref, hyp)
        groups.setdefault((Path(e.noise_path).stem, e.snr_db), []).append(
            rec.wer_percent
        )
    return [
        ConditionScore(noise, snr_db, len(vals), float(np.mean(vals)))
        for (noise, snr_db), vals in sorted(groups.items())
    ]


def write_score_csv(scores, path) -> None:
    """CSV with header noise,snr_db,n,wer_percent; each SNR as the
    manifest writes it, WER to two decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["noise", "snr_db", "n", "wer_percent"])
        for s in scores:
            w.writerow([s.noise, _fmt_snr(s.snr_db), s.n, f"{s.wer_percent:.2f}"])
