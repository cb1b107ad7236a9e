"""Seeded input generator for the benchmark.

Everything a workload feeds the program is made here from one seed:
harmonic "speech" bursts, noise recordings (white, pink, babble), exact-SNR
mixtures on the -5...15 dB grid, and transcripts with planted edits.  It
does not use the test suite's fixtures, so editing the tests cannot shift
the benchmark.

Lengths, SNRs and noise types are stratified (an even grid in a fixed
order) rather than drawn, so that every seed gives the program the same
amount and mix of work; the seed sets the waveforms, offsets and words.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

SR = 16000
SNR_GRID = (-5, 0, 5, 10, 15)
NOISE_KINDS = ("white", "pink", "babble")
MIN_UTT_S = 2.0
MAX_UTT_S = 6.0

# The seed a later performance claim is checked on: never use it while
# writing the change the claim is about.
HELD_OUT_SEED = 9001

# The fixed inputs of the reference check (see reference.py); no --seed
# changes them.
REFERENCE_SEED = 4242

_VOCAB = (
    "the a of to and in is it that on was for with as at by this be from or "
    "one had not but what all were when we there can an your which their said "
    "if do will each about how up out them then she many some so these would "
    "other into has more her two like him see time could no make than first"
).split()


def pcm16(x: np.ndarray) -> np.ndarray:
    """Snap samples onto the 16-bit PCM grid, as a WAV round trip would."""
    return np.clip(np.rint(np.asarray(x) * 32768.0), -32768, 32767) / 32768.0


def write_wav(x: np.ndarray, path: Path) -> None:
    q = np.clip(np.rint(np.asarray(x) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(q.tobytes())


def _check_format(wf, path: Path) -> None:
    fmt = (wf.getnchannels(), wf.getsampwidth(), wf.getframerate())
    if fmt != (1, 2, SR):
        raise ValueError(f"{path.name}: expected mono PCM16 at {SR} Hz, got {fmt}")


def read_wav(path: Path) -> np.ndarray:
    """Samples of a 16 kHz mono PCM16 WAV; ValueError on any other format."""
    with wave.open(str(path), "rb") as wf:
        _check_format(wf, path)
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def wav_frames(path: Path) -> int:
    """Sample count of a 16 kHz mono PCM16 WAV; ValueError on any other format."""
    with wave.open(str(path), "rb") as wf:
        _check_format(wf, path)
        return wf.getnframes()


def stratified_lengths(n: int, lo: float, hi: float) -> list[int]:
    """n sample counts evenly spaced over [lo, hi] seconds.

    They come in golden-ratio stride order, so any run of consecutive items
    spreads over the whole range and item i has the same length for every
    seed.
    """
    stride = max(1, round(0.618 * n))
    while np.gcd(stride, n) != 1:
        stride += 1
    secs = lo + (hi - lo) * ((np.arange(n) * stride) % n + 0.5) / n
    return [int(s * SR) for s in secs]


def _bursts(rng, n_samples: int, f0_lo: float, f0_hi: float, lead_in: float):
    """Harmonic tone bursts with raised-cosine edges and quiet gaps."""
    t = np.arange(n_samples) / SR
    f0 = rng.uniform(f0_lo, f0_hi)
    glide = rng.uniform(-20.0, 20.0)
    phase = 2.0 * np.pi * (f0 * t + 0.5 * glide * t * t)
    voiced = np.zeros(n_samples)
    for k in range(1, 6):
        voiced += rng.uniform(0.3, 1.0) / k * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    env = np.zeros(n_samples)
    pos = int(lead_in * SR)
    while pos < n_samples:
        on = int(rng.uniform(0.08, 0.30) * SR)
        off = int(rng.uniform(0.04, 0.15) * SR)
        stop = min(pos + on, n_samples)
        seg = stop - pos
        if seg > 128:
            ramp = 64
            edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
            e = np.full(seg, rng.uniform(0.5, 1.0))
            e[:ramp] *= edge
            e[seg - ramp :] *= edge[::-1]
            env[pos:stop] = e
        pos = stop + off
    return voiced * env


def utterance(rng, n_samples: int) -> np.ndarray:
    """One synthetic utterance: bursts after a 150 ms quiet lead-in, peak 0.3."""
    x = _bursts(rng, n_samples, 100.0, 300.0, lead_in=0.15)
    return pcm16(x * (0.3 / max(np.max(np.abs(x)), 1e-9)))


def _unit_rms(x: np.ndarray, rms: float) -> np.ndarray:
    return x * (rms / np.sqrt(np.mean(x * x)))


def noise(rng, kind: str, n_samples: int, rms: float = 0.08) -> np.ndarray:
    """A noise recording: white, pink (1/f power) or babble (summed talkers)."""
    if kind == "white":
        x = rng.normal(0.0, 1.0, n_samples)
    elif kind == "pink":
        spec = np.fft.rfft(rng.normal(0.0, 1.0, n_samples))
        f = np.arange(spec.size, dtype=np.float64)
        f[0] = 1.0
        x = np.fft.irfft(spec / np.sqrt(f), n_samples)
    elif kind == "babble":
        x = sum(_bursts(rng, n_samples, 90.0, 320.0, lead_in=0.0) for _ in range(6))
        x = x + 0.05 * np.std(x) * rng.normal(0.0, 1.0, n_samples)
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return pcm16(_unit_rms(x, rms))


def mix(clean: np.ndarray, noise_rec: np.ndarray, snr_db: float, offset: int):
    """(noisy, scaled noise, clean) on the PCM grid, clean-to-noise ratio snr_db.

    Like the program's mixer, a mixture peaking above 0.99 is rescaled
    together with both components.
    """
    section = noise_rec[offset : offset + clean.size]
    g = np.sqrt(np.mean(clean**2) / np.mean(section**2) * 10.0 ** (-snr_db / 10.0))
    scaled = g * section
    noisy = clean + scaled
    peak = np.max(np.abs(noisy))
    if peak > 0.99:
        scaled, noisy, clean = (v * (0.99 / peak) for v in (scaled, noisy, clean))
    return pcm16(noisy), pcm16(scaled), pcm16(clean)


def write_corpus(root: Path, rng, n_clean: int, lo: float, hi: float,
                 noise_seconds: float = 20.0):
    """clean/ and noise/ directories of WAVs; returns (clean_dir, noise_dir)."""
    clean_dir, noise_dir = root / "clean", root / "noise"
    clean_dir.mkdir(parents=True)
    noise_dir.mkdir(parents=True)
    for i, n in enumerate(stratified_lengths(n_clean, lo, hi)):
        write_wav(utterance(rng, n), clean_dir / f"utt{i:03d}.wav")
    for kind in NOISE_KINDS:
        write_wav(noise(rng, kind, int(noise_seconds * SR)), noise_dir / f"{kind}.wav")
    return clean_dir, noise_dir


def write_noisy_set(root: Path, rng, n_utts: int, lo: float, hi: float,
                    noise_seconds: float = 20.0):
    """Noisy utterances with their clean and noise references.

    Utterance i is mixed with noise kind i mod 3 at grid SNR i mod 5, at a
    seeded offset.  Returns a list of dicts with the three paths and the
    sample count.
    """
    root.mkdir(parents=True)
    recs = {k: noise(rng, k, int(noise_seconds * SR)) for k in NOISE_KINDS}
    items = []
    for i, n in enumerate(stratified_lengths(n_utts, lo, hi)):
        clean = utterance(rng, n)
        rec = recs[NOISE_KINDS[i % len(NOISE_KINDS)]]
        offset = int(rng.integers(rec.size - n + 1))
        noisy, scaled, clean = mix(clean, rec, SNR_GRID[i % len(SNR_GRID)], offset)
        paths = {k: root / f"{k}{i:03d}.wav" for k in ("noisy", "clean", "noise")}
        write_wav(noisy, paths["noisy"])
        write_wav(clean, paths["clean"])
        write_wav(scaled, paths["noise"])
        items.append({**paths, "n": n})
    return items


def transcript_pair(rng):
    """(reference words, hypothesis words, planted edit count).

    The hypothesis replaces some words with fresh tokens that occur nowhere
    in the reference and deletes others, so the minimum edit distance is
    exactly the number of planted edits.
    """
    n = int(rng.integers(8, 17))
    ref = [_VOCAB[int(i)] for i in rng.integers(len(_VOCAB), size=n)]
    n_sub = int(rng.integers(0, 3))
    n_del = int(rng.integers(0, 3))
    picks = rng.permutation(n)
    subs = set(int(p) for p in picks[:n_sub])
    dels = set(int(p) for p in picks[n_sub : n_sub + n_del])
    hyp = []
    for j, w in enumerate(ref):
        if j in subs:
            hyp.append(f"xq{j}")
        elif j not in dels:
            hyp.append(w)
    return ref, hyp, n_sub + n_del
