"""Corpus tools: PCM WAV I/O, SNR-controlled mixing, test-set manifests.

Recordings are 16-bit mono PCM at 16 kHz.  Loading divides by 32768;
saving rounds back, so a load/save cycle of a conforming file is
byte-identical.  A load can read one section of a file, and mixing reads
only the noise section it uses.  Every read checks that the data chunk
holds the frames asked for, and wav_length reads the last frame back, so
a file cut short of its header's frame count is a WavFormatError, never
a silently shorter signal.  A recording is either a WAV path or an
in-memory signal.  Training and statistics share one seeded schedule,
draw_mixtures, which reads each clean recording it draws and only the
noise section it mixes.  Mixing scales the noise section so the
full-signal power ratio hits the requested SNR exactly, then rescales
all three components together if the mixture would clip.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dsp import SAMPLE_RATE, AudioSignal, _samples

PCM_SCALE = 32768.0
CLIP_TARGET = 0.99


class WavFormatError(ValueError):
    """A WAV file that is not 16-bit mono PCM at 16 kHz."""


# what wave raises on a malformed file, on opening it or reading frames
_WAVE_ERRORS = (wave.Error, EOFError, RuntimeError)


def _format_error(name: str, exc: Exception) -> WavFormatError:
    """One of _WAVE_ERRORS as a WavFormatError naming the file.  wave raises
    a bare EOFError on a file that ends inside a chunk header, and a bare
    RuntimeError on a chunk that outruns the RIFF chunk."""
    reason = str(exc) or ("file ends inside a chunk header" if isinstance(exc, EOFError)
                          else "a chunk runs past the end of the RIFF chunk")
    return WavFormatError(f"{name}: {reason}")


def _open_checked(path: Path) -> wave.Wave_read:
    """An open WAV reader, its format checked property by property."""
    try:
        wf = wave.open(str(path), "rb")
    except _WAVE_ERRORS as exc:
        raise _format_error(path.name, exc) from exc
    for name, got, want in (("channels", wf.getnchannels(), 1),
                            ("sample_width", wf.getsampwidth(), 2),
                            ("sample_rate", wf.getframerate(), SAMPLE_RATE)):
        if got != want:
            wf.close()
            raise WavFormatError(f"{path.name}: {name}: expected {want}, got {got}")
    return wf


def _read_frames(wf: wave.Wave_read, name: str, start: int, n: int) -> bytes:
    """Frames [start, start + n) of an open file; the data chunk must hold them."""
    total = wf.getnframes()
    if start < 0 or n < 0 or start + n > total:
        raise ValueError(f"{name}: frames [{start}, {start + n}) outside its {total} frames")
    try:
        wf.setpos(start)
        raw = wf.readframes(n)
    except _WAVE_ERRORS as exc:
        raise _format_error(name, exc) from exc
    if len(raw) != 2 * n:
        raise WavFormatError(
            f"{name}: data chunk ends before frame {start + n} of the {total} "
            "its header gives"
        )
    return raw


def load_wav(path, start: int = 0, n: int | None = None) -> AudioSignal:
    """Read samples [start, start + n) of a 16-bit mono PCM WAV file at
    16 kHz; n=None reads to the end."""
    path = Path(path)
    with _open_checked(path) as wf:
        if n is None:
            n = wf.getnframes() - start
        raw = _read_frames(wf, path.name, start, n)
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    data /= PCM_SCALE
    return AudioSignal(data)


def wav_length(path) -> int:
    """Sample count from the header, with the same format checks and the
    last frame read back, so a data chunk cut short is caught."""
    path = Path(path)
    with _open_checked(path) as wf:
        n = wf.getnframes()
        if n:
            _read_frames(wf, path.name, n - 1, 1)
        return n


def save_wav(signal, path) -> None:
    """Write 16-bit mono PCM; amplitudes clip to the representable range."""
    x = _samples(signal)
    q = np.multiply(x, PCM_SCALE)
    pcm = np.clip(np.rint(q, out=q), -32768, 32767, out=q).astype("<i2")
    # opened here, not by wave.open: a Wave_write whose own open fails
    # reports an AttributeError from its __del__ on top of the OSError
    with open(path, "wb") as fh, wave.open(fh, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm)


def recording_length(rec) -> int:
    """Sample count of a recording: wav_length of a path, the size of a signal."""
    if isinstance(rec, (str, os.PathLike)):
        return wav_length(rec)
    return _samples(rec).size


def read_recording(rec, start: int = 0, n: int | None = None) -> np.ndarray:
    """Samples [start, start + n) of a recording, n=None reading to the end:
    load_wav of a path, a slice view of a signal."""
    if isinstance(rec, (str, os.PathLike)):
        return load_wav(rec, start, n).samples
    x = _samples(rec)
    return x[start : None if n is None else start + n]


def check_corpora(clean, noise) -> tuple[list[int], list[int]]:
    """The (clean, noise) recording lengths, checked: both corpora
    non-empty, no clean recording empty, and no noise recording shorter
    than the longest clean one, so any noise recording may be drawn for
    any clean one.  Reads the lengths only, no samples; an empty clean
    WAV is named by file, an empty in-memory signal by its position."""
    clean_lengths = [recording_length(r) for r in clean]
    noise_lengths = [recording_length(r) for r in noise]
    if not clean_lengths or not noise_lengths:
        raise ValueError("clean and noise corpora must be non-empty")
    if 0 in clean_lengths:
        i = clean_lengths.index(0)
        if isinstance(clean[i], (str, os.PathLike)):
            raise ValueError(f"{Path(clean[i]).name}: empty recording")
        raise ValueError(f"clean recording {i} is empty")
    if min(noise_lengths) < max(clean_lengths):
        raise ValueError(
            "a noise recording is shorter than the longest clean recording"
        )
    return clean_lengths, noise_lengths


def draw_mixtures(clean, noise, lengths, picks, snrs, rng):
    """Per clean index in picks, draw a noise index, an offset into that
    noise and an SNR from snrs, in that order, and yield (clean samples,
    noise section, snr_db); lengths is check_corpora's (clean, noise)."""
    clean_lengths, noise_lengths = lengths
    for ci in picks:
        n = clean_lengths[ci]
        di = int(rng.integers(len(noise)))
        offset = int(rng.integers(noise_lengths[di] - n + 1))
        snr_db = snrs[rng.integers(len(snrs))]
        yield read_recording(clean[ci]), read_recording(noise[di], offset, n), snr_db


def wav_files(directory) -> list[Path]:
    """The .wav files in a directory, sorted by name; there must be one."""
    files = sorted(Path(directory).glob("*.wav"))
    if not files:
        raise ValueError(f"no .wav files in {directory}")
    return files


def check_section(noise_name: str, n_noise: int, clean_name: str, n_clean: int,
                  offset: int) -> None:
    """The clean recording must not be empty, and the noise section
    [offset, offset + n_clean) must lie inside the noise."""
    if n_clean == 0:
        raise ValueError(f"{clean_name}: empty recording")
    if offset < 0:
        raise ValueError(f"{noise_name}: negative noise offset {offset}")
    if offset + n_clean > n_noise:
        raise ValueError(
            f"{noise_name}: shorter than {clean_name} from offset "
            f"{offset} ({n_noise} < {offset + n_clean} samples)"
        )


def mixing_gain(clean, noise_section, snr_db: float) -> float:
    """Noise scale g with mean-square powers giving exactly snr_db; an SNR
    whose g is not finite and positive in float64 is a ValueError."""
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    x = _samples(clean)
    d = _samples(noise_section)
    p_clean = float(np.mean(x * x))
    p_noise = float(np.mean(d * d))
    if p_clean <= 0.0:
        raise ValueError("clean signal has zero power")
    if p_noise <= 0.0:
        raise ValueError("noise section has zero power")
    try:
        g = float(np.sqrt(p_clean / p_noise * 10.0 ** (-snr_db / 10.0)))
    except OverflowError:  # float ** raises where * gives inf
        g = np.inf
    if not 0.0 < g < np.inf:
        raise ValueError(f"SNR {_fmt_snr(snr_db)} dB is out of range: noise gain {g}")
    return g


class MixResult(NamedTuple):
    noisy: AudioSignal
    clean: AudioSignal
    noise: AudioSignal


def mix_at_snr(clean, noise, snr_db: float, noise_offset: int = 0) -> MixResult:
    """Mix a noise section into the clean signal at an exact SNR.

    The section starts at noise_offset and must cover the clean length.
    noisy == clean + noise holds bit for bit.  If the mixture peaks above
    1.0, all three returned components are rescaled together to a 0.99
    peak, preserving the SNR; the mixture is scaled as summed, so the
    identity then holds to a few ulps.
    """
    x = _samples(clean)
    d_full = _samples(noise)
    check_section("noise", d_full.size, "clean", x.size, noise_offset)
    section = d_full[noise_offset : noise_offset + x.size]
    g = mixing_gain(x, section, snr_db)
    d = g * section
    noisy = x + d
    peak = float(np.max(np.abs(noisy))) if noisy.size else 0.0
    if peak > 1.0:
        scale = CLIP_TARGET / peak
        x = x * scale
        d = d * scale
        noisy = noisy * scale
    return MixResult(AudioSignal(noisy), AudioSignal(x), AudioSignal(d))


@dataclass(frozen=True)
class MixSpec:
    """One mixing job: where the components live and how to combine them."""

    clean_path: str
    noise_path: str
    snr_db: float
    noise_offset: int
    output_path: str


@dataclass
class Manifest:
    entries: list[MixSpec] = field(default_factory=list)

    def __len__(self):
        return len(self.entries)


def _fmt_snr(snr_db: float) -> str:
    """The :g form if it reads back as snr_db, else the exact repr."""
    short = f"{snr_db:g}"
    return short if float(short) == snr_db else repr(float(snr_db))


def build_test_manifest(
    clean_dir,
    noise_dir,
    per_noise_count: int,
    snr_grid,
    seed: int = 0,
) -> Manifest:
    """Draw the evaluation grid: per noise recording, sample clean files
    without replacement and expand each pair over every SNR in the grid,
    with a fresh random noise offset per entry.

    Directory listings are sorted by name, so a fixed seed fixes the
    manifest byte for byte.
    """
    snrs = [float(s) for s in snr_grid]
    if not snrs:
        raise ValueError("empty grid")
    if per_noise_count < 1:
        raise ValueError("per_noise_count must be at least 1")
    clean_paths = wav_files(clean_dir)
    noise_paths = wav_files(noise_dir)
    if per_noise_count > len(clean_paths):
        raise ValueError(
            f"per_noise_count {per_noise_count} exceeds {len(clean_paths)} clean files"
        )

    clean_lens = {p: wav_length(p) for p in clean_paths}
    noise_lens = {p: wav_length(p) for p in noise_paths}

    rng = np.random.default_rng(seed)
    entries = []
    for noise_path in noise_paths:
        picks = rng.choice(len(clean_paths), size=per_noise_count, replace=False)
        for ci in picks:
            clean_path = clean_paths[int(ci)]
            n_clean = clean_lens[clean_path]
            n_noise = noise_lens[noise_path]
            check_section(noise_path.name, n_noise, clean_path.name, n_clean, 0)
            for snr_db in snrs:
                offset = int(rng.integers(n_noise - n_clean + 1))
                out_name = (
                    f"{clean_path.stem}__{noise_path.stem}__{_fmt_snr(snr_db)}dB.wav"
                )
                entries.append(
                    MixSpec(
                        str(clean_path), str(noise_path), snr_db, offset, out_name
                    )
                )
    return Manifest(entries)


def save_manifest(manifest: Manifest, path) -> None:
    """Tab-separated records: clean, noise, snr_db, noise_offset, output."""
    lines = [
        "\t".join(
            (
                e.clean_path,
                e.noise_path,
                _fmt_snr(e.snr_db),
                str(e.noise_offset),
                e.output_path,
            )
        )
        for e in manifest.entries
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_manifest(path) -> Manifest:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"manifest is not UTF-8: {path}: {exc.reason}") from exc
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"manifest line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            snr_db = float(parts[2])
            if not np.isfinite(snr_db):
                raise ValueError(f"SNR must be finite, got {parts[2]!r}")
            if len(out := Path(parts[4]).parts) != 1 or out[0] == "..":
                raise ValueError(f"output must be a bare file name, got {parts[4]!r}")
            entries.append(MixSpec(parts[0], parts[1], snr_db, int(parts[3]), parts[4]))
        except ValueError as exc:
            raise ValueError(f"manifest line {lineno}: {exc}") from exc
    return Manifest(entries)


def run_mix_entry(entry: MixSpec, out_dir) -> Path:
    """Mix one manifest entry and write the noisy WAV into out_dir.

    Only the noise section the entry mixes is read from its recording.
    """
    clean = load_wav(entry.clean_path)
    section = load_wav(entry.noise_path, entry.noise_offset, len(clean))
    mixed = mix_at_snr(clean, section, entry.snr_db)
    out_path = Path(out_dir) / entry.output_path
    save_wav(mixed.noisy, out_path)
    return out_path
