"""Write behaviour_lock.npz: reference outputs of the enhancement path and the network.

Run from the repository root with the source tree to be locked on the
import path:

    PYTHONPATH=src python tests/data/make_behaviour_lock.py [KEY_PREFIX ...]

With no argument every key is written.  With key prefixes, only the
keys that start with one of them are written again (or added), and every
other key keeps the array stored in the file; a prefix that names no key
is an error, and nothing is written.

The fixture holds enhance outputs for every gain rule on one seeded
noisy input (keys enhance_dd_<rule>, the decision-directed estimator),
gain_mmse_stsa on a (xi, gamma) grid whose nu = xi gamma / (1 + xi)
crosses 30 and 700, and unmap_xi on a grid that includes the 1e-7
clamps.  It also holds the int16 samples that `sefront enhance` writes
for the oracle estimator and for seeded untrained UNI and BI networks,
which the CLI runs in float32, under every gain rule (keys
cli_<estimator>_<rule>), together with the
bytes of every file those runs read (keys file_<name>).

For the network it holds the float64 rnn.forward output at batch 1 of
seeded UNI and BI networks at the default dims (keys rnn_forward_<mode>,
input rnn_forward_mag), and rnn.backward's loss and gradients for
smaller seeded networks on a batch of three sequences of unequal length,
one of them a single frame (keys rnn_backward_<mode>_loss and
rnn_backward_<mode>_<tensor>; the inputs are stored zero-padded, with
their lengths, as rnn_batch_x, rnn_batch_target and rnn_batch_lengths).

For the corpus statistics it holds the bytes of the file `sefront stats
--seed 3` writes from a seeded corpus (key stats_file), together with the
bytes of that corpus's WAVs (keys stats_clean_<name> and
stats_noise_<name>); every noise recording outlasts every clean one.

For mixing it holds the bytes of the manifest and of every mixture that
`sefront mix --per-noise 2 --snr-grid -5,10 --seed 5` writes from that
same corpus, run from the corpus folder with relative paths (keys
mix_manifest and mix_out_<name>; every noise offset is non-zero), and
the float64 MFCCs of the first mixture (key mix_mfcc).
tests/test_behaviour_lock.py compares the current code against it.
"""

import os
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np

from sefront import cli
from sefront.corpus import load_manifest, load_wav, save_wav
from sefront.dd import enhance
from sefront.dsp import stft
from sefront.features import mfcc
from sefront.gain import GainRule, gain_mmse_stsa
from sefront.rnn import backward, forward, init_network, save_network
from sefront.snr import XiStats, save_stats, unmap_xi

SR = 16000
OUT = Path(__file__).with_name("behaviour_lock.npz")
# estimator name in the fixture keys -> (--estimator value, file flags);
# the files are those of the file_<name> keys
CLI_ESTIMATORS = {
    "oracle": ("oracle", {"--clean": "clean.wav", "--noise": "noise.wav"}),
    "neural-uni": ("neural", {"--model": "uni.model", "--stats": "stats.txt"}),
    "neural-bi": ("neural", {"--model": "bi.model", "--stats": "stats.txt"}),
}


def noisy_parts(seed: int = 7, seconds: float = 0.75):
    """(voice, noise): a gated harmonic tone and white noise at about 5 dB SNR."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * SR)) / SR
    f0 = rng.uniform(120.0, 250.0)
    voice = sum(np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi)) / k
                for k in range(1, 5))
    voice *= (np.sin(2 * np.pi * 3.0 * t) > 0) * (t > 0.15)
    voice *= 0.3 / np.max(np.abs(voice))
    noise = rng.standard_normal(t.size)
    noise *= np.sqrt(np.mean(voice**2) / np.mean(noise**2) / 10 ** 0.5)
    return voice, noise


def noisy_input() -> np.ndarray:
    voice, noise = noisy_parts()
    return voice + noise


def gain_grid():
    """(xi, gamma) pairs; xi = 1 rows put nu = gamma / 2 across 30 and 700."""
    xi = np.logspace(-3, 3, 25)
    gamma = np.concatenate([
        np.logspace(-2, 3.5, 40),
        [59.98, 60.0, 60.02, 1399.9, 1400.0, 1400.1],
    ])
    xi_g, gamma_g = np.meshgrid(np.append(xi, 1.0), gamma, indexing="ij")
    return xi_g, gamma_g


def unmap_grid():
    bar = np.concatenate([
        [0.0, 1e-9, 1e-7, 2e-7, 1e-4],
        np.linspace(0.01, 0.99, 41),
        [1 - 1e-4, 1 - 2e-7, 1 - 1e-7, 1 - 1e-9, 1.0],
    ])
    stats = XiStats(np.array([-12.0, -3.0, 0.0, 4.5, 15.0]),
                    np.array([0.1, 2.0, 7.5, 11.0, 20.0]))
    return np.repeat(bar[:, None], stats.n_bins, axis=1), stats


def forward_net(bidirectional: bool):
    """Seeded network at the default dims (257 bins, cell 64, 2 blocks)."""
    return init_network(seed=21, bidirectional=bidirectional)


def backward_net(bidirectional: bool):
    """Seeded network with a small cell, to keep the stored gradients small."""
    return init_network(seed=23, cell_size=8, n_blocks=2, bidirectional=bidirectional)


def padded_batch():
    """(x, target, lengths): three rows of noisy magnitudes, zero-padded."""
    mag = stft(noisy_input()).magnitude
    lengths = np.array([6, 1, 11])
    rng = np.random.default_rng(29)
    x = np.zeros((3, 11, mag.shape[1]))
    target = np.zeros_like(x)
    for row, (start, n) in enumerate(zip((3, 20, 30), lengths)):
        x[row, :n] = mag[start : start + n]
        target[row, :n] = rng.uniform(0.05, 0.95, (n, mag.shape[1]))
    return x, target, lengths


def sequences(padded, lengths):
    """The rows of a zero-padded batch, each cut to its length."""
    return [row[:n] for row, n in zip(padded, lengths)]


def network_arrays() -> dict:
    """Forward outputs and backward gradients of the seeded networks."""
    mag = stft(noisy_input()).magnitude
    x, target, lengths = padded_batch()
    arrays = {"rnn_forward_mag": mag, "rnn_batch_x": x,
              "rnn_batch_target": target, "rnn_batch_lengths": lengths}
    for mode, bidirectional in (("uni", False), ("bi", True)):
        arrays[f"rnn_forward_{mode}"] = forward(forward_net(bidirectional), mag)
        loss, grads = backward(backward_net(bidirectional), sequences(x, lengths),
                               sequences(target, lengths))
        arrays[f"rnn_backward_{mode}_loss"] = np.array(loss)
        for name, grad in grads.items():
            arrays[f"rnn_backward_{mode}_{name}"] = grad
    return arrays


def write_cli_inputs(folder: Path) -> None:
    """The WAVs, the two seeded models and the stats file the CLI runs read."""
    voice, noise = noisy_parts()
    save_wav(voice + noise, folder / "noisy.wav")
    save_wav(voice, folder / "clean.wav")
    save_wav(noise, folder / "noise.wav")
    for mode, bidirectional in (("uni", False), ("bi", True)):
        params = init_network(seed=11, cell_size=8, n_blocks=2,
                              bidirectional=bidirectional)
        save_network(params, folder / f"{mode}.model")
    bins = np.linspace(0.0, 1.0, 257)
    save_stats(XiStats(-5.0 + 15.0 * bins, 12.0 - 4.0 * bins), folder / "stats.txt")


def write_stats_corpus(folder: Path) -> None:
    """clean/ holds four gated tones of 0.4-0.55 s, noise/ a white and a
    low-passed noise of 0.7 s."""
    (folder / "clean").mkdir()
    (folder / "noise").mkdir()
    for i, seconds in enumerate((0.4, 0.55, 0.45, 0.5)):
        voice, _ = noisy_parts(seed=31 + i, seconds=seconds)
        save_wav(voice, folder / "clean" / f"utt{i}.wav")
    rng = np.random.default_rng(37)
    white = rng.standard_normal(int(0.7 * SR))
    low = np.convolve(rng.standard_normal(white.size), np.ones(8) / 8, mode="same")
    for name, noise in (("white", white), ("low", low)):
        save_wav(0.05 * noise / np.std(noise), folder / "noise" / f"{name}.wav")


def stats_arrays() -> dict:
    """The stats corpus's WAV bytes and the bytes of `sefront stats` on it."""
    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        write_stats_corpus(folder)
        for sub in ("clean", "noise"):
            for path in sorted((folder / sub).iterdir()):
                arrays[f"stats_{sub}_{path.name}"] = np.frombuffer(
                    path.read_bytes(), np.uint8)
        out = folder / "stats.txt"
        code = cli.main(["stats", "--clean", str(folder / "clean"), "--noise",
                         str(folder / "noise"), "--out", str(out), "--seed", "3"])
        if code != 0:
            raise RuntimeError(f"sefront stats exited {code}")
        arrays["stats_file"] = np.frombuffer(out.read_bytes(), np.uint8)
    return arrays


MIX_ARGS = ["mix", "--clean", "clean", "--noise", "noise", "--per-noise", "2",
            "--snr-grid=-5,10", "--seed", "5", "--out-dir", "mixed"]


def mix_arrays() -> dict:
    """The bytes `sefront mix` writes from the stats corpus, and the MFCCs
    of its first mixture."""
    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        write_stats_corpus(folder)
        cwd = os.getcwd()
        os.chdir(folder)
        try:
            code = cli.main(MIX_ARGS)
        finally:
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"sefront mix exited {code}")
        out = folder / "mixed"
        entries = load_manifest(out / "manifest.tsv").entries
        if min(e.noise_offset for e in entries) == 0:
            raise RuntimeError("the lock wants non-zero noise offsets")
        for path in sorted(out.iterdir()):
            key = "mix_manifest" if path.name == "manifest.tsv" else f"mix_out_{path.name}"
            arrays[key] = np.frombuffer(path.read_bytes(), np.uint8)
        arrays["mix_mfcc"] = mfcc(stft(load_wav(out / entries[0].output_path)))
    return arrays


def read_pcm(path) -> np.ndarray:
    """The int16 samples of a mono 16-bit WAV file."""
    with wave.open(str(path), "rb") as wf:
        return np.frombuffer(wf.readframes(wf.getnframes()), dtype="<i2")


def run_cli(folder: Path, estimator: str, rule: GainRule) -> np.ndarray:
    """Enhance folder/noisy.wav through the CLI; returns the output samples."""
    name, files = CLI_ESTIMATORS[estimator]
    out = folder / "enhanced.wav"
    argv = ["enhance", "--in", str(folder / "noisy.wav"), "--out", str(out),
            "--gain", rule.value, "--estimator", name]
    for flag, file in files.items():
        argv += [flag, str(folder / file)]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"sefront enhance {estimator}/{rule.value} exited {code}")
    return read_pcm(out)


def fresh_arrays() -> dict:
    """Every key of the fixture, from the current code."""
    noisy = noisy_input()
    xi, gamma = gain_grid()
    bar, stats = unmap_grid()
    arrays = {"noisy": noisy, "gain_xi": xi, "gain_gamma": gamma,
              "gain_mmse_stsa": gain_mmse_stsa(xi, gamma), "unmap_bar": bar,
              "unmap_mu_db": stats.mu_db, "unmap_sigma_db": stats.sigma_db,
              "unmap_xi": unmap_xi(bar, stats)}
    for rule in GainRule:
        arrays[f"enhance_dd_{rule.value}"] = enhance(noisy, rule).samples
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        write_cli_inputs(folder)
        for path in sorted(folder.iterdir()):
            arrays[f"file_{path.name}"] = np.frombuffer(path.read_bytes(), np.uint8)
        for estimator in CLI_ESTIMATORS:
            for rule in GainRule:
                arrays[f"cli_{estimator}_{rule.value}"] = run_cli(folder, estimator, rule)
    arrays.update(network_arrays())
    arrays.update(stats_arrays())
    arrays.update(mix_arrays())
    return arrays


def merged(stored: dict, fresh: dict, prefixes: list[str]) -> dict:
    """stored with the keys of fresh that start with one of prefixes
    written over it or added."""
    unmatched = [p for p in prefixes if not any(k.startswith(p) for k in fresh)]
    if unmatched:
        raise SystemExit(f"no key starts with {', '.join(unmatched)}")
    chosen = tuple(prefixes)
    return {**stored, **{k: v for k, v in fresh.items() if k.startswith(chosen)}}


def main(prefixes: list[str]) -> None:
    arrays = fresh_arrays()
    if prefixes:
        with np.load(OUT) as stored:
            arrays = merged(dict(stored), arrays, prefixes)
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main(sys.argv[1:])
