"""Outputs of the enhancement path and the network against a stored reference.

tests/data/behaviour_lock.npz was written by
tests/data/make_behaviour_lock.py from the code as it stood before
enhance() became the one pipeline for every xi estimator, when the
decision-directed path and the CLI's oracle and neural paths each had
their own copy of the chain.  Every output must still match: the
library's decision-directed outputs bit for bit for Wiener and SRWF,
and the int16 samples that `sefront enhance` writes for the oracle and
neural estimators under every gain rule.  The MMSE-STSA gain, the
inverse map and their decision-directed output, which go through SciPy's
i0e/i1e and erfinv, are held to a relative 1e-9 and 1e-12; those values
agree with the hand-written special functions SciPy replaced to about
4e-11 relative.  The gain_mmse_stsa key alone was written again once
the gain dropped its Wiener switch above nu = 700 and became the exact
scaled form at every nu: only its cells above 700 moved, by up to
3.6e-4 relative.

The stats keys were written from the code as it stood before
estimate_stats sorted by snr._content_key and rejected short noise: the
file that `sefront stats` writes from the stored corpus must match byte
for byte.

The mix keys were written from the code as it stood before mixing read
only the noise section it uses: the manifest and every mixture that
`sefront mix` writes from the stats corpus must match byte for byte, and
the MFCCs of the first mixture bit for bit.

The network keys were written from the code as it stood before the
LSTM ran on packed sequences.  The float64 forward output at batch 1 must
match bit for bit; the loss and gradients on a batch of three sequences
(stored zero-padded, with their lengths), whose sums now run in another
order, to 1e-12 of each tensor's largest magnitude.
"""

import wave
from pathlib import Path

import numpy as np
import pytest

from sefront.cli import main
from sefront.corpus import load_manifest, load_wav
from sefront.dd import enhance
from sefront.dsp import stft
from sefront.features import mfcc
from sefront.gain import GainRule, gain_mmse_stsa
from sefront.rnn import backward, forward, init_network
from sefront.snr import XiStats, unmap_xi

LOCK = Path(__file__).parent / "data" / "behaviour_lock.npz"
# fixture estimator name -> (--estimator value, flags naming stored files)
CLI_ESTIMATORS = {
    "oracle": ("oracle", {"--clean": "clean.wav", "--noise": "noise.wav"}),
    "neural-uni": ("neural", {"--model": "uni.model", "--stats": "stats.txt"}),
    "neural-bi": ("neural", {"--model": "bi.model", "--stats": "stats.txt"}),
}


@pytest.fixture(scope="module")
def lock():
    with np.load(LOCK) as data:
        return dict(data)


@pytest.fixture(scope="module")
def cli_inputs(lock, tmp_path_factory):
    """The stored input WAVs, models and stats file, written back to disk."""
    folder = tmp_path_factory.mktemp("lock")
    for key, value in lock.items():
        if key.startswith("file_"):
            (folder / key[len("file_"):]).write_bytes(value.tobytes())
    return folder


@pytest.mark.parametrize("rule", [GainRule.WIENER, GainRule.SRWF])
def test_enhance_dd_bit_identical(lock, rule):
    got = enhance(lock["noisy"], rule).samples
    np.testing.assert_array_equal(got, lock[f"enhance_dd_{rule.value}"])


def test_enhance_dd_mmse_stsa_matches(lock):
    got = enhance(lock["noisy"], GainRule.MMSE_STSA).samples
    np.testing.assert_allclose(got, lock["enhance_dd_mmse-stsa"], rtol=1e-9)


@pytest.mark.parametrize("rule", list(GainRule), ids=lambda r: r.value)
@pytest.mark.parametrize("estimator", list(CLI_ESTIMATORS))
def test_cli_enhance_bit_identical(lock, cli_inputs, estimator, rule):
    name, files = CLI_ESTIMATORS[estimator]
    out = cli_inputs / f"{estimator}_{rule.value}.wav"
    argv = ["enhance", "--in", str(cli_inputs / "noisy.wav"), "--out", str(out),
            "--gain", rule.value, "--estimator", name]
    for flag, file in files.items():
        argv += [flag, str(cli_inputs / file)]
    assert main(argv) == 0
    with wave.open(str(out), "rb") as wf:
        got = np.frombuffer(wf.readframes(wf.getnframes()), dtype="<i2")
    np.testing.assert_array_equal(got, lock[f"cli_{estimator}_{rule.value}"])


def write_stats_corpus(lock, folder):
    """The stored stats corpus, written back to folder/clean and folder/noise."""
    for key, value in lock.items():
        if key.startswith(("stats_clean_", "stats_noise_")):
            sub, name = key[len("stats_"):].split("_", 1)
            (folder / sub).mkdir(exist_ok=True)
            (folder / sub / name).write_bytes(value.tobytes())


def test_cli_stats_bit_identical(lock, tmp_path):
    write_stats_corpus(lock, tmp_path)
    out = tmp_path / "stats.txt"
    assert main(["stats", "--clean", str(tmp_path / "clean"), "--noise",
                 str(tmp_path / "noise"), "--out", str(out), "--seed", "3"]) == 0
    assert out.read_bytes() == lock["stats_file"].tobytes()


def test_cli_mix_bit_identical(lock, tmp_path, monkeypatch):
    write_stats_corpus(lock, tmp_path)
    monkeypatch.chdir(tmp_path)  # the stored manifest holds relative paths
    assert main(["mix", "--clean", "clean", "--noise", "noise", "--per-noise", "2",
                 "--snr-grid=-5,10", "--seed", "5", "--out-dir", "mixed"]) == 0
    out = tmp_path / "mixed"
    assert (out / "manifest.tsv").read_bytes() == lock["mix_manifest"].tobytes()
    stored = {k[len("mix_out_"):]: v for k, v in lock.items() if k.startswith("mix_out_")}
    assert {p.name for p in out.iterdir()} == set(stored) | {"manifest.tsv"}
    for name, value in stored.items():
        assert (out / name).read_bytes() == value.tobytes(), name
    first = load_manifest(out / "manifest.tsv").entries[0].output_path
    np.testing.assert_array_equal(mfcc(stft(load_wav(out / first))), lock["mix_mfcc"])


def test_gain_mmse_stsa_grid_matches(lock):
    got = gain_mmse_stsa(lock["gain_xi"], lock["gain_gamma"])
    np.testing.assert_allclose(got, lock["gain_mmse_stsa"], rtol=1e-9)


def test_unmap_xi_grid_matches(lock):
    stats = XiStats(lock["unmap_mu_db"], lock["unmap_sigma_db"])
    got = unmap_xi(lock["unmap_bar"], stats)
    np.testing.assert_allclose(got, lock["unmap_xi"], rtol=1e-12)


# the seeded networks of tests/data/make_behaviour_lock.py
def forward_net(bidirectional):
    return init_network(seed=21, bidirectional=bidirectional)


def backward_net(bidirectional):
    return init_network(seed=23, cell_size=8, n_blocks=2, bidirectional=bidirectional)


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_rnn_forward_bit_identical(lock, mode):
    got = forward(forward_net(mode == "bi"), lock["rnn_forward_mag"])
    np.testing.assert_array_equal(got, lock[f"rnn_forward_{mode}"])


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_rnn_backward_matches(lock, mode):
    params = backward_net(mode == "bi")
    rows = list(enumerate(lock["rnn_batch_lengths"]))
    loss, grads = backward(params, [lock["rnn_batch_x"][i, :n] for i, n in rows],
                           [lock["rnn_batch_target"][i, :n] for i, n in rows])
    prefix = f"rnn_backward_{mode}_"
    stored = {k[len(prefix):]: v for k, v in lock.items() if k.startswith(prefix)}
    assert abs(loss - stored.pop("loss")) <= 1e-12 * abs(loss)
    assert set(grads) == set(stored)
    for name, grad in grads.items():
        ref = stored[name]
        np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)),
                                   err_msg=name)
