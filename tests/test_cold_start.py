"""SciPy is imported on first use: a command that calls no SciPy function
never loads it, in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from conftest import SR, white_noise
from sefront import _scipy, cli
from sefront.corpus import build_test_manifest, save_manifest, save_wav
from sefront.features import transcript_name

# runs each argv given as a JSON list through cli.main, then the Python
# source in the second argument, then prints the scipy modules loaded as
# the last line
_PROBE = """
import json, sys
import sefront, sefront.cli
for argv in json.loads(sys.argv[1]):
    assert sefront.cli.main(argv) == 0, argv
exec(sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# the MFCCs of a 1 s signal
_MFCC = """
import numpy as np
from sefront import dsp, features
features.mfcc(dsp.stft(np.random.default_rng(0).normal(0.0, 0.2, 16000)))
"""


def scipy_loaded_after(*commands, then: str = "") -> list[str]:
    """The scipy modules a fresh interpreter holds after importing sefront,
    running each command and then the Python source then."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = json.dumps([[str(a) for a in c] for c in commands])
    proc = subprocess.run([sys.executable, "-c", _PROBE, argv, then],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture()
def noisy(tmp_path):
    p = tmp_path / "noisy.wav"
    save_wav(white_noise(np.random.default_rng(0), SR), p)
    return p


def test_import_loads_no_scipy():
    assert scipy_loaded_after() == []


def test_dd_srwf_enhance_and_stats_load_no_scipy(wav_corpus, noisy, tmp_path):
    clean_dir, noise_dir = wav_corpus
    assert scipy_loaded_after(
        ["enhance", "--in", noisy, "--out", tmp_path / "o.wav",
         "--estimator", "dd", "--gain", "srwf"],
        ["stats", "--clean", clean_dir, "--noise", noise_dir, "--out", tmp_path / "s.txt"],
    ) == []


def test_mfcc_loads_no_scipy():
    assert scipy_loaded_after(then=_MFCC) == []


def test_evaluation_round_loads_no_scipy(wav_corpus, tmp_path):
    """mix, the MFCCs of every mixture, stats and wer in one interpreter."""
    clean_dir, noise_dir = wav_corpus
    manifest = build_test_manifest(clean_dir, noise_dir, 1, [0.0, 10.0], seed=0)
    save_manifest(manifest, tmp_path / "m.tsv")
    for name, text in [("ref", "alpha beta\n"), ("hyp", "alpha\n")]:
        (tmp_path / name).mkdir()
        for e in manifest.entries:
            (tmp_path / name / transcript_name(e.output_path)).write_text(text)
    mixed = tmp_path / "mixed"
    mfccs = ("from pathlib import Path\n"
             "from sefront import corpus, dsp, features\n"
             f"wavs = sorted(Path({str(mixed)!r}).glob('*.wav'))\n"
             f"assert len(wavs) == {len(manifest.entries)}\n"
             "for p in wavs:\n"
             "    features.mfcc(dsp.stft(corpus.load_wav(p)))\n")
    assert scipy_loaded_after(
        ["mix", "--manifest", tmp_path / "m.tsv", "--out-dir", mixed],
        ["stats", "--clean", clean_dir, "--noise", noise_dir, "--out", tmp_path / "s.txt"],
        ["wer", "--manifest", tmp_path / "m.tsv", "--ref", tmp_path / "ref",
         "--hyp", tmp_path / "hyp", "--out", tmp_path / "scores.csv"],
        then=mfccs,
    ) == []


def test_mmse_stsa_enhance_loads_scipy_special(noisy, tmp_path):
    loaded = scipy_loaded_after(["enhance", "--in", noisy, "--out", tmp_path / "o.wav",
                                 "--estimator", "dd", "--gain", "mmse-stsa"])
    assert "scipy.special" in loaded


def test_each_name_is_the_scipy_function():
    for name, home in [("expit", scipy.special), ("erf", scipy.special),
                       ("erfinv", scipy.special), ("i0e", scipy.special),
                       ("i1e", scipy.special)]:
        assert getattr(_scipy, name) is getattr(home, name)
    assert not hasattr(_scipy, "nope")
