"""SciPy is imported on first use: a command that calls no SciPy function
never loads it, in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.special

from conftest import SR, white_noise
from sefront import _scipy, cli
from sefront.corpus import save_wav

# runs each argv given as a JSON list through cli.main, then prints the
# scipy modules loaded as the last line
_PROBE = """
import json, sys
import sefront, sefront.cli
for argv in json.loads(sys.argv[1]):
    assert sefront.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_loaded_after(*commands) -> list[str]:
    """The scipy modules a fresh interpreter holds after importing sefront
    and running each command."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = json.dumps([[str(a) for a in c] for c in commands])
    proc = subprocess.run([sys.executable, "-c", _PROBE, argv],
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


def test_mmse_stsa_enhance_loads_scipy_special(noisy, tmp_path):
    loaded = scipy_loaded_after(["enhance", "--in", noisy, "--out", tmp_path / "o.wav",
                                 "--estimator", "dd", "--gain", "mmse-stsa"])
    assert "scipy.special" in loaded


def test_each_name_is_the_scipy_function():
    for name, home in [("expit", scipy.special), ("erf", scipy.special),
                       ("erfinv", scipy.special), ("i0e", scipy.special),
                       ("i1e", scipy.special), ("dct", scipy.fft)]:
        assert getattr(_scipy, name) is getattr(home, name)
    assert not hasattr(_scipy, "nope")
