"""Outputs of the enhancement path against a stored reference.

tests/data/behaviour_lock.npz was written by
tests/data/make_behaviour_lock.py from the code as it stood before the
special functions moved to SciPy.  Wiener and SRWF arithmetic did not
change, so their outputs must match bit for bit; the MMSE-STSA gain and
the inverse map now use SciPy's i0e/i1e and erfinv, which agree with the
old hand-written versions to about 1e-11 relative.
"""

from pathlib import Path

import numpy as np
import pytest

from sefront.dd import enhance_dd
from sefront.gain import GainRule, gain_mmse_stsa
from sefront.snr import XiStats, unmap_xi

LOCK = Path(__file__).parent / "data" / "behaviour_lock.npz"


@pytest.fixture(scope="module")
def lock():
    with np.load(LOCK) as data:
        return dict(data)


@pytest.mark.parametrize("rule", [GainRule.WIENER, GainRule.SRWF])
def test_enhance_dd_bit_identical(lock, rule):
    got = enhance_dd(lock["noisy"], rule).samples
    np.testing.assert_array_equal(got, lock[f"enhance_dd_{rule.value}"])


def test_enhance_dd_mmse_stsa_matches(lock):
    got = enhance_dd(lock["noisy"], GainRule.MMSE_STSA).samples
    np.testing.assert_allclose(got, lock["enhance_dd_mmse-stsa"], rtol=1e-9)


def test_gain_mmse_stsa_grid_matches(lock):
    got = gain_mmse_stsa(lock["gain_xi"], lock["gain_gamma"])
    np.testing.assert_allclose(got, lock["gain_mmse_stsa"], rtol=1e-9)


def test_unmap_xi_grid_matches(lock):
    stats = XiStats(lock["unmap_mu_db"], lock["unmap_sigma_db"])
    got = unmap_xi(lock["unmap_bar"], stats)
    np.testing.assert_allclose(got, lock["unmap_xi"], rtol=1e-12)
