import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import i0e, i1e

from sefront.dd import DdState, dd_xi, enhance
from sefront.dsp import stft
from sefront.gain import GainRule, gain_mmse_stsa, gain_srwf, gain_wiener


def test_wiener_values():
    np.testing.assert_allclose(gain_wiener(np.array([0.0, 1.0, 99.0])), [0.0, 0.5, 0.99])


def test_srwf_values():
    np.testing.assert_allclose(gain_srwf(np.array([99.0])), [0.99498743710662], rtol=1e-12)
    xi = np.linspace(0, 50, 101)
    np.testing.assert_allclose(gain_srwf(xi) ** 2, gain_wiener(xi), rtol=1e-14)


def test_mmse_stsa_reference_values():
    # frozen from a 40-digit evaluation of the closed form
    got = gain_mmse_stsa(np.array([1.0, 100.0, 0.5]), np.array([1.0, 100.0, 2.0]))
    ref = [0.77428623027557269, 0.99260219044656076, 0.47336118307947869]
    np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_mmse_stsa_tracks_wiener_at_high_snr():
    g = gain_mmse_stsa(np.array([100.0]), np.array([100.0]))
    assert abs(g[0] - gain_wiener(np.array([100.0]))[0]) < 1e-2


def mmse_stsa_reference(xi, gamma):
    """The closed form at 40 digits, from the float inputs as given."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        xi, gamma = mp.mpf(float(xi)), mp.mpf(float(gamma))
        nu = xi * gamma / (1 + xi)
        return float(
            (mp.sqrt(mp.pi) / 2) * (mp.sqrt(nu) / gamma) * mp.e ** (-nu / 2)
            * ((1 + nu) * mp.besseli(0, nu / 2) + nu * mp.besseli(1, nu / 2))
        )


def test_mmse_stsa_against_high_precision():
    rng = np.random.default_rng(4)
    xi = 10 ** rng.uniform(-3, 3, 40)
    gamma = 10 ** rng.uniform(-2, 2, 40)
    got = gain_mmse_stsa(xi, gamma)
    want = np.array([mmse_stsa_reference(a, b) for a, b in zip(xi, gamma)])
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_mmse_stsa_is_exact_up_to_nu_1e15():
    # nu = xi gamma / (1 + xi) < gamma, so this spans nu from ~1e-12 to ~1e15
    rng = np.random.default_rng(11)
    xi = 10 ** rng.uniform(-6, 15, 400)
    gamma = 10 ** rng.uniform(-6, 15, 400)
    got = gain_mmse_stsa(xi, gamma)
    want = np.array([mmse_stsa_reference(a, b) for a, b in zip(xi, gamma)])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_bessel_scaled_against_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    # small and large arguments, densest around 15
    xs = np.concatenate([
        np.linspace(1e-3, 14.9, 120),
        np.array([14.99, 15.0, 15.01]),
        np.linspace(15.1, 300.0, 120),
    ])
    for order, fn in ((0, i0e), (1, i1e)):
        got = fn(xs)
        want = np.array(
            [float(mp.besseli(order, mp.mpf(float(x))) * mp.e ** (-mp.mpf(float(x)))) for x in xs]
        )
        np.testing.assert_allclose(got, want, rtol=1e-9)


def test_bessel_at_zero():
    np.testing.assert_allclose(i0e(np.array([0.0])), [1.0])
    np.testing.assert_allclose(i1e(np.array([0.0])), [0.0])


def test_gains_monotone_in_xi():
    xi = np.linspace(1e-4, 200, 400)
    assert np.all(np.diff(gain_wiener(xi)) > 0)
    assert np.all(np.diff(gain_srwf(xi)) > 0)
    assert np.all(np.diff(gain_mmse_stsa(xi, np.full_like(xi, 1.0))) > 0)


def test_gains_bounded():
    rng = np.random.default_rng(2)
    xi = 10 ** rng.uniform(-4, 4, 200)
    gamma = 10 ** rng.uniform(-2, 2, 200)
    for g in (gain_wiener(xi), gain_srwf(xi), gain_mmse_stsa(xi, gamma)):
        assert np.all(g >= 0)
        assert np.all(np.isfinite(g))
    assert np.all(gain_wiener(xi) <= 1)
    assert np.all(gain_srwf(xi) <= 1)


xis = st.floats(0.0, 1e15)
EPS = np.finfo(float).eps
# rounding alone can turn the gains of neighbouring xi values around, by
# up to one ulp for Wiener and SRWF and 7 eps for MMSE-STSA (measured on
# 3e7 neighbouring pairs), so "rises" allows a few ulps


@settings(max_examples=300, deadline=None)
@given(a=xis, b=xis)
@example(a=31.78249854498514, b=31.782498544985142)  # the wrong way by an ulp
def test_wiener_and_srwf_lie_in_the_unit_interval_and_rise_with_xi(a, b):
    xi = np.array(sorted((a, b)))
    for g in (gain_wiener(xi), gain_srwf(xi)):
        assert np.all((g >= 0.0) & (g <= 1.0))
        assert g[0] <= g[1] * (1.0 + 2.0 * EPS)


@settings(max_examples=300, deadline=None)
@given(a=xis, b=xis, gamma=st.floats(1e-12, 1e15))
@example(a=1.0, b=1.0, gamma=0.01)  # gain 6.28
@example(a=1e15, b=1e15, gamma=1e-3)  # gain 28
@example(a=6.999999, b=7.000001, gamma=800.0)  # either side of nu = 700
@example(a=0.07429998260135516, b=0.07429998260135517, gamma=2.5)  # the wrong way by an ulp
def test_mmse_stsa_is_non_negative_and_rises_with_xi(a, b, gamma):
    xi = np.array(sorted((a, b)))
    g = gain_mmse_stsa(xi, gamma)
    assert np.all(np.isfinite(g)) and np.all(g >= 0.0)
    assert g[0] <= g[1] * (1.0 + 16.0 * EPS)


def test_mmse_stsa_exceeds_one_and_has_no_dip_at_nu_700():
    assert gain_mmse_stsa(1.0, 0.01) == pytest.approx(6.282, abs=1e-3)
    assert gain_mmse_stsa(1e15, 1e-3) == pytest.approx(28.039, abs=1e-3)
    # gamma = 800 puts nu = 700 at xi = 7; the gain rises straight through
    xi = np.linspace(6.99, 7.01, 2001)
    g = gain_mmse_stsa(xi, 800.0)
    assert np.all(g[:-1] <= g[1:] * (1.0 + 16.0 * EPS))
    assert gain_mmse_stsa(1e3, 800.0) == pytest.approx(
        mmse_stsa_reference(1e3, 800.0), rel=1e-14)


def test_mmse_stsa_validation():
    with pytest.raises(ValueError):
        gain_mmse_stsa(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        gain_mmse_stsa(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        gain_mmse_stsa(np.array([np.inf]), np.array([1.0]))
    # xi * gamma overflows although each is finite
    with pytest.raises(ValueError, match="overflow"):
        gain_mmse_stsa(np.array([1.0, 1e300]), np.array([1.0, 1e300]))


@pytest.mark.parametrize("use_xi", [False, True], ids=["dd", "xi"])
@pytest.mark.parametrize("rule", ["mmse-stsa", "wiener", None])
def test_enhance_rejects_a_rule_that_is_not_a_gain_rule(rule, use_xi):
    # a rule name is not a GainRule; the decision-directed path once took
    # any such value for SRWF
    x = np.random.default_rng(3).normal(0.0, 0.05, 4000)
    xi = np.ones(stft(x).spectrum.shape) if use_xi else None
    with pytest.raises(ValueError, match="unknown gain rule"):
        enhance(x, rule, xi)


def test_dd_xi_rejects_a_rule_that_is_not_a_gain_rule():
    with pytest.raises(ValueError, match="unknown gain rule 'bogus'"):
        dd_xi(DdState(np.zeros(4)), np.ones(4), np.ones(4), "bogus")

