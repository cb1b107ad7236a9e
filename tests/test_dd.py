import re
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SR, toy_voice, white_noise
from scipy.special import i0e, i1e
from sefront.dd import DdState, dd_xi, enhance, tracked_noise_power
from sefront.dsp import SpectroGram, istft, stft, synthesis_length
from sefront import _scipy, dd as dd_module, gain as gain_module
from sefront.gain import GainRule, gain_mmse_stsa, gain_srwf, gain_wiener
from sefront.snr import oracle_xi


def test_tracker_init_mean():
    # fewer frames than INIT_FRAMES: every row is the initial mean
    frames = np.arange(12, dtype=float).reshape(4, 3)
    lam = tracked_noise_power(frames)
    np.testing.assert_allclose(lam, np.broadcast_to(frames.mean(axis=0), (4, 3)))


def test_tracker_init_floors_zero():
    lam = tracked_noise_power(np.zeros((3, 5)))
    np.testing.assert_array_equal(lam, 1e-12)


def test_tracker_rejects_no_frames():
    with pytest.raises(ValueError, match="at least one frame"):
        tracked_noise_power(np.zeros((0, 5)))


def test_track_gated_update():
    power = np.ones((11, 2))
    # 1.5 < beta*lambda = 2 updates; 3.0 does not
    power[10] = [1.5, 3.0]
    lam = tracked_noise_power(power)
    np.testing.assert_allclose(lam[10], [0.98 + 0.02 * 1.5, 1.0])


def reference_tracked_noise_power(power):
    """The per-frame tracker object the one-loop tracker replaced: a
    dataclass rebuilt with dataclasses.replace on every frame."""

    @dataclass
    class NoiseTracker:
        lambda_d: np.ndarray

    def track_noise(state, p):
        absent = p < 2.0 * state.lambda_d
        lam = np.where(absent, 0.98 * state.lambda_d + (1.0 - 0.98) * p, state.lambda_d)
        return replace(state, lambda_d=lam)

    n_init = min(10, power.shape[0])
    tracker = NoiseTracker(np.maximum(power[:n_init].mean(axis=0), 1e-12))
    lam = np.empty_like(power)
    for l in range(power.shape[0]):
        if l >= n_init:
            tracker = track_noise(tracker, power[l])
        lam[l] = tracker.lambda_d
    return lam


@settings(max_examples=100, deadline=None)
@given(
    frames=st.integers(1, 40),
    bins=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)
def test_tracker_matches_the_per_frame_reference_bit_for_bit(frames, bins, seed, zeros):
    # exponential power spans decades; optional silent cells hit the floor
    rng = np.random.default_rng(seed)
    power = rng.exponential(1.0, (frames, bins)) * 10.0 ** rng.uniform(-6, 3, bins)
    if zeros:
        power[rng.random((frames, bins)) < 0.3] = 0.0
    got = tracked_noise_power(power)
    assert got.tobytes() == reference_tracked_noise_power(power).tobytes()


def test_tracked_constant_power_is_fixed_point():
    power = np.full((40, 257), 0.7)
    lam = tracked_noise_power(power)
    np.testing.assert_allclose(lam, 0.7, rtol=1e-12)


def test_tracked_zero_tail_decays_geometrically():
    # constant 1 for the init span, then silence: lambda must decay by
    # alpha each frame; re-derived straight-line below
    power = np.ones((30, 4))
    power[10:] = 0.0
    lam = tracked_noise_power(power)
    want = np.ones((30, 4))
    for l in range(10, 30):
        want[l] = 0.98 * want[l - 1]
    np.testing.assert_allclose(lam, want, rtol=1e-12)


def test_tracked_white_noise_underestimates_slightly():
    # the speech-absence gate keeps mostly below-average cells, so the
    # estimate sits below the true power and keeps drifting down; at
    # frame 50 the measured band across seeds is ~[0.80, 0.84]
    rng = np.random.default_rng(0)
    spec = stft(white_noise(rng, SR, rms=0.1))
    power = spec.magnitude ** 2
    true_power = power.mean(axis=0)
    lam = tracked_noise_power(power)
    ratio50 = np.mean(lam[50] / true_power)
    assert 0.75 < ratio50 < 0.90
    ratio_last = np.mean(lam[-1] / true_power)
    assert ratio_last < ratio50


def test_dd_xi_cold_start():
    state = DdState(np.zeros(3))
    xi, gamma, nxt = dd_xi(state, np.full(3, 2.0), np.ones(3))
    np.testing.assert_allclose(gamma, 2.0)
    np.testing.assert_allclose(xi, 0.02 * 1.0)  # (1 - alpha) * max(gamma - 1, 0)
    # state advances with the squared post-gain amplitude
    g2 = xi / (1.0 + xi)
    np.testing.assert_allclose(nxt.prev_amp_sq, g2 * 2.0, rtol=1e-12)


def test_dd_xi_blend():
    state = DdState(np.full(1, 3.0))
    xi, gamma, _ = dd_xi(state, np.array([3.0]), np.array([1.5]))
    np.testing.assert_allclose(gamma, 2.0)
    np.testing.assert_allclose(xi, 0.98 * 2.0 + 0.02 * 1.0)


def test_dd_xi_nonnegative():
    rng = np.random.default_rng(1)
    state = DdState(np.zeros(257))
    for _ in range(20):
        xi, _, state = dd_xi(state, rng.uniform(0, 2, 257), rng.uniform(0.5, 2, 257))
        assert np.all(xi >= 0)


@pytest.mark.parametrize("state_bins, power_shape, lam_shape", [
    (4, (1,), (1,)),  # a frame narrower than the state
    (1, (4,), (4,)),  # a frame wider than the state
    (4, (3, 1), (3, 1)),
    (4, (4,), (1, 4)),
    (4, (2, 4), (3, 4)),
    (4, (1, 2, 4), (1, 2, 4)),
    (1, (), ()),
])
def test_dd_xi_rejects_mismatched_shapes(state_bins, power_shape, lam_shape):
    with pytest.raises(ValueError, match=re.escape(
            f"power {power_shape} and lambda_d {lam_shape} must share")):
        dd_xi(DdState(np.zeros(state_bins)), np.ones(power_shape), np.ones(lam_shape))


def textbook_gain(rule, xi, gamma):
    """Wiener, SRWF and the MMSE-STSA closed form in exponentially scaled
    Bessel functions, written out."""
    if rule is GainRule.WIENER:
        return xi / (1.0 + xi)
    if rule is GainRule.SRWF:
        return np.sqrt(xi / (1.0 + xi))
    nu = xi * gamma / (1.0 + xi)
    return (0.5 * np.sqrt(np.pi)) * (np.sqrt(nu) / gamma) * (
        (1.0 + nu) * i0e(0.5 * nu) + nu * i1e(0.5 * nu))


def reference_dd_run(prev, power, lam, rule):
    """The decision-directed recursion as a plain loop over frames: xi,
    gamma and the gain of each frame, and the last frame's (G |X|)^2."""
    xi, gamma, gains = (np.empty_like(power) for _ in range(3))
    for l in range(power.shape[0]):
        lam_l = np.maximum(lam[l], 1e-12)
        gamma[l] = power[l] / lam_l
        xi[l] = 0.98 * prev / lam_l + (1.0 - 0.98) * np.maximum(gamma[l] - 1.0, 0.0)
        gains[l] = textbook_gain(rule, xi[l], np.maximum(gamma[l], 1e-12))
        prev = gains[l] * gains[l] * power[l]
    return xi, gamma, gains, prev


@settings(max_examples=100, deadline=None)
@given(
    frames=st.integers(1, 30),
    bins=st.integers(1, 20),
    rule=st.sampled_from(list(GainRule)),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)
def test_dd_xi_run_matches_the_per_frame_reference_bit_for_bit(frames, bins, rule, seed, zeros):
    # power spans decades and lambda_d reaches below its 1e-12 floor;
    # optional zero cells give gamma = 0 and lambda_d = 0
    rng = np.random.default_rng(seed)
    power = rng.exponential(1.0, (frames, bins)) * 10.0 ** rng.uniform(-6, 3, bins)
    lam = 10.0 ** rng.uniform(-15, 2, (frames, bins))
    if zeros:
        power[rng.random((frames, bins)) < 0.3] = 0.0
        lam[rng.random((frames, bins)) < 0.1] = 0.0
    prev = rng.uniform(0.0, 2.0, bins)
    want = reference_dd_run(prev, power, lam, rule)
    xi, gamma, state = dd_xi(DdState(prev.copy()), power, lam, rule)
    for got, ref in zip((xi, gamma, state.gain, state.prev_amp_sq), want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    # a frame at a time is the one-row run
    state = DdState(prev.copy())
    for l in range(frames):
        xi, gamma, state = dd_xi(state, power[l], lam[l], rule)
        for got, ref in zip((xi, gamma, state.gain), want):
            assert got.tobytes() == ref[l].tobytes()
    assert state.prev_amp_sq.tobytes() == want[3].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    frames=st.integers(1, 30),
    rule=st.sampled_from(list(GainRule)),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)
def test_enhance_dd_matches_the_per_frame_reference_bit_for_bit(frames, rule, seed, zeros):
    # magnitudes down to 1e-9 give powers under the tracker's 1e-12 floor,
    # so past INIT_FRAMES its lambda_d decays below the floor dd_xi applies
    rng = np.random.default_rng(seed)
    magnitude = rng.exponential(1.0, (frames, 257)) * 10.0 ** rng.uniform(-9, 0, 257)
    if zeros:
        magnitude[rng.random(magnitude.shape) < 0.3] = 0.0
    spec = SpectroGram(magnitude, rng.uniform(-np.pi, np.pi, magnitude.shape))
    power = magnitude**2
    lam = reference_tracked_noise_power(power)
    gains = reference_dd_run(np.zeros(257), power, lam, rule)[2]
    want = istft(SpectroGram.from_spectrum(spec.spectrum * gains, spec.config))
    assert enhance(spec, rule).samples.tobytes() == want.samples.tobytes()


def test_dd_long_run_mean_near_mixture_snr():
    # 5 dB stationary mixture, lambda_d set to the per-bin noise variance:
    # dB of the pooled mean xi lands near 5
    rng = np.random.default_rng(0)
    from sefront.corpus import mix_at_snr

    clean = toy_voice(rng, 2 * SR)
    noise = white_noise(rng, 3 * SR)
    mixed = mix_at_snr(clean, noise, 5.0, noise_offset=0)
    spec = stft(mixed.noisy)
    power = spec.magnitude ** 2
    lam = np.mean(stft(mixed.noise).magnitude ** 2, axis=0)
    state = DdState(np.zeros(257))
    pool = []
    for l in range(spec.n_frames):
        xi, _, state = dd_xi(state, power[l], lam)
        if l >= 10:
            pool.append(xi)
    got = 10.0 * np.log10(np.mean(pool))
    assert abs(got - 5.0) < 2.0  # measured 5.16 dB


def test_enhance_passthrough_on_clean_speech():
    # quiet lead-in lets the tracker settle on near-silence, after which
    # speech passes with small distortion
    rng = np.random.default_rng(2)
    clean = toy_voice(rng, 2 * SR, lead_in=0.25)
    out = enhance(clean)
    assert len(out) == clean.size
    ref_rms = np.sqrt(np.mean(clean ** 2))
    dev = np.sqrt(np.mean((out.samples - clean) ** 2)) / ref_rms
    assert dev < 0.05


def test_enhance_reduces_pure_noise():
    rng = np.random.default_rng(3)
    noise = white_noise(rng, SR, rms=0.1)
    out = enhance(noise)
    rms_in = np.sqrt(np.mean(noise ** 2))
    rms_out = np.sqrt(np.mean(out.samples ** 2))
    assert rms_out < 0.6 * rms_in


def test_enhance_zero_in_zero_out():
    out = enhance(np.zeros(8000))
    np.testing.assert_array_equal(out.samples, 0.0)
    assert len(out) == 8000


def test_enhance_other_rules_run():
    rng = np.random.default_rng(4)
    x = white_noise(rng, 8000, rms=0.05)
    for rule in (GainRule.WIENER, GainRule.MMSE_STSA):
        out = enhance(x, rule)
        assert np.all(np.isfinite(out.samples))
        assert len(out) == 8000


def test_dd_xi_keeps_the_frame_gain():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.1, 4.0, 16)
    lam = np.full(16, 0.5)
    state = DdState(rng.uniform(0.0, 2.0, 16))
    gains = {GainRule.WIENER: lambda xi, gamma: gain_wiener(xi),
             GainRule.SRWF: lambda xi, gamma: gain_srwf(xi),
             GainRule.MMSE_STSA: gain_mmse_stsa}
    for rule in GainRule:
        xi, gamma, nxt = dd_xi(state, p, lam, rule)
        np.testing.assert_array_equal(nxt.gain, gains[rule](xi, gamma))
        np.testing.assert_array_equal(nxt.prev_amp_sq, nxt.gain**2 * p)
    assert state.gain is None


def test_enhance_computes_one_gain_per_frame(monkeypatch):
    # one unchecked kernel call per frame, and no per-frame call of the
    # checked gain_mmse_stsa: the call's inputs are checked once
    rng = np.random.default_rng(6)
    x = white_noise(rng, 8000, rms=0.05)
    calls = []
    real = gain_module._mmse_stsa

    def counting(xi, gamma, out=None):
        calls.append(1)
        return real(xi, gamma, out)

    def refuse(*args):
        raise AssertionError("the DD loop called a checked gain")

    monkeypatch.setattr(gain_module, "_mmse_stsa", counting)
    for module in (gain_module, dd_module):
        monkeypatch.setattr(module, "gain_mmse_stsa", refuse)
    enhance(x, GainRule.MMSE_STSA)
    assert len(calls) == stft(x).n_frames


def dd_enhance_peak(rule):
    """Traced peak of a decision-directed enhance of a seeded 4 s waveform,
    above its input, in units of one (frames x 257) float64 array."""
    x = np.random.default_rng(0).normal(0.0, 0.1, 4 * SR)
    unit = stft(x).n_frames * 257 * 8  # and the window is cached here
    _scipy.i0e, _scipy.i1e  # imported here, so the peak holds no import
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        enhance(x, rule)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / unit


# 7.41 for every rule with a dd_xi call per frame; the run adds xi and
# gamma beside the gains: 8.02 for Wiener and SRWF, 8.14 for MMSE-STSA.
# Keeping the floored lambda_d and the gamma term in arrays of their own
# measured 10.02.
@pytest.mark.parametrize("rule", list(GainRule))
def test_enhance_dd_peak_memory(rule):
    assert dd_enhance_peak(rule) < 8.4


def _oracle_case(seed, n):
    """A random mixture of length n and the oracle xi of its components."""
    rng = np.random.default_rng(seed)
    clean = rng.normal(0.0, 0.1, n)
    noise = rng.normal(0.0, 0.05, n)
    return clean + noise, oracle_xi(stft(clean), stft(noise))


@pytest.mark.parametrize("rule", [GainRule.WIENER, GainRule.SRWF])
def test_oracle_wiener_and_srwf_take_no_magnitude_of_the_input(monkeypatch, rule):
    # given xi, these gains read no gamma, so |Z| of the input is never needed
    noisy, xi = _oracle_case(9, 8000)
    spec = stft(noisy)
    reads = []
    magnitude = SpectroGram.magnitude

    def recorded(s):
        if s is spec:
            reads.append(1)
        return magnitude.func(s)

    monkeypatch.setattr(SpectroGram, "magnitude", property(recorded))
    enhance(spec, rule, xi, out_len=noisy.size)
    assert reads == []


def enhance_cases(test):
    """Random lengths, every rule, decision-directed or oracle xi."""
    cases = given(
        n=st.integers(1, 6000),
        rule=st.sampled_from(list(GainRule)),
        seed=st.integers(0, 2**32 - 1),
        use_oracle=st.booleans(),
    )
    return settings(max_examples=30, deadline=None)(cases(test))


@enhance_cases
def test_enhance_keeps_the_input_length(n, rule, seed, use_oracle):
    noisy, xi = _oracle_case(seed, n)
    out = enhance(noisy, rule, xi if use_oracle else None)
    assert len(out) == n
    assert np.all(np.isfinite(out.samples))


@enhance_cases
def test_enhance_takes_the_spectrogram_in_place_of_the_signal(n, rule, seed, use_oracle):
    noisy, xi = _oracle_case(seed, n)
    xi = xi if use_oracle else None
    want = enhance(noisy, rule, xi).samples
    got = enhance(stft(noisy), rule, xi, out_len=n).samples
    assert got.tobytes() == want.tobytes()
    full = enhance(stft(noisy), rule, xi).samples
    assert full.size == synthesis_length(stft(noisy).n_frames)
    assert full[:n].tobytes() == want.tobytes()


@enhance_cases
def test_enhance_zero_input_gives_zero_output(n, rule, seed, use_oracle):
    # with an oracle xi every gamma is 0 and goes through the floor
    _, xi = _oracle_case(seed, n)
    out = enhance(np.zeros(n), rule, xi if use_oracle else None)
    np.testing.assert_array_equal(out.samples, 0.0)
    assert len(out) == n


@enhance_cases
def test_enhance_rejects_wrong_shape_xi(n, rule, seed, use_oracle):
    noisy, xi = _oracle_case(seed, n)
    wrong = xi[:, :-1] if use_oracle else np.ones((xi.shape[0] + 1, xi.shape[1]))
    with pytest.raises(ValueError, match="xi shape"):
        enhance(noisy, rule, wrong)


@pytest.mark.parametrize("rule", list(GainRule))
@pytest.mark.parametrize("value, message", [
    (-0.5, "xi must be >= 0 and gamma > 0"),
    (-2.0, "xi must be >= 0 and gamma > 0"),
    (np.nan, "xi and gamma must be finite"),
    (np.inf, "xi and gamma must be finite"),
])
def test_enhance_rejects_xi_out_of_range_for_every_rule(rule, value, message):
    # one bad cell: a ValueError before any gain, and no RuntimeWarning
    noisy, xi = _oracle_case(10, 4000)
    xi[5, 17] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            enhance(noisy, rule, xi)
    assert str(raised.value) == message


@enhance_cases
def test_enhance_leaves_its_inputs_unchanged(n, rule, seed, use_oracle):
    noisy, xi = _oracle_case(seed, n)
    spec = stft(noisy)
    arrays = (spec.magnitude, spec.phase, xi)
    before = [a.tobytes() for a in arrays]
    enhance(spec, rule, xi if use_oracle else None)
    assert [a.tobytes() for a in arrays] == before


def _spectrogram_with(cells):
    """30 frames of moderate random spectra with the given (frame, bin) ->
    magnitude cells, all past the tracker's initial frames."""
    rng = np.random.default_rng(8)
    magnitude = rng.uniform(0.05, 1.0, (30, 257))
    for (frame, k), value in cells.items():
        magnitude[frame, k] = value
    return SpectroGram(magnitude, rng.uniform(-np.pi, np.pi, (30, 257)))


def reference_mmse_stsa_error(spec):
    """The error of the per-frame checked loop: gain_mmse_stsa on each
    frame's decision-directed xi and gamma, in frame order."""
    power = spec.magnitude**2
    lam = np.maximum(tracked_noise_power(power), 1e-12)
    prev = np.zeros(power.shape[1])
    for l in range(power.shape[0]):
        gamma = power[l] / lam[l]
        xi = 0.98 * prev / lam[l] + 0.02 * np.maximum(gamma - 1.0, 0.0)
        try:
            g = gain_mmse_stsa(xi, np.maximum(gamma, 1e-12))
        except ValueError as exc:
            return str(exc)
        prev = (g * g) * power[l]
    return None


@pytest.mark.parametrize("cells, message", [
    ({(15, 7): np.inf}, "xi and gamma must be finite"),
    ({(15, 7): 1e140}, "xi * gamma overflows"),
    ({(12, 3): 1e140, (20, 9): np.inf}, "xi * gamma overflows"),
    ({(12, 3): np.inf, (20, 9): 1e140}, "xi and gamma must be finite"),
    ({(29, 256): np.inf}, "xi and gamma must be finite"),
])
def test_enhance_dd_mmse_stsa_raises_the_first_bad_frames_error(cells, message):
    # an inf or huge magnitude: the check once per call raises the error the
    # per-frame check raised at the first bad frame, and no RuntimeWarning
    spec = _spectrogram_with(cells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reference_mmse_stsa_error(spec) == message
        with pytest.raises(ValueError) as raised:
            enhance(spec, GainRule.MMSE_STSA)
    assert str(raised.value) == message
