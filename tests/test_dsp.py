import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sefront.dsp import (
    AnalysisConfig,
    AudioSignal,
    BLOCK_FRAMES,
    DEFAULT_CONFIG,
    SpectroGram,
    _polar,
    frame_count,
    frame_signal,
    hamming_window,
    istft,
    stft,
    synthesis_length,
)


def test_hamming_known_values():
    # n=4: cos terms at 0, 2pi/3, 4pi/3, 2pi
    np.testing.assert_allclose(
        hamming_window(4), [0.08, 0.77, 0.77, 0.08], atol=1e-12
    )


def test_hamming_symmetric_and_positive():
    w = hamming_window(512)
    np.testing.assert_allclose(w, w[::-1], atol=0)
    assert np.all(w > 0)
    np.testing.assert_allclose(w[0], 0.08, atol=1e-12)


def test_hamming_rejects_short():
    with pytest.raises(ValueError):
        hamming_window(1)


def test_hamming_is_built_once_per_length_and_read_only():
    w = hamming_window(400)
    assert hamming_window(400) is w
    assert not w.flags.writeable


def test_frame_count_ceil():
    assert frame_count(512, 256) == 2
    assert frame_count(256, 256) == 1
    assert frame_count(1024, 256) == 4
    assert frame_count(513, 256) == 3
    assert frame_count(1, 256) == 1


def test_frame_signal_layout_and_padding():
    x = np.arange(600, dtype=float)
    frames = frame_signal(x)
    assert frames.shape == (3, 512)
    np.testing.assert_array_equal(frames[0], x[:512])
    np.testing.assert_array_equal(frames[1, :344], x[256:])
    assert np.all(frames[1, 344:] == 0)
    np.testing.assert_array_equal(frames[2, :88], x[512:])
    assert np.all(frames[2, 88:] == 0)


def gathered_frames(x, config):
    """The framing as a fancy-index gather, the way it was first written."""
    n_frames = frame_count(x.size, config.frame_shift)
    padded = np.zeros((n_frames - 1) * config.frame_shift + config.frame_len)
    padded[: x.size] = x
    offsets = config.frame_shift * np.arange(n_frames)
    return padded[offsets[:, None] + np.arange(config.frame_len)[None, :]]


def stft_case(x, config=DEFAULT_CONFIG):
    """stft of x and its spectrum built apart: the rfft of the gathered frames."""
    z = np.fft.rfft(gathered_frames(x, config) * hamming_window(config.frame_len),
                    n=config.fft_size, axis=1)
    return stft(x, config), z


@st.composite
def configs_and_signals(draw):
    """An AnalysisConfig, and a signal of 1-3000 samples drawn from a seed."""
    frame_len = draw(st.integers(2, 600))
    frame_shift = draw(st.integers(1, frame_len))
    fft_size = frame_len + draw(st.integers(0, 100))
    n = draw(st.integers(1, 3000))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0, 0.3, n)
    return AnalysisConfig(frame_len, frame_shift, fft_size), x


@settings(max_examples=100, deadline=None)
@given(configs_and_signals())
def test_frame_signal_equals_the_index_gather(case):
    config, x = case
    frames = frame_signal(x, config)
    want = gathered_frames(x, config)
    assert frames.dtype == want.dtype and frames.shape == want.shape
    assert frames.tobytes() == want.tobytes()
    assert not frames.flags.writeable


@settings(max_examples=50, deadline=None)
@given(configs_and_signals())
def test_stft_phase_is_the_angle_of_the_transform(case):
    config, x = case
    spec, ref = stft_case(x, config)
    np.testing.assert_array_equal(spec.magnitude, np.abs(ref))
    np.testing.assert_array_equal(spec.phase, np.angle(ref))
    assert spec.phase is spec.phase  # computed once, then kept
    assert spec.magnitude is spec.magnitude
    # reading them leaves the spectrum in place, the one istft synthesizes
    assert spec.spectrum.tobytes() == ref.tobytes()


@settings(max_examples=100, deadline=None)
@given(configs_and_signals())
def test_istft_inverts_stft(case):
    config, x = case
    y = istft(stft(x, config), len(x))
    assert len(y) == len(x)
    assert np.max(np.abs(y.samples - x)) <= 1e-12


def cos_sin_spectrum(magnitude, phase):
    """magnitude * exp(i phase) the way istft builds it: cos and sin of the
    phase straight into the parts of one complex array, then scaled."""
    z = np.empty(magnitude.shape, dtype=np.complex128)
    for part, f in ((z.real, np.cos), (z.imag, np.sin)):
        f(phase, out=part)
        part *= magnitude
    return z


EDGE_PHASES = [-np.pi, np.pi, 0.0, -0.0, np.pi / 2, -np.pi / 2, np.nextafter(np.pi, 0.0)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1e300),
                          st.floats(-np.pi, np.pi) | st.sampled_from(EDGE_PHASES)),
                min_size=1, max_size=64))
def test_cos_sin_spectrum_equals_the_complex_exponential(cells):
    magnitude, phase = (np.array(v, dtype=np.float64) for v in zip(*cells))
    got = cos_sin_spectrum(magnitude, phase)
    want = magnitude * np.exp(1j * phase)
    # equal in value everywhere; in bytes wherever no part is zero, since a
    # zero product may take the other sign, which istft's overlap-add onto
    # +0.0 erases (test_istft_equals_the_frame_by_frame_overlap_add)
    assert np.array_equal(got, want)
    nonzero = (want.real != 0) & (want.imag != 0)
    assert got[nonzero].tobytes() == want[nonzero].tobytes()


def reference_istft(z, cfg, out_len):
    """Synthesis as first written, of a complex spectrum built by the
    caller: the frames overlap-added one at a time."""
    window = hamming_window(cfg.frame_len)
    frames = np.fft.irfft(z, n=cfg.fft_size, axis=1)[:, : cfg.frame_len]
    frames *= window
    total = synthesis_length(z.shape[0], cfg)
    out = np.zeros(total)
    norm = np.zeros(total)
    for l in range(z.shape[0]):
        start = l * cfg.frame_shift
        out[start : start + cfg.frame_len] += frames[l]
        norm[start : start + cfg.frame_len] += window * window
    out /= norm
    return out[:out_len]


@st.composite
def synthesis_cases(draw):
    """A spectrogram on a random geometry whose shift divides frame_len or
    not, with its complex spectrum built apart from it: from stft of a
    random signal, or from random magnitudes with zeros and phases with
    edge values as magnitude * exp(i phase); and an output length up to
    the full span."""
    frame_len = draw(st.integers(2, 600))
    divisors = [d for d in range(1, frame_len + 1) if frame_len % d == 0]
    others = [d for d in range(1, frame_len + 1) if frame_len % d] or divisors
    frame_shift = draw(st.sampled_from(draw(st.sampled_from([divisors, others]))))
    config = AnalysisConfig(frame_len, frame_shift, frame_len + draw(st.integers(0, 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        spec, z = stft_case(rng.normal(0, 0.3, draw(st.integers(1, 3000))), config)
    else:
        shape = (draw(st.integers(1, 12)), config.n_bins)
        magnitude = rng.exponential(1.0, shape) * (rng.random(shape) < 0.8)
        phase = rng.uniform(-np.pi, np.pi, shape)
        edges = rng.random(shape) < 0.2
        phase[edges] = rng.choice(EDGE_PHASES, edges.sum())
        spec, z = SpectroGram(magnitude, phase, config), magnitude * np.exp(1j * phase)
    total = synthesis_length(spec.n_frames, config)
    return spec, z, draw(st.integers(0, total))


@settings(max_examples=200, deadline=None)
@given(synthesis_cases())
@example((*stft_case(np.linspace(-1, 1, 4000)), 4000))  # the paper's 512/256/512
@example((*stft_case(np.linspace(-1, 1, 999), AnalysisConfig(400, 150, 420)), 999))
def test_istft_equals_the_frame_by_frame_overlap_add(case):
    spec, z, out_len = case
    got = istft(spec, out_len).samples
    assert got.tobytes() == reference_istft(z, spec.config, out_len).tobytes()


@st.composite
def block_edge_cases(draw):
    """A config, a signal whose frame count sits at or next to a multiple of
    BLOCK_FRAMES, and an output length up to the full span."""
    config, _ = draw(configs_and_signals())
    n_frames = draw(st.sampled_from([1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1,
                                     2 * BLOCK_FRAMES + 1]))
    n = (n_frames - 1) * config.frame_shift + draw(st.integers(1, config.frame_shift))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0, 0.3, n)
    return config, x, draw(st.integers(0, synthesis_length(n_frames, config)))


@settings(max_examples=100, deadline=None)
@given(block_edge_cases())
def test_blocked_stft_and_istft_equal_the_whole_array_transforms(case):
    config, x, out_len = case
    spec, want = stft_case(x, config)
    assert spec.spectrum.tobytes() == want.tobytes()
    got = istft(spec, out_len).samples
    assert got.tobytes() == reference_istft(want, config, out_len).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8000), st.integers(0, 2**32 - 1), st.booleans())
def test_synthesis_from_the_spectrum_matches_synthesis_from_its_polar_form(n, seed, gained):
    # on the paper's geometry, with or without gains in [0, 1]; the
    # normalisation by the summed squared window scales a rounding error by
    # up to 1 / sqrt of that sum, so the bound is taken against it
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 0.3, n) * rng.uniform(0.01, 1.0)
    z = stft(x).spectrum
    if gained:
        z = z * rng.uniform(0.0, 1.0, z.shape)
    a = istft(SpectroGram.from_spectrum(z, DEFAULT_CONFIG), n).samples
    b = istft(SpectroGram(np.abs(z), np.angle(z)), n).samples
    hop, frame_len = DEFAULT_CONFIG.frame_shift, DEFAULT_CONFIG.frame_len
    norm = np.zeros(synthesis_length(z.shape[0]))
    for l in range(z.shape[0]):
        norm[l * hop : l * hop + frame_len] += hamming_window(frame_len) ** 2
    bound = 8 * np.finfo(np.float64).eps * np.max(np.abs(x))
    assert np.all(np.abs(a - b) * np.sqrt(norm[:n]) <= bound)


def test_stft_builds_no_full_size_temporary():
    # 10 s at 16 kHz: the spectrum and its magnitude are 24 bytes a cell;
    # a (frames x frame_len) windowed copy alone would add two thirds of that
    x = np.random.default_rng(4).normal(0, 0.3, 160000)
    stft(x)  # FFT plans and the window made outside the measurement
    tracemalloc.start()
    try:
        spec = stft(x)
        magnitude = spec.magnitude
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * (spec.spectrum.nbytes + magnitude.nbytes)


def test_frame_signal_rejects_empty():
    with pytest.raises(ValueError):
        frame_signal(np.array([]))


def test_stft_shapes():
    rng = np.random.default_rng(0)
    spec = stft(rng.normal(0, 0.1, 16000))
    assert spec.magnitude.shape == (63, 257)
    assert spec.phase.shape == (63, 257)
    assert np.all(spec.magnitude >= 0)
    assert np.all(np.abs(spec.phase) <= np.pi + 1e-12)


def test_stft_matches_straight_line_transform():
    # one frame recomputed by hand: window, then a plain rfft
    rng = np.random.default_rng(1)
    x = rng.normal(0, 0.1, 1200)
    spec = stft(x)
    ref = np.fft.rfft(x[256:768] * hamming_window(512), n=512)
    np.testing.assert_allclose(spec.magnitude[1], np.abs(ref), rtol=1e-12)
    np.testing.assert_allclose(spec.phase[1], np.angle(ref), rtol=1e-12, atol=1e-12)


def test_round_trip_random_signals():
    rng = np.random.default_rng(7)
    for n in (16000, 20011, 48000):
        x = rng.uniform(-0.5, 0.5, n)
        y = istft(stft(x), out_len=n)
        assert np.max(np.abs(y.samples - x)) < 1e-10


def test_round_trip_cosine():
    t = np.arange(8000) / 16000.0
    x = 0.7 * np.cos(2 * np.pi * 440.0 * t)
    y = istft(stft(x), out_len=x.size)
    assert np.max(np.abs(y.samples - x)) < 1e-10


def test_round_trip_zeros():
    y = istft(stft(np.zeros(4096)), out_len=4096)
    np.testing.assert_array_equal(y.samples, np.zeros(4096))


def test_istft_default_length_covers_frames():
    spec = stft(np.ones(1000))
    assert synthesis_length(spec.n_frames) == 3 * 256 + 512
    assert len(istft(spec)) == 3 * 256 + 512


def test_istft_rejects_over_long_request():
    spec = stft(np.ones(1000))
    with pytest.raises(ValueError):
        istft(spec, out_len=synthesis_length(spec.n_frames) + 1)


def test_audio_signal_validation():
    s = AudioSignal([0.0, 0.5, -0.5])
    assert s.samples.dtype == np.float64
    assert len(s) == 3
    with pytest.raises(ValueError):
        AudioSignal(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        AudioSignal(np.zeros((2, 2)))


def test_analysis_config_validation():
    assert DEFAULT_CONFIG.n_bins == 257
    with pytest.raises(ValueError):
        AnalysisConfig(frame_shift=0)
    with pytest.raises(ValueError):
        AnalysisConfig(frame_shift=513)
    with pytest.raises(ValueError):
        AnalysisConfig(fft_size=256)


def test_spectrogram_from_magnitude_and_phase_keeps_them_and_their_polar_form():
    rng = np.random.default_rng(12)
    magnitude = rng.exponential(1.0, (4, 257))
    phase = rng.uniform(-np.pi, np.pi, (4, 257))
    spec = SpectroGram(magnitude, phase)
    assert spec.magnitude is magnitude and spec.phase is phase
    assert spec.spectrum is spec.spectrum  # built once, then kept
    assert spec.spectrum.tobytes() == _polar(magnitude, phase).tobytes()
    assert set(vars(spec)) == {"magnitude", "phase", "spectrum", "config"}


def test_spectrogram_from_a_spectrum_derives_magnitude_and_phase_on_first_read():
    spec = stft(np.random.default_rng(13).normal(0, 0.3, 3000))
    assert set(vars(spec)) == {"spectrum", "config"}
    assert spec.n_frames == spec.spectrum.shape[0]
    assert spec.magnitude.tobytes() == np.abs(spec.spectrum).tobytes()
    assert set(vars(spec)) == {"spectrum", "config", "magnitude"}


def test_spectrogram_validation():
    mag = np.ones((3, 257))
    ph = np.zeros((3, 257))
    assert SpectroGram(mag, ph).n_frames == 3
    with pytest.raises(ValueError):
        SpectroGram(mag, np.zeros((2, 257)))
    with pytest.raises(ValueError):
        SpectroGram(-mag, ph)
    with pytest.raises(ValueError):
        SpectroGram(np.ones((3, 100)), np.zeros((3, 100)))
