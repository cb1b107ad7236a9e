import importlib
import tracemalloc

import numpy as np
import pytest

from conftest import SR, tone_bursts, white_noise
from sefront import _scipy
from sefront.corpus import load_wav, save_wav
from sefront.dsp import frame_count, stft
from sefront.rnn import forward, init_network
from sefront.snr import XiStats, db_to_xi
from sefront.train import (
    Adam,
    TrainConfig,
    clip_gradients,
    infer_xi,
    make_example,
    train,
)


def flat_stats(mu=0.0, sigma=10.0):
    return XiStats(np.full(257, mu), np.full(257, sigma))


def toy_corpora(n_clean=10, seed=42):
    rng = np.random.default_rng(seed)
    clean = [tone_bursts(rng, SR) for _ in range(n_clean)]
    noise = [white_noise(rng, 3 * SR), white_noise(rng, 3 * SR)]
    return clean, noise


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learn_rate=-1.0)
    with pytest.raises(ValueError, match="empty SNR range"):
        TrainConfig(snrs=range(10, 1))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            TrainConfig(learn_rate=bad)
        with pytest.raises(ValueError, match="finite and non-negative"):
            TrainConfig(grad_clip_norm=bad)


def test_default_snr_range():
    assert TrainConfig().snrs == range(-10, 21)
    assert list(TrainConfig(snrs=range(-5, 16, 5)).snrs) == [-5, 0, 5, 10, 15]


def test_adam_zero_lr_keeps_parameters():
    rng = np.random.default_rng(0)
    tensors = {"a": rng.normal(0, 1, (3, 4)), "b": rng.normal(0, 1, 5)}
    before = {k: v.copy() for k, v in tensors.items()}
    opt = Adam(lr=0.0)
    opt.step(tensors, {k: rng.normal(0, 1, v.shape) for k, v in tensors.items()})
    for k in tensors:
        np.testing.assert_array_equal(tensors[k], before[k])


def test_adam_first_step_magnitude():
    # with bias correction the very first step is lr * g / (|g| + eps)
    tensors = {"a": np.zeros(3)}
    opt = Adam(lr=0.1)
    opt.step(tensors, {"a": np.array([1.0, -2.0, 0.5])})
    np.testing.assert_allclose(tensors["a"], [-0.1, 0.1, -0.1], rtol=1e-6)


def test_clip_gradients():
    grads = {"a": np.array([3.0, 4.0])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(grads["a"], [0.6, 0.8])
    grads = {"a": np.array([0.3, 0.4])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_allclose(grads["a"], [0.3, 0.4])


def test_make_example_shapes_and_target_range():
    clean, noise = toy_corpora(n_clean=1)
    section = noise[0][123 : 123 + clean[0].size]
    mag, target = make_example(clean[0], section, 5.0, flat_stats())
    assert mag.shape == target.shape == (63, 257)
    assert np.all(mag >= 0)
    assert np.all((target >= 0) & (target <= 1))


def test_history_length_and_determinism():
    clean, noise = toy_corpora()
    cfg = TrainConfig(epochs=3, batch_size=4, seed=5)
    p1 = init_network(seed=1, cell_size=8, n_blocks=1)
    _, h1 = train(p1, clean, noise, flat_stats(), cfg)
    assert len(h1) == 3 * (10 // 4)
    p2 = init_network(seed=1, cell_size=8, n_blocks=1)
    _, h2 = train(p2, clean, noise, flat_stats(), cfg)
    assert h1 == h2
    for k, v in p1.tensors().items():
        np.testing.assert_array_equal(p2.tensors()[k], v)


def test_zero_lr_training_is_identity():
    clean, noise = toy_corpora(n_clean=4)
    cfg = TrainConfig(epochs=1, batch_size=4, learn_rate=0.0)
    params = init_network(seed=2, cell_size=8, n_blocks=1)
    before = {k: v.copy() for k, v in params.tensors().items()}
    train(params, clean, noise, flat_stats(), cfg)
    for k, v in params.tensors().items():
        np.testing.assert_array_equal(v, before[k])


def test_training_reduces_loss_small_net():
    # compact learning check: cell 32, white noise only, fixed map stats
    clean, noise = toy_corpora(n_clean=20)
    params = init_network(seed=0, cell_size=32, n_blocks=2)
    cfg = TrainConfig(epochs=10, batch_size=10, learn_rate=0.01, seed=0)
    _, hist = train(params, clean, noise, flat_stats(), cfg)
    h = np.array(hist).reshape(10, 2)
    assert h[-1].mean() <= 0.5 * h[0].mean()


def test_train_input_validation():
    clean, noise = toy_corpora(n_clean=4)
    params = init_network(seed=3, cell_size=8, n_blocks=1)
    with pytest.raises(ValueError, match="non-empty"):
        train(params, [], noise, flat_stats())
    with pytest.raises(ValueError, match="smaller than"):
        train(params, clean, noise, flat_stats(), TrainConfig(batch_size=5))
    short_noise = [np.zeros(100)]
    with pytest.raises(ValueError, match="shorter"):
        train(params, clean, short_noise, flat_stats(), TrainConfig(batch_size=4, epochs=1))
    bad_stats = XiStats(np.zeros(100), np.ones(100))
    with pytest.raises(ValueError, match="bin count"):
        train(params, clean, noise, bad_stats, TrainConfig(batch_size=4))
    with pytest.raises(ValueError, match="clean recording 2 is empty"):
        train(params, clean[:2] + [np.zeros(0)] + clean[3:], noise, flat_stats(),
              TrainConfig(batch_size=4, epochs=1))


def test_short_noise_rejected_before_the_first_batch(monkeypatch):
    # the noise covers the three short clean recordings but not the long
    # one, which the shuffle for seed 0 puts in a later batch, so a check
    # at draw time would train three batches first
    rng = np.random.default_rng(11)
    clean = [tone_bursts(rng, SR // 2) for _ in range(3)] + [tone_bursts(rng, 2 * SR)]
    noise = [white_noise(rng, SR)]
    # the package exports the train() function under the module's name
    train_module = importlib.import_module("sefront.train")
    batches = []
    real_backward = train_module.backward

    def counting_backward(*args):
        batches.append(1)
        return real_backward(*args)

    monkeypatch.setattr(train_module, "backward", counting_backward)
    params = init_network(seed=3, cell_size=8, n_blocks=1)
    cfg = TrainConfig(epochs=1, batch_size=1, seed=0)
    with pytest.raises(ValueError, match="shorter"):
        train(params, clean, noise, flat_stats(), cfg)
    assert batches == []


@pytest.mark.parametrize("bidirectional", [False, True])
def test_train_from_wav_paths_equals_training_on_the_loaded_signals(wav_corpus,
                                                                     bidirectional):
    clean_paths = sorted(wav_corpus[0].glob("*.wav"))
    noise_paths = sorted(wav_corpus[1].glob("*.wav"))
    cfg = TrainConfig(epochs=2, batch_size=3, seed=4)
    runs = []
    for clean, noise in ((clean_paths, noise_paths),
                         ([load_wav(p) for p in clean_paths],
                          [load_wav(p).samples for p in noise_paths])):
        params = init_network(seed=2, cell_size=8, n_blocks=1,
                              bidirectional=bidirectional)
        runs.append(train(params, clean, noise, flat_stats(), cfg))
    (p_paths, h_paths), (p_signals, h_signals) = runs
    assert np.array(h_paths).tobytes() == np.array(h_signals).tobytes()
    for k, v in p_signals.tensors().items():
        assert p_paths.tensors()[k].tobytes() == v.tobytes()


def test_train_peak_memory_is_flat_in_the_corpus_size(tmp_path):
    # 0.5 s recordings, batches of 4.  Holding the loaded corpus, as
    # training did before it read recordings as drawn, took the peak from
    # 3.6 MB at 8 recordings to 5.2 MB at 32; read from their WAV files,
    # the peak is 1.66 MB at 8 and 1.72 MB at 32.
    rng = np.random.default_rng(0)
    clean = [tmp_path / f"c{i:02d}.wav" for i in range(32)]
    for p in clean:
        save_wav(tone_bursts(rng, SR // 2), p)
    noise = [tmp_path / f"n{i}.wav" for i in range(2)]
    for p in noise:
        save_wav(white_noise(rng, 4 * SR), p)
    peaks = []
    _scipy.expit, _scipy.erf  # imported here, so the first peak holds no import
    for n in (8, 32):
        params = init_network(seed=1, cell_size=8, n_blocks=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(params, clean[:n], noise, flat_stats(),
                  TrainConfig(epochs=1, batch_size=4, seed=0))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def batch_peak(bidirectional: bool, dtype=np.float64) -> float:
    """Traced peak of one whole training batch, its examples made and
    packed and its step taken, on a seeded in-memory corpus of 10
    recordings (1731 frames) with the CLI's network defaults and params in
    dtype, in units of one packed (frames x 257) float64 array."""
    rng = np.random.default_rng(23)
    lengths = rng.integers(100, 300, 10) * 256
    clean = [0.3 * rng.standard_normal(n) for n in lengths]
    noise = [0.1 * rng.standard_normal(lengths.max())]
    params = init_network(seed=1, bidirectional=bidirectional).astype(dtype)
    _scipy.expit, _scipy.erf  # imported here, so the peak holds no import
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(params, clean, noise, flat_stats(), TrainConfig(epochs=1, batch_size=10, seed=5))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (sum(frame_count(n, 256) for n in lengths) * 257 * 8)


# UNI measured 7.9 and BI 10.4 while the batch was held as lists of
# examples and backward gathered a packed copy of the targets; 6.6 and
# 9.1 once it was packed as it was made, backward took its targets over
# and the forward pass freed each cell's output once added
def test_train_batch_peak_memory():
    assert batch_peak(bidirectional=False) < 7.5


def test_train_batch_peak_memory_bidirectional():
    assert batch_peak(bidirectional=True) < 10.0


# float32 params measured 0.501 of the float64 peak; a float64 PackedBatch.x
# took it to 0.89, and float64 cells in one LSTM walk to 0.71
def test_train_batch_peak_memory_float32():
    assert batch_peak(False, np.float32) < 0.55 * batch_peak(False)


def test_float32_training_stays_float32(monkeypatch):
    # the packed batches, Adam's moments and the trained params keep the
    # params' float32, and the loss history holds Python floats
    train_module = importlib.import_module("sefront.train")
    backward, batches, opts = train_module.backward, [], []

    def recorded(params, batch):
        batches.append((batch.x.dtype, batch.target.dtype))
        return backward(params, batch)

    class RecordedAdam(Adam):
        def __init__(self, lr):
            super().__init__(lr)
            opts.append(self)

    monkeypatch.setattr(train_module, "backward", recorded)
    monkeypatch.setattr(train_module, "Adam", RecordedAdam)
    clean, noise = toy_corpora(n_clean=4)
    params = init_network(seed=2, cell_size=8, n_blocks=1).astype(np.float32)
    _, history = train(params, clean, noise, flat_stats(),
                       TrainConfig(epochs=1, batch_size=2, seed=3))
    assert batches == [(np.float32, np.float32)] * 2
    assert all(type(v) is float for v in history) and len(history) == 2
    (opt,) = opts
    assert list(opt.m) == list(opt.v) == list(params)
    for name, p in params.items():
        assert p.dtype == opt.m[name].dtype == opt.v[name].dtype == np.float32, name


def test_infer_xi_constant_half_lands_on_mu():
    # zeroed output layer keeps the prediction at exactly 0.5, so the
    # unmapped estimate is mu in every cell
    params = init_network(seed=4, cell_size=8, n_blocks=1)
    params["out.w"][:] = 0.0
    params["out.b"][:] = 0.0
    stats = flat_stats(mu=-4.0, sigma=7.0)
    rng = np.random.default_rng(6)
    xi = infer_xi(params, white_noise(rng, 8000), stats)
    np.testing.assert_allclose(xi, float(db_to_xi(np.array(-4.0))), rtol=1e-12)


def test_infer_xi_takes_the_spectrogram_in_place_of_the_signal():
    params = init_network(seed=5, cell_size=8, n_blocks=1)
    x = white_noise(np.random.default_rng(7), 6000)
    want = infer_xi(params, x, flat_stats())
    np.testing.assert_array_equal(infer_xi(params, stft(x), flat_stats()), want)


def test_infer_xi_dimension_checks():
    params = init_network(seed=7, input_dim=100, output_dim=100, cell_size=8, n_blocks=1)
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError, match="model dimensions"):
        infer_xi(params, white_noise(rng, 4000), flat_stats())
    good = init_network(seed=7, cell_size=8, n_blocks=1)
    with pytest.raises(ValueError, match="bin count"):
        infer_xi(good, white_noise(rng, 4000), XiStats(np.zeros(10), np.ones(10)))


def test_infer_xi_positive_and_finite():
    params = init_network(seed=9, cell_size=8, n_blocks=1)
    rng = np.random.default_rng(10)
    xi = infer_xi(params, white_noise(rng, 8000), flat_stats())
    assert np.all(xi > 0)
    assert np.all(np.isfinite(xi))
