import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sefront.corpus import load_wav
from sefront.dsp import SpectroGram, frame_count, stft
from sefront.snr import (
    XiStats,
    db_to_xi,
    estimate_stats,
    inverse_erf,
    load_stats,
    map_xi,
    oracle_xi,
    save_stats,
    stats_from_xi_db,
    unmap_xi,
    xi_to_db,
)


def spec_of(mag):
    mag = np.asarray(mag, dtype=float)
    return SpectroGram(mag, np.zeros_like(mag))


def uniform_stats(n_bins=257, mu=0.0, sigma=10.0):
    return XiStats(np.full(n_bins, mu), np.full(n_bins, sigma))


def test_oracle_xi_elementwise():
    clean = spec_of(np.full((1, 257), 2.0))
    noise = spec_of(np.full((1, 257), 1.0))
    np.testing.assert_allclose(oracle_xi(clean, noise), 4.0)


def test_oracle_xi_zero_noise_hits_floor():
    # |S| = 1 against silent noise: power ratio against the 1e-12 floor
    clean = spec_of(np.ones((2, 257)))
    noise = spec_of(np.zeros((2, 257)))
    np.testing.assert_allclose(oracle_xi(clean, noise), 1e12)


def test_oracle_xi_zero_clean_is_zero():
    clean = spec_of(np.zeros((1, 257)))
    noise = spec_of(np.ones((1, 257)))
    np.testing.assert_array_equal(oracle_xi(clean, noise), 0.0)


def test_db_conversions():
    np.testing.assert_allclose(xi_to_db(np.array([1.0, 10.0, 100.0])), [0.0, 10.0, 20.0])
    np.testing.assert_allclose(db_to_xi(xi_to_db(np.array([0.5, 7.3]))), [0.5, 7.3])


def test_map_at_mu_is_half():
    st = uniform_stats(4, mu=-3.0, sigma=5.0)
    bar = map_xi(np.full((1, 4), -3.0), st)
    np.testing.assert_array_equal(bar, 0.5)


def test_map_one_sigma_above():
    # mu + sigma*sqrt(2) puts the normal CDF argument at erf(1)
    st = uniform_stats(1, mu=0.0, sigma=1.0)
    bar = map_xi(np.array([[np.sqrt(2.0)]]), st)
    np.testing.assert_allclose(bar, 0.9213503964748575, rtol=1e-15)


def test_map_monotone_and_bounded():
    st = uniform_stats(1)
    grid = np.linspace(-80, 80, 501)[:, None]
    bar = map_xi(grid, st)
    assert np.all(np.diff(bar[:, 0]) > 0)
    assert np.all((bar >= 0) & (bar <= 1))


def test_map_rejects_wrong_width():
    with pytest.raises(ValueError):
        map_xi(np.zeros((3, 5)), uniform_stats(4))


def test_unmap_round_trip_interior():
    rng = np.random.default_rng(11)
    mu = rng.uniform(-25, 15, 64)
    sigma = rng.uniform(0.5, 12.0, 64)
    st = XiStats(mu, sigma)
    xi_db = mu + sigma * np.linspace(-4.5, 4.5, 200)[:, None]
    back = xi_to_db(unmap_xi(map_xi(xi_db, st), st))
    assert np.max(np.abs(back - xi_db)) < 1e-9


def test_unmap_clamps_saturated_inputs():
    st = uniform_stats(3, mu=0.0, sigma=10.0)
    lo = unmap_xi(np.zeros((1, 3)), st)
    hi = unmap_xi(np.ones((1, 3)), st)
    assert np.all(np.isfinite(lo)) and np.all(lo > 0)
    assert np.all(np.isfinite(hi))
    np.testing.assert_array_equal(lo, unmap_xi(np.full((1, 3), 1e-7), st))
    np.testing.assert_array_equal(hi, unmap_xi(np.full((1, 3), 1.0 - 1e-7), st))


def test_inverse_erf_edges():
    assert inverse_erf(0.0) == 0.0
    assert inverse_erf(1.0) == np.inf
    assert inverse_erf(-1.0) == -np.inf
    np.testing.assert_allclose(inverse_erf(0.3), -inverse_erf(-0.3), rtol=0)


def test_inverse_erf_against_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    ys = np.concatenate([
        np.linspace(-0.999, 0.999, 81),
        np.array([-1 + 2e-7, -0.5, 0.5, 1 - 2e-7, 0.49999, 0.50001]),
    ])
    got = inverse_erf(ys)
    ref = np.array([float(mp.erfinv(mp.mpf(float(y)))) for y in ys])
    assert np.max(np.abs(got - ref)) < 1e-12


def test_xistats_validation():
    with pytest.raises(ValueError):
        XiStats(np.zeros(3), np.full(4, 1.0))
    with pytest.raises(ValueError):
        XiStats(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        XiStats(np.zeros(2), np.array([0.0, 5.0]))
    # the 0.1 dB floor is applied upstream, before construction
    st = stats_from_xi_db(np.zeros((1, 2)))
    np.testing.assert_allclose(st.sigma_db, [0.1, 0.1])


def test_stats_from_xi_db_hand_values():
    frames = np.array([[0.0, 0.0], [10.0, 20.0]])
    st = stats_from_xi_db(frames)
    np.testing.assert_allclose(st.mu_db, [5.0, 10.0])
    # ddof=1: std([0,10]) = sqrt(50), std([0,20]) = sqrt(200)
    np.testing.assert_allclose(
        st.sigma_db, [7.0710678118654755, 14.142135623730951], rtol=1e-15
    )
    assert st.n_frames == 2


def test_stats_constant_column_gets_sigma_floor():
    st = stats_from_xi_db(np.full((5, 3), 2.0))
    np.testing.assert_allclose(st.mu_db, 2.0)
    np.testing.assert_allclose(st.sigma_db, 0.1)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 9)),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stats_from_xi_db_equals_numpy(shape, scale, seed):
    rng = np.random.default_rng(seed)
    pool = rng.normal(rng.normal(0, scale), scale, shape)
    pool[:, 0] = pool[0, 0]  # a constant column: sigma at the floor
    before = pool.copy()
    got = stats_from_xi_db(pool)
    want_mu = np.mean(pool, axis=0)
    want_sigma = np.std(pool, axis=0, ddof=1) if shape[0] > 1 else np.zeros(shape[1])
    assert got.mu_db.tobytes() == want_mu.tobytes()
    assert got.sigma_db.tobytes() == np.maximum(want_sigma, 0.1).tobytes()
    assert got.n_frames == shape[0]
    np.testing.assert_array_equal(pool, before)


def test_estimate_stats_peak_memory():
    # 40 seeded recordings of 0.5-1.5 s.  Holding the per-recording list,
    # its concatenation and np.std's centred copy peaked at 3.0 times the
    # (frames x bins) pool above the inputs; the single pool, at 1.3.
    rng = np.random.default_rng(0)
    clean = [rng.normal(0, 0.1, int(rng.integers(8000, 24000))) for _ in range(40)]
    noise = [rng.normal(0, 0.1, 32000) for _ in range(4)]
    pool_bytes = sum(frame_count(x.size, 256) for x in clean) * 257 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        estimate_stats(clean, noise, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * pool_bytes


def test_estimate_stats_identity_mixture():
    # clean mixed with itself at 0 dB: xi is exactly 1 in every live cell
    rng = np.random.default_rng(3)
    x = rng.normal(0, 0.2, 16000)
    st = estimate_stats([x], [x], snr_range=[0], seed=0)
    np.testing.assert_array_equal(st.mu_db, 0.0)
    np.testing.assert_array_equal(st.sigma_db, 0.1)
    assert st.n_frames == 63


def test_estimate_stats_deterministic_and_order_invariant():
    rng = np.random.default_rng(5)
    clean = [rng.normal(0, 0.1, 8000) for _ in range(4)]
    noise = [rng.normal(0, 0.1, 20000) for _ in range(3)]
    a = estimate_stats(clean, noise, seed=9)
    b = estimate_stats(clean[::-1], noise[::-1], seed=9)
    np.testing.assert_array_equal(a.mu_db, b.mu_db)
    np.testing.assert_array_equal(a.sigma_db, b.sigma_db)
    c = estimate_stats(clean, noise, seed=10)
    assert np.any(a.mu_db != c.mu_db)


def test_estimate_stats_rejects_short_noise():
    # training's rule: no noise recording shorter than the longest clean one
    rng = np.random.default_rng(6)
    clean = [rng.normal(0, 0.1, n) for n in (1000, 8000)]
    noise = [rng.normal(0, 0.1, 20000), rng.normal(0, 0.1, 7999)]
    with pytest.raises(ValueError, match="shorter than the longest clean recording"):
        estimate_stats(clean, noise, seed=0)
    assert estimate_stats(clean, noise[:1], seed=0).n_bins == 257


def test_estimate_stats_from_wav_paths_equals_the_loaded_signals(wav_corpus):
    clean_paths = sorted(wav_corpus[0].glob("*.wav"))
    noise_paths = sorted(wav_corpus[1].glob("*.wav"))
    # reversed, so the digest order has work to do on both sides
    a = estimate_stats(clean_paths[::-1], noise_paths[::-1], seed=7)
    b = estimate_stats([load_wav(p) for p in clean_paths],
                       [load_wav(p).samples for p in noise_paths], seed=7)
    assert a.mu_db.tobytes() == b.mu_db.tobytes()
    assert a.sigma_db.tobytes() == b.sigma_db.tobytes()
    assert a.n_frames == b.n_frames


def test_estimate_stats_rejects_empty():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 0.1, 4000)
    with pytest.raises(ValueError):
        estimate_stats([], [x])
    with pytest.raises(ValueError):
        estimate_stats([x], [])
    with pytest.raises(ValueError, match="empty grid"):
        estimate_stats([x], [x], snr_range=[])
    with pytest.raises(ValueError, match="clean recording 1 is empty"):
        estimate_stats([x, np.zeros(0)], [x])


def test_stats_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    st = XiStats(rng.uniform(-30, 10, 257), rng.uniform(0.2, 20, 257), n_frames=123)
    p = tmp_path / "stats.txt"
    save_stats(st, p)
    back = load_stats(p)
    np.testing.assert_array_equal(back.mu_db, st.mu_db)
    np.testing.assert_array_equal(back.sigma_db, st.sigma_db)
    assert back.n_frames == 123


def test_stats_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("xistats-v1 2 1\n0 0\n")
    with pytest.raises(ValueError, match="3 lines"):
        load_stats(p)
    p.write_text("wrong 2 1\n0 0\n1 1\n")
    with pytest.raises(ValueError, match="header"):
        load_stats(p)
    p.write_text("xistats-v1 3 1\n0 0\n1 1\n")
    with pytest.raises(ValueError, match="3 values"):
        load_stats(p)


def test_oracle_xi_through_stft_pipeline():
    # scaling the noise by 10 shifts xi by -20 dB in every live cell
    rng = np.random.default_rng(13)
    s = rng.normal(0, 0.2, 8000)
    d = rng.normal(0, 0.2, 8000)
    xi1 = oracle_xi(stft(s), stft(d))
    xi2 = oracle_xi(stft(s), stft(10.0 * d))
    np.testing.assert_allclose(xi_to_db(xi2), xi_to_db(xi1) - 20.0, atol=1e-9)
