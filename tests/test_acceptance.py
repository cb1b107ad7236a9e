"""Release gates for the whole package.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
numbers, then asserts.  Thresholds that came from pre-build measurement
runs are pinned as module constants; run with -rA to see every line.
"""

import time
from itertools import combinations

import numpy as np

from conftest import SR, pink_noise, tone_bursts, toy_voice, white_noise
from sefront.cli import main
from sefront.corpus import (
    build_test_manifest,
    load_manifest,
    mix_at_snr,
    save_wav,
)
from sefront.dd import DdState, dd_xi, enhance
from sefront.dsp import SpectroGram, istft, stft
from sefront.features import Transcript, segmental_snr, transcript_name, wer
from sefront.gain import gain_srwf
from sefront.rnn import backward, forward, init_network, loss_cross_entropy
from sefront.snr import XiStats, map_xi, oracle_xi, unmap_xi, xi_to_db
from sefront.train import TrainConfig, infer_xi, train

MAP_TOL_DB = 1e-9
STFT_TOL = 1e-6
GRAD_REL_TOL = 1e-4
GRAD_ABS_FLOOR = 1e-7
GRAD_FD_STEP = 1e-4
LOSS_RATIO_MAX = 0.5
ORACLE_GAIN_MIN_DB = 12.0  # measured minimum 14.56 dB over 8 seeds
MIX_TOL_DB = 0.01
DD_TOL_DB = 2.0


def _report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_score_table_grid(wav_corpus, tmp_path):
    """Score CSV mirrors the 4-noise x 5-SNR condition grid."""
    clean_dir, noise_dir = wav_corpus
    out_dir = tmp_path / "noisy"
    snrs = ["-5", "0", "5", "10", "15"]
    rc = main(["mix", "--clean", str(clean_dir), "--noise", str(noise_dir),
               "--per-noise", "2", "--snr-grid=" + ",".join(snrs),
               "--out-dir", str(out_dir)])
    assert rc == 0
    man = load_manifest(out_dir / "manifest.tsv")
    ref = tmp_path / "ref"
    hyp = tmp_path / "hyp"
    ref.mkdir()
    hyp.mkdir()
    for e in man.entries:
        (ref / transcript_name(e.output_path)).write_text("alpha beta gamma")
        (hyp / transcript_name(e.output_path)).write_text(
            "alpha beta gamma" if e.snr_db >= 10 else "alpha beta"
        )
    csv_out = tmp_path / "scores.csv"
    rc = main(["wer", "--manifest", str(out_dir / "manifest.tsv"),
               "--ref", str(ref), "--hyp", str(hyp), "--out", str(csv_out)])
    assert rc == 0

    lines = csv_out.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    noises = sorted(p.stem for p in noise_dir.glob("*.wav"))
    want = [(n, s) for n in noises for s in snrs]
    got = [(r[0], r[1]) for r in rows]
    ok = (
        lines[0] == "noise,snr_db,n,wer_percent"
        and len(noises) == 4
        and got == want
        and all(r[2] == "2" for r in rows)
    )
    _report(1, "score table grid", ok,
            f"{len(rows)} rows covering {len(set(got))} conditions")


def test_criterion_02_map_round_trip():
    """unmap(map(.)) within 1e-9 dB over mu +/- 5 sigma for 257 bin pairs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    mu = rng.uniform(-25.0, 15.0, 257)
    sigma = rng.uniform(0.5, 12.0, 257)
    stats = XiStats(mu, sigma)
    lin = np.linspace(-5.0, 5.0, 10001)
    xi_db = mu + sigma * lin[:, None]  # (10001, 257), each column its own grid
    back_db = xi_to_db(unmap_xi(map_xi(xi_db, stats), stats))
    worst = float(np.max(np.abs(back_db - xi_db)))
    dt = time.perf_counter() - t0
    ok = worst <= MAP_TOL_DB and dt < 1.0
    _report(2, "map fidelity", ok, f"worst {worst:.3e} dB in {dt:.2f}s")


def test_criterion_03_stft_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(SR, 3 * SR + 1))
        x = 0.3 * rng.standard_normal(n)
        y = istft(stft(x), n)
        worst = max(worst, float(np.max(np.abs(y.samples - x))))
    dt = time.perf_counter() - t0
    ok = worst < STFT_TOL and dt < 10.0
    _report(3, "stft round trip", ok, f"worst {worst:.3e} in {dt:.1f}s")


def test_criterion_04_gradients_match_finite_differences():
    """Every parameter of the tiny net, both directions, central FD."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 2.0, (5, 9))
    t = rng.uniform(0.0, 1.0, (5, 9))
    worst = 0.0
    n_checked = 0
    for bidirectional in (False, True):
        params = init_network(seed=0, input_dim=9, output_dim=9, cell_size=8,
                              n_blocks=2, bidirectional=bidirectional)
        _, grads = backward(params, x, t)
        for name, arr in params.tensors().items():
            g = grads[name]
            for idx in range(arr.size):
                keep = arr.flat[idx]
                arr.flat[idx] = keep + GRAD_FD_STEP
                lp = loss_cross_entropy(forward(params, x), t)
                arr.flat[idx] = keep - GRAD_FD_STEP
                lm = loss_cross_entropy(forward(params, x), t)
                arr.flat[idx] = keep
                fd = (lp - lm) / (2.0 * GRAD_FD_STEP)
                err = abs(fd - g.flat[idx])
                scale = max(abs(fd), abs(g.flat[idx]))
                if err > GRAD_ABS_FLOOR:
                    worst = max(worst, err / max(scale, 1e-300))
                n_checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= GRAD_REL_TOL and dt < 60.0
    _report(4, "gradient check", ok,
            f"{n_checked} params, worst rel {worst:.2e} in {dt:.1f}s")


def test_criterion_05_desk_scale_learning():
    """Loss halves over 10 epochs and the trained net helps on held-out audio."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    clean = [tone_bursts(rng, SR) for _ in range(20)]
    noise = [white_noise(rng, 3 * SR), white_noise(rng, 3 * SR),
             pink_noise(rng, 3 * SR), pink_noise(rng, 3 * SR)]
    stats = XiStats(np.zeros(257), np.full(257, 10.0))

    params = init_network(seed=0, input_dim=257, output_dim=257,
                          cell_size=64, n_blocks=2, bidirectional=False)
    cfg = TrainConfig(epochs=10, batch_size=10, learn_rate=0.01, seed=0)
    params, history = train(params, clean, noise, stats, cfg)
    h = np.array(history).reshape(10, 2)
    ratio = float(h[-1].mean() / h[0].mean())

    ho_rng = np.random.default_rng(777)
    ho_clean = tone_bursts(ho_rng, SR)
    ho_noise = white_noise(ho_rng, 3 * SR)
    mixed = mix_at_snr(ho_clean, ho_noise, 0.0, noise_offset=100)
    spec = stft(mixed.noisy)
    xi = infer_xi(params, mixed.noisy, stats)
    enh = istft(SpectroGram(gain_srwf(xi) * spec.magnitude, spec.phase,
                            spec.config), len(mixed.noisy))
    gain_db = segmental_snr(mixed.clean, enh.samples) - segmental_snr(
        mixed.clean, mixed.noisy
    )
    dt = time.perf_counter() - t0
    ok = ratio <= LOSS_RATIO_MAX and gain_db > 0.0 and dt < 600.0
    _report(5, "desk-scale learning", ok,
            f"loss ratio {ratio:.3f}, held-out {gain_db:+.2f} dB in {dt:.0f}s")


def test_criterion_06_oracle_ceiling():
    t0 = time.perf_counter()
    worst = np.inf
    for seed in range(8):
        rng = np.random.default_rng(seed)
        clean = toy_voice(rng, 2 * SR)
        noise = white_noise(rng, 3 * SR)
        mixed = mix_at_snr(clean, noise, 0.0)
        spec = stft(mixed.noisy)
        xi = oracle_xi(stft(mixed.clean), stft(mixed.noise))
        enh = istft(SpectroGram(gain_srwf(xi) * spec.magnitude, spec.phase,
                                spec.config), len(mixed.noisy))
        gain_db = segmental_snr(mixed.clean, enh.samples) - segmental_snr(
            mixed.clean, mixed.noisy
        )
        worst = min(worst, gain_db)
    dt = time.perf_counter() - t0
    ok = worst >= ORACLE_GAIN_MIN_DB and dt < 30.0
    _report(6, "oracle ceiling", ok, f"min gain {worst:+.2f} dB in {dt:.1f}s")


def test_criterion_07_mixing_accuracy(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1000, 4000))
        clean = rng.normal(0.0, 0.1, n) * np.sin(
            2 * np.pi * rng.uniform(0.5, 3) * np.arange(n) / n
        )
        noise = rng.normal(0.0, 0.2, n + 500)
        offset = int(rng.integers(0, 500))
        want = float(rng.uniform(-10.0, 20.0))
        mixed = mix_at_snr(clean, noise, want, offset)
        got = 10.0 * np.log10(
            np.mean(mixed.clean.samples**2) / np.mean(mixed.noise.samples**2)
        )
        worst = max(worst, abs(got - want))

    clean_dir = tmp_path / "clean"
    noise_dir = tmp_path / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    for i in range(25):
        save_wav(0.1 * np.sin(0.01 * (i + 1) * np.arange(4000)), clean_dir / f"c{i:02d}.wav")
    for i in range(4):
        save_wav(white_noise(np.random.default_rng(50 + i), 8000), noise_dir / f"n{i}.wav")
    man = build_test_manifest(clean_dir, noise_dir, 25, [-5, 0, 5, 10, 15])
    dt = time.perf_counter() - t0
    ok = worst <= MIX_TOL_DB and len(man) == 500 and dt < 30.0
    _report(7, "mixing accuracy", ok,
            f"worst {worst:.2e} dB, manifest {len(man)} entries in {dt:.1f}s")


def _alignment_errors(ref, hyp):
    """Minimum errors by enumerating every monotone alignment outright."""
    m, n = len(ref), len(hyp)
    best = m + n
    for k in range(1, min(m, n) + 1):
        for ri in combinations(range(m), k):
            for hj in combinations(range(n), k):
                mism = sum(ref[a] != hyp[b] for a, b in zip(ri, hj))
                cost = m + n - 2 * k + mism
                if cost < best:
                    best = cost
    return best


def test_criterion_08_wer_matches_alignment_enumeration():
    """DP error counts equal brute-force alignment search, exhaustively."""
    t0 = time.perf_counter()
    vocab = ("a", "b", "c")
    refs = [r for ln in range(1, 6) for r in _tuples(vocab, ln)]
    hyps = [h for ln in range(0, 6) for h in _tuples(vocab, ln)]
    cache = {}
    n_pairs = 0
    n_bad = 0
    for ref in refs:
        t_ref = Transcript(ref)
        for hyp in hyps:
            got = wer(t_ref, Transcript(hyp)).errors
            key = _rename_key(ref, hyp)
            want = cache.get(key)
            if want is None:
                want = cache[key] = _alignment_errors(ref, hyp)
            n_pairs += 1
            n_bad += got != want
    dt = time.perf_counter() - t0
    ok = n_bad == 0 and dt < 60.0
    _report(8, "wer oracle equivalence", ok,
            f"{n_pairs} pairs, {n_bad} mismatches in {dt:.1f}s")


def _tuples(vocab, length):
    out = [()]
    for _ in range(length):
        out = [t + (w,) for t in out for w in vocab]
    return out


def _rename_key(ref, hyp):
    """Canonical form under symbol renaming; the error count only depends
    on the pattern of equalities, so equal keys share one enumeration."""
    ids = {}
    code = lambda ws: tuple(ids.setdefault(w, len(ids)) for w in ws)
    return code(ref), code(hyp)


def test_criterion_09_dd_long_run():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    clean = toy_voice(rng, 2 * SR)
    noise = white_noise(rng, 3 * SR)
    mixed = mix_at_snr(clean, noise, 5.0)
    spec = stft(mixed.noisy)
    power = spec.magnitude**2
    lam = np.mean(stft(mixed.noise).magnitude**2, axis=0)
    state = DdState(np.zeros(spec.config.n_bins))
    pool = []
    for l in range(spec.n_frames):
        xi, _, state = dd_xi(state, power[l], lam)
        if l >= 10:
            pool.append(xi)
    mean_db = 10.0 * np.log10(np.mean(pool))
    dev = abs(mean_db - 5.0)

    pure = white_noise(np.random.default_rng(1), 2 * SR)
    out = enhance(pure)
    rms_in = float(np.sqrt(np.mean(pure**2)))
    rms_out = float(np.sqrt(np.mean(out.samples**2)))
    dt = time.perf_counter() - t0
    ok = dev <= DD_TOL_DB and rms_out < rms_in and dt < 30.0
    _report(9, "dd sanity", ok,
            f"mean xi {mean_db:.2f} dB, noise rms x{rms_out / rms_in:.2f} in {dt:.1f}s")


def test_criterion_10_deterministic_reruns(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    base = ["--clean", str(clean_dir), "--noise", str(noise_dir)]

    s1 = tmp_path / "s1.txt"
    s2 = tmp_path / "s2.txt"
    assert main(["stats", *base, "--out", str(s1), "--seed", "5"]) == 0
    assert main(["stats", *base, "--out", str(s2), "--seed", "5"]) == 0
    stats_ok = s1.read_bytes() == s2.read_bytes()

    t1 = tmp_path / "t1.bin"
    t2 = tmp_path / "t2.bin"
    train_args = ["train", *base, "--stats", str(s1), "--cell", "8",
                  "--blocks", "1", "--epochs", "1", "--batch", "3", "--seed", "9"]
    assert main([*train_args, "--out", str(t1)]) == 0
    assert main([*train_args, "--out", str(t2)]) == 0
    train_ok = t1.read_bytes() == t2.read_bytes()

    m1 = tmp_path / "m1"
    m2 = tmp_path / "m2"
    mix_args = ["mix", *base, "--per-noise", "2", "--snr-grid=-5,5,15",
                "--seed", "6"]
    assert main([*mix_args, "--out-dir", str(m1), "--jobs", "1"]) == 0
    assert main([*mix_args, "--out-dir", str(m2), "--jobs", "2"]) == 0
    mix_ok = (m1 / "manifest.tsv").read_bytes() == (m2 / "manifest.tsv").read_bytes()
    for e in load_manifest(m1 / "manifest.tsv").entries:
        mix_ok = mix_ok and (
            (m1 / e.output_path).read_bytes() == (m2 / e.output_path).read_bytes()
        )
    ok = stats_ok and train_ok and mix_ok
    _report(10, "deterministic reruns", ok,
            f"stats {stats_ok}, train {train_ok}, mix jobs=2 {mix_ok}")
