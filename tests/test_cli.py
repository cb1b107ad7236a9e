"""End-to-end runs of the command-line pipeline on a tiny corpus."""

import argparse
import importlib
import os
import re
import subprocess
import sys
import threading
import time
import wave
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import SR, quantize, save_network_with, tone_bursts, white_noise
from sefront import cli, dd, dsp, snr
from sefront.cli import main
from sefront.corpus import load_manifest, load_wav, mix_at_snr, save_wav
from sefront.features import segmental_snr, transcript_name
from sefront.rnn import init_network, load_network, save_network
from sefront.snr import XiStats, estimate_stats, load_stats, save_stats


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def noisy_file(tmp_path):
    rng = np.random.default_rng(0)
    clean = tone_bursts(rng, SR)
    noise = white_noise(rng, 3 * SR)
    mixed = mix_at_snr(clean, noise, 5.0, noise_offset=40)
    p = tmp_path / "noisy.wav"
    save_wav(mixed.noisy, p)
    return p, mixed


def test_stats_matches_library(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    out = tmp_path / "stats.txt"
    assert run("stats", "--clean", clean_dir, "--noise", noise_dir,
               "--out", out, "--seed", 3) == 0
    got = load_stats(out)
    want = estimate_stats(
        [load_wav(p) for p in sorted(clean_dir.glob("*.wav"))],
        [load_wav(p) for p in sorted(noise_dir.glob("*.wav"))],
        range(-10, 21, 5),
        seed=3,
    )
    np.testing.assert_array_equal(got.mu_db, want.mu_db)
    np.testing.assert_array_equal(got.sigma_db, want.sigma_db)


def test_stats_rerun_byte_identical(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", a) == 0
    assert run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_writes_model_and_history(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    stats = tmp_path / "stats.txt"
    model = tmp_path / "net.bin"
    losses = tmp_path / "loss.csv"
    assert run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats) == 0
    assert run(
        "train", "--clean", clean_dir, "--noise", noise_dir, "--stats", stats,
        "--out", model, "--loss-csv", losses,
        "--cell", 8, "--blocks", 1, "--epochs", 2, "--batch", 3, "--seed", 1,
    ) == 0
    params = load_network(model)
    assert params.cell_size == 8
    lines = losses.read_text().splitlines()
    assert lines[0] == "batch,loss"
    assert len(lines) == 1 + 2 * (6 // 3)
    assert all(float(ln.split(",")[1]) > 0 for ln in lines[1:])


def test_train_rerun_byte_identical(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    stats = tmp_path / "stats.txt"
    run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats)
    args = ("train", "--clean", clean_dir, "--noise", noise_dir, "--stats", stats,
            "--cell", 8, "--blocks", 1, "--epochs", 1, "--batch", 3)
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_enhance_dd_default(noisy_file, tmp_path):
    p, mixed = noisy_file
    out = tmp_path / "enh.wav"
    assert run("enhance", "--in", p, "--out", out) == 0
    enh = load_wav(out)
    assert len(enh) == len(mixed.noisy)
    before = segmental_snr(mixed.clean.samples, load_wav(p).samples)
    after = segmental_snr(mixed.clean.samples, enh.samples)
    assert after > before


def test_enhance_rerun_byte_identical(noisy_file, tmp_path):
    p, _ = noisy_file
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    assert run("enhance", "--in", p, "--out", a, "--gain", "mmse-stsa") == 0
    assert run("enhance", "--in", p, "--out", b, "--gain", "mmse-stsa") == 0
    assert a.read_bytes() == b.read_bytes()


def test_enhance_unity_gain_round_trip(noisy_file, tmp_path):
    p, _ = noisy_file
    out = tmp_path / "rt.wav"
    assert run("enhance", "--in", p, "--out", out, "--unity-gain") == 0
    assert out.read_bytes() == p.read_bytes()


def test_enhance_oracle_beats_noisy(tmp_path):
    rng = np.random.default_rng(5)
    clean = tone_bursts(rng, SR)
    noise = white_noise(rng, 2 * SR)
    mixed = mix_at_snr(clean, noise, 0.0, noise_offset=0)
    p_noisy = tmp_path / "noisy.wav"
    p_clean = tmp_path / "clean.wav"
    p_noise = tmp_path / "noise.wav"
    save_wav(mixed.noisy, p_noisy)
    save_wav(mixed.clean, p_clean)
    save_wav(mixed.noise, p_noise)
    out = tmp_path / "enh.wav"
    assert run("enhance", "--in", p_noisy, "--out", out,
               "--estimator", "oracle", "--clean", p_clean, "--noise", p_noise) == 0
    ref = quantize(mixed.clean.samples)
    gain = segmental_snr(ref, load_wav(out).samples) - segmental_snr(
        ref, load_wav(p_noisy).samples
    )
    assert gain > 5.0


def test_enhance_neural_runs(wav_corpus, noisy_file, tmp_path):
    clean_dir, noise_dir = wav_corpus
    p, _ = noisy_file
    stats = tmp_path / "stats.txt"
    model = tmp_path / "net.bin"
    run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats)
    run("train", "--clean", clean_dir, "--noise", noise_dir, "--stats", stats,
        "--out", model, "--cell", 8, "--blocks", 1, "--epochs", 1, "--batch", 3)
    out = tmp_path / "enh.wav"
    assert run("enhance", "--in", p, "--out", out, "--estimator", "neural",
               "--model", model, "--stats", stats) == 0
    enh = load_wav(out)
    assert np.all(np.isfinite(enh.samples))
    assert np.max(np.abs(enh.samples)) <= 1.0


def test_enhance_neural_requires_model(noisy_file, tmp_path):
    p, _ = noisy_file
    assert run("enhance", "--in", p, "--out", tmp_path / "x.wav",
               "--estimator", "neural") == 1


def test_enhance_oracle_requires_references(noisy_file, tmp_path):
    p, _ = noisy_file
    assert run("enhance", "--in", p, "--out", tmp_path / "x.wav",
               "--estimator", "oracle") == 1


def test_enhance_oracle_mmse_stsa_with_silent_frames(tmp_path):
    # digital silence makes gamma 0 in whole frames; the gain floors it
    rng = np.random.default_rng(6)
    clean = tone_bursts(rng, SR // 2)
    noise = white_noise(rng, SR // 2, rms=0.05)
    clean[:2000] = 0.0
    noise[:2000] = 0.0
    paths = {}
    for name, x in (("noisy", clean + noise), ("clean", clean), ("noise", noise)):
        paths[name] = tmp_path / f"{name}.wav"
        save_wav(x, paths[name])
    out = tmp_path / "enh.wav"
    assert run("enhance", "--in", paths["noisy"], "--out", out, "--estimator", "oracle",
               "--gain", "mmse-stsa", "--clean", paths["clean"],
               "--noise", paths["noise"]) == 0
    assert len(load_wav(out)) == SR // 2


def test_enhance_oracle_length_mismatch(noisy_file, tmp_path, capsys):
    p, mixed = noisy_file
    short = tmp_path / "short.wav"
    save_wav(np.full(100, 0.1), short)
    assert run("enhance", "--in", p, "--out", tmp_path / "x.wav",
               "--estimator", "oracle", "--clean", short, "--noise", short) == 2
    assert capsys.readouterr().err == (f"error: oracle reference {short}: 100 samples, "
                                       f"but the input has {len(mixed.noisy)}\n")
    assert not (tmp_path / "x.wav").exists()


def test_mix_builds_manifest_and_outputs(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    out_dir = tmp_path / "noisy"
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir,
               "--per-noise", 2, "--snr-grid", "0,5", "--out-dir", out_dir) == 0
    man = load_manifest(out_dir / "manifest.tsv")
    assert len(man) == 4 * 2 * 2
    for e in man.entries:
        assert (out_dir / e.output_path).is_file()


def test_mix_jobs_deterministic(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    common = ("mix", "--clean", clean_dir, "--noise", noise_dir,
              "--per-noise", 2, "--snr-grid=-5,10", "--seed", 4)
    assert run(*common, "--out-dir", d1, "--jobs", 1) == 0
    assert run(*common, "--out-dir", d2, "--jobs", 3) == 0
    assert (d1 / "manifest.tsv").read_bytes() == (d2 / "manifest.tsv").read_bytes()
    for e in load_manifest(d1 / "manifest.tsv").entries:
        assert (d1 / e.output_path).read_bytes() == (d2 / e.output_path).read_bytes()


def test_mix_replay_manifest(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    d1 = tmp_path / "build"
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir,
               "--per-noise", 1, "--snr-grid", "5", "--out-dir", d1) == 0
    d2 = tmp_path / "replay"
    assert run("mix", "--manifest", d1 / "manifest.tsv", "--out-dir", d2) == 0
    for e in load_manifest(d1 / "manifest.tsv").entries:
        assert (d1 / e.output_path).read_bytes() == (d2 / e.output_path).read_bytes()


def test_mix_rejects_8_bit_wav_before_writing(wav_corpus, tmp_path):
    _, noise_dir = wav_corpus
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    with wave.open(str(clean_dir / "byte.wav"), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(SR)
        wf.writeframes(b"\x80" * SR)
    out_dir = tmp_path / "noisy"
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir,
               "--per-noise", 1, "--snr-grid", "5", "--out-dir", out_dir) == 2
    assert not out_dir.exists()


def test_mix_replay_checks_every_entry_before_writing(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    clean = sorted(clean_dir.glob("*.wav"))[0]
    noise = sorted(noise_dir.glob("*.wav"))[0]
    # the noise is 3 s and the clean 1 s: offset 2 s fits, 2 s + 1 overruns
    lines = [f"{clean}\t{noise}\t5\t{2 * SR}\tfirst.wav",
             f"{clean}\t{noise}\t5\t{2 * SR + 1}\tsecond.wav"]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "replay"
    assert run("mix", "--manifest", manifest, "--out-dir", out_dir) == 2
    assert not out_dir.exists()
    lines[1] = f"{clean}\t{noise}\t5\t-1\tsecond.wav"
    manifest.write_text("\n".join(lines) + "\n")
    assert run("mix", "--manifest", manifest, "--out-dir", out_dir) == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("snr", ["inf", "1e400", "-inf"])
def test_mix_replay_rejects_a_non_finite_snr(wav_corpus, tmp_path, capsys, snr):
    clean = sorted(wav_corpus[0].glob("*.wav"))[0]
    noise = sorted(wav_corpus[1].glob("*.wav"))[0]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{clean}\t{noise}\t{snr}\t0\tout.wav\n")
    out_dir = tmp_path / "replay"
    assert run("mix", "--manifest", manifest, "--out-dir", out_dir) == 2
    assert capsys.readouterr().err == (
        f"error: manifest line 1: SNR must be finite, got {snr!r}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("output", ["../escaped.wav", "ABS", "sub/x.wav"])
def test_mix_replay_writes_only_into_the_out_dir(wav_corpus, tmp_path, capsys, output):
    clean = sorted(wav_corpus[0].glob("*.wav"))[0]
    noise = sorted(wav_corpus[1].glob("*.wav"))[0]
    output = str(tmp_path / "abs.wav") if output == "ABS" else output
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{clean}\t{noise}\t5\t0\tok.wav\n"
                        f"{clean}\t{noise}\t5\t0\t{output}\n")
    out_dir = tmp_path / "replay"
    assert run("mix", "--manifest", manifest, "--out-dir", out_dir) == 2
    assert capsys.readouterr().err == (
        f"error: manifest line 2: output must be a bare file name, got {output!r}\n")
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.tsv"]


@pytest.mark.parametrize("snr", ["4000", "-4000"])
@pytest.mark.parametrize("source", ["manifest", "grid", "stats"])
def test_an_snr_out_of_range_is_one_line_and_writes_nothing(wav_corpus, tmp_path, capsys,
                                                           source, snr):
    # the noise gain 10 ** (-snr / 20) is 0 at 4000 dB and overflows at -4000 dB
    clean_dir, noise_dir = wav_corpus
    out = tmp_path / "out"
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{sorted(clean_dir.glob('*.wav'))[0]}\t"
                        f"{sorted(noise_dir.glob('*.wav'))[0]}\t{snr}\t0\tout.wav\n")
    argv = {"manifest": ["mix", "--manifest", manifest, "--out-dir", out],
            "grid": ["mix", "--clean", clean_dir, "--noise", noise_dir, "--per-noise", 1,
                     f"--snr-grid={snr}", "--out-dir", out],
            "stats": ["stats", "--clean", clean_dir, "--noise", noise_dir, "--out", out,
                      f"--snr-min={snr}", f"--snr-max={snr}"]}[source]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: SNR {snr} dB is out of range") and err.count("\n") == 1
    assert not out.exists()


def test_main_maps_every_arithmetic_error_to_exit_3(wav_corpus, tmp_path, monkeypatch,
                                                   capsys):
    def overflowing(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    clean_dir, noise_dir = wav_corpus
    monkeypatch.setattr(snr, "estimate_stats", overflowing)
    assert run("stats", "--clean", clean_dir, "--noise", noise_dir,
               "--out", tmp_path / "stats.txt") == 3
    assert capsys.readouterr().err == (
        "numerical error: (34, 'Numerical result out of range')\n")


def test_mix_replay_rejects_a_truncated_noise_before_writing(wav_corpus, tmp_path):
    clean_dir, noise_dir = wav_corpus
    clean = sorted(clean_dir.glob("*.wav"))[0]
    noise = tmp_path / "cut.wav"
    # a 3 s noise cut to 1.75 s of data, its header still giving 3 s
    noise.write_bytes(sorted(noise_dir.glob("*.wav"))[0].read_bytes()[: 44 + 2 * 28000])
    lines = [f"{clean}\t{noise}\t5\t0\tfirst.wav",
             f"{clean}\t{noise}\t5\t30000\tsecond.wav"]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "replay"
    assert run("mix", "--manifest", manifest, "--out-dir", out_dir) == 2
    assert not out_dir.exists()


def _clean_dir_with(tmp_path, clean_dir, wav_bytes):
    """A copy of the clean corpus plus utt06.wav holding wav_bytes."""
    out = tmp_path / "clean"
    out.mkdir()
    for p in clean_dir.glob("*.wav"):
        (out / p.name).write_bytes(p.read_bytes())
    (out / "utt06.wav").write_bytes(wav_bytes)
    return out


def _empty_wav_bytes(tmp_path):
    p = tmp_path / "no_samples.wav"
    save_wav(np.zeros(0), p)
    return p.read_bytes()


def _truncated_wav_bytes(clean_dir):
    # a 1 s recording cut to 0.5 s of data, its header still giving 1 s
    return sorted(clean_dir.glob("*.wav"))[0].read_bytes()[: 44 + SR]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["stats", "mix"])
def test_a_data_chunk_past_the_riff_chunk_is_one_line_and_writes_nothing(
        wav_corpus, tmp_path, capsys, command):
    # the header reads, but reading back the last frame seeks past the RIFF
    # chunk, which is a format error
    clean_dir, noise_dir = wav_corpus
    raw = bytearray(sorted(clean_dir.glob("*.wav"))[0].read_bytes())
    raw[40:44] = (len(raw) - 44 + 4).to_bytes(4, "little")
    clean = _clean_dir_with(tmp_path, clean_dir, bytes(raw))
    out = tmp_path / "out"
    argv = {"stats": ["--out", out / "stats.txt"],
            "mix": ["--per-noise", 1, "--snr-grid", "0", "--out-dir", out / "mix"]}
    out.mkdir()
    assert run(command, "--clean", clean, "--noise", noise_dir, *argv[command]) == 2
    assert (capsys.readouterr().err
            == "error: utt06.wav: a chunk runs past the end of the RIFF chunk\n")
    assert list(out.iterdir()) == []


def _count_batches(monkeypatch):
    # the package exports the train() function under the train module's name
    train_module = importlib.import_module("sefront.train")
    batches = []
    real_backward = train_module.backward

    def counting_backward(*args):
        batches.append(1)
        return real_backward(*args)

    monkeypatch.setattr(train_module, "backward", counting_backward)
    return batches


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["empty", "truncated"])
def test_stats_rejects_a_bad_clean_recording_before_writing(wav_corpus, tmp_path,
                                                            capsys, bad):
    clean_dir, noise_dir = wav_corpus
    wav_bytes = (_empty_wav_bytes(tmp_path) if bad == "empty"
                 else _truncated_wav_bytes(clean_dir))
    clean = _clean_dir_with(tmp_path, clean_dir, wav_bytes)
    out = tmp_path / "stats.txt"
    assert run("stats", "--clean", clean, "--noise", noise_dir, "--out", out) == 2
    err = capsys.readouterr().err
    want = ("error: utt06.wav: empty recording" if bad == "empty"
            else "error: utt06.wav: data chunk ends before frame 16000")
    assert err.startswith(want) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["empty", "truncated"])
def test_train_rejects_a_bad_clean_recording_before_the_first_batch(
        wav_corpus, tmp_path, capsys, monkeypatch, bad):
    clean_dir, noise_dir = wav_corpus
    stats = tmp_path / "stats.txt"
    assert run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats) == 0
    capsys.readouterr()
    wav_bytes = (_empty_wav_bytes(tmp_path) if bad == "empty"
                 else _truncated_wav_bytes(clean_dir))
    clean = _clean_dir_with(tmp_path, clean_dir, wav_bytes)
    batches = _count_batches(monkeypatch)
    model = tmp_path / "net.bin"
    losses = tmp_path / "loss.csv"
    assert run("train", "--clean", clean, "--noise", noise_dir, "--stats", stats,
               "--out", model, "--loss-csv", losses, "--cell", 8, "--blocks", 1,
               "--epochs", 1, "--batch", 1) == 2
    err = capsys.readouterr().err
    want = ("error: utt06.wav: empty recording" if bad == "empty"
            else "error: utt06.wav: data chunk ends before frame 16000")
    assert err.startswith(want) and err.count("\n") == 1
    assert batches == []
    assert not model.exists() and not losses.exists()


def _silent_wav_bytes(tmp_path):
    p = tmp_path / "silent.wav"
    save_wav(np.zeros(SR), p)
    return p.read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("out_dir_exists", [False, True])
def test_mix_failing_after_some_mixtures_leaves_nothing_behind(
        wav_corpus, tmp_path, capsys, jobs, out_dir_exists):
    # a silent clean recording passes every pre-check and fails only when
    # its own mixture is made, after the manifest and other mixtures
    clean_dir, noise_dir = wav_corpus
    clean = _clean_dir_with(tmp_path, clean_dir, _silent_wav_bytes(tmp_path))
    out_dir = tmp_path / "out" / "new" / "noisy"
    keep = (out_dir if out_dir_exists else tmp_path / "out") / "keep.wav"
    keep.parent.mkdir(parents=True)
    keep.write_bytes(b"not ours")
    assert run("mix", "--clean", clean, "--noise", noise_dir, "--per-noise", 7,
               "--snr-grid", "0,5", "--out-dir", out_dir, "--jobs", jobs) == 2
    assert capsys.readouterr().err == "error: clean signal has zero power\n"
    assert out_dir.exists() == out_dir_exists
    assert [p.name for p in keep.parent.iterdir()] == ["keep.wav"]
    assert keep.read_bytes() == b"not ours"
    noise = sorted(noise_dir.glob("*.wav"))[0]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{clean / 'utt00.wav'}\t{noise}\t5\t0\tfirst.wav\n"
                        f"{clean / 'utt06.wav'}\t{noise}\t5\t0\tsecond.wav\n")
    assert run("mix", "--manifest", manifest, "--out-dir", out_dir, "--jobs", jobs) == 2
    assert capsys.readouterr().err == "error: clean signal has zero power\n"
    assert out_dir.exists() == out_dir_exists
    assert [p.name for p in keep.parent.iterdir()] == ["keep.wav"]


@pytest.mark.parametrize("jobs, most", [(1, 15), (3, 15 + 2)])
def test_mix_starts_no_entry_after_the_first_failure(wav_corpus, tmp_path, capsys,
                                                     monkeypatch, jobs, most):
    # entry 15 of 32 mixes a silent recording; only the entries already
    # running when it fails, one per other worker, may still be mixed
    clean_dir, noise_dir = wav_corpus
    silent = tmp_path / "silent.wav"
    save_wav(np.zeros(SR), silent)
    clean = sorted(clean_dir.glob("*.wav"))[0]
    noise = sorted(noise_dir.glob("*.wav"))[0]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(f"{silent if i == 15 else clean}\t{noise}\t5\t0\tm{i:02d}.wav\n"
                                for i in range(1, 33)))
    failed = threading.Event()
    calls = []
    run_mix_entry = cli.corpus.run_mix_entry

    def counted(entry, out_dir, clean):
        calls.append(entry.output_path)
        if entry.output_path == "m15.wav":
            try:
                return run_mix_entry(entry, out_dir, clean)
            finally:
                failed.set()
        if entry.output_path > "m15.wav":
            # a later entry ends only after the failure, so that no worker
            # is free to take a further entry before it
            failed.wait(10)
        return run_mix_entry(entry, out_dir, clean)

    monkeypatch.setattr(cli.corpus, "run_mix_entry", counted)
    out_dir = tmp_path / "out"
    assert run("mix", "--manifest", manifest, "--out-dir", out_dir, "--jobs", jobs) == 2
    assert capsys.readouterr().err == "error: clean signal has zero power\n"
    assert 15 <= len(calls) <= most
    assert not out_dir.exists()


def test_mix_at_one_job_runs_on_the_calling_thread(wav_corpus, tmp_path, monkeypatch):
    # a pool worker would get a malloc arena of its own, and keep its blocks
    clean_dir, noise_dir = wav_corpus
    threads = []
    run_mix_entry = cli.corpus.run_mix_entry

    def recorded(entry, out_dir, clean):
        threads.append(threading.current_thread())
        return run_mix_entry(entry, out_dir, clean)

    monkeypatch.setattr(cli.corpus, "run_mix_entry", recorded)
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir, "--per-noise", 1,
               "--snr-grid", "0,5", "--out-dir", tmp_path / "out", "--jobs", 1) == 0
    assert len(threads) == 4 * 2
    assert set(threads) == {threading.current_thread()}


@pytest.mark.parametrize("jobs", [1, 3])
def test_mix_reads_a_clean_file_once_per_run_and_worker(wav_corpus, tmp_path, monkeypatch,
                                                        jobs):
    # runs of 5, 4 and 6 entries; the first and last name the same file
    clean_dir, noise_dir = wav_corpus
    a, b = sorted(clean_dir.glob("*.wav"))[:2]
    noise = sorted(noise_dir.glob("*.wav"))[0]
    runs = [(a, 5), (b, 4), (a, 6)]
    manifest = tmp_path / "manifest.tsv"
    cleans = [clean for clean, k in runs for _ in range(k)]
    manifest.write_text("".join(f"{clean}\t{noise}\t{i % 3 * 5}\t{i * 97}\tm{i:02d}.wav\n"
                                for i, clean in enumerate(cleans)))
    reads = []
    load_wav = cli.corpus.load_wav

    def counted(path, start=0, n=None):
        if n is None:
            reads.append(Path(path))
        return load_wav(path, start, n)

    monkeypatch.setattr(cli.corpus, "load_wav", counted)
    out_dir = tmp_path / f"out{jobs}"
    assert run("mix", "--manifest", manifest, "--out-dir", out_dir, "--jobs", jobs) == 0
    if jobs == 1:
        assert reads == [a, b, a]
    else:
        # at most once per worker and run; a worker may still hold a from
        # the first run when it takes an entry of the third
        assert set(reads) == {a, b} and reads.count(a) <= 2 * 3 and reads.count(b) <= 3
        # the same mixtures as one job writes
        assert run("mix", "--manifest", manifest, "--out-dir", tmp_path / "one") == 0
        for i in range(15):
            name = f"m{i:02d}.wav"
            assert (out_dir / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("command", ["stats", "train", "mix"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_negative_seed_is_a_usage_error_naming_the_flag(wav_corpus, tmp_path, capsys,
                                                          monkeypatch, command, source):
    def refuse(*args, **kwargs):
        raise AssertionError("read before the seed was checked")

    for name in ("wav_files", "wav_length", "load_wav", "build_test_manifest"):
        monkeypatch.setattr(cli.corpus, name, refuse)
    clean_dir, noise_dir = wav_corpus
    monkeypatch.chdir(tmp_path)
    argv = {"stats": ["--out", "stats.txt"], "mix": ["--out-dir", "noisy"],
            "train": ["--stats", "stats.txt", "--out", "net.bin"]}[command]
    if source == "config":
        Path("run.cfg").write_text("seed=-1\n")
        argv = ["--config", "run.cfg", command, *argv]
    else:
        argv = [command, *argv, "--seed", "-1"]
    assert run(*argv, "--clean", clean_dir, "--noise", noise_dir) == 1
    assert capsys.readouterr().err == "usage error: --seed must be at least 0, got -1\n"
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if source == "config" else [])


@pytest.mark.filterwarnings("error")
def test_train_failing_at_the_loss_csv_leaves_no_model(wav_corpus, tmp_path, capsys):
    clean_dir, noise_dir = wav_corpus
    stats = tmp_path / "stats.txt"
    assert run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats) == 0
    csv_dir = tmp_path / "csvdir"
    csv_dir.mkdir()
    capsys.readouterr()
    assert run("train", "--clean", clean_dir, "--noise", noise_dir, "--stats", stats,
               "--out", tmp_path / "net.bin", "--loss-csv", csv_dir, "--cell", 8,
               "--blocks", 1, "--epochs", 1, "--batch", 3) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: '{csv_dir}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["csvdir", "stats.txt"]
    assert list(csv_dir.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_mix_rejects_an_empty_clean_recording_before_writing(wav_corpus, tmp_path,
                                                             capsys):
    clean_dir, noise_dir = wav_corpus
    clean = _clean_dir_with(tmp_path, clean_dir, _empty_wav_bytes(tmp_path))
    out_dir = tmp_path / "noisy"
    assert run("mix", "--clean", clean, "--noise", noise_dir, "--per-noise", 7,
               "--snr-grid", "5", "--out-dir", out_dir) == 2
    assert capsys.readouterr().err == "error: utt06.wav: empty recording\n"
    assert not out_dir.exists()
    noise = sorted(noise_dir.glob("*.wav"))[0]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{clean / 'utt00.wav'}\t{noise}\t5\t0\tfirst.wav\n"
                        f"{clean / 'utt06.wav'}\t{noise}\t5\t0\tsecond.wav\n")
    assert run("mix", "--manifest", manifest, "--out-dir", out_dir) == 2
    assert capsys.readouterr().err == "error: utt06.wav: empty recording\n"
    assert not out_dir.exists()


def test_mix_empty_grid_is_usage_error(wav_corpus, tmp_path, capsys):
    clean_dir, noise_dir = wav_corpus
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir,
               "--snr-grid", ",", "--out-dir", tmp_path / "x") == 1
    assert capsys.readouterr().err == "usage error: empty grid\n"
    # a value that is not a number
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir,
               "--snr-grid", "0,five", "--out-dir", tmp_path / "x") == 1
    assert capsys.readouterr().err == ("usage error: bad SNR grid '0,five': could not "
                                       "convert string to float: 'five'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_mix_non_finite_grid_is_usage_error_before_writing(wav_corpus, tmp_path,
                                                           capsys, value):
    clean_dir, noise_dir = wav_corpus
    out_dir = tmp_path / "x"
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir,
               "--snr-grid", f"0,{value}", "--out-dir", out_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: SNR grid values must be finite")
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_mix_keeps_snrs_past_six_digits_apart(wav_corpus, tmp_path, capsys):
    # at :g's 6 digits 5.0000001 reads 5; it keeps its own name and value
    clean_dir, noise_dir = wav_corpus
    out_dir = tmp_path / "noisy"
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir, "--per-noise", 1,
               "--snr-grid", "0.1234567,5,5.0000001", "--out-dir", out_dir) == 0
    assert capsys.readouterr().out == f"mix: 12 mixtures -> {out_dir}\n"
    rows = [line.split("\t") for line in
            (out_dir / "manifest.tsv").read_text().splitlines()]
    assert [r[2] for r in rows] == ["0.1234567", "5", "5.0000001"] * 4
    assert all(r[4].endswith(f"__{r[2]}dB.wav") for r in rows)
    assert len({r[4] for r in rows}) == len(list(out_dir.glob("*.wav"))) == 12
    assert [e.snr_db for e in load_manifest(out_dir / "manifest.tsv").entries[:3]] == [
        0.1234567, 5.0, 5.0000001]


@pytest.mark.parametrize("source", ["grid", "manifest"])
def test_mix_rejects_two_entries_writing_one_file(wav_corpus, tmp_path, capsys, source):
    clean_dir, noise_dir = wav_corpus
    if source == "grid":
        args = ("--clean", clean_dir, "--noise", noise_dir, "--per-noise", 1,
                "--snr-grid", "5,5.0")
        want = r"error: manifest entries 1 and 2 both write utt0\d__pink_a__5dB\.wav\n"
    else:
        clean, noise = clean_dir / "utt00.wav", noise_dir / "white_a.wav"
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"{clean}\t{noise}\t0\t0\ta.wav\n"
                            f"{clean}\t{noise}\t5\t0\tb.wav\n"
                            f"{clean}\t{noise}\t10\t0\t./a.wav\n")
        args = ("--manifest", manifest)
        want = r"error: manifest entries 1 and 3 both write \./a\.wav\n"
    out_dir = tmp_path / "noisy"
    assert run("mix", *args, "--out-dir", out_dir) == 2
    assert re.fullmatch(want, capsys.readouterr().err)
    assert not out_dir.exists()


def test_wer_command(wav_corpus, tmp_path, capsys):
    clean_dir, noise_dir = wav_corpus
    out_dir = tmp_path / "noisy"
    run("mix", "--clean", clean_dir, "--noise", noise_dir,
        "--per-noise", 1, "--snr-grid", "0,10", "--out-dir", out_dir)
    man = load_manifest(out_dir / "manifest.tsv")
    ref = tmp_path / "ref"
    hyp = tmp_path / "hyp"
    ref.mkdir()
    hyp.mkdir()
    for e in man.entries:
        (ref / transcript_name(e.output_path)).write_text("alpha beta")
        (hyp / transcript_name(e.output_path)).write_text(
            "alpha beta" if e.snr_db > 0 else "alpha"
        )
    csv_out = tmp_path / "scores.csv"
    assert run("wer", "--manifest", out_dir / "manifest.tsv",
               "--ref", ref, "--hyp", hyp, "--out", csv_out) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "noise,snr_db,n,wer_percent"
    assert len(lines) == 1 + 4 * 2
    rates = {tuple(ln.split(",")[:2]): ln.split(",")[3] for ln in lines[1:]}
    for noise in ("pink_a", "pink_b", "white_a", "white_b"):
        assert rates[(noise, "0")] == "50.00"
        assert rates[(noise, "10")] == "0.00"
    assert "conditions ->" in capsys.readouterr().out


def test_missing_command_is_usage_error():
    assert run() == 1


def test_unknown_flag_is_usage_error(noisy_file, tmp_path):
    p, _ = noisy_file
    assert run("enhance", "--in", p, "--out", tmp_path / "x.wav", "--bogus") == 1


def test_missing_input_is_data_error(tmp_path):
    assert run("enhance", "--in", tmp_path / "nope.wav",
               "--out", tmp_path / "x.wav") == 2


def test_bad_wav_is_data_error(tmp_path):
    import wave

    bad = tmp_path / "stereo.wav"
    with wave.open(str(bad), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(b"\x00" * 400)
    assert run("enhance", "--in", bad, "--out", tmp_path / "x.wav") == 2


def test_empty_wav_is_a_one_line_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.wav"
    empty.write_bytes(b"")
    out = tmp_path / "x.wav"
    assert run("enhance", "--in", empty, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: empty.wav:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_unwritable_output_is_a_one_line_data_error(noisy_file, tmp_path):
    # a fresh interpreter, so a report a finaliser sends to stderr is not
    # caught by the test runner's own hook
    p, _ = noisy_file
    out = tmp_path / "missing" / "o.wav"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "sefront", "enhance", "--in", str(p),
                           "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_enhance_neural_transforms_the_input_once(wav_corpus, noisy_file, tmp_path,
                                                  monkeypatch):
    clean_dir, noise_dir = wav_corpus
    p, _ = noisy_file
    stats = tmp_path / "stats.txt"
    model = tmp_path / "net.bin"
    save_network(init_network(seed=3, cell_size=8, n_blocks=1), model)
    run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dsp.stft(*args, **kwargs)

    # the package exports the train() function under the train module's name
    for module in (cli, dd, importlib.import_module("sefront.train")):
        monkeypatch.setattr(module, "stft", counted)
    assert run("enhance", "--in", p, "--out", tmp_path / "enh.wav", "--estimator",
               "neural", "--model", model, "--stats", stats) == 0
    assert len(calls) == 1


def test_enhance_neural_runs_the_network_in_float32(noisy_file, tmp_path, monkeypatch):
    p, _ = noisy_file
    save_network(init_network(seed=3, cell_size=8, n_blocks=1), tmp_path / "net.bin")
    save_stats(XiStats(np.zeros(257), np.ones(257)), tmp_path / "stats.txt")
    train_module = importlib.import_module("sefront.train")
    forward, seen = train_module.forward, []

    def recorded(params, mag):
        seen.append((params.dtype, forward(params, mag).dtype))
        return forward(params, mag)

    monkeypatch.setattr(train_module, "forward", recorded)
    assert run("enhance", "--in", p, "--out", tmp_path / "enh.wav", "--estimator", "neural",
               "--model", tmp_path / "net.bin", "--stats", tmp_path / "stats.txt") == 0
    assert seen == [(np.float32, np.float32)]


def test_train_runs_float32_and_writes_float64_losses(wav_corpus, tmp_path, monkeypatch):
    clean_dir, noise_dir = wav_corpus
    stats, losses = tmp_path / "stats.txt", tmp_path / "loss.csv"
    run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats)
    train_module = importlib.import_module("sefront.train")
    backward, seen = train_module.backward, []

    def recorded(params, batch):
        seen.append((params.dtype, batch.x.dtype))
        loss, grads = backward(params, batch)
        seen.append(type(loss))
        return loss, grads

    monkeypatch.setattr(train_module, "backward", recorded)
    assert run("train", "--clean", clean_dir, "--noise", noise_dir, "--stats", stats,
               "--out", tmp_path / "net.bin", "--loss-csv", losses, "--cell", 8,
               "--blocks", 1, "--epochs", 1, "--batch", 3) == 0
    assert seen == [(np.float32, np.float32), float] * 2
    values = np.array([ln.split(",")[1] for ln in losses.read_text().splitlines()[1:]],
                      dtype=np.float64)
    assert values.size == 2 and np.isfinite(values).all()
    # written with 17 digits: the text holds the float64 sum, not a float32 rounding
    assert any(v != np.float32(v) for v in values)


@pytest.mark.parametrize("estimator", ["dd", "oracle", "neural"])
def test_enhance_takes_no_phase_and_builds_no_polar_spectrum(noisy_file, tmp_path,
                                                            monkeypatch, estimator):
    # resynthesis scales the kept noisy spectrum by the gains, so no enhance
    # op calls np.angle (SpectroGram.phase) or cos and sin (dsp._polar)
    p, mixed = noisy_file
    save_wav(mixed.clean, tmp_path / "clean.wav")
    save_wav(mixed.noise, tmp_path / "noise.wav")
    save_network(init_network(seed=3, cell_size=8, n_blocks=1), tmp_path / "net.bin")
    save_stats(XiStats(np.zeros(257), np.ones(257)), tmp_path / "stats.txt")
    refs = {"dd": [],
            "oracle": ["--clean", tmp_path / "clean.wav", "--noise", tmp_path / "noise.wav"],
            "neural": ["--model", tmp_path / "net.bin", "--stats", tmp_path / "stats.txt"]}
    reached = []
    polar, phase = dsp._polar, dsp.SpectroGram.phase

    def recorded_polar(*args):
        reached.append("_polar")
        return polar(*args)

    def recorded_phase(spec):
        reached.append("phase")
        return phase.func(spec)

    monkeypatch.setattr(dsp, "_polar", recorded_polar)
    monkeypatch.setattr(dsp.SpectroGram, "phase", property(recorded_phase))
    for gain in ("wiener", "srwf", "mmse-stsa"):
        assert run("enhance", "--in", p, "--out", tmp_path / "o.wav", "--gain", gain,
                   "--estimator", estimator, *refs[estimator]) == 0
    assert reached == []


@pytest.mark.filterwarnings("error")
def test_train_refuses_weights_that_overflow_float32(wav_corpus, tmp_path, capsys):
    # one batch of all six recordings: its huge step overflows the float32
    # weights in the step itself, and no model file holds a weight that is
    # not finite
    clean_dir, noise_dir = wav_corpus
    stats = tmp_path / "stats.txt"
    run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats)
    capsys.readouterr()
    model, losses = tmp_path / "net.bin", tmp_path / "loss.csv"
    assert run("train", "--clean", clean_dir, "--noise", noise_dir, "--stats", stats,
               "--out", model, "--loss-csv", losses, "--cell", 8, "--blocks", 1,
               "--epochs", 1, "--batch", 6, "--lr", "1e308") == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numerical error: tensor \S+ is not finite in float32\n", err)
    assert not model.exists() and not losses.exists()


def test_diverging_training_stops_at_its_batch_with_one_line(wav_corpus, tmp_path,
                                                             capsys):
    # two batches: the first step leaves weights near 1e308, so the second
    # batch's forward pass overflows; a fresh interpreter, so any NumPy
    # warning would reach stderr as it does at the command line
    clean_dir, noise_dir = wav_corpus
    stats = tmp_path / "stats.txt"
    run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats)
    capsys.readouterr()
    model, losses = tmp_path / "net.bin", tmp_path / "loss.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["train", "--clean", clean_dir, "--noise", noise_dir, "--stats", stats,
            "--out", model, "--loss-csv", losses, "--cell", 8, "--blocks", 1,
            "--epochs", 1, "--batch", 3, "--lr", "1e308"]
    proc = subprocess.run([sys.executable, "-m", "sefront", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == "numerical error: training loss went non-finite at batch 1\n"
    assert not model.exists() and not losses.exists()


@pytest.mark.parametrize("flag", ["--lr", "--clip"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_train_rejects_bad_step_flags_before_training(wav_corpus, tmp_path, capsys,
                                                      flag, value):
    clean_dir, noise_dir = wav_corpus
    stats = tmp_path / "stats.txt"
    run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", stats)
    capsys.readouterr()
    model = tmp_path / "net.bin"
    assert run("train", "--clean", clean_dir, "--noise", noise_dir, "--stats", stats,
               "--out", model, "--cell", 8, "--blocks", 1, "--epochs", 1,
               "--batch", 3, f"{flag}={value}") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not model.exists()


def test_stats_zero_snr_step_is_usage_error(wav_corpus, tmp_path, capsys):
    clean_dir, noise_dir = wav_corpus
    out = tmp_path / "stats.txt"
    assert run("stats", "--clean", clean_dir, "--noise", noise_dir, "--out", out,
               "--snr-step", 0) == 1
    err = capsys.readouterr().err
    assert err == "usage error: --snr-step must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--snr-step", "0"], "--snr-step must be at least 1, got 0"),
    (["--snr-min", "30", "--snr-max", "0"], "--snr-max 0 is below --snr-min 30"),
], ids=["step", "order"])
def test_train_and_stats_check_the_snr_range_alike(tmp_path, capsys, flags, message):
    missing = tmp_path / "none"
    inputs = ["--clean", missing, "--noise", missing, "--out", tmp_path / "out"]
    assert run("stats", *inputs, *flags) == 1
    assert run("train", *inputs, "--stats", missing / "stats.txt", *flags) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n" * 2
    assert list(tmp_path.iterdir()) == []


def test_failed_run_leaves_no_output(tmp_path):
    out = tmp_path / "never.wav"
    assert run("enhance", "--in", tmp_path / "nope.wav", "--out", out) == 2
    assert not out.exists()


def test_config_file_presets_options(noisy_file, tmp_path):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\ngain=wiener\nunity-gain=false\n")
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    assert run("--config", cfg, "enhance", "--in", p, "--out", a) == 0
    assert run("enhance", "--in", p, "--out", b, "--gain", "wiener") == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_explicit_flag_wins(noisy_file, tmp_path):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gain=wiener\n")
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    assert run("--config", cfg, "enhance", "--in", p, "--out", a,
               "--gain", "srwf") == 0
    assert run("enhance", "--in", p, "--out", b, "--gain", "srwf") == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_unknown_key_is_usage_error(noisy_file, tmp_path, capsys):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate=1\n")
    assert run("--config", cfg, "enhance", "--in", p,
               "--out", tmp_path / "x.wav") == 1
    assert capsys.readouterr().err == "usage error: config key 'frobnicate' unknown for enhance\n"
    # a line without "=" is refused by its number
    cfg.write_text("# preset\ngain srwf\n")
    assert run("--config", cfg, "enhance", "--in", p,
               "--out", tmp_path / "x.wav") == 1
    assert capsys.readouterr().err == f"usage error: {cfg}:2: expected key=value\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.wav", "run.cfg"]


def test_config_key_is_the_option_name(noisy_file, tmp_path):
    # --in stores to infile; the config key is the option's own name
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"in={p}\ngain=wiener\n")
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    assert run("--config", cfg, "enhance", "--out", a) == 0
    assert run("enhance", "--in", p, "--out", b, "--gain", "wiener") == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("key", ["out-dir", "out_dir"])
def test_config_key_takes_dashes_or_underscores(wav_corpus, tmp_path, key):
    clean_dir, noise_dir = wav_corpus
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={tmp_path / 'preset'}\nper-noise=1\nsnr_grid=0\n")
    assert run("--config", cfg, "mix", "--clean", clean_dir, "--noise", noise_dir) == 0
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir, "--per-noise", 1,
               "--snr-grid", 0, "--out-dir", tmp_path / "flags") == 0
    preset = sorted(p.name for p in (tmp_path / "preset").iterdir())
    assert preset == sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert len(preset) == 1 + 4  # the manifest and one mixture per noise
    assert not (tmp_path / "noisy").exists()


@pytest.mark.parametrize("line", ["infile=x.wav", "func=x", "h=true", "help=true"])
def test_config_key_that_names_no_option_is_usage_error(noisy_file, tmp_path, capsys,
                                                        line):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run("--config", cfg, "enhance", "--in", p, "--out", tmp_path / "x.wav") == 1
    key = line.split("=")[0]
    assert capsys.readouterr().err == f"usage error: config key {key!r} unknown for enhance\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.wav", "run.cfg"]


@pytest.mark.parametrize("command, line", [
    ("enhance", "unity-gain=no"),
    ("enhance", "unity-gain=1"),
    ("train", "bidirectional=0"),
    ("train", "bidirectional="),
])
def test_config_flag_takes_only_true_or_false(noisy_file, tmp_path, capsys, command,
                                              line):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    argv = {"enhance": ("--in", p, "--out", tmp_path / "x.wav"),
            "train": ("--clean", tmp_path, "--noise", tmp_path, "--stats", p,
                      "--out", tmp_path / "x.bin")}[command]
    assert run("--config", cfg, command, *argv) == 1
    key, value = line.split("=")
    err = capsys.readouterr().err
    assert err == (f"usage error: config key {key.replace('-', '_')!r} takes true "
                   f"or false, got {value!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.wav", "run.cfg"]


def test_config_flag_reads_true_and_false_in_any_case(noisy_file, tmp_path):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    outs = {}
    for value in ("TRUE", "True", "FALSE", "false"):
        cfg.write_text(f"unity-gain={value}\n")
        outs[value] = tmp_path / f"{value}.wav"
        assert run("--config", cfg, "enhance", "--in", p, "--out", outs[value]) == 0
    flag, plain = tmp_path / "flag.wav", tmp_path / "plain.wav"
    assert run("enhance", "--in", p, "--out", flag, "--unity-gain") == 0
    assert run("enhance", "--in", p, "--out", plain) == 0
    assert flag.read_bytes() != plain.read_bytes()
    for value, want in (("TRUE", flag), ("True", flag), ("FALSE", plain),
                        ("false", plain)):
        assert outs[value].read_bytes() == want.read_bytes()


def test_config_missing_file_is_usage_error(noisy_file, tmp_path):
    p, _ = noisy_file
    assert run("--config", tmp_path / "nope.cfg", "enhance", "--in", p,
               "--out", tmp_path / "x.wav") == 1


def test_config_not_utf8_is_a_usage_error_naming_the_file(noisy_file, tmp_path, capsys):
    p, _ = noisy_file
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"unity-gain=true\n\xff\n")
    assert run("--config", cfg, "enhance", "--in", p, "--out", tmp_path / "x.wav") == 1
    assert capsys.readouterr().err == (
        f"usage error: config file is not UTF-8: {cfg}: invalid start byte\n")
    assert not (tmp_path / "x.wav").exists()


@pytest.mark.parametrize("command", ["mix", "wer"])
def test_manifest_not_utf8_is_a_data_error_naming_the_file(tmp_path, capsys, command):
    manifest = tmp_path / "bad.tsv"
    manifest.write_bytes(b"a.wav\tb.wav\t5\t0\t\xff.wav\n")
    (tmp_path / "ref").mkdir()
    (tmp_path / "hyp").mkdir()
    args = {"mix": ["--out-dir", tmp_path / "noisy"],
            "wer": ["--ref", tmp_path / "ref", "--hyp", tmp_path / "hyp",
                    "--out", tmp_path / "s.csv"]}[command]
    assert run(command, "--manifest", manifest, *args) == 2
    assert capsys.readouterr().err == (
        f"error: manifest is not UTF-8: {manifest}: invalid start byte\n")
    assert not (tmp_path / "noisy").exists()
    # a manifest of blank lines has no entries
    manifest.write_text("\n\n")
    assert run(command, "--manifest", manifest, *args) == 2
    assert capsys.readouterr().err == f"error: manifest {manifest} has no entries\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv", "hyp", "ref"]


def test_config_without_value_is_usage_error(capsys):
    assert run("--config") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_config_equals_form_applies_file(noisy_file, tmp_path):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gain=mmse-stsa\n")
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    default = tmp_path / "default.wav"
    assert run(f"--config={cfg}", "enhance", "--in", p, "--out", a) == 0
    assert run("--config", cfg, "enhance", "--in", p, "--out", b) == 0
    assert run("enhance", "--in", p, "--out", default) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != default.read_bytes()


def test_enhance_malformed_model_is_data_error(noisy_file, tmp_path, capsys):
    p, _ = noisy_file
    model = tmp_path / "net.bin"
    save_network(init_network(cell_size=4, n_blocks=1), model)
    model.write_bytes(model.read_bytes().replace(b"\nmode ", b"\n\nmode ", 1))
    assert run("enhance", "--in", p, "--out", tmp_path / "o.wav", "--estimator",
               "neural", "--model", model, "--stats", model) == 2
    assert "malformed header line" in capsys.readouterr().err


def test_config_abbreviated_flag_applies_file(noisy_file, tmp_path):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gain=mmse-stsa\n")
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    assert run("--conf", cfg, "enhance", "--in", p, "--out", a) == 0
    assert run("enhance", "--in", p, "--out", b, "--gain", "mmse-stsa") == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("line", ["gain=bogus", "estimator=bogus", "gain=SRWF"])
def test_config_value_outside_the_choices_is_usage_error(noisy_file, tmp_path, capsys,
                                                         line):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run("--config", cfg, "enhance", "--in", p, "--out", tmp_path / "x.wav") == 1
    key, value = line.split("=")
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"usage error: config key {key!r} takes one of ")
    assert err.endswith(f", got {value!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.wav", "run.cfg"]


def test_config_value_satisfies_a_required_option(noisy_file, tmp_path, capsys):
    p, _ = noisy_file
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out={a}\n")
    assert run("--config", cfg, "enhance", "--in", p) == 0
    assert run("enhance", "--in", p, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    # an option neither preset nor given is still required
    cfg.write_text("gain=wiener\n")
    capsys.readouterr()
    assert run("--config", cfg, "enhance", "--in", p) == 1
    assert capsys.readouterr().err == (
        "usage error: the following arguments are required: --out\n")


@pytest.mark.parametrize("with_config", [False, True])
def test_missing_command_is_one_message(tmp_path, capsys, with_config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gain=wiener\n")
    assert run(*(["--config", cfg] if with_config else [])) == 1
    assert capsys.readouterr().err == (
        "usage error: missing command (stats, train, enhance, mix, wer)\n")


def test_config_missing_file_is_reported_before_the_missing_command(tmp_path, capsys):
    assert run("--config", tmp_path / "nope.cfg") == 1
    assert capsys.readouterr().err == (
        f"usage error: config file not found: {tmp_path / 'nope.cfg'}\n")


def test_config_presets_a_negative_value(wav_corpus, tmp_path):
    # a preset is one --option=value token, so -5 is not read as a flag
    clean_dir, noise_dir = wav_corpus
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr-grid=-5,10\nper-noise=1\n")
    assert run("--config", cfg, "mix", "--clean", clean_dir, "--noise", noise_dir,
               "--out-dir", tmp_path / "preset") == 0
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir, "--snr-grid=-5,10",
               "--per-noise", 1, "--out-dir", tmp_path / "flags") == 0
    preset = sorted((tmp_path / "preset").iterdir())
    assert [p.name for p in preset] == sorted(p.name for p in (tmp_path / "flags").iterdir())
    for p in preset:
        assert p.read_bytes() == (tmp_path / "flags" / p.name).read_bytes()
    cfg.write_text("snr-min=-5\n")
    stats = {"preset": tmp_path / "preset.txt", "flags": tmp_path / "flags.txt"}
    common = ("--clean", clean_dir, "--noise", noise_dir, "--snr-max", 5)
    assert run("--config", cfg, "stats", *common, "--out", stats["preset"]) == 0
    assert run("stats", *common, "--snr-min=-5", "--out", stats["flags"]) == 0
    assert stats["preset"].read_bytes() == stats["flags"].read_bytes()


def test_config_value_its_type_refuses_is_usage_error_under_a_flag(wav_corpus, tmp_path,
                                                                    capsys):
    # like a value outside the choices, it fails whether or not a flag wins
    clean_dir, noise_dir = wav_corpus
    cfg = tmp_path / "run.cfg"
    cfg.write_text("per-noise=x\n")
    assert run("--config", cfg, "mix", "--clean", clean_dir, "--noise", noise_dir,
               "--per-noise", 1, "--out-dir", tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "usage error: argument --per-noise: invalid int value: 'x'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_enhance_non_finite_model_is_data_error(noisy_file, tmp_path, capsys):
    p, _ = noisy_file
    model, stats = tmp_path / "net.bin", tmp_path / "stats.txt"
    save_network_with(init_network(cell_size=4, n_blocks=1), model, "fc.w", (0, 0), np.nan)
    save_stats(XiStats(np.zeros(257), np.ones(257)), stats)
    out = tmp_path / "o.wav"
    assert run("enhance", "--in", p, "--out", out, "--estimator", "neural",
               "--model", model, "--stats", stats) == 2
    assert capsys.readouterr().err == "error: model file: tensor fc.w is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--cell", "0"],
    ["train", "--blocks", "0"],
    ["mix", "--per-noise", "0"],
    ["mix", "--jobs", "0"],
    ["mix", "--jobs", "-2"],
    ["mix", "--manifest", "no-such-manifest.tsv", "--jobs", "0"],
    ["stats", "--snr-min", "30", "--snr-max", "0"],
], ids=lambda a: " ".join(a[1:]))
def test_bad_counts_are_usage_errors_before_any_read(tmp_path, capsys, argv):
    # every input is missing, so a check made after reading would exit 2
    missing = tmp_path / "none"
    files = {"--clean": missing, "--noise": missing, "--out": tmp_path / "out"}
    if argv[0] == "train":
        files["--stats"] = missing / "stats.txt"
    elif argv[0] == "mix":
        files = {"--clean": missing, "--noise": missing, "--out-dir": tmp_path / "out"}
    assert run(*argv, *[a for kv in files.items() for a in kv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.fixture()
def no_training(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("trained before checking the outputs")

    monkeypatch.setattr(cli, "run_training", refuse)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--out", "--loss-csv"])
def test_train_checks_output_directories_before_training(wav_corpus, tmp_path, capsys,
                                                         no_training, flag):
    clean_dir, noise_dir = wav_corpus
    stats = tmp_path / "stats.txt"
    save_stats(XiStats(np.zeros(257), np.ones(257)), stats)
    outputs = {"--out": tmp_path / "net.bin", "--loss-csv": tmp_path / "loss.csv"}
    outputs[flag] = tmp_path / "missing" / "x"
    what = {"--out": "output", "--loss-csv": "loss CSV"}[flag]
    assert run("train", "--clean", clean_dir, "--noise", noise_dir, "--stats", stats,
               "--cell", 8, "--blocks", 1, "--epochs", 1,
               *[a for kv in outputs.items() for a in kv]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {what} directory not found: {tmp_path / 'missing'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.txt"]


@pytest.mark.filterwarnings("error")
def test_mix_checks_the_manifest_directory_before_mixing(wav_corpus, tmp_path, capsys):
    clean_dir, noise_dir = wav_corpus
    out_dir = tmp_path / "noisy"
    assert run("mix", "--clean", clean_dir, "--noise", noise_dir, "--per-noise", 1,
               "--snr-grid", "0", "--out-dir", out_dir,
               "--manifest-out", tmp_path / "missing" / "m.tsv") == 2
    err = capsys.readouterr().err
    assert err == f"error: manifest output directory not found: {tmp_path / 'missing'}\n"
    assert list(tmp_path.iterdir()) == []
    # neither a manifest nor the directories to build one from
    assert run("mix", "--clean", clean_dir, "--out-dir", out_dir) == 1
    err = capsys.readouterr().err
    assert err == "usage error: mix needs either --manifest or --clean/--noise dirs\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_stats_checks_the_output_directory_before_reading(wav_corpus, tmp_path, capsys,
                                                          monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("estimated before checking the output")

    monkeypatch.setattr(snr, "estimate_stats", refuse)
    clean_dir, noise_dir = wav_corpus
    assert run("stats", "--clean", clean_dir, "--noise", noise_dir,
               "--out", tmp_path / "missing" / "stats.txt") == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory not found: {tmp_path / 'missing'}\n"


def test_wer_keeps_snrs_past_six_digits_apart(wav_corpus, tmp_path, capsys):
    clean, noise = wav_corpus[0] / "utt00.wav", wav_corpus[1] / "white_a.wav"
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{clean}\t{noise}\t5\t0\ta.wav\n"
                        f"{clean}\t{noise}\t5.0000001\t0\tb.wav\n")
    ref, hyp = tmp_path / "ref", tmp_path / "hyp"
    ref.mkdir()
    hyp.mkdir()
    for name, text in (("a", "one two three"), ("b", "one two four")):
        (ref / f"{name}.txt").write_text("one two three")
        (hyp / f"{name}.txt").write_text(text)
    out = tmp_path / "scores.csv"
    assert run("wer", "--manifest", manifest, "--ref", ref, "--hyp", hyp,
               "--out", out) == 0
    assert out.read_text().splitlines()[1:] == ["white_a,5,1,0.00",
                                                "white_a,5.0000001,1,33.33"]
    assert capsys.readouterr().out.splitlines()[:2] == [
        "white_a @ 5 dB: n=1 wer=0.00%", "white_a @ 5.0000001 dB: n=1 wer=33.33%"]


def test_wer_refuses_two_entries_scoring_against_one_transcript(wav_corpus, tmp_path,
                                                                capsys):
    # mix writes x and x.wav as two files, but both would score against x.txt
    clean, noise = wav_corpus[0] / "utt00.wav", wav_corpus[1] / "white_a.wav"
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{clean}\t{noise}\t5\t0\tx\n"
                        f"{clean}\t{noise}\t0\t0\ty.wav\n"
                        f"{clean}\t{noise}\t10\t0\tx.wav\n")
    ref, hyp = tmp_path / "ref", tmp_path / "hyp"
    ref.mkdir()
    hyp.mkdir()
    for name in ("x", "y"):
        (ref / f"{name}.txt").write_text("one two three")
        (hyp / f"{name}.txt").write_text("one two")
    out = tmp_path / "scores.csv"
    assert run("wer", "--manifest", manifest, "--ref", ref, "--hyp", hyp,
               "--out", out) == 2
    assert capsys.readouterr().err == (
        "error: manifest entries 1 (x) and 3 (x.wav) both score against transcript x.txt\n")
    assert not out.exists()
    assert run("mix", "--manifest", manifest, "--out-dir", tmp_path / "noisy") == 0
    assert sorted(f.name for f in (tmp_path / "noisy").iterdir()) == ["x", "x.wav", "y.wav"]


@pytest.mark.parametrize("side", ["ref", "hyp"])
def test_wer_names_the_entry_and_file_of_a_transcript_not_in_utf8(wav_corpus, tmp_path,
                                                                  capsys, side):
    clean, noise = wav_corpus[0] / "utt00.wav", wav_corpus[1] / "white_a.wav"
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{clean}\t{noise}\t5\t0\tx.wav\n")
    dirs = {"ref": tmp_path / "ref", "hyp": tmp_path / "hyp"}
    for d in dirs.values():
        d.mkdir()
        (d / "x.txt").write_text("one two")
    (dirs[side] / "x.txt").write_bytes(b"\xff\xfe")
    out = tmp_path / "scores.csv"
    assert run("wer", "--manifest", manifest, "--ref", dirs["ref"], "--hyp", dirs["hyp"],
               "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: x.wav: transcript {dirs[side] / 'x.txt'} is not UTF-8: invalid start byte\n")
    assert not out.exists()


def test_wer_checks_the_output_directory_before_reading(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("read before checking the output")

    monkeypatch.setattr(cli.corpus, "load_manifest", refuse)
    monkeypatch.setattr(cli.features, "score_manifest", refuse)
    manifest, ref, hyp = tmp_path / "m.tsv", tmp_path / "ref", tmp_path / "hyp"
    manifest.write_text("a.wav\tb.wav\t5\t0\tout.wav\n")
    ref.mkdir()
    hyp.mkdir()
    assert run("wer", "--manifest", manifest, "--ref", ref, "--hyp", hyp,
               "--out", tmp_path / "missing" / "s.csv") == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory not found: {tmp_path / 'missing'}\n"


@pytest.mark.parametrize("estimator", ["dd", "oracle", "neural"])
def test_enhance_checks_the_output_directory_before_reading(noisy_file, tmp_path, capsys,
                                                            monkeypatch, estimator):
    def refuse(*args, **kwargs):
        raise AssertionError("read before checking the output")

    monkeypatch.setattr(cli.corpus, "load_wav", refuse)
    p, _ = noisy_file
    refs = {"dd": [], "oracle": ["--clean", p, "--noise", p],
            "neural": ["--model", p, "--stats", p]}[estimator]
    assert run("enhance", "--in", p, "--out", tmp_path / "missing" / "o.wav",
               "--estimator", estimator, *refs) == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory not found: {tmp_path / 'missing'}\n"
    assert sorted(x.name for x in tmp_path.iterdir()) == ["noisy.wav"]


def _plain_enhance_namespace():
    return vars(cli._parse(["enhance", "--in", "x.wav", "--out", "y.wav"]))


@pytest.mark.parametrize("config, extra, code", [
    ("gain=wiener\nunity-gain=true\n", [], 0),
    ("gain=wiener\nfrobnicate=1\n", [], 1),
    ("unity-gain=true\ngain=loud\n", [], 1),
    ("gain=wiener\n", ["--bogus"], 1),
    ("gain=wiener\nin=missing.wav\n", [], 2),
], ids=["good", "bad-key", "bad-choice", "bad-flag", "missing-input"])
def test_config_preset_does_not_reach_a_later_call(noisy_file, tmp_path, capsys, config,
                                                   extra, code):
    # the one shared parser gets back its defaults and required options
    # after every call, a failed one too
    p, _ = noisy_file
    plain = _plain_enhance_namespace()
    assert plain == vars(cli.build_parser().parse_args(
        ["enhance", "--in", "x.wav", "--out", "y.wav"]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + f"out={tmp_path / 'a.wav'}\n")
    argv = ["--config", cfg, "enhance", *extra]
    if not re.search(r"^in=", config, re.M):
        argv += ["--in", p]
    assert run(*argv) == code
    assert _plain_enhance_namespace() == plain
    b, c = tmp_path / "b.wav", tmp_path / "c.wav"
    assert run("enhance", "--in", p, "--out", b) == 0
    assert run("enhance", "--in", p, "--out", c, "--gain", "srwf") == 0
    assert b.read_bytes() == c.read_bytes()
    capsys.readouterr()
    assert run("enhance", "--in", p) == 1
    assert capsys.readouterr().err == (
        "usage error: the following arguments are required: --out\n")


def test_concurrent_calls_keep_their_own_presets(noisy_file, tmp_path, monkeypatch):
    p, _ = noisy_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gain=wiener\n")
    want = {}
    for gain in ("wiener", "srwf"):
        want[gain] = tmp_path / f"{gain}.wav"
        assert run("enhance", "--in", p, "--out", want[gain], "--gain", gain) == 0

    def call(i):
        out = tmp_path / f"out{i}.wav"
        preset = ["--config", cfg] if i % 2 else []
        assert run(*preset, "enhance", "--in", p, "--out", out) == 0
        return out.read_bytes() == want["wiener" if i % 2 else "srwf"].read_bytes()

    def slow_parse(self, *args, **kwargs):
        time.sleep(0.005)  # holds a preset in place while other calls start
        return argparse.ArgumentParser.parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", slow_parse)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(call, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("estimator", ["dd", "oracle", "neural"])
@pytest.mark.parametrize("gain", ["wiener", "srwf", "mmse-stsa"])
def test_enhance_tracks_the_noise_only_where_gamma_is_read(noisy_file, tmp_path,
                                                           monkeypatch, estimator, gain):
    # on the xi path only MMSE-STSA reads gamma; the dd recursion always does
    p, mixed = noisy_file
    files = {"clean": mixed.clean, "noise": mixed.noise}
    for name, x in files.items():
        save_wav(x, tmp_path / f"{name}.wav")
    save_network(init_network(seed=3, cell_size=8, n_blocks=1), tmp_path / "net.bin")
    save_stats(XiStats(np.zeros(257), np.ones(257)), tmp_path / "stats.txt")
    refs = {"dd": [],
            "oracle": ["--clean", tmp_path / "clean.wav", "--noise", tmp_path / "noise.wav"],
            "neural": ["--model", tmp_path / "net.bin", "--stats", tmp_path / "stats.txt"]}
    calls = []
    real = dd.tracked_noise_power

    def counted(power):
        calls.append(1)
        return real(power)

    monkeypatch.setattr(dd, "tracked_noise_power", counted)
    assert run("enhance", "--in", p, "--out", tmp_path / "o.wav", "--gain", gain,
               "--estimator", estimator, *refs[estimator]) == 0
    assert len(calls) == (1 if estimator == "dd" or gain == "mmse-stsa" else 0)


def test_mix_replay_reads_each_file_length_once(wav_corpus, tmp_path, capsys, monkeypatch):
    clean_dir, noise_dir = wav_corpus
    clean = sorted(clean_dir.glob("*.wav"))[0]
    noise = sorted(noise_dir.glob("*.wav"))[0]
    calls = []
    wav_length = cli.corpus.wav_length

    def counted(path):
        calls.append(Path(path))
        return wav_length(path)

    monkeypatch.setattr(cli.corpus, "wav_length", counted)
    lines = [f"{clean}\t{noise}\t5\t{i * SR // 3}\tout{i}.wav" for i in range(6)]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    assert run("mix", "--manifest", manifest, "--out-dir", tmp_path / "out") == 0
    assert sorted(calls) == sorted([clean, noise])
    # the first entry that overruns its noise is still the one reported
    calls.clear()
    lines[4] = f"{clean}\t{noise}\t5\t{2 * SR + 1}\tout4.wav"
    lines[5] = f"{clean}\t{noise}\t5\t{3 * SR}\tout5.wav"
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("mix", "--manifest", manifest, "--out-dir", tmp_path / "failed") == 2
    assert capsys.readouterr().err == (
        f"error: {noise.name}: shorter than {clean.name} from offset {2 * SR + 1} "
        f"({3 * SR} < {3 * SR + 1} samples)\n")
    assert sorted(calls) == sorted([clean, noise])
    assert not (tmp_path / "failed").exists()


@pytest.mark.parametrize("kind, old, new, message", [
    ("stats", b" 257 ", b" x ", "stats file: invalid literal for int() with base 10: 'x'"),
    ("stats", b" 257 0\n", b" 257 -5\n",
     "stats file: frame count must not be negative, got -5"),
    ("model", b"\nblocks 1\n", b"\nblocks x\n", "model file: header sizes must be "
                                                 "integers: invalid literal for int() with "
                                                 "base 10: 'x'"),
])
def test_a_malformed_stats_or_model_file_is_one_line_naming_it(noisy_file, tmp_path, capsys,
                                                                kind, old, new, message):
    p, _ = noisy_file
    files = {"stats": tmp_path / "stats.txt", "model": tmp_path / "net.bin"}
    save_stats(XiStats(np.zeros(257), np.ones(257)), files["stats"])
    save_network(init_network(cell_size=4, n_blocks=1), files["model"])
    files[kind].write_bytes(files[kind].read_bytes().replace(old, new, 1))
    out = tmp_path / "o.wav"
    assert run("enhance", "--in", p, "--out", out, "--estimator", "neural",
               "--model", files["model"], "--stats", files["stats"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("stray", [1, 2, 3])
def test_a_model_file_with_part_of_a_value_after_its_data_is_one_line(noisy_file, tmp_path,
                                                                      capsys, stray):
    p, _ = noisy_file
    stats, model = tmp_path / "stats.txt", tmp_path / "net.bin"
    save_stats(XiStats(np.zeros(257), np.ones(257)), stats)
    save_network(init_network(cell_size=4, n_blocks=1), model)
    with open(model, "ab") as fh:
        fh.write(b"\x01" * stray)
    out = tmp_path / "o.wav"
    assert run("enhance", "--in", p, "--out", out, "--estimator", "neural",
               "--model", model, "--stats", stats) == 2
    assert re.fullmatch(r"error: model file: data section of \d+ bytes is not a whole "
                        r"number of float32 values\n", capsys.readouterr().err)
    assert not out.exists()
