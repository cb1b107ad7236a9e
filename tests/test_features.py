import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sefront.corpus import MixSpec
from sefront.dsp import SpectroGram, stft
from sefront.features import (
    Transcript,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    score_manifest,
    segmental_snr,
    transcript_name,
    wer,
    write_score_csv,
)


def test_mel_scale_round_trip():
    f = np.array([0.0, 300.0, 700.0, 4000.0, 8000.0])
    np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)
    np.testing.assert_allclose(hz_to_mel(700.0), 2595.0 * np.log10(2.0), rtol=1e-15)


def test_filterbank_shape_and_coverage():
    fb = mel_filterbank()
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)  # every filter hits some bin
    # interior bins are covered by at least one triangle
    covered = fb.sum(axis=0)
    first = np.argmax(covered > 0)
    assert np.all(covered[first:-1] > 0)


def test_filterbank_peaks_are_ordered():
    fb = mel_filterbank()
    peaks = fb.argmax(axis=1)
    assert np.all(np.diff(peaks) > 0)


@settings(max_examples=30, deadline=None)
@given(n_bins=st.integers(2, 600))
def test_filterbank_is_built_once_and_read_only(n_bins):
    fb = mel_filterbank(n_bins)
    assert fb.shape == (26, n_bins)
    assert not fb.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        fb[0, 0] = 1.0
    assert mel_filterbank(n_bins) is fb


def test_mfcc_against_straight_line_oracle():
    rng = np.random.default_rng(0)
    spec = stft(rng.normal(0, 0.2, 8000))
    got = mfcc(spec)

    fb = mel_filterbank(257)
    logs = np.log(np.maximum((spec.magnitude ** 2) @ fb.T, 1e-10))
    n = 26
    basis = np.cos(np.pi * np.arange(n)[:, None] * (2 * np.arange(n)[None, :] + 1) / (2 * n))
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    want = logs @ (basis * scale[:, None]).T
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_mfcc_zero_signal_constant_coefficient():
    spec = stft(np.zeros(4096))
    out = mfcc(spec)
    assert out.shape == (spec.n_frames, 26)
    # all mel energies at the floor: only the flat basis vector survives
    np.testing.assert_allclose(out[:, 0], np.log(1e-10) * np.sqrt(26.0), rtol=1e-12)
    np.testing.assert_allclose(out[:, 1:], 0.0, atol=1e-10)


def test_mfcc_ignores_phase():
    rng = np.random.default_rng(1)
    mag = rng.uniform(0, 1, (5, 257))
    a = SpectroGram(mag, np.zeros((5, 257)))
    b = SpectroGram(mag, rng.uniform(-np.pi, np.pi, (5, 257)))
    np.testing.assert_array_equal(mfcc(a), mfcc(b))


def test_transcript_normalization():
    t = Transcript.from_text("The, CAT sat!  ")
    assert t.words == ("the", "cat", "sat")
    assert len(t) == 3
    assert Transcript.from_text("Don't stop").words == ("don't", "stop")
    with pytest.raises(ValueError):
        Transcript(("Upper",))
    with pytest.raises(ValueError):
        Transcript(("",))


def test_wer_identical_is_zero():
    t = Transcript.from_text("a b c")
    rec = wer(t, t)
    assert rec.errors == 0
    assert rec.wer_percent == 0.0


words = st.lists(st.sampled_from(["a", "b", "c", "don't"]), max_size=8)


@settings(max_examples=200, deadline=None)
@given(ref=words.filter(bool), hyp=words)
def test_wer_counts_are_consistent(ref, hyp):
    # a small vocabulary makes matches, substitutions and shifts all likely
    r, h = Transcript(tuple(ref)), Transcript(tuple(hyp))
    rec = wer(r, h)
    m, n = len(ref), len(hyp)
    assert 0 <= rec.errors <= max(m, n)
    assert n == m - rec.deletions + rec.insertions
    assert rec.wer_percent == 100.0 * rec.errors / m
    same = wer(r, r)
    assert (same.substitutions, same.deletions, same.insertions) == (0, 0, 0)


def test_wer_single_deletion():
    rec = wer(Transcript.from_text("the cat sat"), Transcript.from_text("the cat"))
    assert (rec.substitutions, rec.deletions, rec.insertions) == (0, 1, 0)
    assert rec.wer_percent == pytest.approx(100.0 / 3.0)


def test_wer_can_exceed_hundred():
    rec = wer(Transcript.from_text("a"), Transcript.from_text("b c"))
    assert (rec.substitutions, rec.deletions, rec.insertions) == (1, 0, 1)
    assert rec.wer_percent == 200.0


def test_wer_tie_break_prefers_substitution():
    rec = wer(Transcript.from_text("a b"), Transcript.from_text("b a"))
    assert (rec.substitutions, rec.deletions, rec.insertions) == (2, 0, 0)
    assert rec.wer_percent == 100.0


def test_wer_empty_hypothesis():
    rec = wer(Transcript.from_text("x y"), Transcript(()))
    assert rec.deletions == 2
    assert rec.wer_percent == 100.0


def test_wer_empty_reference_rejected():
    with pytest.raises(ValueError, match="reference"):
        wer(Transcript(()), Transcript.from_text("a"))


def test_segmental_snr_bounds():
    rng = np.random.default_rng(2)
    clean = rng.normal(0, 1.0, 16000)
    assert segmental_snr(clean, clean) == 35.0  # clamp top
    assert segmental_snr(clean, np.zeros(16000)) == 0.0  # error equals signal
    noisy = clean + rng.normal(0, 100.0, 16000)
    assert segmental_snr(clean, noisy) == -10.0  # clamp bottom


def test_segmental_snr_ten_db_mixture():
    rng = np.random.default_rng(3)
    clean = rng.normal(0, 1.0, 16000)
    noisy = clean + rng.normal(0, 10 ** -0.5, 16000)
    assert abs(segmental_snr(clean, noisy) - 10.0) < 0.5


def test_segmental_snr_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        segmental_snr(np.ones(100), np.ones(200))
    with pytest.raises(ValueError, match="at least"):
        segmental_snr(np.ones(100), np.ones(100))
    with pytest.raises(ValueError, match="floor"):
        segmental_snr(np.zeros(1024), np.ones(1024))


def test_transcript_name():
    assert transcript_name("utt__white__5dB.wav") == "utt__white__5dB.txt"


@pytest.fixture()
def scored_layout(tmp_path):
    ref = tmp_path / "ref"
    hyp = tmp_path / "hyp"
    ref.mkdir()
    hyp.mkdir()
    entries = []
    # two noises x two SNRs, one entry each; hyp drops one word of two
    # at 0 dB and matches at 10 dB
    for noise in ("white", "pink"):
        for snr, hyp_text in ((0.0, "alpha"), (10.0, "alpha beta")):
            out = f"u__{noise}__{snr:g}dB.wav"
            entries.append(MixSpec("c.wav", f"{noise}.wav", snr, 0, out))
            (ref / transcript_name(out)).write_text("alpha beta")
            (hyp / transcript_name(out)).write_text(hyp_text)
    return entries, ref, hyp


def test_score_manifest_grouping(scored_layout):
    entries, ref, hyp = scored_layout
    scores = score_manifest(entries, ref, hyp)
    assert len(scores) == 4
    by_key = {(s.noise, s.snr_db): s for s in scores}
    for noise in ("white", "pink"):
        assert by_key[(noise, 0.0)].wer_percent == 50.0
        assert by_key[(noise, 10.0)].wer_percent == 0.0
        assert by_key[(noise, 0.0)].n == 1
    # sorted by (noise, snr)
    assert [s.noise for s in scores] == ["pink", "pink", "white", "white"]


def test_score_manifest_missing_transcript(scored_layout):
    entries, ref, hyp = scored_layout
    (hyp / transcript_name(entries[0].output_path)).unlink()
    with pytest.raises(FileNotFoundError, match=entries[0].output_path):
        score_manifest(entries, ref, hyp)


def test_score_csv_format(tmp_path, scored_layout):
    entries, ref, hyp = scored_layout
    scores = score_manifest(entries, ref, hyp)
    p = tmp_path / "scores.csv"
    write_score_csv(scores, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "noise,snr_db,n,wer_percent"
    assert lines[1] == "pink,0,1,50.00"
    assert lines[2] == "pink,10,1,0.00"
    assert len(lines) == 5


def test_score_csv_keeps_snrs_past_six_digits_apart(tmp_path):
    # at :g's 6 digits both SNRs read 5; the labels follow the manifest's
    ref, hyp = tmp_path / "ref", tmp_path / "hyp"
    ref.mkdir()
    hyp.mkdir()
    entries = []
    for snr, out, hyp_text in ((5.0, "a.wav", "alpha"), (5.0000001, "b.wav", "alpha beta")):
        entries.append(MixSpec("c.wav", "white.wav", snr, 0, out))
        (ref / transcript_name(out)).write_text("alpha beta")
        (hyp / transcript_name(out)).write_text(hyp_text)
    p = tmp_path / "scores.csv"
    write_score_csv(score_manifest(entries, ref, hyp), p)
    assert p.read_text().splitlines()[1:] == ["white,5,1,50.00", "white,5.0000001,1,0.00"]
