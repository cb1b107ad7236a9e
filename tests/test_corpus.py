import struct
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SR, quantize, tone_bursts, white_noise
from sefront.corpus import (
    CLIP_TARGET,
    PCM_SCALE,
    Manifest,
    MixSpec,
    WavFormatError,
    build_test_manifest,
    check_corpora,
    load_manifest,
    load_wav,
    mix_at_snr,
    mixing_gain,
    read_recording,
    recording_length,
    run_mix_entry,
    save_manifest,
    save_wav,
    wav_length,
)


def write_raw_wav(path, channels=1, width=2, rate=SR, n=100):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(width)
        wf.setframerate(rate)
        wf.writeframes(b"\x00" * (n * channels * width))


def test_wav_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = quantize(rng.uniform(-0.9, 0.9, 4000))
    p = tmp_path / "a.wav"
    save_wav(x, p)
    back = load_wav(p)
    np.testing.assert_array_equal(back.samples, x)


def test_wav_rewrite_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    p1 = tmp_path / "a.wav"
    p2 = tmp_path / "b.wav"
    save_wav(rng.uniform(-0.5, 0.5, 3000), p1)
    save_wav(load_wav(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_wav_clips_out_of_range(tmp_path):
    p = tmp_path / "c.wav"
    save_wav(np.array([2.0, -2.0, 0.0]), p)
    back = load_wav(p)
    np.testing.assert_allclose(back.samples, [32767 / 32768.0, -1.0, 0.0])


@pytest.mark.parametrize("samples", [[0.1, np.nan], [np.inf, 0.0], [0.0, -np.inf]])
def test_save_wav_refuses_samples_not_finite(tmp_path, samples):
    # NaN cast to PCM is garbage and inf would clip to full scale
    p = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match=r"bad\.wav: samples must be finite"):
        save_wav(np.array(samples), p)
    assert not p.exists()


def test_wav_length_header_only(tmp_path):
    p = tmp_path / "d.wav"
    save_wav(np.zeros(1234), p)
    assert wav_length(p) == 1234


def test_wav_length_checks_every_format_property(tmp_path):
    for name, kwargs, message in (
        ("stereo", {"channels": 2}, "channels: expected 1, got 2"),
        ("byte", {"width": 1}, "sample_width: expected 2, got 1"),
        ("slow", {"rate": 8000}, "sample_rate: expected 16000, got 8000"),
    ):
        path = tmp_path / f"{name}.wav"
        write_raw_wav(path, **kwargs)
        with pytest.raises(WavFormatError, match=message):
            wav_length(path)


def test_load_wav_error_messages(tmp_path):
    stereo = tmp_path / "stereo.wav"
    write_raw_wav(stereo, channels=2)
    with pytest.raises(WavFormatError, match="channels: expected 1, got 2"):
        load_wav(stereo)
    wide = tmp_path / "wide.wav"
    write_raw_wav(wide, width=4)
    with pytest.raises(WavFormatError, match="sample_width: expected 2"):
        load_wav(wide)
    slow = tmp_path / "slow.wav"
    write_raw_wav(slow, rate=8000)
    with pytest.raises(WavFormatError, match="sample_rate: expected 16000, got 8000"):
        load_wav(slow)
    junk = tmp_path / "junk.wav"
    junk.write_bytes(b"RIFFnope")
    with pytest.raises(WavFormatError):
        load_wav(junk)


@pytest.fixture(scope="module")
def pcm_file(tmp_path_factory):
    """A 3000-sample WAV on the 16-bit grid."""
    p = tmp_path_factory.mktemp("pcm") / "x.wav"
    save_wav(quantize(np.random.default_rng(5).uniform(-0.9, 0.9, 3000)), p)
    return p


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, 3000), n=st.integers(0, 3000))
def test_load_wav_section_equals_the_slice(pcm_file, start, n):
    n = min(n, 3000 - start)
    got = load_wav(pcm_file, start, n).samples
    assert got.tobytes() == load_wav(pcm_file).samples[start : start + n].tobytes()
    rest = load_wav(pcm_file, start).samples
    assert rest.tobytes() == load_wav(pcm_file).samples[start:].tobytes()


def test_load_wav_section_outside_the_file(pcm_file):
    for start, n in ((2990, 11), (-1, 5), (3001, None), (0, -1)):
        with pytest.raises(ValueError, match="outside its 3000 frames"):
            load_wav(pcm_file, start, n)


def test_truncated_data_chunk_is_a_format_error(tmp_path):
    p = tmp_path / "cut.wav"
    save_wav(np.full(1000, 0.25), p)
    p.write_bytes(p.read_bytes()[: 44 + 2 * 600])  # the header still gives 1000
    message = "data chunk ends before frame 1000 of the 1000 its header gives"
    with pytest.raises(WavFormatError, match=message):
        load_wav(p)
    with pytest.raises(WavFormatError, match=message):
        wav_length(p)
    with pytest.raises(WavFormatError, match="before frame 700 "):
        load_wav(p, 500, 200)
    np.testing.assert_array_equal(load_wav(p, 100, 500).samples, 0.25)
    p.write_bytes(p.read_bytes()[:-1])  # half a sample at the end
    with pytest.raises(WavFormatError, match="before frame 600 "):
        load_wav(p, 0, 600)


def test_empty_file_is_a_format_error(tmp_path):
    p = tmp_path / "empty.wav"
    p.write_bytes(b"")
    with pytest.raises(WavFormatError, match="empty.wav: file ends inside a chunk header"):
        load_wav(p)
    with pytest.raises(WavFormatError, match="file ends inside a chunk header"):
        wav_length(p)


def test_chunk_past_the_riff_chunk_is_a_format_error(tmp_path):
    # wave raises a bare RuntimeError when a chunk's size outruns the RIFF chunk
    p = tmp_path / "long.wav"
    save_wav(np.zeros(100), p)
    raw = bytearray(p.read_bytes())
    raw[36:44] = b"junk" + (1 << 20).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(WavFormatError, match="long.wav: a chunk runs past the end"):
        load_wav(p)
    with pytest.raises(WavFormatError, match="a chunk runs past the end"):
        wav_length(p)


def test_data_chunk_past_the_riff_chunk_is_a_format_error_when_read(tmp_path):
    # the header reads, but a read past the RIFF chunk's end makes wave raise
    # a bare RuntimeError: the data chunk claims 2 bytes more than the file has
    p = tmp_path / "over.wav"
    save_wav(np.zeros(8000), p)
    raw = bytearray(p.read_bytes())
    raw[40] = 0x84
    p.write_bytes(bytes(raw))
    message = "over.wav: a chunk runs past the end of the RIFF chunk"
    with pytest.raises(WavFormatError, match=message):
        wav_length(p)
    with pytest.raises(WavFormatError, match=message):
        load_wav(p, 8001, 1)
    np.testing.assert_array_equal(load_wav(p, 0, 8000).samples, 0.0)


def _chunk(name: bytes, payload: bytes) -> bytes:
    """A RIFF chunk, with the pad byte an odd-sized one takes."""
    return name + struct.pack("<L", len(payload)) + payload + b"\0" * (len(payload) & 1)


# chunks a reader must skip: odd sizes end in a pad byte
extra_chunks = st.lists(st.builds(_chunk, st.sampled_from([b"LIST", b"junk", b"fact", b"cue "]),
                                  st.binary(max_size=9)), max_size=2).map(b"".join)


@st.composite
def wav_with_extra_chunks(draw):
    """(file bytes, frames): a valid 16-bit mono 16 kHz PCM file with other
    chunks before and after its fmt chunk and after its data chunk, and a
    fmt chunk that may carry extra bytes."""
    n = draw(st.integers(0, 300))
    fmt = struct.pack("<HHLLHH", 1, 1, SR, 2 * SR, 2, 16) + draw(st.binary(max_size=3))
    body = (b"WAVE" + draw(extra_chunks) + _chunk(b"fmt ", fmt) + draw(extra_chunks)
            + _chunk(b"data", draw(st.binary(min_size=2 * n, max_size=2 * n)))
            + draw(extra_chunks))
    return b"RIFF" + struct.pack("<L", len(body)) + body, n


@pytest.fixture(scope="module")
def wav_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("wav")


@settings(max_examples=150, deadline=None)
@given(wav=wav_with_extra_chunks(), data=st.data())
def test_load_wav_reads_what_the_wave_module_reads(wav_dir, wav, data):
    raw, n = wav
    path = wav_dir / "x.wav"
    path.write_bytes(raw)
    start = data.draw(st.integers(0, n))
    count = data.draw(st.integers(0, n - start))
    with wave.open(str(path), "rb") as wf:
        assert wf.getnframes() == n
        whole = np.frombuffer(wf.readframes(n), dtype="<i2") / PCM_SCALE
        wf.setpos(start)
        section = np.frombuffer(wf.readframes(count), dtype="<i2") / PCM_SCALE
    assert wav_length(path) == n
    assert load_wav(path).samples.tobytes() == whole.tobytes()
    assert load_wav(path, start, count).samples.tobytes() == section.tobytes()
    assert load_wav(path, start).samples.tobytes() == whole[start:].tobytes()


@settings(max_examples=300, deadline=None)
@given(wav=wav_with_extra_chunks(),
       edits=st.lists(st.tuples(st.integers(0, 95), st.integers(0, 255)), max_size=4),
       cut=st.none() | st.integers(0, 120), data=st.data())
def test_a_corrupt_header_is_only_ever_a_value_error(wav_dir, wav, edits, cut, data):
    # never struct.error, IndexError, EOFError or RuntimeError from the parse
    raw, n = wav
    raw = bytearray(raw)
    for i, byte in edits:
        if i < len(raw):
            raw[i] = byte
    path = wav_dir / "bad.wav"
    path.write_bytes(bytes(raw[:cut]))
    start = data.draw(st.integers(-1, n + 1))
    count = data.draw(st.none() | st.integers(-1, n + 1))
    for read in (wav_length, load_wav, lambda p: load_wav(p, start, count)):
        try:
            read(path)
        except ValueError:  # WavFormatError among them
            pass


def _wave_outcome(path):
    """getnframes() of a file the stdlib wave module opens, else the reason
    it gives, or ours where it raises a bare EOFError or RuntimeError."""
    try:
        with wave.open(str(path), "rb") as wf:
            return wf.getnframes()
    except wave.Error as exc:
        return str(exc)
    except EOFError:
        return "file ends inside a chunk header"
    except RuntimeError:
        return "a chunk runs past the end of the RIFF chunk"


# what wav_length may still refuse in a header that wave reads
_PAST_WAVE = ("channels: ", "sample_width: ", "sample_rate: ",
              "data chunk ends before frame ", "a chunk runs past the end of the RIFF chunk")


@settings(max_examples=300, deadline=None)
@given(wav=wav_with_extra_chunks(),
       edits=st.lists(st.tuples(st.integers(0, 95), st.integers(0, 255)), max_size=4),
       cut=st.none() | st.integers(0, 120))
def test_a_header_is_refused_for_the_reason_wave_gives(wav_dir, wav, edits, cut):
    raw = bytearray(wav[0])
    for i, byte in edits:
        if i < len(raw):
            raw[i] = byte
    path = wav_dir / "edited.wav"
    path.write_bytes(bytes(raw[:cut]))
    theirs = _wave_outcome(path)
    try:
        ours = wav_length(path)
    except WavFormatError as exc:
        reason = str(exc).removeprefix("edited.wav: ")
        if isinstance(theirs, str):
            assert reason == theirs
        else:
            assert reason.startswith(_PAST_WAVE)
    else:
        assert ours == theirs


@pytest.mark.parametrize("size", [14, 15])
@pytest.mark.parametrize("tag, reason", [(1, "file ends inside a chunk header"),
                                         (3, "unknown format: 3")])
def test_a_short_fmt_chunk_is_refused_for_its_tag_first(tmp_path, size, tag, reason):
    # wave reads the tag from the first 14 bytes and the bits field only for PCM
    fmt = struct.pack("<HHLLHH", tag, 1, SR, 2 * SR, 2, 16)[:size]
    body = b"WAVE" + _chunk(b"fmt ", fmt) + _chunk(b"data", bytes(20))
    path = tmp_path / "short_fmt.wav"
    path.write_bytes(b"RIFF" + struct.pack("<L", len(body)) + body)
    assert _wave_outcome(path) == reason
    for read in (wav_length, load_wav):
        with pytest.raises(WavFormatError, match=f"^short_fmt.wav: {reason}$"):
            read(path)


def test_a_read_stops_at_the_end_of_the_riff_chunk(tmp_path):
    # the file holds all 100 frames, but its RIFF chunk ends two frames early
    p = tmp_path / "short_riff.wav"
    save_wav(np.full(100, 0.5), p)
    raw = bytearray(p.read_bytes())
    raw[4:8] = (36 + 2 * 98).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(WavFormatError, match="short_riff.wav: data chunk ends before "
                                             "frame 100 of the 100 its header gives"):
        load_wav(p)
    with pytest.raises(WavFormatError, match="data chunk ends before frame 99 "):
        load_wav(p, 98, 1)
    # reading back the last frame seeks past the RIFF chunk's end
    with pytest.raises(WavFormatError, match="a chunk runs past the end of the RIFF chunk"):
        wav_length(p)
    np.testing.assert_array_equal(load_wav(p, 0, 98).samples, 0.5)


@pytest.mark.parametrize("n", [0, 1, 7, 64000])
def test_save_wav_writes_the_bytes_wave_writes(tmp_path, n):
    x = np.random.default_rng(n).uniform(-1.2, 1.2, n)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
    save_wav(x, ours)
    pcm = np.clip(np.rint(x * PCM_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(theirs), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(pcm.tobytes())
    assert ours.read_bytes() == theirs.read_bytes()


def test_recording_length_and_read_recording_for_paths_and_signals(pcm_file):
    x = load_wav(pcm_file).samples
    for rec in (pcm_file, str(pcm_file), x, load_wav(pcm_file), list(x)):
        assert recording_length(rec) == 3000
        assert read_recording(rec).tobytes() == x.tobytes()
        assert read_recording(rec, 100).tobytes() == x[100:].tobytes()
        assert read_recording(rec, 2500, 500).tobytes() == x[2500:].tobytes()
        assert read_recording(rec, 7, 0).size == 0
    # a signal's section is a view, not a copy
    assert np.shares_memory(read_recording(x, 10, 20), x)


def test_check_corpora_returns_the_lengths(tmp_path):
    def signals(*lengths):
        return [np.ones(n) for n in lengths]

    assert check_corpora(signals(100, 300), signals(300, 400)) == ([100, 300], [300, 400])
    with pytest.raises(ValueError, match="non-empty"):
        check_corpora([], signals(300))
    with pytest.raises(ValueError, match="non-empty"):
        check_corpora(signals(100), [])
    with pytest.raises(ValueError, match="clean recording 1 is empty"):
        check_corpora(signals(100, 0, 50), signals(300))
    with pytest.raises(ValueError, match="shorter than the longest clean recording"):
        check_corpora(signals(100, 300), signals(299, 400))
    # WAV paths are read for their lengths only, and an empty one is named
    paths = [tmp_path / "a.wav", tmp_path / "b.wav", tmp_path / "n.wav"]
    for p, n in zip(paths, (100, 0, 300)):
        save_wav(np.full(n, 0.25), p)
    assert check_corpora(paths[:1], [str(paths[2])]) == ([100], [300])
    with pytest.raises(ValueError, match=r"^b\.wav: empty recording$"):
        check_corpora(paths[:2], paths[2:])


def test_mixing_gain_hand_values():
    clean = np.array([2.0, 2.0])
    noise = np.array([1.0, 1.0])
    assert mixing_gain(clean, noise, 0.0) == pytest.approx(2.0)
    assert mixing_gain(clean, noise, 10.0) == pytest.approx(2.0 / np.sqrt(10.0))
    assert mixing_gain(clean, noise, -10.0) == pytest.approx(2.0 * np.sqrt(10.0))


def test_mixing_gain_zero_power_errors():
    with pytest.raises(ValueError, match="clean"):
        mixing_gain(np.zeros(10), np.ones(10), 0.0)
    with pytest.raises(ValueError, match="noise"):
        mixing_gain(np.ones(10), np.zeros(10), 0.0)


@pytest.mark.parametrize("snr_db", [np.inf, -np.inf, np.nan])
def test_mixing_rejects_a_non_finite_snr(snr_db):
    # at +inf the noise gain is 0 and the "mixture" would be the clean signal
    rng = np.random.default_rng(2)
    clean, noise = tone_bursts(rng, SR), white_noise(rng, SR)
    with pytest.raises(ValueError, match="finite"):
        mixing_gain(clean, noise, snr_db)
    with pytest.raises(ValueError, match="finite"):
        mix_at_snr(clean, noise, snr_db)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, 1e308, -1e308])
def test_mixing_rejects_an_snr_whose_noise_gain_is_zero_or_infinite(snr_db):
    # 10 ** (-snr / 10) underflows to 0 above about 3233 dB and overflows
    # below about -3083 dB
    rng = np.random.default_rng(2)
    clean, noise = tone_bursts(rng, SR), white_noise(rng, SR)
    with pytest.raises(ValueError, match="out of range"):
        mixing_gain(clean, noise, snr_db)
    with pytest.raises(ValueError, match="out of range"):
        mix_at_snr(clean, noise, snr_db)


@pytest.mark.parametrize("snr_db", [3000.0, -3000.0, 5e-324, -0.0])
def test_mixing_gain_is_finite_and_positive_up_to_the_edges(snr_db):
    rng = np.random.default_rng(2)
    clean, noise = tone_bursts(rng, SR), white_noise(rng, SR)
    assert 0.0 < mixing_gain(clean, noise, snr_db) < np.inf


def test_mix_exact_snr_and_identity():
    rng = np.random.default_rng(2)
    clean = tone_bursts(rng, SR)
    noise = white_noise(rng, 3 * SR)
    for snr in (-7.3, 0.0, 12.5):
        mixed = mix_at_snr(clean, noise, snr, noise_offset=777)
        got = 10 * np.log10(
            np.mean(mixed.clean.samples ** 2) / np.mean(mixed.noise.samples ** 2)
        )
        assert abs(got - snr) < 0.01
        np.testing.assert_allclose(
            mixed.noisy.samples,
            mixed.clean.samples + mixed.noise.samples,
            atol=1e-15,
        )


def test_mix_uses_requested_offset():
    clean = np.full(100, 0.1)
    noise = np.zeros(1000)
    noise[500:600] = 0.2  # only this section has power
    mixed = mix_at_snr(clean, noise, 0.0, noise_offset=500)
    assert np.all(mixed.noise.samples != 0)
    with pytest.raises(ValueError, match="zero power"):
        mix_at_snr(clean, noise, 0.0, noise_offset=0)


def test_mix_offset_bounds():
    clean = np.ones(100) * 0.1
    noise = np.ones(150) * 0.1
    mix_at_snr(clean, noise, 0.0, noise_offset=50)
    with pytest.raises(ValueError, match=r"shorter than clean from offset 51 \(150 < 151"):
        mix_at_snr(clean, noise, 0.0, noise_offset=51)
    with pytest.raises(ValueError):
        mix_at_snr(clean, noise, 0.0, noise_offset=-1)


def test_mix_peak_rescale():
    rng = np.random.default_rng(3)
    clean = 0.95 * np.sin(2 * np.pi * 200 * np.arange(SR) / SR)
    noise = white_noise(rng, SR, rms=0.3)
    mixed = mix_at_snr(clean, noise, 0.0, noise_offset=0)
    peak = np.max(np.abs(mixed.noisy.samples))
    assert peak <= 0.99 + 1e-12
    # rescale keeps the SNR exact and the additive identity intact
    got = 10 * np.log10(
        np.mean(mixed.clean.samples ** 2) / np.mean(mixed.noise.samples ** 2)
    )
    assert abs(got) < 0.01
    np.testing.assert_allclose(
        mixed.noisy.samples, mixed.clean.samples + mixed.noise.samples, atol=1e-15
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), extra=st.integers(0, 400),
       level=st.floats(-3.0, 0.5), snr_db=st.floats(-30.0, 30.0))
@example(seed=1, n=300, extra=50, level=-2.0, snr_db=20.0)  # no rescale
@example(seed=1, n=300, extra=50, level=0.3, snr_db=30.0)  # peak rescale
def test_mix_at_snr_hits_the_snr_and_adds_up(seed, n, extra, level, snr_db):
    rng = np.random.default_rng(seed)
    clean = 10.0**level * rng.uniform(-1.0, 1.0, n)
    noise = rng.normal(0.0, 0.1, n + extra)
    offset = int(rng.integers(extra + 1))
    mixed = mix_at_snr(clean, noise, snr_db, offset)
    x, d, y = mixed.clean.samples, mixed.noise.samples, mixed.noisy.samples
    assert abs(10.0 * np.log10(np.mean(x * x) / np.mean(d * d)) - snr_db) < 1e-9
    section = noise[offset : offset + n]
    unscaled = clean + mixing_gain(clean, section, snr_db) * section
    if np.max(np.abs(unscaled)) <= 1.0:
        assert x.tobytes() == clean.tobytes()
        assert y.tobytes() == (x + d).tobytes()
    else:
        # the mixture is scaled as summed, not summed again from the
        # scaled components, so the identity holds to a few ulps
        assert abs(np.max(np.abs(y)) - CLIP_TARGET) <= 1e-15
        assert np.all(np.abs(y - (x + d)) <= 4 * np.finfo(float).eps * (np.abs(x) + np.abs(d)))


@pytest.fixture()
def manifest_dirs(tmp_path):
    clean_dir = tmp_path / "clean"
    noise_dir = tmp_path / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    rng = np.random.default_rng(4)
    for i in range(3):
        save_wav(tone_bursts(rng, 8000), clean_dir / f"c{i}.wav")
    for name in ("na", "nb"):
        save_wav(white_noise(rng, 24000), noise_dir / f"{name}.wav")
    return clean_dir, noise_dir


def test_build_manifest_counts_and_offsets(manifest_dirs):
    clean_dir, noise_dir = manifest_dirs
    man = build_test_manifest(clean_dir, noise_dir, 2, [0.0, 5.0], seed=1)
    assert len(man) == 2 * 2 * 2  # noises x per_noise x grid
    for e in man.entries:
        assert 0 <= e.noise_offset <= 24000 - 8000
        assert e.output_path.endswith("dB.wav")
    # per noise, clean picks are distinct
    for noise_name in ("na", "nb"):
        picked = {
            e.clean_path for e in man.entries if noise_name in e.noise_path
        }
        assert len(picked) == 2


def test_build_manifest_output_names(manifest_dirs):
    clean_dir, noise_dir = manifest_dirs
    man = build_test_manifest(clean_dir, noise_dir, 1, [-5.0], seed=0)
    for e in man.entries:
        stem_c = e.clean_path.rsplit("/", 1)[-1][:-4]
        stem_n = e.noise_path.rsplit("/", 1)[-1][:-4]
        assert e.output_path == f"{stem_c}__{stem_n}__-5dB.wav"


def test_build_manifest_deterministic(manifest_dirs):
    clean_dir, noise_dir = manifest_dirs
    a = build_test_manifest(clean_dir, noise_dir, 2, [0.0], seed=7)
    b = build_test_manifest(clean_dir, noise_dir, 2, [0.0], seed=7)
    assert a.entries == b.entries
    c = build_test_manifest(clean_dir, noise_dir, 2, [0.0], seed=8)
    assert a.entries != c.entries


def test_build_manifest_errors(manifest_dirs, tmp_path):
    clean_dir, noise_dir = manifest_dirs
    with pytest.raises(ValueError, match="empty grid"):
        build_test_manifest(clean_dir, noise_dir, 1, [])
    with pytest.raises(ValueError, match="exceeds"):
        build_test_manifest(clean_dir, noise_dir, 9, [0.0])
    with pytest.raises(ValueError, match="^per_noise_count must be at least 1$"):
        build_test_manifest(clean_dir, noise_dir, 0, [0.0])
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no .wav files"):
        build_test_manifest(empty, noise_dir, 1, [0.0])
    short_dir = tmp_path / "short"
    short_dir.mkdir()
    save_wav(np.full(100, 0.1), short_dir / "tiny.wav")
    with pytest.raises(ValueError, match="shorter than"):
        build_test_manifest(clean_dir, short_dir, 1, [0.0])
    save_wav(np.zeros(0), clean_dir / "c3.wav")
    with pytest.raises(ValueError, match="c3.wav: empty recording"):
        build_test_manifest(clean_dir, noise_dir, 4, [0.0])


def test_manifest_file_round_trip(tmp_path, manifest_dirs):
    clean_dir, noise_dir = manifest_dirs
    man = build_test_manifest(clean_dir, noise_dir, 2, [0.0, 5.0], seed=3)
    p = tmp_path / "man.tsv"
    save_manifest(man, p)
    back = load_manifest(p)
    assert back.entries == man.entries


# any text a TSV field can hold: no tab, no line break, no surrogate
tsv_fields = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                     min_size=1, max_size=12)
# an output field names one file in the output directory
file_names = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                                   blacklist_characters="/"),
                     min_size=1, max_size=12).filter(lambda s: s not in (".", ".."))


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("manifest")


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(st.builds(MixSpec, tsv_fields, tsv_fields,
                                  st.floats(allow_nan=False, allow_infinity=False),
                                  st.integers(0, 2**62), file_names), max_size=8))
@example(entries=[MixSpec("c.wav", "n.wav", snr, 0, f"{i}.wav")
                  for i, snr in enumerate([0.1234567, 5.0, 5.0000001, -7.5, 1e-7])])
def test_manifest_file_round_trips_exactly(scratch_dir, entries):
    save_manifest(Manifest(entries), scratch_dir / "manifest.tsv")
    back = load_manifest(scratch_dir / "manifest.tsv").entries
    assert back == entries
    assert [np.float64(e.snr_db).tobytes() for e in back] == [
        np.float64(e.snr_db).tobytes() for e in entries]


def test_manifest_snr_text_keeps_the_short_form(tmp_path):
    # an SNR whose :g text reads back exactly keeps it, so the manifests
    # of every grid :g could write keep their bytes; others get the repr
    snrs = (-5.0, 0.0, 2.5, 10.0, 1e-7, 0.1234567, 5.0000001)
    save_manifest(Manifest([MixSpec("c.wav", "n.wav", snr, 0, "o.wav") for snr in snrs]),
                  tmp_path / "manifest.tsv")
    text = (tmp_path / "manifest.tsv").read_text().splitlines()
    assert [line.split("\t")[2] for line in text] == [
        "-5", "0", "2.5", "10", "1e-07", "0.1234567", "5.0000001"]


def test_manifest_load_errors(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\tb\t0\n")
    with pytest.raises(ValueError, match="line 1: expected 5 fields"):
        load_manifest(p)
    p.write_text("a\tb\tnot-a-number\t0\tout.wav\n")
    with pytest.raises(ValueError, match="line 1"):
        load_manifest(p)
    for snr in ("inf", "-inf", "nan", "1e400"):
        p.write_text(f"a\tb\t5\t0\tok.wav\na\tb\t{snr}\t0\tout.wav\n")
        with pytest.raises(ValueError, match="line 2: SNR must be finite"):
            load_manifest(p)


def test_manifest_output_must_be_a_file_name(tmp_path):
    # any other output would be written outside the output directory, or
    # over one of the inputs
    p = tmp_path / "bad.tsv"
    for out in ("../escaped.wav", "/tmp/abs.wav", "sub/x.wav", "", ".", ".."):
        p.write_text(f"a\tb\t5\t0\tok.wav\na\tb\t5\t0\t{out}\n")
        with pytest.raises(ValueError, match="line 2: output must be a bare file name"):
            load_manifest(p)
    p.write_text("a\tb\t5\t0\t./ok.wav\n")
    assert load_manifest(p).entries[0].output_path == "./ok.wav"


def test_manifest_blank_lines_skipped(tmp_path):
    p = tmp_path / "man.tsv"
    p.write_text("a.wav\tb.wav\t5\t10\tout.wav\n\n")
    man = load_manifest(p)
    assert len(man) == 1
    assert man.entries[0] == MixSpec("a.wav", "b.wav", 5.0, 10, "out.wav")


def test_run_mix_entry_writes_mixture(tmp_path, manifest_dirs):
    clean_dir, noise_dir = manifest_dirs
    entry = MixSpec(
        str(clean_dir / "c0.wav"), str(noise_dir / "na.wav"), 5.0, 321, "out.wav"
    )
    out = run_mix_entry(entry, tmp_path)
    assert out == tmp_path / "out.wav"
    got = load_wav(out)
    want = mix_at_snr(load_wav(entry.clean_path), load_wav(entry.noise_path), 5.0, 321)
    np.testing.assert_array_equal(got.samples, quantize(want.noisy.samples))


def test_save_empty_manifest(tmp_path):
    p = tmp_path / "empty.tsv"
    save_manifest(Manifest(), p)
    assert p.read_text() == ""
    assert len(load_manifest(p)) == 0
