"""The CLI under malformed files and flags.

Each example copies a small valid workspace, corrupts one file that a
subcommand reads, or one of its flags, or presets options from a config
file of drawn lines, and runs the subcommand in the copy.  Whatever the
input, the run must exit 0-3 with no traceback, a failure must be one
line on stderr, and a failed run must leave the copy's files and
directories as it found them.
"""

import contextlib
import io
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import SR, tone_bursts, white_noise
from sefront.cli import main
from sefront.corpus import load_manifest, save_wav
from sefront.features import transcript_name
from sefront.rnn import init_network, save_network
from sefront.snr import XiStats, save_stats

# subcommand -> (argv in the workspace, the files it reads, directories
# standing for the files in them)
COMMANDS = {
    "stats": (["stats", "--clean", "clean", "--noise", "noise", "--out", "out/stats.txt",
               "--snr-min", "0", "--snr-max", "10", "--snr-step", "5"],
              ["clean/c0.wav", "clean/c2.wav", "noise/n0.wav"]),
    "train": (["train", "--clean", "clean", "--noise", "noise", "--stats", "stats.txt",
               "--out", "out/net.bin", "--loss-csv", "out/loss.csv", "--epochs", "1",
               "--batch", "2", "--cell", "4", "--blocks", "1"],
              ["clean/c1.wav", "noise/n0.wav", "stats.txt"]),
    "enhance-dd": (["enhance", "--in", "noisy.wav", "--out", "out/e.wav",
                    "--gain", "mmse-stsa"],
                   ["noisy.wav"]),
    "enhance-oracle": (["enhance", "--in", "noisy.wav", "--out", "out/e.wav",
                        "--estimator", "oracle", "--clean", "ref_clean.wav",
                        "--noise", "ref_noise.wav"],
                       ["noisy.wav", "ref_clean.wav", "ref_noise.wav"]),
    "enhance-neural": (["enhance", "--in", "noisy.wav", "--out", "out/e.wav",
                        "--estimator", "neural", "--model", "net.bin",
                        "--stats", "stats.txt"],
                       ["noisy.wav", "net.bin", "stats.txt"]),
    "mix": (["mix", "--clean", "clean", "--noise", "noise", "--per-noise", "1",
             "--snr-grid", "0,5", "--out-dir", "out/mix"],
            ["clean/c0.wav", "noise/n0.wav"]),
    "mix-replay": (["mix", "--manifest", "mixed/manifest.tsv", "--out-dir", "out/replay"],
                   ["mixed/manifest.tsv", "clean/c1.wav", "noise/n0.wav"]),
    "wer": (["wer", "--manifest", "mixed/manifest.tsv", "--ref", "ref", "--hyp", "hyp",
             "--out", "out/scores.csv"],
            ["mixed/manifest.tsv", "ref", "hyp"]),
}

# numbers at the edges of float64 and of the SNR range: 10 ** (-snr / 10)
# underflows to 0 above about 3233 dB and overflows below about -3083 dB
EDGE_NUMBERS = ["4000", "-4000", "1e308", "-1e308", "5e-324", "-0.0"]
# 4000 is left out of the flag tokens: as --cell it asks for two 512 MB
# weight matrices, and as --epochs or --blocks for a run past the deadline
TOKENS = ["", "0", "-1", "2", "1e400", "nan", "-inf", "x", "wiener", "true", "FALSE",
          "0,nan", "out/o.wav", "noisy.wav", "clean", "--gain", "--bogus", "-q", "\t",
          *(n for n in EDGE_NUMBERS if n != "4000")]
KEYS = ["in", "infile", "out", "out-dir", "out_dir", "gain", "estimator", "unity-gain",
        "unity_gain", "epochs", "batch", "cell", "per-noise", "snr-grid", "seed",
        "manifest", "stats", "model", "bogus", ""]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A valid input for every subcommand, with relative paths inside it."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(11)
    for d in ("clean", "noise", "out", "ref", "hyp"):
        (root / d).mkdir()
    for i in range(3):
        save_wav(tone_bursts(rng, SR // 2), root / "clean" / f"c{i}.wav")
    save_wav(white_noise(rng, 2 * SR), root / "noise" / "n0.wav")
    clean, noise = tone_bursts(rng, SR // 2), white_noise(rng, SR // 2, rms=0.05)
    save_wav(clean, root / "ref_clean.wav")
    save_wav(noise, root / "ref_noise.wav")
    save_wav(clean + noise, root / "noisy.wav")
    save_stats(XiStats(np.zeros(257), np.full(257, 10.0)), root / "stats.txt")
    save_network(init_network(cell_size=4, n_blocks=1), root / "net.bin")
    with _inside(root):
        assert main(["mix", "--clean", "clean", "--noise", "noise", "--per-noise", "1",
                     "--snr-grid", "0", "--out-dir", "mixed"]) == 0
    for e in load_manifest(root / "mixed" / "manifest.tsv").entries:
        (root / "ref" / transcript_name(e.output_path)).write_text("alpha beta\n")
        (root / "hyp" / transcript_name(e.output_path)).write_text("alpha\n")
    return root


@contextlib.contextmanager
def _inside(directory):
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(cwd)


def _tree(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")}


@st.composite
def corruptions(draw, path: str, data: bytes) -> tuple:
    """An edit of a file: emptied, cut, overwritten in place, extended, or
    replaced, or for a manifest one line's SNR field set to an edge number;
    small enough to print."""
    size = len(data)
    kinds = ["empty", "cut", "overwrite", "append", "replace"]
    if path.endswith("manifest.tsv"):
        kinds.append("snr")
    kind = draw(st.sampled_from(kinds))
    if kind == "snr":
        line = draw(st.integers(0, data.count(b"\n") - 1))
        return kind, line, draw(st.sampled_from(EDGE_NUMBERS))
    junk = draw(st.binary(min_size=1, max_size=48))
    if kind == "cut":
        return kind, draw(st.integers(0, max(size - 1, 0)))
    if kind == "overwrite":
        return kind, draw(st.integers(0, max(size - 1, 0))), junk
    return (kind,) if kind == "empty" else (kind, junk)


def corrupted(data: bytes, edit: tuple) -> bytes:
    kind, *args = edit
    if kind == "snr":
        at, snr = args
        lines = data.decode().split("\n")
        fields = lines[at].split("\t")
        fields[2] = snr
        lines[at] = "\t".join(fields)
        return "\n".join(lines).encode()
    if kind == "cut":
        return data[: args[0]]
    if kind == "overwrite":
        at, junk = args
        return data[:at] + junk + data[at + len(junk):]
    if kind == "append":
        return data + args[0]
    return args[0] if kind == "replace" else b""


@st.composite
def fuzz_cases(draw, originals: dict):
    """(argv, {relative path: edit or config text}) for one run; originals
    holds the bytes of every file a command reads."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv, reads = COMMANDS[name]
    argv = list(argv)
    files = {}
    how = draw(st.sampled_from(["file", "flag", "config"]))
    if how == "file":
        path = draw(st.sampled_from(sorted(
            p for p in originals if any(p == r or p.startswith(r + "/") for r in reads))))
        files[path] = draw(corruptions(path, originals[path]))
    elif how == "flag":
        at = draw(st.integers(1, len(argv) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "insert"]))
        token = draw(st.sampled_from(TOKENS))
        if edit == "replace":
            argv[at] = token
        elif edit == "drop":
            del argv[at]
        else:
            argv.insert(at, token)
    else:
        lines = draw(st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(TOKENS)),
                              max_size=3))
        files["run.cfg"] = "".join(f"{k}={v}\n" for k, v in lines)
        argv = ["--config", "run.cfg", *argv]
    return argv, files


def test_cli_fuzz_exits_cleanly_and_leaves_nothing_on_failure(workspace, tmp_path_factory):
    originals = {str(p.relative_to(workspace)): p.read_bytes()
                 for p in workspace.rglob("*") if p.is_file()}
    runs = tmp_path_factory.mktemp("fuzz_runs")

    @settings(max_examples=100, deadline=5000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzz_cases(originals))
    # a clean recording whose data chunk outruns its RIFF chunk
    @example((list(COMMANDS["stats"][0]), {"clean/c0.wav": ("overwrite", 40, b"\x84")}))
    @example((list(COMMANDS["mix"][0]), {"clean/c0.wav": ("overwrite", 40, b"\x84")}))
    # a finite float32 weight of 2**63 in fc.w, which overflows the layer norm
    @example((list(COMMANDS["enhance-neural"][0]),
              {"net.bin": ("overwrite", 487, b"\x00\x00\x00\x5f")}))
    def run_case(case):
        argv, files = case
        work = runs / "w"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(workspace, work)
        for path, edit in files.items():
            if isinstance(edit, str):
                (work / path).write_text(edit)
            else:
                (work / path).write_bytes(corrupted(originals[path], edit))
        before = _tree(work)
        out, err = io.StringIO(), io.StringIO()
        with _inside(work), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit, as for --help
                code = exc.code
        message = err.getvalue()
        assert code in (0, 1, 2, 3), (argv, code, message)
        assert "Traceback" not in message
        if code != 0:
            assert message.count("\n") == 1 and message.endswith("\n"), (argv, message)
            assert _tree(work) == before, (argv, message)

    run_case()
