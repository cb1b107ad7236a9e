"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` and then describes op ``i`` of
an endless, deterministic op sequence.  An op is one call into the program's
public entry points (``sefront.cli.main`` in process, or ``dsp.stft`` and
``features.mfcc``); ``check`` inspects what it wrote, outside the timed
region.  ``reference`` runs a set of ops and returns a print of each output
for the reference check (``reference.py``).  The runner in ``run.py`` does
the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from inputs import SNR_GRID, SR

GAINS = ("wiener", "srwf", "mmse-stsa")
SNR_ARG = "--snr-grid=" + ",".join(str(s) for s in SNR_GRID)
SNR_TOLERANCE_DB = 0.05


@dataclass
class Op:
    """One timed unit of work: ``steps`` run back to back inside the timer."""

    key: str
    audio_s: float
    steps: list
    outputs: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    checked: bool = True  # False for the train reference's enhance calls


def cli_step(*argv):
    def step():
        from sefront import cli

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"sefront {argv[0]} exited with {rc}")

    return step


def digest(paths) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def segmental_snr(clean: np.ndarray, other: np.ndarray, frame: int = 512) -> float:
    """Mean per-frame SNR (dB, clamped to [-10, 35]) over 32 ms frames."""
    n = clean.size // frame * frame
    x = clean[:n].reshape(-1, frame)
    e = (clean[:n] - other[:n]).reshape(-1, frame)
    sig = np.sum(x * x, axis=1)
    keep = sig >= 1e-10
    snr = 10.0 * np.log10(sig[keep] / np.maximum(np.sum(e * e, axis=1)[keep], 1e-300))
    return float(np.mean(np.clip(snr, -10.0, 35.0)))


def log_spectral_distance(clean: np.ndarray, other: np.ndarray, frame: int = 512) -> float:
    """Mean log-spectral distance (dB) of other from clean over speech frames.

    Hann frames with 50% overlap; bins are floored 60 dB below the clean
    peak, and frames whose clean energy is 30 dB below the loudest frame
    are skipped.  Always positive unless other equals clean.
    """
    hop = frame // 2
    n = (clean.size - frame) // hop + 1
    idx = hop * np.arange(n)[:, None] + np.arange(frame)[None, :]
    w = np.hanning(frame)
    x = np.abs(np.fft.rfft(clean[idx] * w, axis=1)) ** 2
    y = np.abs(np.fft.rfft(other[idx] * w, axis=1)) ** 2
    floor = 1e-6 * x.max()
    energy = x.sum(axis=1)
    keep = energy > 1e-3 * energy.max()
    d = 10.0 * np.log10((x[keep] + floor) / (y[keep] + floor))
    return float(np.mean(np.sqrt(np.mean(d * d, axis=1))))


def chunk_means(values, chunks: int = 8) -> list[float]:
    return [float(np.mean(c)) for c in np.array_split(np.ravel(values), chunks)]


def audio_print(clean: np.ndarray, out: np.ndarray, chunks: int = 8) -> list[float]:
    """Log-spectral distance and segmental SNR of out against clean, then
    the RMS of out over ``chunks`` equal spans."""
    rms = [float(np.sqrt(np.mean(c * c))) for c in np.array_split(out, chunks)]
    return [log_spectral_distance(clean, out), segmental_snr(clean, out), *rms]


def enhanced_prints(done) -> tuple[dict, dict]:
    """Prints of (key, item, output path) enhance results, with the mean
    lsd_db and seg_snr_gain_db (output minus noisy input) over them."""
    prints, lsd, gain = {}, [], []
    for key, item, out in done:
        clean = inputs.read_wav(item["clean"])
        p = prints[key] = audio_print(clean, inputs.read_wav(out))
        lsd.append(p[0])
        gain.append(p[1] - segmental_snr(clean, inputs.read_wav(item["noisy"])))
    if not prints:
        return prints, {}
    return prints, {"lsd_db": float(np.mean(lsd)), "seg_snr_gain_db": float(np.mean(gain))}


class Workload:
    name = ""
    # (estimator or model, gain) pairs the op sequence cycles through
    combos: list = []
    # rerun each warm-up op and require byte-identical output
    rerun_check = False

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    @property
    def span(self) -> tuple[float, float]:
        """Shortest and longest utterance, in seconds."""
        return (0.5, 1.0) if self.smoke else (inputs.MIN_UTT_S, inputs.MAX_UTT_S)

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def trace_indices(self) -> list[int]:
        """The fixed op set a traced run measures, so call counts repeat."""
        return list(range(2 * len(self.combos)))

    def check(self, op: Op) -> None:
        """Raise if op's outputs are wrong."""

    def summary(self, runner) -> dict:
        """Figures of the timed ops for the info line, computed after timing."""
        return {}

    def reference(self, run_op) -> tuple[dict, dict]:
        """Run the reference ops after ``setup``; returns a print (list of
        numbers) per output, and figures that include ``lsd_db``."""
        raise NotImplementedError


class _Enhance(Workload):
    rerun_check = True

    def _noisy_set(self, work: Path, rng):
        self.items = inputs.write_noisy_set(work / "set", rng, 3 if self.smoke else 11, *self.span)
        self.out = work / "out"
        self.out.mkdir()

    def _estimator_args(self, combo, item) -> list:
        raise NotImplementedError

    def op(self, i):
        # a cycle runs every combination on one utterance
        combo = self.combos[i % len(self.combos)]
        u = i // len(self.combos) % len(self.items)
        item = self.items[u]
        out = self.out / f"{combo[0]}-{combo[1]}-{u:03d}.wav"
        argv = ["enhance", "--in", item["noisy"], "--out", out, "--gain", combo[1]]
        argv += self._estimator_args(combo, item)
        return Op(f"{combo[0]}/{combo[1]}", item["n"] / SR, [cli_step(*argv)], [out],
                  {"utt": u, "n": item["n"], "frames": -(-item["n"] // 256)})

    def check(self, op):
        got = inputs.wav_frames(op.outputs[0])
        if got != op.meta["n"]:
            raise ValueError(f"{op.key}: output has {got} samples, input {op.meta['n']}")

    def reference(self, run_op):
        """Every (combination, utterance) pair."""
        done = []
        for i in range(len(self.combos) * len(self.items)):
            op = self.op(i)
            if run_op(op) is not None:
                u = op.meta["utt"]
                done.append((f"{op.key}/{u}", self.items[u], op.outputs[0]))
        return enhanced_prints(done)


class EnhanceClassic(_Enhance):
    name = "enhance-classic"
    combos = [(e, g) for e in ("dd", "oracle") for g in GAINS]

    def setup(self, work):
        self._noisy_set(work, np.random.default_rng(self.seed))

    def _estimator_args(self, combo, item):
        if combo[0] == "oracle":
            return ["--estimator", "oracle", "--clean", item["clean"], "--noise", item["noise"]]
        return ["--estimator", "dd"]


class EnhanceNeural(_Enhance):
    name = "enhance-neural"
    combos = [(m, g) for m in ("uni", "bi") for g in GAINS]

    def setup(self, work):
        rng = np.random.default_rng(self.seed)
        # one batch of the CLI's default size: the op cost does not depend
        # on how well the model is trained
        clean, noise = inputs.write_corpus(work / "train", rng, 10, *self.span)
        self.stats = work / "stats.txt"
        cli_step("stats", "--clean", clean, "--noise", noise, "--out", self.stats)()
        self.models = {}
        for mode in ("uni", "bi"):
            self.models[mode] = work / f"{mode}.bin"
            argv = ["train", "--clean", clean, "--noise", noise, "--stats", self.stats,
                    "--out", self.models[mode], "--epochs", 1, "--seed", 0]
            cli_step(*argv, *(["--bidirectional"] if mode == "bi" else []))()
        self._noisy_set(work, rng)

    def _estimator_args(self, combo, item):
        return ["--estimator", "neural", "--model", self.models[combo[0]], "--stats", self.stats]


class Train(Workload):
    name = "train"
    combos = [("uni", "epoch")]
    n_loss_ops = 3

    def setup(self, work):
        rng = np.random.default_rng(self.seed)
        self.n_clean = 10 if self.smoke else 40
        self.clean, self.noise = inputs.write_corpus(work / "corpus", rng, self.n_clean, *self.span)
        self.stats = work / "stats.txt"
        cli_step("stats", "--clean", self.clean, "--noise", self.noise, "--out", self.stats)()
        self.audio_s = sum(inputs.wav_frames(p) for p in sorted(self.clean.glob("*.wav"))) / SR
        self.work = work
        self.out = work / "out"
        self.out.mkdir()

    def trace_indices(self):
        return [1]

    def op(self, i):
        # ops 1..n_loss_ops keep their outputs for train_loss and the reference
        tag = i if i <= self.n_loss_ops else "x"
        model = self.out / f"model{tag}.bin"
        loss = self.out / f"loss{tag}.csv"
        argv = ["train", "--clean", self.clean, "--noise", self.noise, "--stats", self.stats,
                "--out", model, "--loss-csv", loss, "--epochs", 1, "--seed", i]
        return Op("uni/epoch", self.audio_s, [cli_step(*argv)], [model, loss], {"seed": i})

    @staticmethod
    def losses(path: Path) -> list[float]:
        rows = path.read_text(encoding="utf-8").splitlines()
        if not rows or rows[0] != "batch,loss":
            raise ValueError("loss csv: missing header")
        losses = [float(r.split(",")[1]) for r in rows[1:]]
        if not all(math.isfinite(v) and v > 0 for v in losses):
            raise ValueError(f"loss csv: non-finite or non-positive loss {losses}")
        return losses

    def check(self, op):
        losses = self.losses(op.outputs[1])
        want = self.n_clean // 10
        if len(losses) != want:
            raise ValueError(f"loss csv: expected {want} rows, got {len(losses)}")
        op.meta["final_loss"] = losses[-1]
        if op.outputs[0].stat().st_size == 0:
            raise ValueError("empty model file")

    def summary(self, runner):
        """train_loss: mean final-batch loss of ops 1..n_loss_ops."""
        final = []
        for i in range(1, self.n_loss_ops + 1):
            op = self.op(i)
            ok = runner.check(op) if op.outputs[1].exists() else runner.execute(op) is not None
            if ok:
                final.append(op.meta["final_loss"])
        return {"train_loss": float(np.mean(final))} if final else {}

    def reference(self, run_op):
        """The loss values of op 1, and enhancement with its model."""
        op = self.op(1)
        if run_op(op) is None:
            return {}, {}
        model = op.outputs[0]
        items = inputs.write_noisy_set(self.work / "reference", np.random.default_rng([self.seed, 1]),
                                       3, *self.span)
        done = []
        for u, item in enumerate(items):
            out = self.out / f"q{u}.wav"
            step = cli_step("enhance", "--in", item["noisy"], "--out", out, "--estimator", "neural",
                            "--model", model, "--stats", self.stats)
            if run_op(Op("uni/enhance", 0.0, [step], [out], checked=False)) is not None:
                done.append((f"uni/enhance/{u}", item, out))
        prints, figures = enhanced_prints(done)
        prints["loss"] = self.losses(op.outputs[1])
        return prints, figures


class MixScore(Workload):
    name = "mix-score"
    combos = [("eval", "round")]

    def setup(self, work):
        rng = np.random.default_rng(self.seed)
        self.per_noise = 2 if self.smoke else 14
        self.clean, self.noise = inputs.write_corpus(
            work / "corpus", rng, 4 if self.smoke else 20, *self.span, 3.0 if self.smoke else 20.0)
        self.work = work
        eval_dir = work / "eval"
        self._mix_step(eval_dir)()
        self.manifest = (eval_dir / "manifest.tsv").read_bytes()
        self.entries = [ln.split("\t") for ln in self.manifest.decode().splitlines()]
        self.audio_s = sum(inputs.wav_frames(eval_dir / e[4]) for e in self.entries) / SR
        ref_dir, hyp_dir = work / "ref", work / "hyp"
        ref_dir.mkdir()
        hyp_dir.mkdir()
        groups: dict = {}
        for e in self.entries:
            ref, hyp, n_err = inputs.transcript_pair(rng)
            name = Path(e[4]).stem + ".txt"
            (ref_dir / name).write_text(" ".join(ref) + "\n", encoding="utf-8")
            (hyp_dir / name).write_text(" ".join(hyp) + "\n", encoding="utf-8")
            groups.setdefault((Path(e[1]).stem, float(e[2])), []).append(100.0 * n_err / len(ref))
        self.expected_wer = {k: float(np.mean(v)) for k, v in groups.items()}
        self.ref_dir, self.hyp_dir = ref_dir, hyp_dir
        self.signals = {p: inputs.read_wav(Path(p))
                        for p in sorted({e[0] for e in self.entries} | {e[1] for e in self.entries})}
        self.first_round: dict = {}

    def _mix_step(self, out_dir):
        return cli_step("mix", "--clean", self.clean, "--noise", self.noise,
                        "--per-noise", self.per_noise, SNR_ARG, "--seed", self.seed,
                        "--out-dir", out_dir)

    def trace_indices(self):
        return [0]

    def op(self, i):
        from sefront import corpus, dsp, features

        out = self.work / f"round{i % 2}"
        if out.exists():
            shutil.rmtree(out)
        feats = []

        def mfccs():
            for e in self.entries:
                feats.append(features.mfcc(dsp.stft(corpus.load_wav(out / e[4]))))

        steps = [
            self._mix_step(out),
            mfccs,
            cli_step("stats", "--clean", self.clean, "--noise", self.noise,
                     "--out", out / "stats.txt", "--seed", self.seed),
            cli_step("wer", "--manifest", out / "manifest.tsv", "--ref", self.ref_dir,
                     "--hyp", self.hyp_dir, "--out", out / "scores.csv"),
        ]
        mixtures = [out / e[4] for e in self.entries]
        return Op("eval/round", self.audio_s, steps,
                  mixtures + [out / "stats.txt", out / "manifest.tsv"],
                  {"out": out, "feats": feats, "mixtures": mixtures})

    def _components(self, entry, out: Path):
        """(scaled clean, scaled noise, mixture): the mixture fitted as a x + b d."""
        clean_p, noise_p, _, offset, name = entry
        x = self.signals[clean_p]
        d = self.signals[noise_p][int(offset) : int(offset) + x.size]
        y = inputs.read_wav(out / name)
        (a, b), *_ = np.linalg.lstsq(np.stack([x, d], axis=1), y, rcond=None)
        return a * x, b * d, y

    def _check_snr(self, out: Path):
        for entry in self.entries:
            x, d, _ = self._components(entry, out)
            snr, name = entry[2], entry[4]
            got = 10.0 * np.log10(np.sum(x * x) / np.sum(d * d))
            if abs(got - float(snr)) > SNR_TOLERANCE_DB:
                raise ValueError(f"{name}: achieved SNR {got:.3f} dB, target {snr} dB")

    def check(self, op):
        out = op.meta["out"]
        if (out / "manifest.tsv").read_bytes() != self.manifest:
            raise ValueError("manifest differs from the set-up manifest")
        feats = op.meta["feats"]
        if len(feats) != len(self.entries) or not all(np.all(np.isfinite(f)) for f in feats):
            raise ValueError("missing or non-finite MFCCs")
        outputs = {
            "mixtures": digest(op.meta["mixtures"]),
            "stats": digest([out / "stats.txt"]),
            "mfcc": hashlib.blake2b(b"".join(f.tobytes() for f in feats), digest_size=16).hexdigest(),
        }
        if not self.first_round:
            self._check_snr(out)
            self.first_round = outputs
        elif outputs != self.first_round:
            raise ValueError(f"round outputs differ from the first round: {outputs}")
        rows = (out / "scores.csv").read_text(encoding="utf-8").splitlines()[1:]
        got = {(r.split(",")[0], float(r.split(",")[1])): float(r.split(",")[3]) for r in rows}
        if got.keys() != self.expected_wer.keys():
            raise ValueError("scored conditions differ from the manifest's")
        for k, want in self.expected_wer.items():
            if abs(got[k] - want) > 0.005 + 1e-9:
                raise ValueError(f"WER {k}: got {got[k]}, planted {want:.4f}")

    def reference(self, run_op):
        """One round: each mixture, its MFCCs, and the stats file.

        lsd_db here is the mixtures' distance from their clean part, which
        the SNR check already pins down; it guards the mixer, not more.
        """
        op = self.op(0)
        if run_op(op) is None:
            return {}, {}
        out = op.meta["out"]
        prints, lsd = {}, []
        for entry, feats in zip(self.entries, op.meta["feats"]):
            x, _, y = self._components(entry, out)
            stem = Path(entry[4]).stem
            p = prints[f"mix/{stem}"] = audio_print(x, y)
            lsd.append(p[0])
            prints[f"mfcc/{stem}"] = chunk_means(feats)
        rows = (out / "stats.txt").read_text(encoding="utf-8").splitlines()[1:]
        prints["stats"] = chunk_means([float(v) for r in rows for v in r.split()], 16)
        return prints, {"lsd_db": float(np.mean(lsd))}


WORKLOADS = {w.name: w for w in (EnhanceClassic, EnhanceNeural, Train, MixScore)}
