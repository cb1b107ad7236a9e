"""Command-line pipeline: stats, train, enhance, mix, wer.

Exit codes: 0 success, 1 usage error, 2 data or format error,
3 numerical failure.  Every command validates its inputs before it
creates any output file, and mix and train remove what they wrote on a
later failure, so a failed invocation leaves nothing behind.  A config
file of key=value lines can preset any long option, a required one too:
a key is the option's name without the dashes (in, out-dir or out_dir),
a flag takes true or false, an option with choices one of them.  The
file stands for --option=value tokens placed right after the command,
so explicit flags, which come later, win.  main builds its parsers once
per process, and no call writes to them.
"""

from __future__ import annotations

import argparse
import functools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import corpus, dd, features, rnn, snr
from .dsp import istft, stft
from .gain import GainRule
# the package re-exports the train() function under the submodule's name,
# so pull what the commands need straight from the submodule
from .train import TrainConfig, infer_xi, train as run_training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_GAIN_NAMES = {r.value: r for r in GainRule}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the pipeline reserves 2 for data
    # errors, so route parse failures through the usage path instead.
    def error(self, message):
        raise UsageError(message)


def _read_config(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file is not UTF-8: {path}: {exc.reason}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


@contextmanager
def _removed_on_failure(out_dir: Path | None = None):
    """Make out_dir, if given, and yield a list for each file the command has
    written; if the command fails, remove those and the directories made
    before the error propagates, so a failed run leaves nothing behind."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()] if out_dir else []
    written: list[Path] = []
    try:
        if out_dir:
            out_dir.mkdir(parents=True, exist_ok=True)
        yield written
    except BaseException:
        for path in written + made:  # files, then directories deepest first
            with suppress(OSError):
                (path.rmdir if path in made else path.unlink)()
        raise


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _require_dir(path, what: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise FileNotFoundError(f"{what} directory not found: {p}")
    return p


def _require_counts(*flags) -> None:
    for flag, value in flags:
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")


def _snr_range(args) -> range:
    """The --snr-min/--snr-max/--snr-step range of train and stats."""
    _require_counts(("--snr-step", args.snr_step))
    if args.snr_max < args.snr_min:
        raise UsageError(f"--snr-max {args.snr_max} is below --snr-min {args.snr_min}")
    return range(args.snr_min, args.snr_max + 1, args.snr_step)


def _snr_grid(text: str):
    try:
        grid = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad SNR grid {text!r}: {exc}") from exc
    if not grid:
        raise UsageError("empty grid")
    if not np.all(np.isfinite(grid)):
        raise UsageError(f"SNR grid values must be finite, got {text!r}")
    return grid


def cmd_stats(args) -> int:
    grid = _snr_range(args)
    _require_dir(Path(args.out).parent, "output")
    clean_dir = _require_dir(args.clean, "clean")
    noise_dir = _require_dir(args.noise, "noise")
    stats = snr.estimate_stats(corpus.wav_files(clean_dir), corpus.wav_files(noise_dir),
                               grid, seed=args.seed)
    snr.save_stats(stats, args.out)
    print(f"stats: {stats.n_bins} bins from {stats.n_frames} frames -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch, learn_rate=args.lr,
                          grad_clip_norm=args.clip, snrs=_snr_range(args),
                          seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _require_counts(("--cell", args.cell), ("--blocks", args.blocks))
    _require_dir(Path(args.out).parent, "output")
    if args.loss_csv:
        _require_dir(Path(args.loss_csv).parent, "loss CSV")
    clean_dir = _require_dir(args.clean, "clean")
    noise_dir = _require_dir(args.noise, "noise")
    stats = snr.load_stats(_require_file(args.stats, "stats file"))
    clean = corpus.wav_files(clean_dir)
    noise = corpus.wav_files(noise_dir)
    # float64 init draws, narrowed: the network trains in float32, as the model file holds it
    params = rnn.init_network(seed=args.seed, cell_size=args.cell, n_blocks=args.blocks,
                              bidirectional=args.bidirectional).astype(np.float32)
    params, history = run_training(params, clean, noise, stats, cfg)
    with _removed_on_failure() as written:
        rnn.save_network(params, args.out)
        written.append(Path(args.out))
        if args.loss_csv:
            lines = ["batch,loss"] + [f"{i},{v:.17g}" for i, v in enumerate(history)]
            Path(args.loss_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"train: {len(history)} batches, final loss {history[-1]:.6f} -> {args.out}")
    return EXIT_OK


def _oracle_xi(args, n: int):
    """oracle_xi of the --clean and --noise references of an n-sample input;
    each reference waveform is dropped once its magnitude is taken."""
    paths = (_require_file(args.clean, "clean reference"),
             _require_file(args.noise, "noise reference"))
    magnitudes = []
    for path in paths:
        reference = corpus.load_wav(path)
        if len(reference) != n:
            raise ValueError(f"oracle reference {path}: {len(reference)} samples, "
                             f"but the input has {n}")
        magnitudes.append(stft(reference).magnitude)
        del reference
    return snr.oracle_xi(*magnitudes)


def cmd_enhance(args) -> int:
    rule = _GAIN_NAMES[args.gain]
    in_path = _require_file(args.infile, "input")
    _require_dir(Path(args.out).parent, "output")
    if args.estimator == "neural" and (not args.model or not args.stats):
        raise UsageError("estimator neural requires --model and --stats")
    if args.estimator == "oracle" and (not args.clean or not args.noise):
        raise UsageError("estimator oracle requires --clean and --noise references")
    noisy = corpus.load_wav(in_path)
    n = len(noisy)
    spec = stft(noisy)
    del noisy  # the spectrogram is all that is read from here on

    if args.unity_gain:
        out = istft(spec, n)
    else:
        xi = None
        if args.estimator == "neural":
            params = rnn.load_network(_require_file(args.model, "model file"), np.float32)
            stats = snr.load_stats(_require_file(args.stats, "stats file"))
            xi = infer_xi(params, spec, stats)
        elif args.estimator == "oracle":
            xi = _oracle_xi(args, n)
        out = dd.enhance(spec, rule, xi, out_len=n)
    corpus.save_wav(out, args.out)
    print(f"enhance[{args.estimator}/{args.gain}]: {in_path} -> {args.out}")
    return EXIT_OK


def cmd_mix(args) -> int:
    _require_counts(("--jobs", args.jobs))
    out_dir = Path(args.out_dir)
    if args.manifest:
        manifest = corpus.load_manifest(_require_file(args.manifest, "manifest"))
        if not manifest.entries:
            raise ValueError(f"manifest {args.manifest} has no entries")
        length = functools.cache(corpus.wav_length)  # each distinct file read once
        for e in manifest.entries:
            clean = _require_file(e.clean_path, "clean file")
            noise = _require_file(e.noise_path, "noise file")
            corpus.check_section(noise.name, length(noise),
                                 clean.name, length(clean), e.noise_offset)
    else:
        if args.clean is None or args.noise is None:
            raise UsageError("mix needs either --manifest or --clean/--noise dirs")
        _require_counts(("--per-noise", args.per_noise))
        grid = _snr_grid(args.snr_grid)
        if args.manifest_out:
            _require_dir(Path(args.manifest_out).parent, "manifest output")
        manifest = corpus.build_test_manifest(
            _require_dir(args.clean, "clean"),
            _require_dir(args.noise, "noise"),
            args.per_noise,
            grid,
            seed=args.seed,
        )
    first = {}
    for i, e in enumerate(manifest.entries, 1):
        if (j := first.setdefault(Path(e.output_path), i)) != i:
            raise ValueError(f"manifest entries {j} and {i} both write {e.output_path}")
    with _removed_on_failure(out_dir) as written:
        if not args.manifest:
            path = Path(args.manifest_out or out_dir / "manifest.tsv")
            corpus.save_manifest(manifest, path)
            written.append(path)

        # once an entry fails, the entries not yet started are skipped;
        # map still raises the error of the first failing one in order
        failed = threading.Event()
        # each worker keeps the last clean recording it read, so a run of
        # entries naming one file reads it once per worker
        last = threading.local()

        def mix(e):
            if failed.is_set():
                return
            try:
                if getattr(last, "path", None) != e.clean_path:
                    last.path, last.clean = e.clean_path, corpus.load_wav(e.clean_path)
                written.append(corpus.run_mix_entry(e, out_dir, last.clean))
            except BaseException:
                failed.set()
                raise

        # --jobs 1 mixes on this thread: a pool worker gets its own malloc arena
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            list((pool.map if args.jobs > 1 else map)(mix, manifest.entries))
    print(f"mix: {len(manifest.entries)} mixtures -> {out_dir}")
    return EXIT_OK


def cmd_wer(args) -> int:
    _require_dir(Path(args.out).parent, "output")
    manifest = corpus.load_manifest(_require_file(args.manifest, "manifest"))
    if not manifest.entries:
        raise ValueError(f"manifest {args.manifest} has no entries")
    scores = features.score_manifest(
        manifest.entries,
        _require_dir(args.ref, "reference"),
        _require_dir(args.hyp, "hypothesis"),
    )
    features.write_score_csv(scores, args.out)
    for s in scores:
        print(f"{s.noise} @ {corpus._fmt_snr(s.snr_db)} dB: n={s.n} wer={s.wer_percent:.2f}%")
    print(f"wer: {len(scores)} conditions -> {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sefront", description=__doc__)
    parser.add_argument("--config", help="key=value file presetting long options")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("stats", help="estimate xi_dB map statistics")
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snr-min", type=int, default=-10)
    p.add_argument("--snr-max", type=int, default=20)
    p.add_argument("--snr-step", type=int, default=5)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train the spectral target network")
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-csv")
    p.add_argument("--cell", type=int, default=64)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--clip", type=float, default=5.0)
    p.add_argument("--snr-min", type=int, default=-10)
    p.add_argument("--snr-max", type=int, default=20)
    p.add_argument("--snr-step", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance one noisy recording")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--estimator", choices=("neural", "dd", "oracle"), default="dd")
    p.add_argument("--gain", choices=sorted(_GAIN_NAMES), default="srwf")
    p.add_argument("--model")
    p.add_argument("--stats")
    p.add_argument("--clean", help="clean reference (oracle estimator)")
    p.add_argument("--noise", help="noise reference (oracle estimator)")
    p.add_argument("--unity-gain", action="store_true",
                   help="debug: analysis/synthesis round trip with no gain")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("mix", help="build and run a mixing manifest")
    p.add_argument("--manifest", help="replay an existing manifest")
    p.add_argument("--clean")
    p.add_argument("--noise")
    p.add_argument("--per-noise", type=int, default=25)
    p.add_argument("--snr-grid", default="-5,0,5,10,15")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="noisy")
    p.add_argument("--manifest-out")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("wer", help="score transcripts over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wer)
    return parser


@functools.cache
def _parsers() -> tuple[_Parser, _Parser]:
    """The full parser, and a head parser that takes the config file off
    argv and keeps the rest from the command on; built once, never changed."""
    head = _Parser(add_help=False)
    head.add_argument("--config")
    head.add_argument("rest", nargs=argparse.REMAINDER)
    return build_parser(), head


def _config_tokens(sub_parser: _Parser, command: str, config: dict[str, str]) -> list[str]:
    """The option tokens a config file stands for on the command's line."""
    options = {s[2:].replace("-", "_"): (s, a) for a in sub_parser._actions
               for s in a.option_strings if s.startswith("--") and a.dest != "help"}
    tokens = []
    for key, value in config.items():
        if key not in options:
            raise UsageError(f"config key {key!r} unknown for {command}")
        flag, action = options[key]
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() not in ("true", "false"):
                raise UsageError(f"config key {key!r} takes true or false, got {value!r}")
            if value.lower() == "true":
                tokens.append(flag)
        elif action.choices is not None and value not in action.choices:
            raise UsageError(f"config key {key!r} takes one of "
                             f"{', '.join(action.choices)}, got {value!r}")
        else:
            # one token with =, so that a value such as -5 is not read as a flag
            tokens.append(f"{flag}={value}")
    return tokens


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed, a config file's presets standing as the command's first
    options.  With no known command no token goes in, and the full parser
    reports what is wrong, or main that the command is missing."""
    parser, head = _parsers()
    split, _ = head.parse_known_args(argv)
    if split.config is not None:
        config = _read_config(Path(split.config))
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        command = split.rest[0] if split.rest else None
        if command in commands:
            # no subcommand takes positionals, so its options can start here
            at = len(argv) - len(split.rest) + 1
            argv = [*argv[:at], *_config_tokens(commands[command], command, config),
                    *argv[at:]]
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        if args.command is None:
            raise UsageError("missing command (stats, train, enhance, mix, wer)")
        if getattr(args, "seed", 0) < 0:  # the seed of stats, train or mix
            raise UsageError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # WavFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:  # FloatingPointError, OverflowError, ZeroDivisionError
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
