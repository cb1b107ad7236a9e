"""Per-layer tracing from outside the program.

Each traced function is wrapped once and the wrapper is bound under every
name that refers to the original in any ``sefront.*`` module namespace, so
``cli`` calling its own ``stft``, or ``run_training`` as an alias of
``train.train``, is counted the same as a call through the home module.
A wrapper records a span: its self time is the span's duration minus the
time covered by traced spans it caused.

A function that the program no longer has is reported as absent; its
metrics read 0.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time

# Layer (module) -> traced functions; "Class.method" names patch the class.
TRACED = {
    "cli": ["main"],
    "corpus": [
        "load_wav", "save_wav", "mix_at_snr", "run_mix_entry",
        "build_test_manifest", "load_manifest", "save_manifest",
    ],
    "dsp": ["stft", "istft"],
    "snr": ["oracle_xi", "map_xi", "unmap_xi", "inverse_erf", "estimate_stats", "load_stats"],
    "gain": ["gain_wiener", "gain_srwf", "gain_mmse_stsa", "gain_for"],
    "dd": ["tracked_noise_power", "track_noise", "dd_xi", "enhance_dd"],
    "rnn": ["forward", "backward", "load_network", "save_network"],
    "train": ["train", "infer_xi", "make_example", "clip_gradients", "Adam.step"],
    "features": ["mfcc", "wer", "score_manifest"],
}

NAMES = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]


def sefront_modules():
    """Every imported-or-importable ``sefront`` module, the package included."""
    import sefront

    for info in pkgutil.iter_modules(sefront.__path__):
        if info.name != "__main__":
            importlib.import_module(f"sefront.{info.name}")
    return [m for n, m in sys.modules.items() if n == "sefront" or n.startswith("sefront.")]


class Tracer:
    """Installs span-recording wrappers; totals accumulate while installed."""

    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._targets = self._resolve()

    def _resolve(self):
        targets = []
        for name in NAMES:
            module, _, attr = name.partition(".")
            owner = sys.modules.get(f"sefront.{module}")
            if owner is None:
                try:
                    owner = importlib.import_module(f"sefront.{module}")
                except ImportError:
                    self.absent.append(name)
                    continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            targets.append((name, owner, leaf, fn))
        return targets

    def _wrap(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                calls[name] += 1
                self_s[name] += span - children
                if stack:
                    stack[-1] += span

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self):
        modules = sefront_modules()
        for name, owner, leaf, fn in self._targets:
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._undo.append((owner, leaf, owner.__dict__[leaf]))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
