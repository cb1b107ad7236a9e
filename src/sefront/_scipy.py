"""The SciPy functions sefront calls, the special functions expit, erf,
erfinv, i0e and i1e, each imported on first use, so that `import sefront`
loads NumPy only.  The first read of one imports its home module and binds
it here; later reads are plain module attributes."""

import importlib

_HOMES = {"expit": "scipy.special", "erf": "scipy.special", "erfinv": "scipy.special",
          "i0e": "scipy.special", "i1e": "scipy.special"}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    func = globals()[name] = getattr(importlib.import_module(_HOMES[name]), name)
    return func
