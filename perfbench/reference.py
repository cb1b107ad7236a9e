"""Reference check: fixed inputs, stored output prints.

Every ``--trace 0`` run also runs its workload at smoke size on the inputs
of ``inputs.REFERENCE_SEED``, which no ``--seed`` changes, and compares a
print of each output with the values stored in ``reference.json``: the
log-spectral distance, segmental SNR and RMS envelope of each audio output,
the loss values of a training epoch, and chunk means of the MFCCs and of the
stats file.  A number off by more than ``ATOL + RTOL * |stored|`` fails its
output, and each failed output counts as one failed op.  The tolerance
admits rounding-level changes (reordered sums, SciPy special functions in
place of the program's own) but not a changed gain rule, estimator, network
or update.  The check does not depend on how well the one-epoch models
enhance.

    python3 perfbench/run.py --workload all --write-reference

rewrites the stored values from the program as it is; do that only for a
change that is meant to alter outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PATH = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-5
ATOL = 1e-6


def mismatches(workload: str, prints: dict) -> list[str]:
    """One message per output whose print is missing or off the stored one."""
    want = json.loads(PATH.read_text(encoding="utf-8")).get(workload, {})
    out = [f"{k}: no output" for k in sorted(want.keys() - prints.keys())]
    out += [f"{k}: no stored value" for k in sorted(prints.keys() - want.keys())]
    for k in sorted(prints.keys() & want.keys()):
        got, ref = np.asarray(prints[k], dtype=float), np.asarray(want[k], dtype=float)
        if got.shape != ref.shape or not np.all(np.abs(got - ref) <= ATOL + RTOL * np.abs(ref)):
            out.append(f"{k}: got {prints[k]}, stored {want[k]}")
    return out


def write(workload: str, prints: dict) -> None:
    """Store workload's prints, one output per line, keeping the others."""
    data = json.loads(PATH.read_text(encoding="utf-8")) if PATH.exists() else {}
    data[workload] = prints
    blocks = []
    for name, entries in sorted(data.items()):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items()))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
