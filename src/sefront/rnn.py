"""Residual recurrent network mapping magnitude spectra to bounded targets.

Architecture: a dense input layer with layer normalisation and ReLU
(the only normalisation in the network), a stack of residual LSTM
blocks, and a sigmoid dense output layer.  Each block adds its cell
output to the block input; bidirectional blocks add both directions.
The backward pass is full backpropagation through time, written against
the same caches the forward pass produces, so finite differences can
check every parameter.

A batch is a list of (frames, bins) sequences of unequal length.  It
runs packed, time-major: sequences are ordered by length, longest first,
and step t holds only the sequences still active at frame t, which are a
prefix of that order.  Every layer computes on the frames that exist and
nothing else.  The backward direction of a bidirectional block walks the
same steps in reverse, each sequence starting from zero state at its last
frame.  Each cell projects all its frames, x @ w_x + b, in one product
before its step loop.  forward() runs one sequence unpacked, a row per
step, with no cache (_lstm_rows): a bidirectional block runs its
backward cell over the frames reversed, after its forward cell, which
gives the bits of the packed path (_lstm_run).  Both paths share the
dense, layer-norm and output layers and the one gate step, _gate_step.

The network is a NetworkParams, the ordered mapping of its named
tensors (params["block0.fwd.w_x"] and so on) in the one layout
_tensor_shapes states; gradients, Adam and the model file share those
names.  Everything is float64 in memory; the file format stores
little-endian float32 tensors after a short text header.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import expit

LN_EPS = 1e-6
FORGET_BIAS = 1.0
_GATES = 4  # order: input, forget, candidate, output
_MODEL_MAGIC = "sefront-net-v1"


class NetworkParams(dict):
    """The network's named tensors, in the order _tensor_shapes gives."""

    @property
    def n_blocks(self) -> int:
        return sum(name.endswith(".fwd.b") for name in self)

    @property
    def bidirectional(self) -> bool:
        return "block0.bwd.b" in self

    @property
    def input_dim(self) -> int:
        return self["fc.w"].shape[0]

    @property
    def output_dim(self) -> int:
        return self["out.w"].shape[1]

    @property
    def cell_size(self) -> int:
        return self["fc.w"].shape[1]

    @property
    def mode(self) -> str:
        return "BI" if self.bidirectional else "UNI"

    def tensors(self) -> dict[str, np.ndarray]:
        """Named parameter tensors in a fixed serialisation order."""
        return self


def _tensor_shapes(bidirectional: bool, n_blocks: int, cell: int,
                   input_dim: int, output_dim: int) -> dict[str, tuple[int, ...]]:
    """Shape of every named tensor of the layout, in serialisation order."""
    shapes = {"fc.w": (input_dim, cell), "fc.b": (cell,),
              "ln.gain": (cell,), "ln.offset": (cell,)}
    for i in range(n_blocks):
        for direction in ("fwd", "bwd") if bidirectional else ("fwd",):
            shapes[f"block{i}.{direction}.w_x"] = (cell, _GATES * cell)
            shapes[f"block{i}.{direction}.w_h"] = (cell, _GATES * cell)
            shapes[f"block{i}.{direction}.b"] = (_GATES * cell,)
    shapes["out.w"] = (cell, output_dim)
    shapes["out.b"] = (output_dim,)
    return shapes


def _cell(params: NetworkParams, i: int, direction: str):
    """(w_x, w_h, b) of the direction's cell in block i."""
    return tuple(params[f"block{i}.{direction}.{k}"] for k in ("w_x", "w_h", "b"))


def init_network(
    seed: int = 0,
    input_dim: int = 257,
    output_dim: int = 257,
    cell_size: int = 64,
    n_blocks: int = 2,
    bidirectional: bool = False,
) -> NetworkParams:
    """Glorot-uniform weights drawn in serialisation order (an LSTM weight's
    fan-out is one gate's width), zero biases except the +1 forget gate."""
    if input_dim < 1 or output_dim < 1 or cell_size < 1 or n_blocks < 1:
        raise ValueError("network dimensions must be positive")
    rng = np.random.default_rng(seed)
    tensors = {}
    layout = _tensor_shapes(bidirectional, n_blocks, cell_size, input_dim, output_dim)
    for name, shape in layout.items():
        kind = name.rsplit(".", 1)[1]
        if kind.startswith("w"):
            fan_out = shape[1] if kind == "w" else cell_size
            limit = np.sqrt(6.0 / (shape[0] + fan_out))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
        else:
            tensors[name] = np.ones(shape) if kind == "gain" else np.zeros(shape)
            if name.startswith("block"):
                tensors[name][cell_size : 2 * cell_size] = FORGET_BIAS
    return NetworkParams(tensors)


def _pack(lengths: np.ndarray):
    """Packed time-major layout of sequences of these lengths.

    Sequences are ordered by length, longest first (stable), so the ones
    still active at each step are a prefix of that order.  Returns (rows,
    times, steps): packed frame k is frame times[k] of sequence rows[k],
    and steps lists the (start, count) of each step's packed frames.
    """
    order = np.argsort(-lengths, kind="stable")
    times, rank = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])
    counts = np.bincount(times)
    starts = np.cumsum(counts) - counts
    return order[rank], times, list(zip(starts.tolist(), counts.tolist()))


def _walk(steps):
    """(start, count, previous start, carried count) of each step in turn.

    The first carried rows of a step continue the rows of the step before
    it; the rows after them start there, from zero state.
    """
    last, n_last = 0, 0
    for s, n in steps:
        yield s, n, last, min(n, n_last)
        last, n_last = s, n


def _previous(a: np.ndarray, steps) -> np.ndarray:
    """Each packed frame's row at the step before in the walk; 0 where a row starts."""
    out = np.zeros_like(a)
    for s, _, last, m in _walk(steps):
        out[s : s + m] = a[last : last + m]
    return out


def _gate_step(z, c, c_new, tc, h_out) -> None:
    """One LSTM step on pre-activations z (..., 4C), in place: the gates
    into z, the state after c into c_new (may be c), tanh into tc, h into h_out."""
    c_sz = c.shape[-1]
    z_if = z[..., : 2 * c_sz]
    expit(z_if, out=z_if)  # input and forget gates
    g, o = z[..., 2 * c_sz : 3 * c_sz], z[..., 3 * c_sz :]
    np.tanh(g, out=g)
    expit(o, out=o)
    np.multiply(z[..., c_sz : 2 * c_sz], c, out=c_new)
    c_new += np.multiply(z[..., :c_sz], g, out=tc)
    np.multiply(o, np.tanh(c_new, out=tc), out=h_out)


def _lstm_run(w_x, w_h, b, x: np.ndarray, steps):
    """Run one cell over packed frames x (N, D), walking steps, the (start,
    count) of each step's rows in x, in the order given; a step adds h @ w_h
    to the projection made before the walk.  Returns h (N, C) and the cache."""
    c_sz = w_h.shape[0]
    gates = x @ w_x
    gates += b
    cells, tanh_c, hs = (np.empty((len(x), c_sz)) for _ in range(3))
    hw = np.empty((max(n for _, n in steps), _GATES * c_sz))  # h @ w_h
    for s, n, last, m in _walk(steps):
        h, c = hs[last : last + m], cells[last : last + m]
        if m < n:
            zero = np.zeros((n - m, c_sz))
            h, c = np.concatenate((h, zero)), np.concatenate((c, zero))
        z = gates[s : s + n]
        z += np.matmul(h, w_h, out=hw[:n])
        _gate_step(z, c, cells[s : s + n], tanh_c[s : s + n], hs[s : s + n])
    return hs, {"x": x, "steps": steps, "gates": gates, "cells": cells,
                "tanh_c": tanh_c, "hs": hs}


def _lstm_rows(w_x, w_h, b, x: np.ndarray) -> np.ndarray:
    """Run one cell over the rows of x (T, D), one row per step, with no
    cache.  Returns h (T, C), the bits of _lstm_run on one-row steps."""
    c_sz = w_h.shape[0]
    gates = x @ w_x
    gates += b
    hs = np.zeros((len(x) + 1, c_sz))  # row 0: zero state
    c, tc, hw = np.zeros(c_sz), np.empty(c_sz), np.empty(_GATES * c_sz)
    for z, h, h_out in zip(gates, hs, hs[1:]):
        z += np.matmul(h, w_h, out=hw)
        _gate_step(z, c, c, tc, h_out)
    return hs[1:]


def _lstm_backprop(w_x, w_h, cache, dh_out: np.ndarray):
    """BPTT for one cell. dh_out is packed (N, C); returns (dx, grads)."""
    steps, gates, tc = cache["steps"], cache["gates"], cache["tanh_c"]
    c_sz = w_h.shape[0]
    i, f, g, o = np.split(gates, _GATES, axis=1)
    # per frame: dh/dc through the output gate, and the local derivative
    # by which dc (input, forget, candidate gates) or dh (output gate)
    # scales into each gate's pre-activation; each is formed in place
    dtc = np.multiply(tc, tc)
    np.subtract(1.0, dtc, out=dtc)
    dtc *= o
    local = np.subtract(1.0, gates)
    local *= gates
    local = local.reshape(-1, _GATES, c_sz)
    local[:, 0] *= g
    local[:, 1] *= _previous(cache["cells"], steps)
    np.multiply(g, g, out=local[:, 2])
    np.subtract(1.0, local[:, 2], out=local[:, 2])
    local[:, 2] *= i
    local[:, 3] *= tc
    dz_all = np.empty_like(gates)
    dz_gates = dz_all.reshape(-1, _GATES, c_sz)
    # rows a step does not write stay zero: they carry nothing back
    dh_next = np.zeros((max(n for _, n in steps), c_sz))
    dc_next = np.zeros_like(dh_next)
    for s, n in reversed(steps):
        e = s + n
        dh = dh_out[s:e] + dh_next[:n]
        dc = dh * dtc[s:e] + dc_next[:n]
        np.multiply(local[s:e, :3], dc[:, None], out=dz_gates[s:e, :3])
        np.multiply(local[s:e, 3], dh, out=dz_gates[s:e, 3])
        np.matmul(dz_all[s:e], w_h.T, out=dh_next[:n])
        np.multiply(dc, f[s:e], out=dc_next[:n])
    grads = {"w_x": cache["x"].T @ dz_all,
             "w_h": _previous(cache["hs"], steps).T @ dz_all,
             "b": dz_all.sum(axis=0)}
    return dz_all @ w_x.T, grads


def _layer_norm(z: np.ndarray, gain, offset):
    mean = z.mean(axis=-1, keepdims=True)
    centered = z - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return gain * xhat + offset, (centered, inv, xhat)


def _layer_norm_backprop(dy, gain, ln_cache):
    centered, inv, xhat = ln_cache
    n = xhat.shape[-1]
    dxhat = dy * gain
    dvar = np.sum(dxhat * centered, axis=-1, keepdims=True) * (-0.5) * inv**3
    dmean = (
        -np.sum(dxhat, axis=-1, keepdims=True) * inv
        + dvar * np.sum(-2.0 * centered, axis=-1, keepdims=True) / n
    )
    dz = dxhat * inv + dvar * 2.0 * centered / n + dmean / n
    return dz, np.sum(dy * xhat, axis=0), np.sum(dy, axis=0)


def _sequences(x) -> list[np.ndarray]:
    """x as a list of float64 sequences; one 2-D array is a single sequence."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        x = [x]
    return [np.asarray(s, dtype=np.float64) for s in x]


def _gather(seqs: list[np.ndarray], where: np.ndarray, width: int) -> np.ndarray:
    """The frames of seqs in packed order, in one new (N, width) array.

    where[j] is the packed row of frame j of the sequences laid end to end.
    """
    out = np.empty((where.size, width))
    start = 0
    for s in seqs:
        out[where[start : start + len(s)]] = s
        start += len(s)
    return out


def _check_input(params: NetworkParams, seqs: list[np.ndarray]) -> None:
    if not seqs:
        raise ValueError("need at least one sequence")
    for s in seqs:
        if s.ndim != 2 or s.shape[1] != params.input_dim:
            raise ValueError(
                f"input: expected (frames x {params.input_dim}), got {s.shape}"
            )
    if any(s.shape[0] < 1 for s in seqs):
        raise ValueError("every sequence needs at least one frame")
    if not all(np.isfinite(s).all() for s in seqs):
        raise ValueError("network input must be finite")


def _input_layer(params: NetworkParams, x: np.ndarray):
    """(activations, pre-ReLU y0, layer-norm cache) of the dense input layer."""
    z0 = x @ params["fc.w"] + params["fc.b"]
    y0, ln_cache = _layer_norm(z0, params["ln.gain"], params["ln.offset"])
    return np.maximum(y0, 0.0), y0, ln_cache


def _output_layer(params: NetworkParams, act: np.ndarray) -> np.ndarray:
    pred = act @ params["out.w"]
    pred += params["out.b"]
    return expit(pred, out=pred)


def _forward(params: NetworkParams, seqs: list[np.ndarray]):
    """Packed outputs (N, K) of every frame of the sequences, and the cache."""
    _check_input(params, seqs)
    lengths = np.array([s.shape[0] for s in seqs], dtype=np.int64)
    rows, times, steps = _pack(lengths)
    index = (np.cumsum(lengths) - lengths)[rows] + times  # packed -> concatenated
    where = np.empty_like(index)
    where[index] = np.arange(index.size)  # concatenated -> packed
    xp = _gather(seqs, where, params.input_dim)
    act, y0, ln_cache = _input_layer(params, xp)

    block_caches = []
    walks = {"fwd": steps, "bwd": steps[::-1]}
    for i in range(params.n_blocks):
        nxt = act.copy()
        caches = {}
        for direction in ("fwd", "bwd") if params.bidirectional else ("fwd",):
            h, caches[direction] = _lstm_run(*_cell(params, i, direction), act,
                                             walks[direction])
            nxt += h
        block_caches.append(caches)
        act = nxt

    cache = {"x": xp, "index": index, "where": where, "ln": ln_cache, "y0": y0,
             "blocks": block_caches, "final_act": act}
    return _output_layer(params, act), cache


def forward(params: NetworkParams, mag) -> np.ndarray:
    """Network output per frame and bin of mag (frames, bins), each value
    strictly inside (0, 1).

    The sequence runs unpacked, one row per step, and keeps no cache.  A
    bidirectional block adds its backward cell's run over the reversed
    frames after its forward cell's, the order _forward adds them in, so
    the bits are those of _forward on the one sequence.
    """
    x = np.ascontiguousarray(mag, dtype=np.float64)
    _check_input(params, [x])
    act = _input_layer(params, x)[0]
    for i in range(params.n_blocks):
        nxt = act + _lstm_rows(*_cell(params, i, "fwd"), act)
        if params.bidirectional:
            nxt += _lstm_rows(*_cell(params, i, "bwd"), act[::-1])[::-1]
        act = nxt
    return _output_layer(params, act)


PRED_CLAMP = 1e-7


def loss_cross_entropy(pred, target) -> float:
    """Mean binary cross-entropy with predictions clamped to [1e-7, 1 - 1e-7].

    The mean of -(t log p + (1 - t) log1p(-p)), evaluated in two scratch
    arrays.  Targets must lie in [0, 1]; NaN is rejected too.
    """
    pred = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if pred.shape != t.shape:
        raise ValueError("prediction and target shapes differ")
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("targets must lie in [0, 1]")
    # the second term first, so the clamped p it consumes can be made
    # again from pred for the first
    second = np.subtract(1.0, t)
    p = np.clip(pred, PRED_CLAMP, 1.0 - PRED_CLAMP)
    np.negative(p, out=p)
    second *= np.log1p(p, out=p)
    first = np.clip(pred, PRED_CLAMP, 1.0 - PRED_CLAMP, out=p)
    np.log(first, out=first)
    first *= t
    first += second
    return float(np.mean(np.negative(first, out=first)))


def backward(params: NetworkParams, x, target):
    """Loss and gradients for every parameter tensor.

    x is a list of (frames_i, bins) sequences and target the matching
    list of (frames_i, output bins) targets; one 2-D array each is a
    single sequence.  Returns (loss, grads) where grads has exactly the
    keys of params.  The loss is the mean cross-entropy over
    every frame of every sequence.  The target count and shapes are
    checked before the forward pass runs.

    Neither x nor target is written to.  The step holds one packed copy
    of the inputs, the predictions and the targets, whose buffer then
    carries the output-layer gradient; each block's forward cache is
    dropped once its backpropagation through time has run.
    """
    seqs, targets = _sequences(x), _sequences(target)
    if len(targets) != len(seqs):
        raise ValueError(f"{len(seqs)} sequences but {len(targets)} targets")
    if any(t.shape != s.shape[:1] + (params.output_dim,) for s, t in zip(seqs, targets)):
        raise ValueError("target shape must match the prediction")
    pred, cache = _forward(params, seqs)
    target = _gather(targets, cache["where"], params.output_dim)
    loss = loss_cross_entropy(pred, target)
    clamped = ~((pred > PRED_CLAMP) & (pred < 1.0 - PRED_CLAMP))
    dlogits = np.subtract(pred, target, out=target)
    dlogits[clamped] = 0.0
    dlogits /= pred.size
    del pred  # nothing below reads it; free it before backpropagation
    grads: dict[str, np.ndarray] = {}

    grads["out.w"] = cache["final_act"].T @ dlogits
    grads["out.b"] = dlogits.sum(axis=0)
    da = dlogits @ params["out.w"].T

    for i in range(params.n_blocks - 1, -1, -1):
        da_next = da.copy()
        block_cache = cache["blocks"].pop()
        for direction in list(block_cache):
            w_x, w_h, _ = _cell(params, i, direction)
            dx, g = _lstm_backprop(w_x, w_h, block_cache.pop(direction), da)
            da_next += dx
            grads.update({f"block{i}.{direction}.{k}": v for k, v in g.items()})
        da = da_next

    dy0 = da * (cache["y0"] > 0.0)
    dz0, dgain, doffset = _layer_norm_backprop(dy0, params["ln.gain"], cache["ln"])
    grads["ln.gain"] = dgain
    grads["ln.offset"] = doffset
    grads["fc.w"] = cache["x"].T @ dz0
    grads["fc.b"] = dz0.sum(axis=0)
    return loss, grads


def save_network(params: NetworkParams, path) -> None:
    """Text header naming every tensor and its shape, then raw float32 data.
    A tensor that is not finite in float32 is a FloatingPointError, and
    nothing is written."""
    with np.errstate(over="ignore"):
        data = {name: np.ascontiguousarray(arr, dtype="<f4") for name, arr in params.items()}
    lines = [
        _MODEL_MAGIC,
        f"mode {params.mode}",
        f"blocks {params.n_blocks}",
        f"cell {params.cell_size}",
        f"input_dim {params.input_dim}",
        f"output_dim {params.output_dim}",
    ]
    for name, arr in data.items():
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"tensor {name} is not finite in float32")
        lines.append("tensor " + name + " " + " ".join(str(d) for d in arr.shape))
    header = ("\n".join(lines) + "\ndata\n").encode("utf-8")
    Path(path).write_bytes(header + b"".join(arr.tobytes() for arr in data.values()))


def load_network(path) -> NetworkParams:
    raw = Path(path).read_bytes()
    marker = b"\ndata\n"
    split = raw.find(marker)
    if split < 0:
        raise ValueError("model file: missing data section")
    head_lines = raw[:split].decode("utf-8").splitlines()
    if not head_lines or head_lines[0] != _MODEL_MAGIC:
        raise ValueError("model file: bad magic")
    fields: dict[str, str] = {}
    shapes: dict[str, tuple[int, ...]] = {}
    for lineno, line in enumerate(head_lines[1:], 2):
        parts = line.split()
        if len(parts) >= 2 and parts[0] == "tensor" and parts[1] not in shapes:
            shapes[parts[1]] = tuple(int(d) for d in parts[2:])
        elif len(parts) == 2 and parts[0] != "tensor":
            fields[parts[0]] = parts[1]
        else:
            raise ValueError(f"model file: malformed header line {lineno}: {line!r}")
    try:
        mode = fields["mode"]
        n_blocks = int(fields["blocks"])
        cell = int(fields["cell"])
        input_dim = int(fields["input_dim"])
        output_dim = int(fields["output_dim"])
    except KeyError as exc:
        raise ValueError(f"model file: missing header field {exc}") from exc
    if mode not in ("UNI", "BI"):
        raise ValueError(f"model file: mode must be UNI or BI, got {mode}")
    if min(n_blocks, cell, input_dim, output_dim) < 1:
        raise ValueError("model file: network dimensions must be positive")
    # check the tensor count first, so a huge block count in a corrupt
    # header fails here instead of building a huge expected layout
    n_expected = 6 + 3 * n_blocks * (2 if mode == "BI" else 1)
    if len(shapes) != n_expected:
        raise ValueError(
            f"model file: {len(shapes)} tensors declared, header implies {n_expected}"
        )
    expected = _tensor_shapes(mode == "BI", n_blocks, cell, input_dim, output_dim)
    if shapes != expected:
        name = min(n for n in expected.keys() | shapes.keys()
                   if expected.get(n) != shapes.get(n))
        raise ValueError(
            f"model file: tensor {name} declared {shapes.get(name, 'missing')}, "
            f"header implies {expected.get(name, 'no such tensor')}"
        )

    data = np.frombuffer(raw[split + len(marker) :], dtype="<f4")
    arrays: dict[str, np.ndarray] = {}
    pos = 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        if pos + n > data.size:
            raise ValueError(f"model file: truncated data for tensor {name}")
        arrays[name] = data[pos : pos + n].astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"model file: tensor {name} is not finite")
        pos += n
    if pos != data.size:
        raise ValueError("model file: trailing data after last tensor")
    return NetworkParams((name, arrays[name]) for name in expected)
