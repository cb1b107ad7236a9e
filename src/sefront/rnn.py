"""Residual recurrent network mapping magnitude spectra to bounded targets.

Architecture: a dense input layer with layer normalisation and ReLU
(the only normalisation in the network), a stack of residual LSTM
blocks, and a sigmoid dense output layer.  Each block adds its cell
output to the block input; bidirectional blocks add both directions.
The backward pass is full backpropagation through time, written against
the same caches the forward pass produces, so finite differences can
check every parameter; it consumes them as it goes, in place where it can.

A batch is a list of (frames, bins) sequences of unequal length.  It
runs packed, time-major: sequences are ordered by length, longest first,
and step t holds only the sequences still active at frame t, which are a
prefix of that order; steps of one count form a run, so B sequences make
at most B runs.  backward takes one PackedBatch: training builds it in
that order once, and backward reads its inputs in place and takes its
targets over for the output-layer gradient, so the batch is held once;
lists are laid into one, and their inputs are laid out again for the
fc.w gradient.  Every layer computes on the frames that exist and
nothing else.  Each cell projects all its frames, x @ w_x + b, in one
product before the one step loop, _lstm_run, which walks the runs; a
bidirectional block's backward cell walks them reversed, each sequence
starting from zero state at its last frame.  _run hands each block's
output and caches to its caller as the block ends: forward() walks one
sequence as one run and drops them before the next block, so its bits
are backward's; backward keeps them for the walk back.

The network is a NetworkParams, the ordered mapping of its named
tensors (params["block0.fwd.w_x"] and so on) in the one layout
_tensor_shapes states; gradients, Adam and the model file share those
names.  The network computes in its params' dtype, every buffer and
forward's input in it, the loss alone summed in float64; the CLI runs
float32.  The file format stores little-endian float32 tensors after a
short text header; load_network builds them in float64 unless asked for
another dtype, and the CLI asks for float32.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import _scipy

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

    @property
    def dtype(self) -> np.dtype:
        return self["fc.w"].dtype

    def astype(self, dtype) -> NetworkParams:
        return NetworkParams((name, arr.astype(dtype)) for name, arr in self.items())

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
    times, runs): packed frame k is frame times[k] of sequence rows[k],
    and runs lists the (start, count, repeat) of each stretch of repeat
    steps of count frames from packed row start; counts strictly decrease.
    """
    order = np.argsort(-lengths, kind="stable")
    times, rank = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])
    counts = np.bincount(times)
    ends = np.flatnonzero(np.diff(counts, append=0))  # each run's last step
    repeats = np.diff(ends, prepend=-1)
    starts = np.cumsum(counts) - counts
    return order[rank], times, list(zip(starts[ends - repeats + 1].tolist(),
                                        counts[ends].tolist(), repeats.tolist()))


class PackedBatch:
    """A training batch laid out once in packed order, for backward.

    x (N, input bins) and target (N, output bins), in dtype (the params'),
    hold every frame of every sequence at its packed row; put(j, x_j,
    target_j) writes the frames of sequence j there, and every sequence
    must be put before backward runs.  backward reads x in place and takes
    target over: it sets target to None, writes the logits' gradient over
    that buffer and drops it, so the caller must keep no other reference
    to it.
    """

    def __init__(self, lengths, input_dim: int, output_dim: int, dtype=np.float64):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.lengths.size == 0:
            raise ValueError("need at least one sequence")
        if self.lengths.min() < 1:
            raise ValueError("every sequence needs at least one frame")
        rows, times, self.runs = _pack(self.lengths)
        self._starts = np.cumsum(self.lengths) - self.lengths
        # where[j]: the packed row of frame j of the sequences laid end to end
        self.where = np.empty_like(times)
        self.where[self._starts[rows] + times] = np.arange(times.size)
        self._missing = set(range(self.lengths.size))
        self.x = np.empty((self.where.size, input_dim), dtype)
        self.target = np.empty((self.where.size, output_dim), dtype)

    def put(self, j: int, x, target) -> None:
        if not 0 <= j < self.lengths.size:
            raise IndexError(f"sequence {j} of a batch of {self.lengths.size}")
        rows = self.where[self._starts[j] : self._starts[j] + self.lengths[j]]
        for name, buf, a in (("input", self.x, x), ("target", self.target, target)):
            if np.shape(a) != (rows.size, buf.shape[1]):
                raise ValueError(f"{name} {j}: expected ({rows.size} x {buf.shape[1]}), "
                                 f"got {np.shape(a)}")
            buf[rows] = a
        self._missing.discard(j)


def _previous(a: np.ndarray, runs, reverse: bool = False) -> np.ndarray:
    """Each packed frame's row at the step before in the walk of runs; 0
    where a row starts.  Copies a slice within each run and one across
    each run's end, where the step after has fewer rows."""
    out = np.zeros_like(a)
    for (s, n, r), (_, m, _) in zip(runs, runs[1:] + [(0, 0, 0)]):
        e = s + n * r
        for early, late in ((slice(s, e - n), slice(s + n, e)),
                            (slice(e - n, e - n + m), slice(e, e + m))):
            dst, src = (early, late) if reverse else (late, early)
            out[dst] = a[src]
    return out


def _lstm_run(w_x, w_h, b, x: np.ndarray, runs, reverse: bool = False):
    """Run one cell over packed frames x (N, D), walking the steps of runs
    in time order or reversed; a step adds h @ w_h to the projection made
    before the walk and writes h and c straight into their packed rows.

    A run walks (repeat, count, .) views, a one-row step as 1-D rows, and
    each step reads the state of the step before as a view.  A run starts
    from zeroed carry rows, into which the rows of the step walked last are
    copied: a shrinking walk copies its first rows, and where a reversed
    walk grows, the sequences that start there find zeros.  Returns h
    (N, C) and the cache: x, runs, reverse, the gates and cells.
    """
    c_sz, dt, expit = w_h.shape[0], w_h.dtype, _scipy.expit
    gates = x @ w_x
    gates += b
    cells, hs = np.empty((len(x), c_sz), dt), np.empty((len(x), c_sz), dt)
    h0, c0, tc = (np.zeros((runs[0][1], c_sz), dt) for _ in range(3))
    hw = np.empty((runs[0][1], _GATES * c_sz), dt)  # h @ w_h
    order, prev = -1 if reverse else 1, None  # prev: (row, count) of the step walked last
    for s, n, r in runs[::order]:
        if prev:
            p, m = prev[0], min(prev[1], n)
            h0[:m], c0[:m] = hs[p : p + m], cells[p : p + m]
        row = (n, -1) if n > 1 else (-1,)
        z, h, c = (a[s : s + n * r].reshape(r, *row)[::order] for a in (gates, hs, cells))
        h_prev, c_prev, tc_n, hw_n = (a[:n].reshape(row) for a in (h0, c0, tc, hw))
        # the steps' gates: input and forget, then each of the four in order
        per_gate = (z[..., k * c_sz : (k + 1) * c_sz] for k in range(_GATES))
        for z_t, if_t, i_t, f_t, g_t, o_t, h_t, c_t in zip(z, z[..., : 2 * c_sz],
                                                             *per_gate, h, c):
            z_t += np.matmul(h_prev, w_h, out=hw_n)
            expit(if_t, out=if_t)
            np.tanh(g_t, out=g_t)
            expit(o_t, out=o_t)
            np.multiply(f_t, c_prev, out=c_t)
            c_t += np.multiply(i_t, g_t, out=tc_n)
            np.multiply(o_t, np.tanh(c_t, out=tc_n), out=h_t)
            h_prev, c_prev = h_t, c_t
        prev = (s if reverse else s + n * (r - 1), n)
    return hs, {"x": x, "runs": runs, "reverse": reverse, "gates": gates, "cells": cells}


def _lstm_backprop(w_x, w_h, cache, dh_out: np.ndarray):
    """BPTT for one cell. dh_out is packed (N, C); returns (dx, grads).

    tanh of the cells, and h as the output gate times it, are made again
    elementwise, so they hold the bits of the walk.  The cache is consumed:
    its gates buffer is overwritten, first with the local derivatives and
    then with dz.  dh and dc are carried back along the runs' steps in
    reverse walk order, in zeroed buffers of a row per sequence.
    """
    runs, reverse, gates = cache["runs"], cache["reverse"], cache["gates"]
    c_sz = w_h.shape[0]
    dz_gates = gates.reshape(-1, _GATES, c_sz)  # the local derivatives, then dz
    i, f, g, o = (dz_gates[:, k] for k in range(_GATES))
    f_out, g_out = f.copy(), g.copy()  # read after their slots are overwritten
    tc = np.tanh(cache["cells"])
    h_prev = _previous(np.multiply(o, tc), runs, reverse)  # while o is the output gate
    # per frame: dh/dc through the output gate, and the local derivative
    # by which dc (input, forget, candidate gates) or dh (output gate)
    # scales into each gate's pre-activation; each is formed in place in
    # its gate's slot, the candidate's first, while the input gate is there
    dtc = np.multiply(tc, tc)
    np.subtract(1.0, dtc, out=dtc)
    dtc *= o
    np.multiply(g, g, out=g)
    np.subtract(1.0, g, out=g)
    g *= i
    for gate, scale in ((i, g_out), (f, _previous(cache["cells"], runs, reverse)), (o, tc)):
        gate *= 1.0 - gate  # (1 - x) x: IEEE products commute
        gate *= scale
    # rows a step does not write stay zero: they carry nothing back
    dh_next, dc_next = (np.zeros((runs[0][1], c_sz), w_h.dtype) for _ in range(2))
    back = 1 if reverse else -1  # reverse walk order, in time
    for s, n, r in runs[::back]:
        views = (a[s : s + n * r].reshape(r, n, *a.shape[1:])[::back]
                 for a in (dh_out, dtc, dz_gates, gates, f_out))
        for dh_o, dtc_t, dz_t, z_t, f_t in zip(*views):
            dh = dh_o + dh_next[:n]
            dc = dh * dtc_t + dc_next[:n]
            dz_t[:, :3] *= dc[:, None]
            dz_t[:, 3] *= dh
            np.matmul(z_t, w_h.T, out=dh_next[:n])
            np.multiply(dc, f_t, out=dc_next[:n])
    grads = {"w_x": cache["x"].T @ gates, "w_h": h_prev.T @ gates,
             "b": gates.sum(axis=0)}
    return gates @ w_x.T, grads


def _layer_norm(z: np.ndarray, gain, offset):
    mean = z.mean(axis=-1, keepdims=True)
    centered = z - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    return gain * (centered * inv) + offset, (centered, inv)


def _layer_norm_backprop(dy, gain, ln_cache):
    centered, inv = ln_cache
    xhat = centered * inv  # the product the forward pass normalised with
    n = xhat.shape[-1]
    dxhat = dy * gain
    dvar = np.sum(dxhat * centered, axis=-1, keepdims=True) * (-0.5) * inv**3
    dmean = (
        -np.sum(dxhat, axis=-1, keepdims=True) * inv
        + dvar * np.sum(-2.0 * centered, axis=-1, keepdims=True) / n
    )
    dz = dxhat * inv + dvar * 2.0 * centered / n + dmean / n
    return dz, np.sum(dy * xhat, axis=0), np.sum(dy, axis=0)


def _sequences(x, dtype) -> list[np.ndarray]:
    """x as a list of sequences in dtype; one 2-D array is a single sequence."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        x = [x]
    return [np.asarray(s, dtype=dtype) for s in x]


def _gather(seqs: list[np.ndarray], where: np.ndarray, width: int) -> np.ndarray:
    """The frames of seqs in packed order, in one new (N, width) array of their dtype.

    where[j] is the packed row of frame j of the sequences laid end to end.
    """
    out = np.empty((where.size, width), seqs[0].dtype)
    start = 0
    for s in seqs:
        out[where[start : start + len(s)]] = s
        start += len(s)
    return out


def _check_input(params: NetworkParams, x: np.ndarray) -> None:
    """forward's input, or a batch's packed x: (frames, input bins), finite."""
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"input: expected (frames x {params.input_dim}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("every sequence needs at least one frame")
    if not np.isfinite(x).all():
        raise ValueError("network input must be finite")


def _input_layer(params: NetworkParams, x: np.ndarray):
    """(activations, layer-norm cache) of the dense input layer; the ReLU
    runs in place, and act > 0 exactly where its input was."""
    z0 = x @ params["fc.w"] + params["fc.b"]
    y0, ln_cache = _layer_norm(z0, params["ln.gain"], params["ln.offset"])
    return np.maximum(y0, 0.0, out=y0), ln_cache


def _output_layer(params: NetworkParams, act: np.ndarray) -> np.ndarray:
    pred = act @ params["out.w"]
    pred += params["out.b"]
    return _scipy.expit(pred, out=pred)


def _run(params: NetworkParams, act: np.ndarray, runs):
    """Walk the blocks on the input layer's packed activations act (N, C)
    by runs, yielding each block's output (N, C) and its cells' caches by
    direction as the block ends; the caller keeps what it needs."""
    for i in range(params.n_blocks):
        nxt, caches = act.copy(), {}
        for direction in ("fwd", "bwd") if params.bidirectional else ("fwd",):
            h, caches[direction] = _lstm_run(*_cell(params, i, direction), act, runs,
                                             reverse=direction == "bwd")
            nxt += h
            del h  # not held through the next cell
        act = nxt
        yield act, caches


def forward(params: NetworkParams, mag) -> np.ndarray:
    """Network output per frame and bin of mag (frames, bins), each value
    strictly inside (0, 1); mag is cast to the params' dtype, the output's.

    The sequence walks as one run of one-row steps, and each block's cache
    is dropped as the block ends, so the bits are those of backward's
    forward pass on it.  Finite weights that overflow the dtype, such as a
    huge one in float32, are a FloatingPointError; a saturated sigmoid
    raises no flag.
    """
    x = np.ascontiguousarray(mag, dtype=params.dtype)
    _check_input(params, x)
    with np.errstate(over="raise", invalid="raise"):
        act = _input_layer(params, x)[0]
        for act, caches in _run(params, act, [(0, 1, len(x))]):
            del caches  # not held through the next block
        return _output_layer(params, act)


PRED_CLAMP = 1e-7
LOSS_ROWS = 64  # rows of pred per block of the loss pass


def _check_targets(t: np.ndarray) -> None:
    if not np.all((t >= 0.0) & (t <= 1.0)):  # written so that NaN fails too
        raise ValueError("targets must lie in [0, 1]")


def _cross_entropy(pred: np.ndarray, t: np.ndarray, terms: np.ndarray,
                   grad: np.ndarray | None = None) -> None:
    """-(t log p + (1 - t) log1p(-p)) of every cell into terms, p being
    pred clamped to [1e-7, 1 - 1e-7], one block of LOSS_ROWS rows at a time.

    With grad, each block first writes the gradient of the mean loss with
    respect to the output layer's logits, (pred - t) / pred.size and 0
    where p is clamped, into grad.  terms may be pred and grad may be t:
    a block reads its rows of both before it writes either.
    """
    for r in range(0, len(pred), LOSS_ROWS):
        rows = slice(r, r + LOSS_ROWS)
        # the second term first, so the clamped p it consumes can be made
        # again from pred for the first
        second = np.subtract(1.0, t[rows])
        p = np.clip(pred[rows], PRED_CLAMP, 1.0 - PRED_CLAMP)
        np.negative(p, out=p)
        second *= np.log1p(p, out=p)
        first = np.clip(pred[rows], PRED_CLAMP, 1.0 - PRED_CLAMP, out=p)
        np.log(first, out=first)
        first *= t[rows]
        first += second
        if grad is not None:
            clamped = ~((pred[rows] > PRED_CLAMP) & (pred[rows] < 1.0 - PRED_CLAMP))
            g = np.subtract(pred[rows], t[rows], out=grad[rows])
            g[clamped] = 0.0
            g /= pred.size
        np.negative(first, out=terms[rows])


def loss_cross_entropy(pred, target) -> float:
    """Mean binary cross-entropy with predictions clamped to [1e-7, 1 - 1e-7].

    The mean of -(t log p + (1 - t) log1p(-p)), evaluated block by block
    into one scratch array, the loss pass backward runs.  Targets must lie
    in [0, 1]; NaN is rejected too.
    """
    pred = np.atleast_1d(np.asarray(pred, dtype=np.float64))
    t = np.atleast_1d(np.asarray(target, dtype=np.float64))
    if pred.shape != t.shape:
        raise ValueError("prediction and target shapes differ")
    _check_targets(t)
    terms = np.empty(pred.shape)
    _cross_entropy(pred, t, terms)
    return float(np.mean(terms))


def backward(params: NetworkParams, x, target=None):
    """Loss and gradients for every parameter tensor.

    x is a list of (frames_i, bins) sequences and target the matching
    list of (frames_i, output bins) targets; one 2-D array each is a
    single sequence.  Or x is a PackedBatch, which holds its targets, and
    target is left out.  Returns (loss, grads) where grads has exactly the
    keys of params, in their dtype, which a batch must have.  The loss is
    the mean cross-entropy over every frame of every sequence, summed in
    float64.  The target count, shapes, dtype and range, and that the
    inputs are finite, are checked before the forward pass runs.

    Lists are laid into a PackedBatch, a put per sequence and target, so
    neither x nor target is written to; its packed inputs are dropped
    after the input layer and laid out again for the fc.w gradient, not
    held.  A PackedBatch passed in is read in place instead, and its
    targets are taken over (batch.target becomes None) to be written
    over, so the batch is held once.  Each block's output and caches are
    dropped as the walk back reaches the block.
    """
    if isinstance(x, PackedBatch):
        if target is not None:
            raise TypeError("a PackedBatch holds its own targets")
        batch, seqs = x, None
    else:
        if target is None:
            raise TypeError("backward needs targets beside a list of sequences")
        seqs, targets = _sequences(x, params.dtype), _sequences(target, params.dtype)
        if len(targets) != len(seqs):
            raise ValueError(f"{len(seqs)} sequences but {len(targets)} targets")
        if any(t.shape != s.shape[:1] + (params.output_dim,) for s, t in zip(seqs, targets)):
            raise ValueError("target shape must match the prediction")
        # a target is (frames, K), or (K,) beside a 0-d input that put rejects
        batch = PackedBatch([len(t) for t in targets], params.input_dim, params.output_dim,
                            params.dtype)
        for j, pair in enumerate(zip(seqs, targets)):
            batch.put(j, *pair)
    if batch.target is None:
        raise ValueError("the batch's targets were taken by an earlier backward")
    if batch._missing:
        raise ValueError(f"sequence {min(batch._missing)} of the batch was never put")
    if batch.target.dtype != params.dtype:
        raise ValueError(f"a {batch.target.dtype} batch for {params.dtype} params")
    if batch.target.shape[1] != params.output_dim:
        raise ValueError("target shape must match the prediction")
    _check_input(params, batch.x)
    _check_targets(batch.target)
    act, ln_cache = _input_layer(params, batch.x)
    if seqs is not None:
        batch.x = None  # laid out again for the fc.w gradient, not held
    blocks = list(_run(params, act, batch.runs))  # each block's (output, caches)
    pred = _output_layer(params, blocks[-1][0])
    # the batch's targets are taken over: the only reference is dlogits
    dlogits, batch.target = batch.target, None
    # the targets' buffer takes the logits' gradient, and pred's the loss terms
    _cross_entropy(pred, dlogits, pred, grad=dlogits)
    loss = float(np.mean(pred, dtype=np.float64))
    del pred
    grads: dict[str, np.ndarray] = {}

    grads["out.w"] = blocks[-1][0].T @ dlogits
    grads["out.b"] = dlogits.sum(axis=0)
    da = dlogits @ params["out.w"].T
    del dlogits

    for i in range(params.n_blocks - 1, -1, -1):
        caches = blocks.pop()[1]
        da_next = da.copy()
        for direction in list(caches):
            w_x, w_h, _ = _cell(params, i, direction)
            dx, g = _lstm_backprop(w_x, w_h, caches.pop(direction), da)
            da_next += dx
            grads.update({f"block{i}.{direction}.{k}": v for k, v in g.items()})
        da = da_next

    dy0 = da * (act > 0.0)
    dz0, dgain, doffset = _layer_norm_backprop(dy0, params["ln.gain"], ln_cache)
    grads["ln.gain"] = dgain
    grads["ln.offset"] = doffset
    inputs = batch.x if seqs is None else _gather(seqs, batch.where, params.input_dim)
    grads["fc.w"] = inputs.T @ dz0
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


def load_network(path, dtype=np.float64) -> NetworkParams:
    """The network a model file stores, its tensors built in dtype."""
    raw = Path(path).read_bytes()
    marker = b"\ndata\n"
    split = raw.find(marker)
    if split < 0:
        raise ValueError("model file: missing data section")
    try:
        head_lines = raw[:split].decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"model file: header is not UTF-8: {exc.reason}") from exc
    if not head_lines or head_lines[0] != _MODEL_MAGIC:
        raise ValueError("model file: bad magic")
    fields: dict[str, str] = {}
    shapes: dict[str, tuple[int, ...]] = {}
    for lineno, line in enumerate(head_lines[1:], 2):
        parts = line.split()
        if (len(parts) >= 2 and parts[0] == "tensor" and parts[1] not in shapes
                and all(d.isdecimal() for d in parts[2:])):
            shapes[parts[1]] = tuple(int(d) for d in parts[2:])
        elif len(parts) == 2 and parts[0] != "tensor":
            fields[parts[0]] = parts[1]
        else:
            raise ValueError(f"model file: malformed header line {lineno}: {line!r}")
    try:
        mode = fields["mode"]
        n_blocks, cell, input_dim, output_dim = (
            int(fields[key]) for key in ("blocks", "cell", "input_dim", "output_dim"))
    except KeyError as exc:
        raise ValueError(f"model file: missing header field {exc}") from exc
    except ValueError as exc:  # int() names the text it could not read
        raise ValueError(f"model file: header sizes must be integers: {exc}") from exc
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
        arrays[name] = data[pos : pos + n].astype(dtype).reshape(shape)
        if not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"model file: tensor {name} is not finite")
        pos += n
    if pos != data.size:
        raise ValueError("model file: trailing data after last tensor")
    return NetworkParams((name, arrays[name]) for name in expected)
