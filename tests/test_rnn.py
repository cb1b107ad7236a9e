import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import save_network_with
from sefront import _scipy
from sefront.rnn import (
    PackedBatch,
    backward,
    forward,
    init_network,
    load_network,
    loss_cross_entropy,
    save_network,
)
from sefront.rnn import _input_layer, _lstm_rows, _lstm_run, _pack, _run, _tensor_shapes


def tiny(seed=0, bidirectional=False, cell=8, blocks=2, dim=9):
    return init_network(
        seed=seed,
        input_dim=dim,
        output_dim=dim,
        cell_size=cell,
        n_blocks=blocks,
        bidirectional=bidirectional,
    )


def test_lstm_run_two_steps_against_straight_line():
    # the second step starts from the nonzero h and c of the first
    rng = np.random.default_rng(0)
    d, c_sz = 4, 3
    w_x = rng.normal(0, 0.3, (d, 4 * c_sz))
    w_h = rng.normal(0, 0.3, (c_sz, 4 * c_sz))
    b = rng.normal(0, 0.3, 4 * c_sz)
    x = rng.normal(0, 1, (2, d))  # one row, two packed steps
    hs, cache = _lstm_run(w_x, w_h, b, x, [(0, 1), (1, 1)])

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h_ref = np.zeros(c_sz)
    c_ref = np.zeros(c_sz)
    for t in range(2):
        z = x[t] @ w_x + h_ref @ w_h + b
        i, f, g, o = z[:3], z[3:6], z[6:9], z[9:]
        c_ref = sig(f) * c_ref + sig(i) * np.tanh(g)
        h_ref = sig(o) * np.tanh(c_ref)
        np.testing.assert_allclose(cache["cells"][t], c_ref, rtol=1e-12)
        np.testing.assert_allclose(hs[t], h_ref, rtol=1e-12)
    assert np.all(np.abs(cache["cells"][0]) > 0)


def textbook_cell(w_x, w_h, b, x):
    """h of every row of x (T, D), one row per step from zero state."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    c_sz = w_h.shape[0]
    h, c, hs = np.zeros(c_sz), np.zeros(c_sz), []
    for row in x:
        i, f, g, o = np.split(row @ w_x + h @ w_h + b, 4)
        c = sig(f) * c + sig(i) * np.tanh(g)
        h = sig(o) * np.tanh(c)
        hs.append(h)
    return np.array(hs)


def test_lstm_rows_against_straight_line():
    rng = np.random.default_rng(1)
    d, c_sz, frames = 4, 3, 5
    cell = (rng.normal(0, 0.3, (d, 4 * c_sz)), rng.normal(0, 0.3, (c_sz, 4 * c_sz)),
            rng.normal(0, 0.3, 4 * c_sz), rng.normal(0, 1, (frames, d)))
    hs = _lstm_rows(*cell)
    assert hs.shape == (frames, c_sz)
    np.testing.assert_allclose(hs, textbook_cell(*cell), rtol=1e-12)
    assert np.all(np.abs(hs[1:]) > 0)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_run_carries_each_sequence_through_a_ragged_walk(reverse):
    # steps in order shrink the batch; reversed, it grows, and each
    # sequence starts from zero state at its last frame
    rng = np.random.default_rng(4)
    d, c_sz, lengths = 4, 3, np.array([2, 5, 1, 5])
    w_x, w_h = rng.normal(0, 0.3, (d, 4 * c_sz)), rng.normal(0, 0.3, (c_sz, 4 * c_sz))
    b = rng.normal(0, 0.3, 4 * c_sz)
    seqs = [rng.normal(0, 1, (n, d)) for n in lengths]
    rows, times, steps = _pack(lengths)
    x = np.array([seqs[r][t] for r, t in zip(rows, times)])
    hs, cache = _lstm_run(w_x, w_h, b, x, steps[::-1] if reverse else steps)
    assert set(cache) == {"x", "steps", "gates", "cells"}
    for k, seq in enumerate(seqs):
        want = (textbook_cell(w_x, w_h, b, seq[::-1])[::-1] if reverse
                else textbook_cell(w_x, w_h, b, seq))
        np.testing.assert_allclose(hs[rows == k][np.argsort(times[rows == k])], want,
                                   rtol=1e-12)


def test_lstm_run_zero_weights_keep_zero_state():
    # all-zero weights: candidate tanh(0)=0, so the state never moves
    # two rows over five packed steps
    hs, cache = _lstm_run(np.zeros((4, 12)), np.zeros((3, 12)), np.zeros(12),
                          np.ones((10, 4)), [(2 * t, 2) for t in range(5)])
    np.testing.assert_array_equal(hs, 0.0)
    np.testing.assert_array_equal(cache["cells"], 0.0)


def test_init_shapes_and_forget_bias():
    p = tiny(cell=8, blocks=3, dim=9)
    assert p["fc.w"].shape == (9, 8)
    assert p["out.w"].shape == (8, 9)
    assert p.n_blocks == 3
    assert p.mode == "UNI"
    for i in range(3):
        np.testing.assert_array_equal(p[f"block{i}.fwd.b"][8:16], 1.0)
        np.testing.assert_array_equal(p[f"block{i}.fwd.b"][:8], 0.0)
    assert not any(".bwd." in name for name in p)
    bi = tiny(bidirectional=True)
    assert bi.mode == "BI" and bi.n_blocks == 2
    assert all(f"block{i}.bwd.b" in bi for i in range(2))


def test_tensor_names():
    keys = list(tiny(blocks=2).tensors())
    assert keys == [
        "fc.w", "fc.b", "ln.gain", "ln.offset",
        "block0.fwd.w_x", "block0.fwd.w_h", "block0.fwd.b",
        "block1.fwd.w_x", "block1.fwd.w_h", "block1.fwd.b",
        "out.w", "out.b",
    ]
    bi_keys = list(tiny(bidirectional=True, blocks=1).tensors())
    assert "block0.bwd.w_x" in bi_keys


def test_forward_output_range_and_shape():
    rng = np.random.default_rng(1)
    p = tiny()
    x = rng.uniform(0, 3, (7, 9))
    y = forward(p, x)
    assert y.shape == (7, 9)
    assert np.all((y > 0) & (y < 1))


def test_forward_rejects_bad_input():
    p = tiny()
    with pytest.raises(ValueError):
        forward(p, np.full((3, 9), np.nan))
    with pytest.raises(ValueError):
        forward(p, np.ones((3, 5)))
    with pytest.raises(ValueError, match=r"expected \(frames x 9\), got \(2, 3, 9\)"):
        forward(p, np.ones((2, 3, 9)))


def test_backward_rejects_bad_batches():
    rng = np.random.default_rng(4)
    p = tiny()
    xs = [rng.uniform(0, 2, (n, 9)) for n in (4, 2, 3)]
    ts = [rng.uniform(0.1, 0.9, (n, 9)) for n in (4, 2, 3)]
    backward(p, xs, ts)  # the well-formed batch runs
    with pytest.raises(ValueError, match="at least one sequence"):
        backward(p, [], [])
    with pytest.raises(ValueError, match="at least one frame"):
        backward(p, xs[:2] + [np.ones((0, 9))], ts[:2] + [np.ones((0, 9))])
    with pytest.raises(ValueError, match="3 sequences but 2 targets"):
        backward(p, xs, ts[:2])
    with pytest.raises(TypeError, match="needs targets"):
        backward(p, xs)
    with pytest.raises(ValueError, match="target shape"):
        backward(p, xs, ts[:2] + [ts[2][:2]])
    for row in range(3):
        bad = [x.copy() for x in xs]
        bad[row][-1, 5] = np.inf if row else np.nan
        with pytest.raises(ValueError, match="finite"):
            backward(p, bad, ts)
    bad = [t.copy() for t in ts]
    bad[1][1, 3] = np.nan
    with pytest.raises(ValueError, match=r"targets must lie in \[0, 1\]"):
        backward(p, xs, bad)


def test_backward_checks_targets_before_the_forward_pass(monkeypatch):
    rnn = importlib.import_module("sefront.rnn")
    calls = []
    real_run = rnn._run

    def counting_run(*args):
        calls.append(1)
        return real_run(*args)

    monkeypatch.setattr(rnn, "_run", counting_run)
    rng = np.random.default_rng(4)
    p = tiny()
    xs = [rng.uniform(0, 2, (n, 9)) for n in (4, 2, 3)]
    ts = [rng.uniform(0.1, 0.9, (n, 9)) for n in (4, 2, 3)]
    half = np.full((9, 9), 0.5)
    # every malformed list batch is a ValueError, the last element bad
    for x2, t2, match in (
            (xs[2], None, "3 sequences but 2 targets"),
            (xs[2], ts[2][:2], "target shape"),
            (xs[2], ts[2][:, :8], "target shape"),
            (np.array(1.0), ts[2], "target shape"),  # 0-d
            (np.array(1.0), half[0], r"input 2: expected \(9 x 9\), got \(\)"),
            (xs[2][0], ts[2], "target shape"),  # 1-D
            (xs[2][0], half, r"input 2: expected \(9 x 9\), got \(9,\)"),
            (xs[2][None], ts[2][:1], r"input 2: expected \(1 x 9\), got \(1, 3, 9\)"),
            (xs[2][:, :8], ts[2], r"input 2: expected \(3 x 9\), got \(3, 8\)"),
            (np.ones((0, 9)), np.ones((0, 9)), "at least one frame")):
        with pytest.raises(ValueError, match=match):
            backward(p, xs[:2] + [x2], ts[:2] + ([] if t2 is None else [t2]))
    with pytest.raises(ValueError, match="at least one sequence"):
        backward(p, [], [])
    with pytest.raises(TypeError, match="needs targets"):
        backward(p, xs)
    assert calls == []
    backward(p, xs, ts)
    assert calls == [1]


def test_uni_is_causal():
    rng = np.random.default_rng(2)
    p = tiny()
    x = rng.uniform(0, 2, (6, 9))
    y1 = forward(p, x)
    x2 = x.copy()
    x2[4:] += 1.0  # future change
    y2 = forward(p, x2)
    np.testing.assert_array_equal(y1[:4], y2[:4])
    assert np.any(y1[4:] != y2[4:])


def test_bi_sees_the_future():
    rng = np.random.default_rng(3)
    p = tiny(bidirectional=True)
    x = rng.uniform(0, 2, (6, 9))
    y1 = forward(p, x)
    x2 = x.copy()
    x2[5] += 1.0
    y2 = forward(p, x2)
    assert np.any(y1[0] != y2[0])


def test_bi_with_zero_backward_equals_uni():
    # a zeroed backward cell emits exactly zero, and the block reduces to
    # the forward-only sum
    uni = tiny(seed=5)
    bi = tiny(seed=6, bidirectional=True)
    bi.update(uni)  # every tensor but the backward cells'
    for name in bi:
        if ".bwd." in name:
            bi[name] = np.zeros_like(bi[name])
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 2, (8, 9))
    np.testing.assert_allclose(forward(bi, x), forward(uni, x), rtol=1e-12)


def test_loss_values():
    half = np.full((2, 3), 0.5)
    t = np.random.default_rng(0).uniform(0, 1, (2, 3))
    np.testing.assert_allclose(loss_cross_entropy(half, t), np.log(2.0), rtol=1e-14)
    np.testing.assert_allclose(
        loss_cross_entropy(np.array([[0.4]]), np.array([[1.0]])),
        0.9162907318741551,
        rtol=1e-14,
    )


def test_loss_clamps_saturated_predictions():
    # p clamps to 1 - 1e-7 and the loss goes through log1p, so the exact
    # value is -log1p(-(1 - 1e-7)), a hair off -log(1e-7)
    v = loss_cross_entropy(np.array([[1.0]]), np.array([[0.0]]))
    np.testing.assert_allclose(v, -np.log1p(-(1.0 - 1e-7)), rtol=1e-15)
    np.testing.assert_allclose(v, -np.log(1e-7), rtol=1e-9)


def test_loss_rejects_bad_targets():
    with pytest.raises(ValueError):
        loss_cross_entropy(np.array([[0.5]]), np.array([[1.5]]))
    with pytest.raises(ValueError):
        loss_cross_entropy(np.array([[0.5]]), np.array([[-0.1]]))
    with pytest.raises(ValueError, match=r"targets must lie in \[0, 1\]"):
        loss_cross_entropy(np.array([[0.5]]), np.array([[np.nan]]))


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 30), st.integers(1, 12)),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_equals_the_textbook_expression(shape, seed):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0, 1, shape)
    target = rng.uniform(0, 1, shape)
    # clamped cells at both ends, and targets at both ends of [0, 1]
    pred.flat[rng.integers(pred.size)] = 0.0
    pred.flat[rng.integers(pred.size)] = 1.0 - 1e-9
    target.flat[rng.integers(target.size)] = rng.integers(2)
    before = pred.copy(), target.copy()
    p = np.clip(pred, 1e-7, 1.0 - 1e-7)
    want = np.mean(-(target * np.log(p) + (1.0 - target) * np.log1p(-p)))
    assert loss_cross_entropy(pred, target) == want
    np.testing.assert_array_equal(pred, before[0])
    np.testing.assert_array_equal(target, before[1])


@pytest.mark.parametrize("shape", [(200,), (65, 3), (129, 4, 2), (300, 257)])
def test_loss_over_row_blocks_equals_the_textbook_expression(shape):
    # shapes that span one to five row blocks of the loss pass, 1-D and 3-D too
    rng = np.random.default_rng(sum(shape))
    pred = rng.uniform(0, 1, shape)
    target = rng.uniform(0, 1, shape)
    pred.flat[::7] = rng.choice([0.0, 1e-9, 1.0 - 1e-9, 1.0], pred.flat[::7].size)
    target.flat[::5] = rng.integers(2, size=target.flat[::5].size)
    p = np.clip(pred, 1e-7, 1.0 - 1e-7)
    want = np.mean(-(target * np.log(p) + (1.0 - target) * np.log1p(-p)))
    assert loss_cross_entropy(pred, target) == want


@pytest.mark.parametrize("bidirectional", [False, True])
def test_backward_loss_is_the_loss_of_the_packed_prediction(bidirectional):
    # a batch of 150 frames runs three row blocks of the loss pass, and the
    # loss equals loss_cross_entropy of its packed prediction to the bit
    rng = np.random.default_rng(30)
    p = tiny(seed=31, bidirectional=bidirectional)
    lengths = [70, 1, 45, 34]
    xs = [rng.uniform(0, 2, (n, 9)) for n in lengths]
    ts = [rng.uniform(0, 1, (n, 9)) for n in lengths]
    ts[0][::3] = 1.0
    pred, batch = packed_forward(p, xs, ts)
    assert backward(p, xs, ts)[0] == loss_cross_entropy(pred, batch.target)


def backward_peak(bidirectional: bool) -> float:
    """Traced peak of backward on a seeded batch of 10 sequences (1917
    frames) with the training defaults, above its inputs, in units of one
    packed (frames x 257) float64 array."""
    rng = np.random.default_rng(21)
    lengths = rng.integers(100, 300, 10)
    xs = [rng.uniform(0, 2, (n, 257)) for n in lengths]
    ts = [rng.uniform(0.1, 0.9, (n, 257)) for n in lengths]
    params = init_network(seed=1, bidirectional=bidirectional)
    _scipy.expit  # imported here, so the peak holds no import
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        backward(params, xs, ts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (lengths.sum() * 257 * 8)


# UNI measured 13.0 while the step held two copies of such arrays, 10.2
# with one copy each, 6.9 with the loss and its gradient in one row-block
# pass, BPTT in place on the gate cache and each array freed at its last
# read, 5.9 once a cell cached neither tanh of its cells nor its h, and
# 5.6 once the layer norm cached no normalised copy of its input;
# BI measured 13.7, then 10.3, then 8.3, then 8.1.
def test_backward_peak_memory():
    assert backward_peak(bidirectional=False) < 6.5


def test_backward_peak_memory_bidirectional():
    assert backward_peak(bidirectional=True) < 9.0


def test_backward_loss_matches_forward_loss():
    rng = np.random.default_rng(8)
    p = tiny()
    x = rng.uniform(0, 2, (6, 9))
    t = rng.uniform(0.05, 0.95, (6, 9))
    loss, grads = backward(p, x, t)
    np.testing.assert_allclose(loss, loss_cross_entropy(forward(p, x), t), rtol=1e-12)
    assert set(grads) == set(p.tensors())
    for k, g in grads.items():
        assert g.shape == p.tensors()[k].shape


def test_uni_gradients_have_no_backward_keys():
    rng = np.random.default_rng(9)
    p = tiny()
    _, grads = backward(p, rng.uniform(0, 2, (5, 9)), rng.uniform(0.1, 0.9, (5, 9)))
    assert not any(".bwd." in k for k in grads)


@pytest.mark.parametrize("bidirectional", [False, True])
def test_gradient_spot_check(bidirectional):
    # a sampled finite-difference check; the exhaustive sweep lives in
    # the acceptance suite
    rng = np.random.default_rng(10)
    p = tiny(seed=11, bidirectional=bidirectional, cell=4, blocks=1, dim=5)
    x = rng.uniform(0, 2, (4, 5))
    t = rng.uniform(0.1, 0.9, (4, 5))
    _, grads = backward(p, x, t)
    tensors = p.tensors()
    h = 1e-5
    worst = 0.0
    for name in ("fc.w", "block0.fwd.w_h", "out.b", "ln.gain"):
        tensor = tensors[name]
        flat = tensor.reshape(-1)
        for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_cross_entropy(forward(p, x), t)
            flat[idx] = keep - h
            dn = loss_cross_entropy(forward(p, x), t)
            flat[idx] = keep
            fd = (up - dn) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), 1e-7))
    assert worst < 1e-4


@settings(max_examples=60, deadline=None)
@given(
    bidirectional=st.booleans(),
    blocks=st.integers(1, 3),
    cell=st.integers(1, 16),
    frames=st.integers(1, 40),
    dim=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_equals_the_packed_forward_bit_for_bit(bidirectional, blocks, cell,
                                                        frames, dim, seed):
    # forward runs the directions in lockstep, backward's forward pass packs
    # and walks each direction alone; both must give the same bits
    p = tiny(seed=seed % 1000, bidirectional=bidirectional, cell=cell, blocks=blocks,
             dim=dim)
    x = np.random.default_rng(seed).uniform(0, 3, (frames, dim))
    assert forward(p, x).tobytes() == packed_forward(p, [x])[0].tobytes()


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("frames", [1, 2, 301])
def test_forward_equals_the_packed_forward_at_the_cli_dims(bidirectional, frames):
    # the CLI's network (cell 64, 2 blocks, 257 bins) reaches BLAS kernel
    # sizes the property test above does not, and the backward lane's
    # product over the reversed rows
    p = init_network(seed=5, bidirectional=bidirectional)
    x = np.random.default_rng(frames).uniform(0, 3, (frames, 257))
    assert forward(p, x).tobytes() == packed_forward(p, [x])[0].tobytes()


def packed_batches(test):
    """Batches of 1-5 rows of 1-12 frames (ties allowed), UNI or BI."""
    cases = given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        bidirectional=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    return settings(max_examples=30, deadline=None)(cases(test))


def sequence_batch(lengths, seed):
    """(inputs, targets): one seeded (n, 9) array each per length."""
    rng = np.random.default_rng(seed)
    xs = [rng.uniform(0, 2, (n, 9)) for n in lengths]
    ts = [rng.uniform(0.1, 0.9, (n, 9)) for n in lengths]
    return xs, ts


@packed_batches
def test_batch_equals_individual_sequences(lengths, bidirectional, seed):
    p = tiny(seed=13, bidirectional=bidirectional)
    xs, _ = sequence_batch(lengths, seed)
    pred, batch = packed_forward(p, xs)
    # the packed frames, put back in the order of the concatenated inputs
    y = pred[batch.where]
    for x, y_seq in zip(xs, np.split(y, np.cumsum(lengths)[:-1])):
        np.testing.assert_allclose(y_seq, forward(p, x), atol=1e-12)


@packed_batches
def test_batch_gradients_combine_per_sequence(lengths, bidirectional, seed):
    # the batch loss is the mean over all frames, so gradients must
    # combine with weights L_i / sum(L)
    p = tiny(seed=15, bidirectional=bidirectional)
    xs, ts = sequence_batch(lengths, seed)
    lb, gb = backward(p, xs, ts)
    loss = 0.0
    grads = {k: np.zeros_like(v) for k, v in gb.items()}
    for x, t in zip(xs, ts):
        w = len(x) / sum(lengths)
        ls, gs = backward(p, x, t)
        loss += w * ls
        for k in grads:
            grads[k] += w * gs[k]
    np.testing.assert_allclose(lb, loss, rtol=1e-12)
    for k in gb:
        np.testing.assert_allclose(gb[k], grads[k], atol=1e-12, err_msg=k)


@packed_batches
def test_backward_leaves_its_inputs_unchanged(lengths, bidirectional, seed):
    p = tiny(seed=19, bidirectional=bidirectional)
    xs, ts = sequence_batch(lengths, seed)
    # targets at both ends of [0, 1]
    ts[0][0, :2] = 0.0, 1.0
    before = [a.copy() for a in xs + ts]
    backward(p, xs, ts)
    for a, b in zip(xs + ts, before):
        np.testing.assert_array_equal(a, b)


def packed(lengths, xs, ts) -> PackedBatch:
    batch = PackedBatch(lengths, xs[0].shape[1], ts[0].shape[1])
    for j, (x, t) in enumerate(zip(xs, ts)):
        batch.put(j, x, t)
    return batch


def packed_forward(p, xs, ts=None):
    """backward's forward pass on the sequences xs: the packed outputs, and
    the batch that laid xs and ts (zeros by default) out."""
    ts = [np.zeros((len(x), p.output_dim)) for x in xs] if ts is None else ts
    batch = packed([len(x) for x in xs], xs, ts)
    return _run(p, _input_layer(p, batch.x)[0], batch.steps)[0], batch


@packed_batches
@example(lengths=[1, 1, 1], bidirectional=True, seed=0)
@example(lengths=[1], bidirectional=False, seed=1)
@example(lengths=[5, 1, 5, 3, 5], bidirectional=True, seed=2)
@example(lengths=[4, 4, 1, 1], bidirectional=False, seed=3)
def test_packed_batch_equals_the_lists_bit_for_bit(lengths, bidirectional, seed):
    p = tiny(seed=23, bidirectional=bidirectional)
    xs, ts = sequence_batch(lengths, seed)
    ts[0][0, :2] = 0.0, 1.0
    want_loss, want = backward(p, xs, ts)
    batch = packed(lengths, xs, ts)
    x_before = batch.x.copy()
    loss, grads = backward(p, batch)
    assert loss == want_loss
    assert list(grads) == list(want)
    for k in want:
        assert grads[k].tobytes() == want[k].tobytes(), k
    # the inputs are read in place and the targets taken over
    np.testing.assert_array_equal(batch.x, x_before)
    assert batch.target is None
    with pytest.raises(ValueError, match="taken by an earlier backward"):
        backward(p, batch)


def test_packed_batch_puts_each_sequence_in_its_packed_rows():
    rng = np.random.default_rng(5)
    lengths = [2, 3, 1]
    xs, ts = sequence_batch(lengths, 6)
    batch = packed(lengths, xs, ts)
    rows, times, steps = _pack(np.array(lengths))
    assert batch.steps == steps
    np.testing.assert_array_equal(batch.x, [xs[r][t] for r, t in zip(rows, times)])
    np.testing.assert_array_equal(batch.target, [ts[r][t] for r, t in zip(rows, times)])
    np.testing.assert_array_equal(batch.x[batch.where], np.concatenate(xs))
    with pytest.raises(ValueError, match=r"input 1: expected \(3 x 9\), got \(2, 9\)"):
        batch.put(1, xs[0], ts[0])
    with pytest.raises(ValueError, match=r"target 2: expected \(1 x 9\), got \(1, 8\)"):
        batch.put(2, xs[2], rng.uniform(0, 1, (1, 8)))
    for j in (-1, 3):
        with pytest.raises(IndexError, match=f"sequence {j} of a batch of 3"):
            batch.put(j, xs[2], ts[2])
    with pytest.raises(ValueError, match="at least one sequence"):
        PackedBatch([], 9, 9)
    with pytest.raises(ValueError, match="at least one frame"):
        PackedBatch([2, 0], 9, 9)


def test_packed_batch_is_checked_before_the_forward_pass(monkeypatch):
    rnn = importlib.import_module("sefront.rnn")
    calls = []
    real_run = rnn._run

    def counting_run(*args):
        calls.append(1)
        return real_run(*args)

    monkeypatch.setattr(rnn, "_run", counting_run)
    p = tiny()
    lengths = [4, 2, 3]
    xs, ts = sequence_batch(lengths, 4)
    batch = PackedBatch(lengths, 9, 9)
    batch.put(0, xs[0], ts[0])
    batch.put(2, xs[2], ts[2])
    with pytest.raises(ValueError, match="sequence 1 of the batch was never put"):
        backward(p, batch)
    with pytest.raises(TypeError, match="holds its own targets"):
        backward(p, batch, ts)
    batch.put(1, xs[1], ts[1])
    for where, value, match in ((batch.x, np.nan, "finite"),
                                (batch.target, 1.5, r"targets must lie in \[0, 1\]"),
                                (batch.target, np.nan, r"targets must lie in \[0, 1\]")):
        keep = where[3, 4]
        where[3, 4] = value
        with pytest.raises(ValueError, match=match):
            backward(p, batch)
        where[3, 4] = keep
    with pytest.raises(ValueError, match=r"input: expected \(frames x 9\), got \(9, 8\)"):
        backward(p, packed(lengths, [x[:, :8] for x in xs], ts))
    with pytest.raises(ValueError, match="target shape"):
        backward(p, packed(lengths, xs, [t[:, :8] for t in ts]))
    assert calls == []
    backward(p, batch)
    assert calls == [1]


@pytest.mark.parametrize("bidirectional", [False, True])
def test_save_load_round_trip(tmp_path, bidirectional):
    rng = np.random.default_rng(17)
    p = tiny(seed=18, bidirectional=bidirectional)
    path = tmp_path / "net.bin"
    save_network(p, path)
    q = load_network(path)
    assert q.mode == p.mode
    assert (q.input_dim, q.output_dim, q.cell_size, q.n_blocks) == (9, 9, 8, 2)
    x = rng.uniform(0, 2, (5, 9))
    # storage is float32, so the reload is close but not identical
    np.testing.assert_allclose(forward(q, x), forward(p, x), atol=1e-5)
    # a second round trip is a fixed point, byte for byte
    path2 = tmp_path / "net2.bin"
    save_network(q, path2)
    q2 = load_network(path2)
    for k, v in q.tensors().items():
        np.testing.assert_array_equal(q2.tensors()[k], v)
    save_network(q2, tmp_path / "net3.bin")
    assert (tmp_path / "net3.bin").read_bytes() == path2.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    bidirectional=st.booleans(),
    n_blocks=st.integers(1, 3),
    cell=st.integers(1, 6),
    input_dim=st.integers(1, 7),
    output_dim=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_file_round_trip_property(tmp_path_factory, bidirectional, n_blocks,
                                        cell, input_dim, output_dim, seed):
    # the file is the tensors in _tensor_shapes order: save -> load -> save
    # is byte-identical, and a load gives each tensor rounded to float32
    p = init_network(seed=seed, input_dim=input_dim, output_dim=output_dim,
                     cell_size=cell, n_blocks=n_blocks, bidirectional=bidirectional)
    layout = _tensor_shapes(bidirectional, n_blocks, cell, input_dim, output_dim)
    assert list(p) == list(layout)
    d = tmp_path_factory.mktemp("model")
    save_network(p, d / "a.bin")
    header = (d / "a.bin").read_bytes().split(b"\ndata\n")[0].decode().splitlines()
    assert [line for line in header if line.startswith("tensor ")] == [
        " ".join(["tensor", name, *map(str, shape)]) for name, shape in layout.items()]
    q = load_network(d / "a.bin")
    save_network(q, d / "b.bin")
    assert (d / "b.bin").read_bytes() == (d / "a.bin").read_bytes()
    assert list(q) == list(layout)
    assert [q[name].shape for name in q] == list(layout.values())
    for name, arr in p.items():
        assert q[name].dtype == np.float64
        np.testing.assert_array_equal(q[name], arr.astype(np.float32).astype(np.float64))
    assert (q.mode, q.n_blocks, q.cell_size, q.input_dim, q.output_dim) == (
        p.mode, n_blocks, cell, input_dim, output_dim)


def test_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not-a-model\ndata\n")
    with pytest.raises(ValueError):
        load_network(p)
    good = tmp_path / "good.bin"
    save_network(tiny(), good)
    blob = good.read_bytes()
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(blob[:-40])
    with pytest.raises(ValueError, match="truncated"):
        load_network(trunc)
    extra = tmp_path / "extra.bin"
    extra.write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError):
        load_network(extra)


def test_load_rejects_blank_header_line(tmp_path):
    good = tmp_path / "good.bin"
    save_network(tiny(), good)
    blob = good.read_bytes()
    bad = tmp_path / "blank.bin"
    bad.write_bytes(blob.replace(b"\nblocks ", b"\n\nblocks ", 1))
    with pytest.raises(ValueError, match="malformed header line 3"):
        load_network(bad)


@pytest.mark.parametrize("old, new, message", [
    (b"\nblocks 2\n", b"\nblocks x\n",
     r"^model file: header sizes must be integers: invalid literal for int\(\) with "
     r"base 10: 'x'$"),
    (b"tensor fc.w 9 8\n", b"tensor fc.w 9 q\n",
     r"^model file: malformed header line 7: 'tensor fc\.w 9 q'$"),
    (b"tensor fc.w 9 8\n", b"tensor fc.w +9 8\n",
     r"^model file: malformed header line 7: 'tensor fc\.w \+9 8'$"),
    (b"\nmode UNI\n", b"\nmode \xffUNI\n",
     r"^model file: header is not UTF-8: invalid start byte$"),
])
def test_load_names_the_model_file_in_every_rejection(tmp_path, old, new, message):
    good = tmp_path / "good.bin"
    save_network(tiny(), good)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(good.read_bytes().replace(old, new, 1))
    with pytest.raises(ValueError, match=message):
        load_network(bad)


def test_load_rejects_tensor_shape_mismatch(tmp_path):
    good = tmp_path / "good.bin"
    save_network(tiny(cell=8, dim=9), good)
    blob = good.read_bytes()
    # same element count, so only the shape check can catch it
    bad = tmp_path / "shape.bin"
    bad.write_bytes(blob.replace(b"tensor fc.w 9 8\n", b"tensor fc.w 8 9\n", 1))
    with pytest.raises(ValueError, match="fc.w"):
        load_network(bad)
    # a header that disagrees with the tensors it declares
    wrong_cell = tmp_path / "cell.bin"
    wrong_cell.write_bytes(blob.replace(b"\ncell 8\n", b"\ncell 7\n", 1))
    with pytest.raises(ValueError, match="header implies"):
        load_network(wrong_cell)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
def test_save_refuses_tensors_not_finite_in_float32(tmp_path, value):
    p = tiny()
    p["block1.fwd.w_h"][2, 3] = value
    path = tmp_path / "bad.bin"
    with pytest.raises(FloatingPointError, match=r"^tensor block1\.fwd\.w_h is not finite "
                                                 r"in float32$"):
        save_network(p, path)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_tensors(tmp_path, value):
    bad = tmp_path / "bad.bin"
    save_network_with(tiny(), bad, "block1.fwd.w_h", (2, 3), value)
    with pytest.raises(ValueError, match=r"^model file: tensor block1\.fwd\.w_h is not "
                                         r"finite$"):
        load_network(bad)


def test_load_rejects_huge_block_count_fast(tmp_path):
    good = tmp_path / "good.bin"
    save_network(tiny(), good)
    blob = good.read_bytes()
    assert b"\nblocks " in blob
    start = blob.index(b"\nblocks ") + 1
    end = blob.index(b"\n", start)
    huge = tmp_path / "huge.bin"
    huge.write_bytes(blob[:start] + b"blocks 1000000000" + blob[end:])
    with pytest.raises(ValueError, match="tensors declared"):
        load_network(huge)
