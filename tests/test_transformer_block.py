"""``layers.TransformerBlock`` against the composed ops it runs.

Its output, all 17 gradients and the recorded tape must equal the composed
ops' bit for bit and entry for entry.  Tape-free, the block runs the
composed ops on row chunks in one split (``tensor.rowwise``) and keeps no
full-size intermediate.  A non-finite value inside the block raises naming
the sub-op the composed ops name.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import tsum
from test_row_chunks import chunk_counts, posted_chunks, threads
from vpfuse.layers import TransformerBlock
from vpfuse.rng import Rng
from vpfuse.tensor import (
    NonFiniteError,
    Tape,
    Tensor,
    add,
    attention,
    layer_norm,
    linear,
    mul,
)


def composed_block(x, block):
    """The block as separate ops on its parameters, each recording its own
    tape entry."""
    p = block.named_parameters()
    h = layer_norm(x, p["ln1.g"], p["ln1.b"])
    att = attention(linear(h, p["attn.wq"], p["attn.bq"]),
                    linear(h, p["attn.wk"], p["attn.bk"]),
                    linear(h, p["attn.wv"], p["attn.bv"]), 1.0 / math.sqrt(x.shape[-1]))
    x1 = add(x, linear(att, p["attn.wo"], p["attn.bo"]))
    ffn = linear(layer_norm(x1, p["ln2.g"], p["ln2.b"]), p["ffn.w1"], p["ffn.b1"], "gelu")
    return add(x1, linear(ffn, p["ffn.w2"], p["ffn.b2"]))


def call(x, block):
    return block(x)


def make_block(rng, b, n, d, hidden):
    """Frozen rows x and a block of frozen parameters: gains near 1, small
    shifts and biases, and weights scaled by 1/sqrt(fan-in)."""
    block = TransformerBlock(Rng(0, "test/block"), d, hidden)
    for name, t in block.named_parameters().items():
        if t.ndim == 2:
            t.data = rng.randn(*t.shape) / math.sqrt(t.shape[0])
        elif name.endswith(".g"):
            t.data = 1.0 + 0.1 * rng.randn(*t.shape)
        else:
            t.data = 0.1 * rng.randn(*t.shape)
        t.requires_grad = False
    return Tensor(rng.randn(b, n, d)), block


def leaves(x, block):
    return [x] + list(block.named_parameters().values())


def graph(tape, inputs):
    """Each tape entry's name and where each of its inputs comes from: one
    of the 17 leaves, or the output of an entry (None if not recorded)."""
    leaf = {id(t): i for i, t in enumerate(inputs)}
    return [(e.name, [("leaf", leaf[id(i)]) if id(i) in leaf else ("entry", i._op_index)
                      for i in e.inputs])
            for e in tape.entries]


def run(op, x, block, weight, tape):
    """Output, tape graph and the 17 gradients of sum(op(x, block) * weight),
    None where frozen; without a tape, the output alone."""
    inputs = leaves(x, block)
    for t in inputs:
        t.grad = None
    if not tape:
        return op(x, block).data, None, None
    with Tape() as t:
        out = op(x, block)
        entries = graph(t, inputs)
        if out.requires_grad:
            t.backward(tsum(mul(out, Tensor(weight))))
    return out.data, entries, [i.grad for i in inputs]


def assert_same(block, composed):
    out_b, graph_b, grads_b = block
    out_c, graph_c, grads_c = composed
    assert np.array_equal(out_b, out_c)
    assert graph_b == graph_c
    for gb, gc in zip(grads_b or (), grads_c or ()):
        assert (gb is None) == (gc is None)
        if gb is not None:
            assert np.array_equal(gb, gc)


@st.composite
def block_cases(draw):
    b = draw(st.sampled_from([1, 2, 3, 5, 16]))
    n = draw(st.sampled_from([1, 7, 134]))
    d = draw(st.sampled_from([4, 8, 32]))
    hidden = draw(st.sampled_from([3, 2 * d]))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    x, block = make_block(rng, b, n, d, hidden)
    mode = draw(st.sampled_from(["all", "x", "params", "some", "none"]))
    flags = {"all": [True] * 17, "x": [True] + [False] * 16,
             "params": [False] + [True] * 16, "none": [False] * 17,
             "some": draw(st.lists(st.booleans(), min_size=17, max_size=17))}[mode]
    for t, on in zip(leaves(x, block), flags):
        t.requires_grad = on
    return x, block, rng.randn(b, n, d), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(block_cases())
def test_block_bitwise_equals_composed(case):
    x, block, weight, tape = case
    called = run(call, x, block, weight, tape)
    assert_same(called, run(composed_block, x, block, weight, tape))
    if tape and not any(t.requires_grad for t in leaves(x, block)):
        assert called[1] == []  # a tape open with nothing to record


@pytest.mark.parametrize("shape", [(1, 7, 8), (5, 134, 32), (16, 134, 32)],
                         ids=["B1-N7", "B5-N134", "B16-N134"])
def test_training_block_records_the_composed_tape(shape):
    # The recording path with every input requiring grad, at the decoder's
    # shape among others: eleven entries in the composed order.
    x, block = make_block(np.random.RandomState(3), *shape, 2 * shape[-1])
    for t in leaves(x, block):
        t.requires_grad = True
    weight = np.random.RandomState(4).randn(*shape)
    called = run(call, x, block, weight, True)
    assert_same(called, run(composed_block, x, block, weight, True))
    assert [name for name, _ in called[1]] == [
        "layer_norm", "linear", "linear", "linear", "attention", "linear", "add",
        "layer_norm", "linear", "linear", "add"]


def test_open_tape_with_nothing_to_record_stays_empty():
    # Eval with a tape open: the block runs the composed ops, which record
    # nothing as nothing requires grad.
    x, block = make_block(np.random.RandomState(6), 3, 134, 32, 64)
    weight = np.zeros(x.shape)
    called = run(call, x, block, weight, True)
    assert_same(called, run(composed_block, x, block, weight, True))
    assert called[1] == [] and not any(g is not None for g in called[2])


@pytest.mark.parametrize("b, chunks", [(16, 4), (64, 4)],
                         ids=["tape-free-16-4", "tape-free-64-4"])
def test_block_forward_is_one_split_pass(b, chunks):
    # The decoder's rows at the train and eval batch: chunks of 4 and 16 rows.
    # The block posts one split, and the ops its chunks run split no further.
    x, block = make_block(np.random.RandomState(1), b, 134, 32, 64)
    with threads(2), posted_chunks() as posted:
        block(x)
    assert posted == [chunks]
    # While a tape is open, the block posts the composed ops' splits.
    with threads(2), Tape(), posted_chunks() as posted:
        block(x)
    with threads(2), Tape(), posted_chunks() as composed:
        composed_block(x, block)
    assert posted == composed


def traced_peak(call):
    """Peak bytes traced while ``call`` runs, its result included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tape_free_block_keeps_no_full_size_intermediate():
    # The decoder's eval shape.  Two threads, so that two chunks' scratch is
    # in flight on any machine.
    b, n, d, hidden = 64, 134, 32, 64
    x, block = make_block(np.random.RandomState(2), b, n, d, hidden)
    with threads(2):
        called = traced_peak(lambda: block(x))
        composed = traced_peak(lambda: composed_block(x, block))
        with chunk_counts() as counts:
            block(x)
    # A chunk's scratch: five (rows, N, D) buffers, the probabilities, the
    # FFN's pre-activation and cdf (GELU writes over the cdf) and the inverse
    # deviations.  Its (rows, N, 1) temporaries and numpy's own buffers are
    # allowed one more (rows, N, D) buffer, so two chunks' allowance is still
    # less than one full-size (B, N, D) intermediate.
    rows = -(-b // counts[0])
    scratch = rows * n * (5 * d + n + 2 * hidden + 1) * 8
    allowance = rows * n * d * 8
    output = b * n * d * 8
    assert 2 * allowance < output
    assert called < output + 2 * (scratch + allowance)
    assert called < composed


def poisoned(case):
    """Rows and parameters of a block at the decoder's B=16 shape, made to
    produce a non-finite value first in the sub-op ``case`` names (the
    residual case only in the last batch row, so in the last chunk)."""
    x, block = make_block(np.random.RandomState(5), 16, 134, 32, 64)
    p = block.named_parameters()
    g1, bo, g2, w1, w2 = (p[name] for name in ("ln1.g", "attn.bo", "ln2.g", "ffn.w1",
                                                "ffn.w2"))
    if case == "scores":  # q . k overflows
        g1.data[0] = 1e200
    elif case == "ffn-weight-nan":
        w1.data[0, 0] = np.nan
    elif case == "ffn-weight-inf":
        w2.data[3, 1] = np.inf
    elif case == "ln2-gamma":
        g2.data[5] = np.nan
    else:  # the first residual add overflows; layer_norm stays finite
        x.data[-1, :, 0] = 1e308
        bo.data[0] = 1e308
    return x, block


@pytest.mark.parametrize("case, op", [
    ("scores", "attention"), ("ffn-weight-nan", "linear"), ("ffn-weight-inf", "linear"),
    ("ln2-gamma", "layer_norm"), ("residual", "add")])
@pytest.mark.parametrize("recording", [False, True], ids=["tape-free", "recording"])
def test_non_finite_inside_block_names_the_composed_op(case, op, recording):
    x, block = poisoned(case)
    x.requires_grad = recording
    with Tape(), np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError, match=f"'{op}'"):
            composed_block(x, block)
        with pytest.raises(NonFiniteError, match=f"'{op}'"):
            block(x)
