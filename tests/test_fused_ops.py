"""The fused ``linear`` and ``attention`` ops against the composed ops they
replace: forward outputs and every gradient must agree bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import gelu, matmul, transpose, tsum
from vpfuse.tensor import (
    NonFiniteError,
    Tape,
    Tensor,
    TensorError,
    add,
    attention,
    broadcast_to,
    layer_norm,
    linear,
    mul,
    softmax,
)


def composed_linear(x, w, b, act=None):
    z = add(matmul(x, w), b)
    return gelu(z) if act == "gelu" else z


def composed_attention(q, k, v):
    axes = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = mul(matmul(q, transpose(k, axes)), Tensor(np.array(scale)))
    return matmul(softmax(scores), v)


def attention_call(op, query_shape):
    """``op(q, k, v)`` over ``run``'s inputs, (q, k, v) or (q, kv) when k is
    v.  With ``query_shape`` set, q is broadcast to it first, as the com
    projector broadcasts one query set to every frame."""
    def call(q, k, *v):
        if query_shape is not None:
            q = broadcast_to(q, query_shape)
        return op(q, k, *(v or (k,)))
    return call


def run(op, inputs, weight):
    """Forward value, tape length and the gradient of sum(op(...) * weight)
    with respect to every input (None where the input is frozen)."""
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        out = op(*inputs)
        tape.backward(tsum(mul(out, Tensor(weight))))
        entries = len(tape.entries)
    return out.data, entries, [t.grad for t in inputs]


def assert_bitwise(fused, composed):
    out_f, _, grads_f = fused
    out_c, _, grads_c = composed
    assert np.array_equal(out_f, out_c)
    for gf, gc in zip(grads_f, grads_c):
        assert (gf is None) == (gc is None)
        if gf is not None:
            assert np.array_equal(gf, gc)


def flags(draw, n):
    """Which of n inputs require grad; at least one does."""
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return mask if any(mask) else [True] + mask[1:]


@st.composite
def linear_cases(draw):
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    n, d, h = (draw(st.integers(1, 6)) for _ in range(3))
    act = draw(st.sampled_from([None, "gelu"]))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    x = Tensor(rng.randn(*lead, n, d) * 2.0)
    w = Tensor(rng.randn(d, h))
    b = Tensor(rng.randn(h))
    for t, on in zip((x, w, b), flags(draw, 3)):
        t.requires_grad = on
    weight = rng.randn(*lead, n, h)
    return (x, w, b), act, weight


@st.composite
def attention_cases(draw):
    batch = draw(st.integers(1, 3))
    frames = draw(st.integers(1, 3))
    shared_q = draw(st.booleans())  # one query set broadcast to every frame
    n, m, d = (draw(st.integers(1, 6)) for _ in range(3))
    k_is_v = draw(st.booleans())
    dv = d if k_is_v else draw(st.integers(1, 6))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))
    q = Tensor(rng.randn(batch, 1 if shared_q else frames, n, d))
    k = Tensor(rng.randn(batch, frames, m, d))
    v = k if k_is_v else Tensor(rng.randn(batch, frames, m, dv))
    on_q, on_k, on_v = flags(draw, 3)
    q.requires_grad = on_q
    k.requires_grad = on_k or (k_is_v and on_v)
    v.requires_grad = k.requires_grad if k_is_v else on_v
    weight = rng.randn(batch, frames, n, dv)
    return (q, k, v), weight, (batch, frames, n, d) if shared_q else None


@settings(max_examples=60, deadline=None)
@given(linear_cases())
def test_linear_bitwise_equals_composed(case):
    inputs, act, weight = case
    fused = run(lambda x, w, b: linear(x, w, b, act), inputs, weight)
    composed = run(lambda x, w, b: composed_linear(x, w, b, act), inputs, weight)
    assert_bitwise(fused, composed)
    assert fused[1] == 3  # linear, mul, sum


@settings(max_examples=60, deadline=None)
@given(attention_cases())
def test_attention_bitwise_equals_composed(case):
    (q, k, v), weight, query_shape = case
    inputs = (q, k) if k is v else (q, k, v)
    fused = run(attention_call(attention, query_shape), inputs, weight)
    composed = run(attention_call(composed_attention, query_shape), inputs, weight)
    assert_bitwise(fused, composed)
    # attention, mul, sum, and the query's broadcast when it is recorded
    assert fused[1] == 3 + (query_shape is not None and q.requires_grad)


def test_attention_raises_on_minus_inf_score():
    # q . k overflows to -inf in one score.  exp would turn it into a silent
    # 0, so the fused op must raise where the composed matmul did.
    q = Tensor(np.array([[1e200, 0.0], [1.0, 1.0]]))
    k = Tensor(np.array([[-1e200, 0.0], [1.0, 2.0], [0.5, 0.5]]))
    v = Tensor(np.ones((3, 2)))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="attention"):
            attention(q, k, v)
        with pytest.raises(NonFiniteError, match="matmul"):
            composed_attention(q, k, v)


def test_bad_arguments_rejected():
    x = Tensor(np.ones((2, 3)))
    w, b = Tensor(np.ones((3, 4))), Tensor(np.zeros(4))
    with pytest.raises(TensorError):
        linear(x, w, b, act="relu")
    with pytest.raises(TensorError):
        linear(Tensor(np.ones(3)), w, b)
    with pytest.raises(TensorError):
        attention(Tensor(np.ones(3)), x, x)


@pytest.mark.parametrize("call", [
    lambda: linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.zeros((1, 4)))),
    lambda: attention(Tensor(np.ones((2, 1, 3, 4))), Tensor(np.ones((2, 5, 6, 4))),
                      Tensor(np.ones((2, 5, 6, 4)))),
    lambda: attention(Tensor(np.ones((1, 3, 4))), Tensor(np.ones((2, 6, 4))),
                      Tensor(np.ones((2, 6, 4)))),
    lambda: layer_norm(Tensor(np.ones((4, 6))), Tensor(np.ones((3, 1, 6))), Tensor(np.zeros(6))),
    lambda: layer_norm(Tensor(np.ones((4, 6))), Tensor(np.ones(6)), Tensor(np.zeros((1, 6)))),
], ids=["linear-bias-broadcasts", "attention-query-shared-by-frames",
        "attention-query-shared-by-batch", "layer_norm-gamma-broadcasts-x",
        "layer_norm-beta-not-1d"])
def test_broadcast_layouts_rejected(call):
    # Each op takes the one layout the model passes it; a query shared by
    # several frames is broadcast before attention, as the com projector does.
    with pytest.raises(TensorError):
        call()
