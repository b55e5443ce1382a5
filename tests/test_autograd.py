"""Backward-pass behavior and finite-difference gradient oracles."""

import gc
import threading
import weakref

import numpy as np
import pytest

from reference_ops import gelu, grad_check, matmul, transpose, tsum
from vpfuse.tensor import (
    Tape,
    Tensor,
    TensorError,
    add,
    attention,
    broadcast_to,
    concat,
    conv3d,
    cross_entropy,
    embedding,
    layer_norm,
    linear,
    mul,
    reshape,
    slice_axis,
    softmax,
    tmean,
)


def run_backward(build):
    with Tape() as tape:
        loss = build()
        tape.backward(loss)
    return loss


class TestBackwardContract:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        run_backward(lambda: tsum(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_gelu_grad_at_zero(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        run_backward(lambda: tsum(gelu(x)))
        np.testing.assert_allclose(x.grad, 0.5)

    def test_repeated_backward_doubles(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(x, x))
            tape.backward(loss)
            first = x.grad.copy()
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_each_rule_fires_once_per_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        calls = []

        def counted(i, rule):
            def wrapper(g):
                calls.append(i)
                return rule(g)
            return wrapper

        with Tape() as tape:
            y = mul(x, x)
            z = add(y, y)
            loss = tsum(z)
            for i, entry in enumerate(tape.entries):
                entry.rule = counted(i, entry.rule)
            tape.backward(loss)
        assert sorted(calls) == list(range(len(tape.entries)))

    def test_scalar_required(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(TensorError):
                tape.backward(y)

    def test_detached_tensor_rejected(self):
        x = Tensor(np.array(1.0), requires_grad=True)
        with Tape() as tape:
            with pytest.raises(TensorError):
                tape.backward(x)

    def test_graph_freed_by_reference_counting(self):
        x = Tensor(np.ones(3), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                hidden = mul(x, x)
                loss = tsum(hidden)
                tape.backward(loss)
            probe = weakref.ref(hidden)
            del tape, loss, hidden
            assert probe() is None  # no tape <-> tensor cycle keeps it alive
        finally:
            gc.enable()

    def test_second_tape_on_a_thread_is_refused(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            with pytest.raises(RuntimeError):
                with Tape():
                    pass
            loss = tsum(mul(x, x))  # the first tape keeps recording
            assert loss._tape() is tape
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0)

    def test_tape_on_another_thread_is_independent(self):
        x = Tensor(np.ones(3), requires_grad=True)
        seen = {}

        def record_elsewhere():
            with Tape() as other:
                out = mul(x, x)
                seen["own"] = out._tape() is other and len(other.entries) == 1

        with Tape() as tape:
            y = mul(x, x)
            worker = threading.Thread(target=record_elsewhere)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive() and seen["own"]
            z = mul(y, y)
        assert [e.output for e in tape.entries] == [y, z]

    def test_no_grad_through_non_required(self):
        x = Tensor(np.ones(3))
        w = Tensor(np.ones(3), requires_grad=True)
        run_backward(lambda: tsum(mul(x, w)))
        assert x.grad is None
        np.testing.assert_allclose(w.grad, 1.0)


class TestGradCheckExamples:
    def test_linear_map_is_exact(self):
        rng = np.random.RandomState(0)
        w = rng.randn(6)
        x = Tensor(rng.randn(6))
        err = grad_check(lambda t: tsum(mul(t, Tensor(w))), x)
        assert err < 1e-10

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.RandomState(1)
        x = Tensor(rng.randn(1, 5))
        err = grad_check(lambda t: cross_entropy(t, [2]), x)
        assert err < 1e-6

    def test_rejects_non_scalar(self):
        x = Tensor(np.ones(3))
        with pytest.raises(TensorError):
            grad_check(lambda t: mul(t, t), x)

    def test_rejects_bad_eps(self):
        with pytest.raises(TensorError):
            grad_check(lambda t: tsum(t), Tensor(np.ones(2)), eps=0.0)


# Each differentiable op in isolation must pass grad_check below 1e-6.
ISOLATED_CASES = []


def _case(name):
    def deco(fn):
        ISOLATED_CASES.append(pytest.param(fn, id=name))
        return fn
    return deco


@_case("add_broadcast")
def _add_case(rng):
    other = Tensor(rng.randn(4, 1))
    return Tensor(rng.randn(4, 5)), lambda t: tsum(mul(add(t, other), add(t, other)))


@_case("mul_broadcast")
def _mul_case(rng):
    other = Tensor(rng.randn(5))
    return Tensor(rng.randn(4, 5)), lambda t: tsum(mul(t, other))


@_case("matmul")
def _matmul_case(rng):
    b = Tensor(rng.randn(5, 3))
    return Tensor(rng.randn(4, 5)), lambda t: tsum(mul(matmul(t, b), matmul(t, b)))


@_case("matmul_batched")
def _matmul_batched_case(rng):
    b = Tensor(rng.randn(2, 4, 3))
    return Tensor(rng.randn(2, 3, 4)), lambda t: tsum(matmul(t, b))


@_case("gelu")
def _gelu_case(rng):
    return Tensor(rng.randn(7)), lambda t: tsum(gelu(t))


@_case("softmax")
def _softmax_case(rng):
    w = Tensor(rng.randn(3, 6))
    return Tensor(rng.randn(3, 6)), lambda t: tsum(mul(softmax(t), w))


@_case("layer_norm")
def _ln_case(rng):
    g = Tensor(rng.randn(6))
    b = Tensor(rng.randn(6))
    return Tensor(rng.randn(4, 6)), lambda t: tsum(mul(layer_norm(t, g, b), layer_norm(t, g, b)))


@_case("layer_norm_gamma")
def _ln_gamma_case(rng):
    x = Tensor(rng.randn(4, 6))
    b = Tensor(rng.randn(6))
    return Tensor(rng.randn(6)), lambda t: tsum(mul(layer_norm(x, t, b), layer_norm(x, t, b)))


@_case("concat_mean")
def _concat_case(rng):
    other = Tensor(rng.randn(3, 2))
    return Tensor(rng.randn(3, 4)), lambda t: tsum(tmean(concat([t, other], axis=1), axis=1))


@_case("slice")
def _slice_case(rng):
    return Tensor(rng.randn(4, 6)), lambda t: tsum(mul(slice_axis(t, 1, 2, 5), slice_axis(t, 1, 1, 4)))


@_case("broadcast_to")
def _broadcast_case(rng):
    w = Tensor(rng.randn(3, 4, 2))
    return Tensor(rng.randn(2,)), lambda t: tsum(mul(broadcast_to(t, (3, 4, 2)), w))


@_case("transpose")
def _transpose_case(rng):
    w = Tensor(rng.randn(3, 2))
    return Tensor(rng.randn(2, 3)), lambda t: tsum(mul(transpose(t, (1, 0)), w))


@_case("conv3d_kernel")
def _conv_k_case(rng):
    x = Tensor(rng.randn(1, 4, 4, 4, 2))
    return (Tensor(rng.randn(3, 3, 3, 2, 3)),
            lambda t: tsum(conv3d(x, t, (2, 1, 1), (1, 0, 0))))


@_case("conv3d_tap_in_padding")
def _conv_pad_case(rng):
    # T axis: extent 2, pad 2, stride 3 -> kernel offset 1 reads only padding,
    # so its kernel gradient is exactly zero.
    x = Tensor(rng.randn(1, 2, 4, 5, 2))
    return (Tensor(rng.randn(3, 3, 3, 2, 2)),
            lambda t: tsum(conv3d(x, t, (3, 1, 2), (2, 0, 1))))


@_case("embedding")
def _embed_case(rng):
    ids = np.array([1, 3, 1, 0])
    w = Tensor(rng.randn(4, 5))
    return (Tensor(rng.randn(6, 5)),
            lambda t: tsum(mul(embedding(t, ids), w)))


@_case("embedding_axis")
def _embed_axis_case(rng):
    # Frames 2, 0 and 2 of a (B, T, N, D) clip: a repeated frame adds up.
    ids = np.array([2, 0, 2])
    w = Tensor(rng.randn(2, 3, 4, 5))
    return (Tensor(rng.randn(2, 4, 4, 5)),
            lambda t: tsum(mul(embedding(t, ids, axis=1), w)))


@_case("cross_entropy_batched")
def _ce_case(rng):
    return Tensor(rng.randn(4, 5)), lambda t: cross_entropy(t, [0, 3, 1, 4])


@_case("linear_x_2d")
def _linear_x_case(rng):
    w, b = Tensor(rng.randn(5, 3)), Tensor(rng.randn(3))  # w frozen
    return Tensor(rng.randn(4, 5)), lambda t: tsum(mul(linear(t, w, b), linear(t, w, b)))


@_case("linear_gelu_x_3d")
def _linear_gelu_x_case(rng):
    w, b = Tensor(rng.randn(5, 3)), Tensor(rng.randn(3))
    m = Tensor(rng.randn(2, 4, 3))
    return Tensor(rng.randn(2, 4, 5)), lambda t: tsum(mul(linear(t, w, b, "gelu"), m))


@_case("linear_w_3d")
def _linear_w_case(rng):
    x, b = Tensor(rng.randn(2, 4, 5)), Tensor(rng.randn(3))  # x frozen
    return Tensor(rng.randn(5, 3)), lambda t: tsum(mul(linear(x, t, b), linear(x, t, b)))


@_case("linear_gelu_w_2d")
def _linear_gelu_w_case(rng):
    x, b = Tensor(rng.randn(4, 5)), Tensor(rng.randn(3))
    m = Tensor(rng.randn(4, 3))
    return Tensor(rng.randn(5, 3)), lambda t: tsum(mul(linear(x, t, b, "gelu"), m))


@_case("linear_gelu_bias")
def _linear_gelu_b_case(rng):
    x, w = Tensor(rng.randn(2, 4, 5)), Tensor(rng.randn(5, 3))
    m = Tensor(rng.randn(2, 4, 3))
    return Tensor(rng.randn(3)), lambda t: tsum(mul(linear(x, w, t, "gelu"), m))


@_case("attention_q")
def _attention_q_case(rng):
    k, v = Tensor(rng.randn(2, 5, 4)), Tensor(rng.randn(2, 5, 3))
    m = Tensor(rng.randn(2, 3, 3))
    return Tensor(rng.randn(2, 3, 4)), lambda t: tsum(mul(attention(t, k, v), m))


@_case("attention_q_broadcast_over_frames")
def _attention_q_bcast_case(rng):
    # One query set per batch row, broadcast to every frame, as in the com projector.
    kv = Tensor(rng.randn(2, 3, 5, 4))
    m = Tensor(rng.randn(2, 3, 2, 4))
    return (Tensor(rng.randn(2, 1, 2, 4)),
            lambda t: tsum(mul(attention(broadcast_to(t, (2, 3, 2, 4)), kv, kv), m)))


@_case("attention_k")
def _attention_k_case(rng):
    q, v = Tensor(rng.randn(2, 3, 4)), Tensor(rng.randn(2, 5, 3))
    m = Tensor(rng.randn(2, 3, 3))
    return Tensor(rng.randn(2, 5, 4)), lambda t: tsum(mul(attention(q, t, v), m))


@_case("attention_v")
def _attention_v_case(rng):
    q, k = Tensor(rng.randn(3, 4)), Tensor(rng.randn(5, 4))
    m = Tensor(rng.randn(3, 2))
    return Tensor(rng.randn(5, 2)), lambda t: tsum(mul(attention(q, k, t), m))


@_case("attention_k_is_v")
def _attention_kv_case(rng):
    q = broadcast_to(Tensor(rng.randn(2, 1, 3, 4)), (2, 2, 3, 4))
    m = Tensor(rng.randn(2, 2, 3, 4))
    return (Tensor(rng.randn(2, 2, 5, 4)),
            lambda t: tsum(mul(attention(q, t, t), m)))


@pytest.mark.parametrize("case", ISOLATED_CASES)
def test_isolated_op_gradients(case):
    rng = np.random.RandomState(42)
    x, f = case(rng)
    assert grad_check(f, x) < 1e-6


def _attention_graph(params, fused):
    """Pre-LN attention with a GELU output layer, built from the fused ops or
    from the composed ops they replace."""
    gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo = params

    def f(x):
        h = layer_norm(x, gamma, beta)
        if fused:
            ctx = attention(linear(h, wq, bq), linear(h, wk, bk), linear(h, wv, bv))
            out = linear(ctx, wo, bo, "gelu")
        else:
            q = add(matmul(h, wq), bq)
            k = add(matmul(h, wk), bk)
            v = add(matmul(h, wv), bv)
            # 0.5 = 1 / sqrt(4), the scale of attention's width-4 queries
            scores = mul(matmul(q, transpose(k, (1, 0))), Tensor(np.array(0.5)))
            ctx = matmul(softmax(scores), v)
            out = gelu(add(matmul(ctx, wo), bo))
        return cross_entropy(reshape(tmean(out, axis=0), (1, -1)), [2])
    return f


def _attention_graph_params(rng):
    shapes = [(6,), (6,), (6, 4), (4,), (6, 4), (4,), (6, 6), (6,), (6, 6), (6,)]
    params = [Tensor(rng.randn(*s)) for s in shapes]
    params[0] = Tensor(np.ones(6))
    return params


def test_composed_graph_gradient():
    # attention-flavored composite graph checked against finite differences
    rng = np.random.RandomState(8)
    f = _attention_graph(_attention_graph_params(rng), fused=True)
    x = Tensor(rng.randn(5, 6))
    assert grad_check(f, x) < 1e-4


def test_composed_graph_fused_equals_composed():
    # The same graph through the fused ops and through the composed ops:
    # loss and every gradient agree bit for bit.
    rng = np.random.RandomState(8)
    params = _attention_graph_params(rng)
    x = Tensor(rng.randn(5, 6), requires_grad=True)
    results = []
    for fused in (True, False):
        for t in [x, *params]:
            t.requires_grad = True
            t.grad = None
        with Tape() as tape:
            loss = _attention_graph(params, fused)(x)
            tape.backward(loss)
        results.append([loss.data] + [t.grad for t in [x, *params]])
    for got, want in zip(*results):
        assert np.array_equal(got, want)
