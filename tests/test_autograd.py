"""Backward-pass behavior and finite-difference gradient oracles."""

import gc
import weakref

import numpy as np
import pytest

from vpfuse.tensor import (
    Tape,
    Tensor,
    TensorError,
    backward,
    broadcast_to,
    concat,
    conv3d,
    cross_entropy,
    embedding,
    gelu,
    grad_check,
    layer_norm,
    matmul,
    mul,
    pool_grid,
    slice_axis,
    softmax,
    tmean,
    transpose,
    tsum,
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
        with Tape() as tape:
            y = mul(x, x)
            z = y + y
            loss = tsum(z)
            tape.backward(loss)
            assert all(e.fired == 1 for e in tape.entries)

    def test_scalar_required(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(TensorError):
                tape.backward(y)

    def test_detached_tensor_rejected(self):
        x = Tensor(np.array(1.0), requires_grad=True)
        with pytest.raises(TensorError):
            backward(x)

    def test_backward_after_tape_dropped_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = tsum(mul(x, x))
        # Tensors point at their tape weakly: once the caller drops it, the
        # graph is gone and backward must refuse rather than do nothing.
        with pytest.raises(TensorError):
            backward(loss)

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
        x = Tensor(rng.randn(5))
        err = grad_check(lambda t: cross_entropy(t, 2), x)
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
    return Tensor(rng.randn(4, 5)), lambda t: tsum(mul(t + other, t + other))


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
    return Tensor(rng.randn(3, 6)), lambda t: tsum(mul(softmax(t, axis=-1), w))


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


@_case("conv3d_input")
def _conv_x_case(rng):
    k = Tensor(rng.randn(3, 3, 3, 2, 3))
    return (Tensor(rng.randn(4, 4, 4, 2)),
            lambda t: tsum(conv3d(t, k, (1, 2, 2), (1, 1, 1))))


@_case("conv3d_kernel")
def _conv_k_case(rng):
    x = Tensor(rng.randn(4, 4, 4, 2))
    return (Tensor(rng.randn(3, 3, 3, 2, 3)),
            lambda t: tsum(conv3d(x, t, (2, 1, 1), (1, 0, 0))))


@_case("conv3d_tap_in_padding")
def _conv_pad_case(rng):
    # T axis: extent 2, pad 2, stride 3 -> kernel offset 1 reads only padding.
    k = Tensor(rng.randn(3, 3, 3, 2, 2))
    return (Tensor(rng.randn(2, 4, 5, 2)),
            lambda t: tsum(conv3d(t, k, (3, 1, 2), (2, 0, 1))))


@_case("pool_grid")
def _pool_case(rng):
    w = Tensor(rng.randn(1, 3, 3, 2))
    return (Tensor(rng.randn(1, 5, 5, 2)),
            lambda t: tsum(mul(pool_grid(t, 2), w)))


@_case("embedding")
def _embed_case(rng):
    ids = np.array([1, 3, 1, 0])
    w = Tensor(rng.randn(4, 5))
    return (Tensor(rng.randn(6, 5)),
            lambda t: tsum(mul(embedding(t, ids), w)))


@_case("cross_entropy_batched")
def _ce_case(rng):
    return Tensor(rng.randn(4, 5)), lambda t: cross_entropy(t, [0, 3, 1, 4])


@pytest.mark.parametrize("case", ISOLATED_CASES)
def test_isolated_op_gradients(case):
    rng = np.random.RandomState(42)
    x, f = case(rng)
    assert grad_check(f, x) < 1e-6


def test_composed_graph_gradient():
    # attention-flavored composite graph checked against finite differences
    rng = np.random.RandomState(8)
    wq = Tensor(rng.randn(6, 4))
    wk = Tensor(rng.randn(6, 4))
    wv = Tensor(rng.randn(6, 6))
    gamma = Tensor(np.ones(6))
    beta = Tensor(np.zeros(6))

    def f(x):
        h = layer_norm(x, gamma, beta)
        scores = matmul(matmul(h, wq), transpose(matmul(h, wk), (1, 0))) * 0.5
        ctx = matmul(softmax(scores, axis=-1), matmul(h, wv))
        return cross_entropy(tmean(gelu(ctx), axis=0), 2)

    x = Tensor(rng.randn(5, 6))
    assert grad_check(f, x) < 1e-4
