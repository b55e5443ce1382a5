"""Forward-value checks for the tensor ops, against hand oracles."""

import math

import numpy as np
import pytest

from reference_ops import gelu, matmul, tsum
from vpfuse.tensor import (
    NonFiniteError,
    Tape,
    Tensor,
    TensorError,
    add,
    concat,
    conv3d,
    conv3d_out_dims,
    cross_entropy,
    embedding,
    even_edges,
    grid_edges,
    layer_norm,
    mul,
    pool,
    softmax,
    tmean,
)


def naive_conv3d(x, kernel, stride, pad):
    """Triple-loop reference convolution; the oracle the fast path must match."""
    t, h, w, cin = x.shape
    k = kernel.shape[0]
    cout = kernel.shape[4]
    st, sh, sw = stride
    pt, ph, pw = pad
    xp = np.pad(x, ((pt, pt), (ph, ph), (pw, pw), (0, 0)))
    to = (t + 2 * pt - k) // st + 1
    ho = (h + 2 * ph - k) // sh + 1
    wo = (w + 2 * pw - k) // sw + 1
    out = np.zeros((to, ho, wo, cout))
    for ot in range(to):
        for oh in range(ho):
            for ow in range(wo):
                for co in range(cout):
                    acc = 0.0
                    for dt in range(k):
                        for dh in range(k):
                            for dw in range(k):
                                for ci in range(cin):
                                    acc += (xp[ot * st + dt, oh * sh + dh, ow * sw + dw, ci]
                                            * kernel[dt, dh, dw, ci, co])
                    out[ot, oh, ow, co] = acc
    return out


def padded_conv3d_reference(x, kernel, g, stride, pad):
    """Zero-pad, then one matmul per kernel offset over the whole padded
    volume: output and dk for upstream gradient ``g``."""
    k = kernel.shape[0]
    lead = x.ndim - 4
    xp = np.pad(x, [(0, 0)] * lead + [(p, p) for p in pad] + [(0, 0)])
    dims_out = g.shape[lead:lead + 3]

    def window(dt, dh, dw):
        return (Ellipsis,) + tuple(slice(o, o + (n - 1) * s + 1, s) for o, n, s in
                                   zip((dt, dh, dw), dims_out, stride)) + (slice(None),)

    out = np.zeros(g.shape)
    dk = np.zeros_like(kernel)
    contract = tuple(range(g.ndim - 1))
    for dt in range(k):
        for dh in range(k):
            for dw in range(k):
                sl = window(dt, dh, dw)
                out += xp[sl] @ kernel[dt, dh, dw]
                dk[dt, dh, dw] = np.tensordot(xp[sl], g, axes=(contract, contract))
    return out, dk


class TestConv3d:
    def test_full_scale_aligned_shape(self):
        # (8,27,27) with k=3, stride (1,2,2), pad (1,1,1) -> (8,14,14); 8*14*14 = 1568
        dims = conv3d_out_dims((8, 27, 27), 3, (1, 2, 2), (1, 1, 1))
        assert dims == (8, 14, 14)
        assert dims[0] * dims[1] * dims[2] == 1568

    def test_full_scale_unmodified_shape(self):
        # (8,27,27) with k=3, stride (2,2,2), pad (1,0,0) -> (4,13,13); 13*13*4 = 676
        dims = conv3d_out_dims((8, 27, 27), 3, (2, 2, 2), (1, 0, 0))
        assert dims == (4, 13, 13)
        assert dims[0] * dims[1] * dims[2] == 676

    @pytest.mark.parametrize("k, stride, pad, message", [
        (3, (1, 0, 1), (1, 1, 1), "stride"),
        (3, (1, 1, 1), (1, -1, 1), "padding"),
        (9, (1, 1, 1), (0, 0, 2), "kernel 9 exceeds padded extent 8"),
    ], ids=["stride-0", "negative-pad", "kernel-exceeds-padded-extent"])
    def test_out_dims_reject_bad_geometry(self, k, stride, pad, message):
        with pytest.raises(TensorError, match=message):
            conv3d_out_dims((8, 8, 4), k, stride, pad)

    def test_identity_kernel(self):
        rng = np.random.RandomState(0)
        x = rng.randn(3, 5, 4, 6)
        kernel = np.eye(6).reshape(1, 1, 1, 6, 6)
        out = conv3d(Tensor(x[None]), Tensor(kernel), (1, 1, 1), (0, 0, 0))
        np.testing.assert_array_equal(out.data[0], x)

    @pytest.mark.parametrize("shape,k,stride,pad", [
        ((4, 5, 6, 2), 3, (1, 1, 1), (1, 1, 1)),
        ((5, 7, 6, 3), 3, (2, 2, 2), (1, 0, 0)),
        ((6, 6, 6, 2), 3, (1, 2, 2), (1, 1, 1)),
        ((4, 4, 4, 1), 1, (1, 1, 1), (0, 0, 0)),
        ((3, 8, 5, 2), 2, (2, 1, 2), (0, 1, 0)),
    ])
    def test_matches_naive_reference(self, shape, k, stride, pad):
        rng = np.random.RandomState(7)
        x = rng.randn(*shape)
        kernel = rng.randn(k, k, k, shape[-1], 3)
        fast = conv3d(Tensor(x[None]), Tensor(kernel), stride, pad).data[0]
        ref = naive_conv3d(x, kernel, stride, pad)
        assert fast.shape == ref.shape
        np.testing.assert_allclose(fast, ref, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("shape,k,stride,pad", [
        ((2, 8, 4, 4, 5), 3, (1, 1, 1), (1, 1, 1)),   # the desk stc shape, smaller
        ((1, 5, 7, 6, 3), 3, (2, 1, 3), (1, 0, 2)),
        ((2, 3, 6, 5, 2), 2, (1, 2, 2), (1, 1, 0)),
        ((1, 2, 4, 5, 2), 3, (3, 1, 2), (2, 0, 1)),    # T offset 1 reads only padding
    ])
    def test_forward_and_grads_match_padded_reference(self, shape, k, stride, pad):
        rng = np.random.RandomState(11)
        x = Tensor(rng.randn(*shape))
        kernel = Tensor(rng.randn(k, k, k, shape[-1], 3), requires_grad=True)
        with Tape() as tape:
            out = conv3d(x, kernel, stride, pad)
            g = rng.randn(*out.shape)
            tape.backward(tsum(mul(out, Tensor(g))))
        ref_out, ref_dk = padded_conv3d_reference(x.data, kernel.data, g, stride, pad)
        np.testing.assert_allclose(out.data, ref_out, rtol=1e-12, atol=0)
        np.testing.assert_allclose(kernel.grad, ref_dk, rtol=1e-12, atol=0)

    def test_batched_matches_per_sample(self):
        rng = np.random.RandomState(3)
        x = rng.randn(2, 4, 5, 5, 2)
        kernel = rng.randn(3, 3, 3, 2, 4)
        batched = conv3d(Tensor(x), Tensor(kernel), (1, 2, 2), (1, 1, 1)).data
        for b in range(2):
            single = conv3d(Tensor(x[b][None]), Tensor(kernel), (1, 2, 2), (1, 1, 1)).data
            np.testing.assert_array_equal(batched[b], single[0])

    def test_channel_mismatch_raises(self):
        with pytest.raises(TensorError):
            conv3d(Tensor(np.zeros((1, 2, 4, 4, 3))), Tensor(np.zeros((3, 3, 3, 2, 5))),
                   (1, 1, 1), (0, 0, 0))

    def test_unbatched_input_raises(self):
        with pytest.raises(TensorError):
            conv3d(Tensor(np.zeros((2, 4, 4, 1))), Tensor(np.zeros((1, 1, 1, 1, 1))),
                   (1, 1, 1), (0, 0, 0))

    def test_input_requiring_grad_raises(self):
        # conv3d takes frozen features: it computes no input gradient.
        x = Tensor(np.zeros((1, 2, 4, 4, 1)), requires_grad=True)
        kernel = Tensor(np.zeros((1, 1, 1, 1, 1)), requires_grad=True)
        with pytest.raises(TensorError, match="conv3d"):
            conv3d(x, kernel, (1, 1, 1), (0, 0, 0))

    def test_non_positive_output_raises(self):
        with pytest.raises(TensorError):
            conv3d(Tensor(np.zeros((1, 2, 4, 4, 1))), Tensor(np.zeros((3, 3, 3, 1, 1))),
                   (1, 1, 1), (0, 0, 0))


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]

    def test_large_input_is_identity(self):
        out = gelu(Tensor(np.array([10.0]))).data[0]
        assert abs(out - 10.0) < 1e-9

    def test_matches_erf_form(self):
        x = np.linspace(-4, 4, 41)
        expected = x * 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2)) for v in x]))
        np.testing.assert_allclose(gelu(Tensor(x)).data, expected, atol=1e-14)


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor(np.zeros(3))).data
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3])

    def test_analytic_ln2(self):
        out = softmax(Tensor(np.array([math.log(2.0), 0.0, 0.0]))).data
        np.testing.assert_allclose(out, [0.5, 0.25, 0.25], atol=1e-15)

    def test_shift_invariance_bitwise(self):
        # Dyadic inputs plus a dyadic shift make x + c exact, so the
        # max-subtracted computation is bitwise identical.
        rng = np.random.RandomState(5)
        x = np.round(rng.randn(4, 6) * 2 ** 20) * 2.0 ** -20
        for c in (1.0, 256.0, -64.0):
            a = softmax(Tensor(x)).data
            b = softmax(Tensor(x + c)).data
            np.testing.assert_array_equal(a, b)

    def test_simplex_property(self):
        # logit gaps stay below ~30 so strict (0,1) is representable in float64
        rng = np.random.RandomState(11)
        for _ in range(50):
            x = rng.randn(5, 7) * rng.choice([0.1, 1.0, 4.0])
            p = softmax(Tensor(x)).data
            assert np.all(p > 0.0) and np.all(p < 1.0)
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_last_axis_only(self):
        # Each row of a (2, 3) input is its own distribution.
        out = softmax(Tensor(np.array([[0.0, 0.0, 0.0], [math.log(2.0), 0.0, 0.0]]))).data
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3], [0.5, 0.25, 0.25]], atol=1e-15)


class TestCrossEntropy:
    def test_uniform_four_way(self):
        loss = cross_entropy(Tensor(np.zeros((1, 4))), [1]).item()
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_saturated_correct_class(self):
        loss = cross_entropy(Tensor(np.array([[50.0, -50.0]])), [0]).item()
        assert loss < 1e-9

    def test_direct_formula_oracle(self):
        # oracle: -log(exp(z_y) / sum exp(z)) evaluated directly
        z = np.array([1.0, 2.0, 3.0])
        expected = -math.log(math.exp(z[2]) / np.exp(z).sum())
        loss = cross_entropy(Tensor(z[None]), [2]).item()
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 0.40760596) < 1e-7

    def test_batched_is_mean(self):
        z = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        per = [cross_entropy(Tensor(z[:1]), [2]).item(),
               cross_entropy(Tensor(z[1:]), [0]).item()]
        batch = cross_entropy(Tensor(z), [2, 0]).item()
        assert abs(batch - np.mean(per)) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(TensorError):
            cross_entropy(Tensor(np.zeros((1, 3))), [3])

    def test_logits_must_be_2d(self):
        with pytest.raises(TensorError):
            cross_entropy(Tensor(np.zeros(3)), [0])


class TestPlumbingOps:
    def test_concat_and_mean(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.full((2, 2), 4.0))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(tmean(out, axis=1).data, [2.2, 2.2])

    def test_sum_all(self):
        assert tsum(Tensor(np.arange(6).reshape(2, 3))).item() == 15.0

    def test_matmul_batched(self):
        rng = np.random.RandomState(2)
        a = rng.randn(4, 2, 3)
        b = rng.randn(4, 3, 5)
        out = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(out, a @ b)

    def test_embedding_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding(table, np.array([2, 0]))
        np.testing.assert_array_equal(out.data, [[6, 7, 8], [0, 1, 2]])
        with pytest.raises(TensorError):
            embedding(table, np.array([4]))

    def test_layer_norm_normalizes(self):
        rng = np.random.RandomState(9)
        x = rng.randn(5, 8) * 3 + 2
        g = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        y = layer_norm(Tensor(x), g, b).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)

    @pytest.mark.parametrize("x_shape", [(7,), (3, 5), (2, 4, 6)], ids=["1d", "2d", "3d"])
    def test_layer_norm_matches_numpy_mean_var(self, x_shape):
        # layer_norm reuses x - mu for the variance; np.mean and np.var are
        # the reference form it must equal bit for bit.
        rng = np.random.RandomState(11)
        x = rng.randn(*x_shape) * 4.0 + 3.0
        gamma, beta = rng.randn(x_shape[-1]), rng.randn(x_shape[-1])
        mu = x.mean(axis=-1, keepdims=True)
        xhat = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5))
        out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        assert np.array_equal(out, xhat * gamma + beta)

    def test_nary_add_is_one_entry_of_chained_sums(self):
        a, b, c = (Tensor(np.array(v), requires_grad=True) for v in (0.5, 1e-17, -0.25))
        with Tape() as tape:
            out = add(a, b, c)
            assert len(tape.entries) == 1
        assert out.data == (0.5 + 1e-17) + -0.25
        assert out.shape == ()

    def test_pool_grid_even_and_uneven(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = pool(Tensor(x), grid_edges(4, 2), grid_edges(4, 2)).data
        np.testing.assert_allclose(out[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])
        # 27 -> 14 bins with a 1-wide trailing bin, matching ceil(27/2)
        y = np.ones((1, 27, 27, 2))
        np.testing.assert_array_equal(grid_edges(27, 2), list(range(0, 27, 2)) + [27])
        pooled = pool(Tensor(y), grid_edges(27, 2), grid_edges(27, 2))
        assert pooled.shape == (1, 14, 14, 2)
        np.testing.assert_allclose(pooled.data, 1.0)

    def test_pool_even_bins(self):
        np.testing.assert_array_equal(even_edges(5, 2), [0, 2, 5])
        x = np.arange(25.0).reshape(5, 5, 1)
        out = pool(Tensor(x), even_edges(5, 2), even_edges(5, 1)).data
        np.testing.assert_allclose(out[:, 0, 0], [x[:2].mean(), x[2:].mean()])

    def test_pool_input_requiring_grad_raises(self):
        # pool takes frozen features: it records no backward rule.
        x = Tensor(np.ones((1, 4, 4, 1)), requires_grad=True)
        with pytest.raises(TensorError, match="pool"):
            pool(x, grid_edges(4, 2), grid_edges(4, 2))

    def test_pool_rejects_bad_edges(self):
        x = Tensor(np.ones((1, 4, 4, 1)))
        for edges in ([0, 2], [1, 4], [0, 2, 2, 4], [0, 3, 2, 4], [[0, 4]]):
            with pytest.raises(TensorError):
                pool(x, edges, [0, 4])
        with pytest.raises(TensorError):
            even_edges(4, 5)
        with pytest.raises(TensorError):
            grid_edges(4, 0)


class TestFiniteGuard:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_op_raises(self):
        big = Tensor(np.array([1e308]))
        with pytest.raises(NonFiniteError):
            add(big, big)

    def test_constructor_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.nan]))

    def test_serialization_roundtrip_bit_exact(self):
        rng = np.random.RandomState(1)
        x = rng.randn(3, 4, 5)
        t = Tensor(x)
        raw = t.data.tobytes()
        back = np.frombuffer(raw, dtype=np.float64).reshape(t.shape)
        assert back.tobytes() == raw
        np.testing.assert_array_equal(back, t.data)


def test_ops_record_only_under_tape():
    a = Tensor(np.ones(3), requires_grad=True)
    out = mul(a, a)
    assert out._tape is None  # no active tape, nothing recorded
    with Tape() as tape:
        out2 = mul(a, a)
        assert len(tape.entries) == 1 and out2._tape() is tape  # weak back-reference
