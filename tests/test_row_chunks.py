"""Kernels split into chunks across threads: every forward named in
``vpfuse.tensor``'s docstring by rows of the leading axis; the backward of
``attention``, ``linear`` (batched input) and ``layer_norm`` by batch rows;
and conv3d's kernel gradient by kernel taps.

On shapes large enough to split, outputs and every gradient must be bitwise
equal to the unsplit reference and to the same op on one thread.  The desk
shapes must reach the split paths, which is checked from the chunk counts
(a function of the shape), not from timing.

The hand-off itself (``tensor._over_rows``) keeps a contract of its own:
chunk 0 runs on the caller, a finished call leaves no job holding its
arrays, and a forked child gets workers of its own.
"""

import contextlib
import ctypes
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fused_ops import (
    assert_bitwise,
    attention_call,
    composed_attention,
    composed_linear,
    flags,
    run,
)
from test_tensor_ops import padded_conv3d_reference
from vpfuse import tensor
from vpfuse.tensor import (
    NonFiniteError,
    Tape,
    Tensor,
    add,
    attention,
    conv3d,
    even_edges,
    grid_edges,
    layer_norm,
    linear,
    pool,
    tsum,
)


@contextlib.contextmanager
def threads(n):
    saved = tensor._WORKERS
    tensor._WORKERS = n
    try:
        yield
    finally:
        tensor._WORKERS = saved


def split_and_serial(op, inputs, weight):
    """``run`` with three threads and with one; both must agree bit for bit."""
    with threads(3):
        split = run(op, inputs, weight)
    with threads(1):
        serial = run(op, inputs, weight)
    assert_bitwise(split, serial)
    return split


def seeded(draw):
    return np.random.RandomState(draw(st.integers(0, 2 ** 31 - 1)))


def require_grads(draw, tensors):
    for t, on in zip(tensors, flags(draw, len(tensors))):
        t.requires_grad = on


def test_chunks_depend_on_shape_only():
    assert tensor._row_chunks(64, 134 * 64) == [
        slice(0, 16), slice(16, 32), slice(32, 48), slice(48, 64)]
    assert tensor._row_chunks(8, 10_000) == [slice(0, 4), slice(4, 8)]
    assert tensor._row_chunks(7, 10_000) == [slice(None)]
    assert tensor._row_chunks(1, 10 ** 6) == [slice(None)]
    assert tensor._row_chunks(64, 100) == [slice(None)]
    for rows in range(1, 70):
        for work in (1_000, 5_000, 40_000):
            chunks = tensor._row_chunks(rows, work)
            assert len(chunks) <= 4
            if len(chunks) > 1:
                assert all((c.stop - c.start) * work >= tensor._MIN_CHUNK_WORK
                           for c in chunks)


def test_vendored_blas_runs_one_thread():
    # Row chunks are the only parallelism: importing vpfuse sets numpy's
    # vendored OpenBLAS, where the build has one, to a single thread.
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        assert tensor._BLAS_THREADS is None
    else:
        blas = ctypes.CDLL(str(libs[0]))
        assert blas.scipy_openblas_get_num_threads64_() == tensor._BLAS_THREADS == 1


@st.composite
def big_linear_cases(draw):
    b = draw(st.integers(1, 9))
    t = draw(st.integers(100, 260))
    d = draw(st.integers(2, 12))
    h = draw(st.integers(128, 160))
    act = draw(st.sampled_from([None, "gelu"]))
    rng = seeded(draw)
    x = Tensor(rng.randn(b, t, d) * 2.0)
    w = Tensor(rng.randn(d, h))
    bias = Tensor(rng.randn(h))
    require_grads(draw, (x, w, bias))
    return (x, w, bias), act, rng.randn(b, t, h)


@settings(max_examples=25, deadline=None)
@given(big_linear_cases())
def test_split_linear_bitwise(case):
    inputs, act, weight = case
    split = split_and_serial(lambda x, w, b: linear(x, w, b, act), inputs, weight)
    composed = run(lambda x, w, b: composed_linear(x, w, b, act), inputs, weight)
    assert_bitwise(split, composed)


@st.composite
def big_attention_cases(draw):
    b = draw(st.integers(1, 7))
    layout = draw(st.sampled_from(["tokens", "frames", "shared-batch"]))
    d = draw(st.integers(2, 8))
    k_is_v = draw(st.booleans())
    dv = d if k_is_v else draw(st.integers(2, 8))
    rng = seeded(draw)
    # The query is drawn at q_shape and broadcast to query_shape, if set.
    if layout == "tokens":  # decoder-like self-attention over (B, N, D)
        n = draw(st.integers(150, 260))
        q_shape, k_shape, out_lead, query_shape = (b, n, d), (b, n, d), (b, n), None
    elif layout == "frames":  # one query set broadcast to every frame
        f, n, m = draw(st.integers(16, 32)), draw(st.integers(1, 4)), draw(st.integers(256, 512))
        q_shape, k_shape, out_lead = (b, 1, n, d), (b, f, m, d), (b, f, n)
        query_shape = (b, f, n, d)
    else:  # one query set broadcast to the whole batch
        n, m = draw(st.integers(100, 200)), draw(st.integers(200, 300))
        q_shape, k_shape, out_lead, query_shape = (1, n, d), (b, m, d), (b, n), (b, n, d)
    q = Tensor(rng.randn(*q_shape))
    k = Tensor(rng.randn(*k_shape))
    v = k if k_is_v else Tensor(rng.randn(*k_shape[:-1], dv))
    require_grads(draw, (q, k) if k_is_v else (q, k, v))
    scale = draw(st.floats(0.05, 2.0))
    return (q, k, v), scale, rng.randn(*out_lead, dv), query_shape


@settings(max_examples=25, deadline=None)
@given(big_attention_cases())
def test_split_attention_bitwise(case):
    (q, k, v), scale, weight, query_shape = case
    inputs = (q, k) if k is v else (q, k, v)
    split = split_and_serial(attention_call(attention, scale, query_shape), inputs, weight)
    composed = run(attention_call(composed_attention, scale, query_shape), inputs, weight)
    assert_bitwise(split, composed)


def reference_layer_norm(x, gamma, beta, g, eps=1e-5):
    """The unsplit forward, and the backward for upstream gradient ``g``."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    lead = tuple(range(g.ndim - 1))
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return xhat * gamma + beta, [dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 9), st.integers(200, 400), st.integers(64, 128),
       st.integers(0, 2 ** 31 - 1))
def test_split_layer_norm_bitwise(b, t, d, seed):
    rng = np.random.RandomState(seed)
    inputs = (Tensor(rng.randn(b, t, d) * 3.0 + 1.0, requires_grad=True),
              Tensor(rng.randn(d), requires_grad=True),
              Tensor(rng.randn(d), requires_grad=True))
    weight = rng.randn(b, t, d)
    out, _, grads = split_and_serial(layer_norm, inputs, weight)
    ref_out, ref_grads = reference_layer_norm(*(i.data for i in inputs), weight)
    assert np.array_equal(out, ref_out)
    for got, want in zip(grads, ref_grads):
        assert np.array_equal(got, want)


@st.composite
def big_conv_cases(draw):
    lead = draw(st.sampled_from([(1,), (3,), (5,), (8,)]))
    k = draw(st.integers(1, 3))
    stride = draw(st.sampled_from([(1, 1, 1), (1, 1, 1), (1, 2, 2), (2, 1, 1)]))
    pad = tuple(draw(st.integers(0, 1)) for _ in range(3))
    dims = tuple(draw(st.integers(6, 9)) for _ in range(3))
    cin, cout = draw(st.integers(1, 4)), draw(st.integers(96, 160))
    rng = seeded(draw)
    x = Tensor(rng.randn(*lead, *dims, cin))
    kernel = Tensor(rng.randn(k, k, k, cin, cout))
    require_grads(draw, (x, kernel))
    out_dims = tensor.conv3d_out_dims(dims, k, stride, pad)
    return (x, kernel), stride, pad, rng.randn(*lead, *out_dims, cout)


@settings(max_examples=25, deadline=None)
@given(big_conv_cases())
def test_split_conv3d_bitwise(case):
    (x, kernel), stride, pad, weight = case
    out, _, (dx, dk) = split_and_serial(lambda a, b: conv3d(a, b, stride, pad),
                                        (x, kernel), weight)
    # Unsplit reference: one clip at a time (a batch of one is never split).
    per_clip = np.concatenate([conv3d(Tensor(c[None]), kernel, stride, pad).data
                               for c in x.data])
    assert np.array_equal(out, per_clip)
    # The padded per-offset form runs its GEMMs over other row counts, which
    # round differently, so it is matched to rounding: 1e-12 of each array's
    # scale covers float64 sums over a few hundred terms.
    ref = padded_conv3d_reference(x.data, kernel.data, weight, stride, pad)
    for got, want in zip((out, dx, dk), ref):
        if got is not None:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@contextlib.contextmanager
def chunk_counts():
    """Chunk count of every ``_over_rows`` call made inside the block; a
    function of the shapes alone."""
    counts = []
    over_rows = tensor._over_rows

    def counted(fill, rows, row_work):
        counts.append(len(tensor._row_chunks(rows, row_work)))
        over_rows(fill, rows, row_work)

    tensor._over_rows = counted
    try:
        yield counts
    finally:
        tensor._over_rows = over_rows


def backward_chunk_counts(op, inputs):
    """Chunk count of every ``_over_rows`` call made by the backward of
    ``sum(op(*inputs))``."""
    with Tape() as tape:
        loss = tsum(op(*inputs))
        with chunk_counts() as counts:
            tape.backward(loss)
    return counts


def stc_conv(x, kernel):
    return conv3d(x, kernel, (1, 1, 1), (1, 1, 1))


def test_decoder_attention_backward_splits():
    # The decoder's self-attention at B=16 (p of (16, 134, 134)) splits its
    # backward by batch row; the stc taps are checked below.
    rng = np.random.RandomState(2)
    qkv = [Tensor(rng.randn(16, 134, 32), requires_grad=True) for _ in range(3)]
    [count] = backward_chunk_counts(lambda *a: attention(*a, 0.2), qkv)
    assert count > 1


# Row-local backward rules at the desk's B=16 shapes: (op, input shapes, the
# unsplit reference).  The decoder's FFN and projections, com's per-frame
# projection of its (B, T, 2, D) context tokens, and every pre-LN norm.
DESK_BACKWARDS = {
    "linear-gelu": (lambda x, w, b: linear(x, w, b, "gelu"),
                    [(16, 134, 32), (32, 64), (64,)],
                    lambda x, w, b: composed_linear(x, w, b, "gelu")),
    "linear": (linear, [(16, 134, 64), (64, 32), (32,)], composed_linear),
    "linear-com": (linear, [(16, 32, 2, 32), (32, 32), (32,)], composed_linear),
    "layer_norm": (layer_norm, [(16, 134, 32), (32,), (32,)], None),
}


@pytest.mark.parametrize("case", DESK_BACKWARDS)
def test_row_local_backward_splits_at_desk_shape(case):
    op, shapes, reference = DESK_BACKWARDS[case]
    rng = np.random.RandomState(4)
    inputs = [Tensor(rng.randn(*shape), requires_grad=True) for shape in shapes]
    [count] = backward_chunk_counts(op, inputs)
    assert count > 1
    weight = rng.randn(*op(*inputs).shape)
    out, _, grads = split_and_serial(op, inputs, weight)
    if reference is not None:
        assert_bitwise((out, None, grads), run(reference, inputs, weight))
    else:
        ref_out, ref_grads = reference_layer_norm(*(i.data for i in inputs), weight)
        assert_bitwise((out, None, grads), (ref_out, None, ref_grads))


def test_two_term_add_splits_at_desk_shape():
    # The decoder's residual adds at B=16.
    rng = np.random.RandomState(5)
    a, b = (Tensor(rng.randn(16, 134, 32), requires_grad=True) for _ in range(2))
    with chunk_counts() as counts:
        add(a, b)
    assert counts[0] > 1
    weight = rng.randn(16, 134, 32)
    out, _, grads = split_and_serial(add, (a, b), weight)
    assert np.array_equal(out, a.data + b.data)
    assert all(np.array_equal(g, weight) for g in grads)


@pytest.mark.parametrize("x_grad", [False, True], ids=["frozen-x", "x-grad"])
def test_split_conv3d_taps_at_desk_shape(x_grad):
    # The stc projector's shape at B=16: (B, T, H, W, C) = (16, 8, 4, 4, 32)
    # features and a 3x3x3 kernel with padding 1.  Its 27 taps' kernel
    # gradients run in chunks, and must equal one thread's bit for bit (dx
    # too, if required).
    rng = np.random.RandomState(3)
    x = Tensor(rng.randn(16, 8, 4, 4, 32), requires_grad=x_grad)
    kernel = Tensor(rng.randn(3, 3, 3, 32, 32) * 0.1, requires_grad=True)
    [tap_chunks] = backward_chunk_counts(stc_conv, (x, kernel))
    assert tap_chunks > 1
    _, _, (dx, dk) = split_and_serial(stc_conv, (x, kernel), rng.randn(16, 8, 4, 4, 32))
    assert dk is not None and (dx is not None) == x_grad


def reduceat_pool(x, eh, ew):
    """The pooled mean as ``np.add.reduceat`` sums it, over H then W."""
    summed = np.add.reduceat(np.add.reduceat(x, eh[:-1], axis=-3), ew[:-1], axis=-2)
    return summed / np.outer(np.diff(eh), np.diff(ew))[..., None]


@st.composite
def pool_edges(draw):
    # Bins of 1-7 cells add in sequence, 8-128 in 8 accumulators and wider
    # ones in halves, so every regime of numpy's pairwise sum is drawn.
    size = draw(st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)))
    extent = draw(st.integers(size, 2 * size + 3))
    if draw(st.booleans()):
        return grid_edges(extent, size)
    return even_edges(extent, max(1, extent // size))


@st.composite
def big_pool_cases(draw):
    eh, ew = draw(pool_edges()), draw(pool_edges())
    c = 32 if eh[-1] * ew[-1] < 64 else 2
    # From 1 to 9 rows of 1-48 frames: unsplit, two, three and four chunks.
    x = seeded(draw).randn(draw(st.integers(1, 9)), draw(st.integers(1, 48)),
                           eh[-1], ew[-1], c)
    if draw(st.booleans()):
        x[x < -1.5] = -0.0  # bins of signed zeros keep their sign
    return x, (eh, ew)


@settings(max_examples=40, deadline=None)
@given(big_pool_cases())
def test_split_pool_bitwise(case):
    x, (eh, ew) = case
    sh, sw = np.diff(eh), np.diff(ew)
    weight = np.random.RandomState(0).randn(*x.shape[:2], len(sh), len(sw), x.shape[-1])
    out, _, (dx,) = split_and_serial(lambda a: pool(a, eh, ew),
                                     (Tensor(x, requires_grad=True),), weight)
    want = reduceat_pool(x, eh, ew)
    assert np.array_equal(out, want) and np.array_equal(np.signbit(out), np.signbit(want))
    counts = np.outer(sh, sw)[..., None]
    assert np.array_equal(dx, np.repeat(np.repeat(weight / counts, sh, axis=-3), sw, axis=-2))


@st.composite
def add_cases(draw):
    # The first two terms make the output shape; the others broadcast into it
    # like the encoder's positional tables, or match it like fused streams.
    b, t = draw(st.integers(1, 9)), draw(st.integers(1, 40))
    h, w, d = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(8, 48))
    rng = seeded(draw)
    shapes = [(b, t, h, w, d), (t, 1, 1, d), (h, 1, d), (d,), (b, t, h, w, d)]
    picks = draw(st.lists(st.sampled_from(shapes[1:]), min_size=1, max_size=4))
    terms = [Tensor(rng.randn(*shape)) for shape in [shapes[0]] + picks]
    if draw(st.booleans()):  # the first two terms both carry the full shape
        terms[1] = Tensor(rng.randn(*shapes[0]))
    require_grads(draw, terms)
    return terms, rng.randn(*shapes[0])


@settings(max_examples=40, deadline=None)
@given(add_cases())
def test_nary_add_matches_chained_adds(case):
    terms, weight = case

    def chained(*ts):
        out = ts[0]
        for t in ts[1:]:
            out = add(out, t)
        return out

    split = split_and_serial(add, terms, weight)
    assert_bitwise(split, run(chained, terms, weight))
    assert split[1] == 3  # add, then the loss's mul and sum


def last_chunk_rows(rows, row_work):
    chunks = tensor._row_chunks(rows, row_work)
    assert len(chunks) > 1
    return chunks[-1]


def _poisoned_cases():
    """Per split op: a call on one input Tensor, a clean value for that input
    and the rows of its last chunk, where a poisoned input row makes only that
    chunk's output non-finite."""
    rng = np.random.RandomState(6)
    x = rng.randn(8, 200, 8)
    w, b = rng.randn(8, 128), rng.randn(128)
    q, kv = rng.randn(4, 134, 32), rng.randn(4, 134, 32)
    ln, g = rng.randn(8, 300, 64), rng.randn(64)
    clip, kern = rng.randn(8, 6, 6, 6, 2), rng.randn(3, 3, 3, 2, 128) * 0.1
    feats = rng.randn(8, 32, 4, 4, 32)
    edges = even_edges(4, 1)
    return {
        "linear": (lambda a: linear(a, Tensor(w), Tensor(b), "gelu"), x,
                   last_chunk_rows(8, 200 * 128)),
        # Poisoning v leaves the scores finite: only the output check sees it.
        "attention": (lambda v: attention(Tensor(q), Tensor(kv), v, 0.2), kv,
                      last_chunk_rows(4, 134 * 134)),
        "layer_norm": (lambda a: layer_norm(a, Tensor(g), Tensor(g)), ln,
                       last_chunk_rows(8, 300 * 64)),
        "conv3d": (lambda a: conv3d(a, Tensor(kern), (1, 1, 1), (1, 1, 1)), clip,
                   last_chunk_rows(8, 6 ** 3 * 128)),
        "pool": (lambda a: pool(a, edges, edges), feats,
                 last_chunk_rows(8, 32 * 16 * 32)),
        "add": (lambda a: add(a, Tensor(feats), Tensor(feats)), feats,
                last_chunk_rows(8, 32 * 16 * 32)),
    }


@pytest.mark.parametrize("op", ["linear", "attention", "layer_norm", "conv3d", "pool", "add"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_in_last_chunk_raises(op, bad):
    # Each split op checks its own output inside its row chunks, not again
    # afterwards, so a value only the last chunk produces must still raise.
    call, clean, rows = _poisoned_cases()[op]
    poisoned = Tensor(clean.copy())
    poisoned.data[rows.start, ..., -1] = bad  # past the constructor's check
    with threads(3), np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError, match=f"'{op}'"):
            call(poisoned)
        after = call(Tensor(clean)).data  # the workers still run the next op
    with threads(1):
        assert np.array_equal(after, call(Tensor(clean)).data)


def test_non_finite_score_in_one_chunk():
    rng = np.random.RandomState(0)
    q, k, v = (rng.randn(4, 134, 32) for _ in range(3))
    assert len(tensor._row_chunks(4, 134 * 134)) == 2
    q[3, 5, 0], k[3, 7, 0] = 1e200, -1e200  # one -inf score, in the last chunk
    with threads(3), np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="attention"):
            attention(Tensor(q), Tensor(k), Tensor(v), 0.25)
        q[3, 5, 0] = 0.0
        out = attention(Tensor(q), Tensor(k), Tensor(v), 0.25).data
    with threads(1):
        assert np.array_equal(out, attention(Tensor(q), Tensor(k), Tensor(v), 0.25).data)


def test_worker_chunk_honours_callers_errstate():
    # The first chunk, on the caller, waits until a worker has run the second,
    # so the caller cannot claim the second itself.
    ran = threading.Event()
    seen = {}

    def fill(sl):
        if sl.start == 0:
            assert ran.wait(timeout=30)
            return
        seen["thread"] = threading.get_ident()
        ran.set()
        np.float64(1e308) * 10.0

    with threads(2), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            tensor._over_rows(fill, 2, tensor._MIN_CHUNK_WORK)
    assert seen["thread"] != threading.get_ident()


def test_concurrent_callers_stress():
    # More callers and workers than cores, with frequent thread switches:
    # every caller must still get the one-thread result.
    rng = np.random.RandomState(1)
    x = Tensor(rng.randn(9, 150, 8))
    w, b = Tensor(rng.randn(8, 128)), Tensor(rng.randn(128))
    with threads(1):
        want = linear(x, w, b, "gelu").data
    results, errors = [], []

    def caller():
        try:
            for _ in range(20):
                results.append(np.array_equal(linear(x, w, b, "gelu").data, want))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with threads(4):
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert not errors and len(results) == 80 and all(results)


def test_chunk_zero_runs_on_the_caller():
    # Tests that make a worker run a chunk (as above) rely on this: a worker
    # may claim any chunk but the first.
    seen = []

    def fill(sl):
        if sl.start == 0:
            seen.append(threading.get_ident())

    with threads(4):
        for _ in range(200):
            tensor._over_rows(fill, 4, tensor._MIN_CHUNK_WORK)
    assert seen == [threading.get_ident()] * 200


def split_call_ref():
    """Run a split ``_over_rows`` whose ``fill`` alone holds an array, and
    return a weak reference to that array."""
    data = np.zeros((4, tensor._MIN_CHUNK_WORK))

    def fill(sl):
        data[sl] += 1.0

    tensor._over_rows(fill, 4, tensor._MIN_CHUNK_WORK)
    assert data.min() == 1.0
    return weakref.ref(data)


def test_idle_worker_holds_no_job():
    with threads(4):
        ref = split_call_ref()
    deadline = time.monotonic() + 1.0
    while ref() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
    assert ref() is None


def test_queued_job_holds_no_arrays():
    # Every worker is busy in another caller's job, so this caller runs all
    # of its own chunks, and its job's copies wait in the queue: they must
    # not keep the call's arrays alive.
    with threads(4):
        tensor._over_rows(lambda sl: None, 4, tensor._MIN_CHUNK_WORK)  # 3 workers
        workers_busy = threading.Barrier(4, timeout=30)
        busy, release = threading.Event(), threading.Event()

        def block(sl):
            workers_busy.wait()  # chunk 0 on the other caller, 1-3 on workers
            if sl.start == 0:
                busy.set()
            else:
                release.wait(timeout=30)

        other = threading.Thread(target=tensor._over_rows,
                                 args=(block, 4, tensor._MIN_CHUNK_WORK))
        other.start()
        try:
            assert busy.wait(timeout=30)
            ref = split_call_ref()
            assert ref() is None
        finally:
            release.set()
            other.join(timeout=30)
    assert not other.is_alive()


_FORK_CHILD = """
import os, signal, sys, threading, time
import numpy as np
from vpfuse import tensor
from vpfuse.tensor import Tensor, linear

tensor._WORKERS = 3  # split even on one core
rng = np.random.RandomState(6)
x, w, b = Tensor(rng.randn(8, 200, 8)), Tensor(rng.randn(8, 128)), Tensor(rng.randn(128))
want = linear(x, w, b, "gelu").data  # starts the parent's workers
pid = os.fork()
if pid == 0:
    same = np.array_equal(linear(x, w, b, "gelu").data, want)
    ran, seen = threading.Event(), set()

    def fill(sl):  # chunk 0 waits for a worker to run chunk 1
        seen.add(threading.get_ident())
        if sl.start == 0:
            ran.wait(timeout=10)
        else:
            ran.set()

    tensor._over_rows(fill, 2, tensor._MIN_CHUNK_WORK)
    os._exit(0 if same and len(seen) > 1 else 1)
deadline = time.monotonic() + 60
while True:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit("the forked child timed out")
    time.sleep(0.01)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_split_ops():
    # A child forked after the parent's workers started (multiprocessing's
    # default on Linux) must start workers of its own, not wait for chunks
    # handed to threads the fork did not copy.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _FORK_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
