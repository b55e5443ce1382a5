"""The two lanes of ``Tape.backward``: parameter gradients (the thunks that
``linear``, ``layer_norm`` and ``conv3d`` return for their weights) run as
one-chunk jobs on the row workers, beside the chain of input gradients on
the calling thread.

Every ``.grad`` must be bitwise equal to one thread's, and add up in the
serial walk's order.  The jobs keep the hand-off's contract (see
``tests/test_row_chunks.py``): ``backward`` returns or raises only once every
job it posted has finished, a finished backward leaves no array behind, and
a job runs in the caller's ``np.errstate``.
"""

import contextlib
import queue
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from test_fused_ops import run
from test_row_chunks import busy_workers, posted_chunks, threads
from vpfuse import tensor
from vpfuse.ablations import stacked_config
from vpfuse.config import default_config
from vpfuse.model import FusionModel
from vpfuse.router import make_strategy
from vpfuse.tasks import generate_sample, make_batch, spec_from_config
from vpfuse.tensor import Tape, Tensor, add, layer_norm, linear, reshape
from vpfuse.training import freeze_mask_for


def step_grads(cfg, stage, workers):
    """Every parameter's ``.grad`` after one training step's backward on a
    batch of motion clips, and the chunk count of every job it posted."""
    model = FusionModel(cfg, seed=1)
    mask = freeze_mask_for(stage)
    params = model.named_parameters()
    for name, p in params.items():
        p.requires_grad = mask.trainable(name)
    spec = spec_from_config(cfg, "motion")
    batch = make_batch([generate_sample(spec, i) for i in range(cfg["train.batch"])])
    strategy = make_strategy(cfg["train.strategy"], 1, stage)
    with threads(workers), Tape() as tape:
        loss, _, _ = model.loss(batch, strategy)
        with posted_chunks() as posted:
            tape.backward(loss)
    return {name: p.grad for name, p in params.items()}, posted


def assert_same_bytes(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert (got[name] is None) == (want[name] is None), name
        if want[name] is not None:
            assert got[name].shape == want[name].shape, name
            assert got[name].tobytes() == want[name].tobytes(), name


STEPS = {
    "desk-pretrain": (default_config, "pretrain"),
    "desk-tune": (default_config, "tune"),
    "stacked-stc-tune": (lambda: stacked_config(default_config(), "stc"), "tune"),
}


@pytest.mark.parametrize("step", list(STEPS))
def test_step_grads_equal_one_thread(step):
    make_cfg, stage = STEPS[step]
    cfg = make_cfg()
    serial, none_posted = step_grads(cfg, stage, 1)
    two_lanes, posted = step_grads(cfg, stage, 2)
    assert none_posted == []
    assert posted.count(1) > 10  # the weight gradients ran as jobs
    assert any(g is not None for g in serial.values())
    assert_same_bytes(two_lanes, serial)


def test_step_backward_writes_into_no_gradient(monkeypatch):
    # A queued job may still read any gradient array, so no rule may write
    # into one it received or returned: with every such array read-only, a
    # desk tune step's backward must run and give the same bits.
    cfg = default_config()
    want, _ = step_grads(cfg, "tune", 2)
    record = Tape.record

    def read_only(g):
        if isinstance(g, np.ndarray):
            g.flags.writeable = False
        return g

    def guarded(tape, name, inputs, output, rule):
        def frozen(g):
            grads = rule(read_only(g))
            return tuple((lambda t=g: read_only(t())) if callable(g) else read_only(g)
                         for g in grads)
        return record(tape, name, inputs, output, frozen)

    monkeypatch.setattr(Tape, "record", guarded)
    got, _ = step_grads(cfg, "tune", 2)
    assert_same_bytes(got, want)


def test_grad_adds_up_in_walk_order():
    # One parameter feeds add (an array on the calling thread), layer_norm
    # (gamma, a job) and linear (bias, a job).  The walk meets them in
    # reverse, and ``.grad`` must add the three terms in that order whichever
    # thread computed them: the add's term last, not first.
    rng = np.random.RandomState(11)
    x = Tensor(rng.randn(6, 32) * 3.0)
    w = Tensor(rng.randn(32, 32) * 10.0)
    beta = Tensor(rng.randn(32))
    weight = rng.randn(6, 32)

    def graph(p_add, p_norm, p_bias):
        h = add(x, p_add)
        h = layer_norm(h, p_norm, beta)
        return linear(h, w, p_bias)

    value = rng.randn(32)
    # Each term alone, from a separate copy of the parameter.
    _, _, (t_add, t_norm, t_bias) = run(
        graph, [Tensor(value.copy(), requires_grad=True) for _ in range(3)], weight)
    want = t_bias.copy() + t_norm + t_add
    # Only the last term changes the bits of a sum of three: each other
    # choice must show.
    assert not np.array_equal(t_add + t_bias + t_norm, want)
    assert not np.array_equal(t_add + t_norm + t_bias, want)
    p = Tensor(value, requires_grad=True)
    for n in (2, 1):
        with threads(n):
            _, _, (got,) = run(lambda q: graph(q, q, q), [p], weight)
        assert got.tobytes() == want.tobytes()


def recorded(name, inputs, rule, shape=()):
    """An op named ``name`` on ``inputs`` whose backward rule is ``rule``."""
    return tensor._output(name, tuple(inputs), np.zeros(shape), rule)


def leaves(n):
    return [Tensor(np.zeros(3), requires_grad=True) for _ in range(n)]


@pytest.mark.parametrize("failing", ["job", "rule"])
def test_raises_once_every_job_has_finished(failing):
    # A slow job is running on the worker when a later job or a later rule
    # raises: backward re-raises only after the slow job has finished, and
    # adds to no ``.grad``.
    started, finished = threading.Event(), []

    def slow():
        started.set()
        time.sleep(0.05)
        finished.append("slow")
        return np.zeros(3)

    def fail(*_):
        assert started.wait(timeout=30)
        raise RuntimeError(f"{failing} failed")

    x, p, q = leaves(3)
    with threads(2), Tape() as tape:
        h = recorded("bad", (x,), fail if failing == "rule" else lambda g: (None,), (3,))
        grads = (np.zeros(3), slow, fail if failing == "job" else np.zeros(3))
        loss = recorded("fan-in", (h, p, q), lambda g: grads)
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            tape.backward(loss)
        assert finished == ["slow"]
    assert p.grad is None and q.grad is None


@pytest.mark.parametrize("busy", [False, True], ids=["idle-worker", "busy-workers"])
def test_backward_leaves_no_array_behind(busy):
    # With the workers busy elsewhere, the caller runs both jobs itself and
    # their copies wait in the queue; either way, once backward returns the
    # gradient the jobs read is dead and no queued job holds an array.
    rng = np.random.RandomState(4)
    x = Tensor(rng.randn(4, 50, 8), requires_grad=True)
    w, b = Tensor(rng.randn(8, 16), requires_grad=True), Tensor(rng.randn(16), requires_grad=True)
    refs = []

    def dz_rule(g):
        dz = np.ones((4, 50, 16))  # linear's dz: its gradient without GELU
        refs.append(weakref.ref(dz))
        return (dz,)

    with threads(4), busy_workers() if busy else contextlib.nullcontext():
        with Tape() as tape:
            loss = recorded("loss", (linear(x, w, b),), dz_rule)
            with posted_chunks() as posted:
                tape.backward(loss)
        assert posted == [1, 1] and refs[0]() is None
        queued = []
        with pytest.raises(queue.Empty):
            while True:
                queued.append(tensor._crew.jobs.get_nowait())
    assert not busy or len(queued) == 2
    assert all(job.fill is None and job.context is None and job.error is None
               for job in queued)
    assert np.array_equal(w.grad, (np.swapaxes(x.data, -1, -2) @ np.ones((4, 50, 16))).sum(axis=0))


def test_job_honours_callers_errstate():
    # A later rule waits until the worker has started the job, so the
    # caller cannot run it itself.
    started, seen = threading.Event(), {}

    def overflow():
        seen["thread"] = threading.get_ident()
        started.set()
        return np.full(3, 1e308) * 10.0

    def wait(g):
        assert started.wait(timeout=30)
        return (None,)

    x, p = leaves(2)
    with threads(2), np.errstate(over="raise"), Tape() as tape:
        h = recorded("wait", (x,), wait, (3,))
        loss = recorded("fan-in", (h, p), lambda g: (np.zeros(3), overflow))
        with pytest.raises(FloatingPointError, match="overflow"):
            tape.backward(loss)
    assert seen["thread"] != threading.get_ident()


def test_jobs_only_for_leaves_and_more_than_one_worker():
    # The weight reaches linear through a reshape, so it is on the tape: its
    # thunk runs at once on the caller, and only the bias is posted.  With
    # one worker nothing is.
    rng = np.random.RandomState(8)
    inputs = [Tensor(rng.randn(*shape), requires_grad=True) for shape in ((6, 4), (20,), (5,))]
    weight = rng.randn(6, 5)

    def op(x, w0, b):
        return linear(x, reshape(w0, (4, 5)), b)

    results = {}
    for n in (2, 1):
        with threads(n), posted_chunks() as posted:
            results[n] = run(op, inputs, weight)
        assert posted == ([1] if n > 1 else [])
    for got, want in zip(results[2][2], results[1][2]):
        assert got.tobytes() == want.tobytes()


def test_concurrent_backwards_stress():
    # More callers and workers than cores, with frequent thread switches:
    # each caller's jobs share the queue, and every caller must still get
    # the one-thread gradients.
    rng = np.random.RandomState(9)
    x = Tensor(rng.randn(4, 60, 16))
    values = [rng.randn(16, 32), rng.randn(32), rng.randn(16), rng.randn(16)]
    weight = rng.randn(4, 60, 32)

    def grads():
        params = [Tensor(v, requires_grad=True) for v in values]
        w, b, gamma, beta = params
        return run(lambda *ps: linear(layer_norm(x, gamma, beta), w, b), params, weight)[2]

    with threads(1):
        want = grads()
    results, errors = [], []

    def caller():
        try:
            for _ in range(10):
                results.append(all(g.tobytes() == w.tobytes() for g, w in zip(grads(), want)))
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
    assert not errors and len(results) == 40 and all(results)
