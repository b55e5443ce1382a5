"""The fork-join forward: ``FusionModel.forward`` runs the instruction
encoder beside ``encode``, and ``project`` runs the first sampled-frame
slot beside the others (``tensor.fork``/``tensor.join``).

Logits, gates, the loss, every ``.grad`` and the recorded tape must be
bitwise equal to one thread's, which runs every fork at once, in program
order.  The forks keep the hand-off's contract (see
``tests/test_row_chunks.py`` and ``tests/test_weight_lane.py``): the first
error in program order is raised, only once every fork has finished, a
finished forward leaves no job holding an array or a closure, and a fork runs
in the caller's ``np.errstate``.
"""

import contextlib
import queue
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from reference_ops import tsum
from test_row_chunks import busy_workers, posted_chunks, threads
from test_weight_lane import STEPS, assert_same_bytes
from vpfuse import tensor
from vpfuse.config import default_config
from vpfuse.encoders import InstructionEncoder
from vpfuse.model import Batch, FusionModel, Streams
from vpfuse.projectors import ImageProjector, StcProjector
from vpfuse.router import FusionError, make_strategy
from vpfuse.tasks import generate_sample, make_batch, spec_from_config
from vpfuse.tensor import (
    Branch,
    NonFiniteError,
    Tape,
    Tensor,
    add,
    cross_entropy,
    fork,
    join,
    mul,
)
from vpfuse.training import freeze_mask_for


def family_batch(cfg, n, family="motion", frames=None):
    spec = spec_from_config(cfg, family, **({} if frames is None else {"total_frames": frames}))
    return make_batch([generate_sample(spec, i) for i in range(n)])


def serial_loss(model, batch, strategy):
    """``model.loss`` without forks: each stage and slot in program order."""
    instr = model.instruction_encoder.encode(batch.tokens)
    features = model.encode(batch)
    slots = (model.cfg.image_slot(),) if features.image else model.active
    tokens = [p(features.clip, instr) if p.reads_clip else p(features.sampled)
              for p in (model.projectors[model.labels[i]] for i in slots)]
    logits, gates = model.decide(Streams(tokens, features.image), instr, strategy)
    return cross_entropy(logits, batch.labels), logits, gates


def recorded_step(cfg, stage, batch, workers, loss_fn=FusionModel.loss):
    """Logits, loss, every parameter's ``.grad``, the tape's entries as (op
    name, where each input comes from), and the chunk count of every job the
    forward posted."""
    model = FusionModel(cfg, seed=1)
    mask = freeze_mask_for(stage)
    params = model.named_parameters()
    for name, p in params.items():
        p.requires_grad = mask.trainable(name)
    names = {id(p): name for name, p in params.items()}
    strategy = make_strategy(cfg["train.strategy"], 1, stage)
    with threads(workers), Tape() as tape:
        with posted_chunks() as posted:
            loss, logits, _ = loss_fn(model, batch, strategy)
        tape.backward(loss)

    def source(t):
        if t._tape is tape._ref:
            return ("op", t._op_index)
        return ("param", names[id(t)]) if id(t) in names else ("input", t.shape)

    entries = [(e.name, tuple(source(t) for t in e.inputs)) for e in tape.entries]
    return (logits.data, loss.data, {name: p.grad for name, p in params.items()},
            entries, posted)


def image_step():
    cfg = default_config()
    return cfg, "tune", family_batch(cfg, cfg["train.batch"], "detail", frames=1)


def video_step(step):
    make_cfg, stage = STEPS[step]
    cfg = make_cfg()
    return cfg, stage, family_batch(cfg, cfg["train.batch"])


CASES = {**{step: (lambda step=step: video_step(step)) for step in STEPS},
         "desk-image-tune": image_step}
FORKS = {"desk-pretrain": 2, "desk-tune": 2, "stacked-stc-tune": 2, "desk-image-tune": 1}


@pytest.mark.parametrize("case", list(CASES))
def test_step_equals_the_serial_forward(case):
    # With three workers and with one, the step must equal the serial
    # program's, which records every stage and slot in program order.
    cfg, stage, batch = CASES[case]()
    want = recorded_step(cfg, stage, batch, 1, serial_loss)
    assert any(g is not None for g in want[2].values())
    for workers, forks in ((3, FORKS[case]), (1, 0)):
        logits, loss, grads, entries, posted = recorded_step(cfg, stage, batch, workers)
        assert posted.count(1) == forks and (workers > 1 or posted == [])
        assert logits.tobytes() == want[0].tobytes()
        assert loss.tobytes() == want[1].tobytes()
        assert_same_bytes(grads, want[2])
        assert entries == want[3]


def test_eval_forward_equals_one_thread():
    # The benchmark's eval shape: tape-free, B=64.
    model = FusionModel(default_config(), seed=1)
    batch = family_batch(model.cfg, 64)
    results = {}
    for n in (3, 1):
        with threads(n), posted_chunks() as posted:
            logits, gates = model.forward(batch)
        results[n] = logits.data.tobytes(), gates.p.data.tobytes(), posted.count(1)
    assert results[3][:2] == results[1][:2]
    assert results[3][2] == 2 and results[1][2] == 0


@pytest.fixture(scope="module")
def small():
    model = FusionModel(default_config(), seed=1)
    return model, family_batch(model.cfg, 2)


def raising(cls, attr, message, first=None, then=None):
    """``cls.attr`` that waits for the event ``first``, sets ``then`` and
    raises ``NonFiniteError(message)``."""
    def call(*args, **kwargs):
        if first is not None:
            assert first.wait(timeout=30)
        if then is not None:
            then.set()
        raise NonFiniteError(message)
    return cls, attr, call


@pytest.mark.parametrize("earlier, later", [
    ((InstructionEncoder, "encode"), (FusionModel, "encode")),
    ((ImageProjector, "__call__"), (StcProjector, "__call__"))],
    ids=["instruction-encode", "image-stc"])
def test_first_error_in_program_order(small, monkeypatch, earlier, later):
    # The fork, earlier in program order, raises only once this thread's
    # call has raised; its error is the one forward raises.
    model, batch = small
    later_raised = threading.Event()
    monkeypatch.setattr(*raising(*earlier, "earlier", first=later_raised))
    monkeypatch.setattr(*raising(*later, "later", then=later_raised))
    with threads(2), pytest.raises(NonFiniteError, match="earlier"):
        model.forward(batch)


def test_encode_error_waits_for_the_fork(small, monkeypatch):
    model, batch = small
    finished = []
    encode = InstructionEncoder.encode

    def slow(self, tokens):
        time.sleep(0.05)
        out = encode(self, tokens)
        finished.append(True)
        return out

    monkeypatch.setattr(InstructionEncoder, "encode", slow)
    short = Batch(frames=batch.frames[:, :16], labels=batch.labels, tokens=batch.tokens)
    with threads(2), pytest.raises(FusionError, match="16 frames"):
        model.forward(short)
    assert finished == [True]


def queued_jobs():
    jobs = []
    with pytest.raises(queue.Empty):
        while True:
            jobs.append(tensor._crew.jobs.get_nowait())
    return jobs


@pytest.mark.parametrize("ends", ["returns", "raises"])
@pytest.mark.parametrize("busy", [False, True], ids=["idle-worker", "busy-workers"])
def test_forward_leaves_no_fork_behind(small, monkeypatch, ends, busy):
    # With the workers busy elsewhere, this thread runs both forks itself at
    # join and their copies wait in the queue; either way, once forward
    # returns or raises, no job holds an array and each fork's call is dead.
    model, batch = small
    calls = []
    init = Branch.__init__

    def tracked(self, fn):
        calls.append(weakref.ref(fn))
        init(self, fn)

    monkeypatch.setattr(Branch, "__init__", tracked)
    if ends == "raises":
        monkeypatch.setattr(*raising(ImageProjector, "__call__", "image"))
    with threads(4), busy_workers() if busy else contextlib.nullcontext():
        with posted_chunks() as posted:
            try:
                model.forward(batch)
            except NonFiniteError:
                assert ends == "raises"
                alive = [ref() is not None for ref in calls]  # the error pins none
            else:
                assert ends == "returns"
                alive = [ref() is not None for ref in calls]
        queued = queued_jobs()
    assert posted.count(1) == 2 and alive == [False] * 3
    assert not busy or [len(job.chunks) for job in queued].count(1) == 2
    assert all(job.fill is None and job.context is None and job.error is None
               for job in queued)


def test_fork_honours_callers_errstate(small, monkeypatch):
    # This thread's encode waits until the worker has started the fork, so
    # it cannot run the fork itself.
    model, batch = small
    started, seen = threading.Event(), {}
    encode = FusionModel.encode

    def overflow(self, tokens):
        seen["thread"] = threading.get_ident()
        started.set()
        return np.full(3, 1e308) * 10.0

    def wait(self, batch):
        assert started.wait(timeout=30)
        return encode(self, batch)

    monkeypatch.setattr(InstructionEncoder, "encode", overflow)
    monkeypatch.setattr(FusionModel, "encode", wait)
    with threads(2), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            model.forward(batch)
    assert seen["thread"] != threading.get_ident()


def test_join_adopts_tapes_in_program_order():
    # The fork records after the caller's branch in time, yet its entries
    # come first, as one thread records them; the loss backpropagates
    # through both.
    x = Tensor(np.arange(3.0), requires_grad=True)
    recorded = threading.Event()

    def first():
        assert recorded.wait(timeout=30)
        return mul(x, x)

    def second():
        out = add(x, x)
        recorded.set()
        return out

    for n in (2, 1):
        x.grad = None
        if n == 1:
            recorded.set()  # one thread runs the fork at once
        with threads(n), Tape() as tape:
            a, b = Branch(first), Branch(second)
            fork(a)
            b.run()
            sq, twice = join(a, b)
            loss = tsum(add(sq, twice))
            tape.backward(loss)
        assert [e.name for e in tape.entries] == ["mul", "add", "add", "sum"]
        assert [t._op_index for t in (sq, twice, loss)] == [0, 1, 3]
        assert x.grad.tobytes() == (2.0 * x.data + 2.0).tobytes()


def test_concurrent_forwards_stress():
    # More callers and workers than cores, with frequent thread switches:
    # each caller's forks share the queue with the others' chunks and jobs,
    # and every caller must still get the one-thread loss and gradients.
    cfg = default_config()
    batch = family_batch(cfg, 2)

    def step():
        model = FusionModel(cfg, seed=1)
        with Tape() as tape:
            loss, _, _ = model.loss(batch, make_strategy("router", 1, "tune"))
            tape.backward(loss)
        grads = [p.grad for p in model.named_parameters().values()]
        return [loss.data.tobytes()] + [g.tobytes() for g in grads if g is not None]

    with threads(1):
        want = step()
    results, errors = [], []

    def caller():
        try:
            for _ in range(3):
                results.append(step() == want)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with threads(4):
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert not errors and len(results) == 12 and all(results)
