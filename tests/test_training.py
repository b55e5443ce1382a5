"""Freeze contract, optimizer, and training-loop determinism."""

import collections
import gc
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vpfuse.ablations import evaluate, stage_recipe
from vpfuse.config import default_config
from vpfuse.model import FusionModel
from vpfuse.tasks import batch_stream, eval_batches, generate_sample, make_batch, spec_from_config
from vpfuse.tensor import NonFiniteError, Tape, Tensor
from vpfuse.training import (
    STAGES,
    Adam,
    FreezeMask,
    TrainConfig,
    freeze_mask_for,
    train,
)


def param_hashes(model, prefix=""):
    return {name: hashlib.sha256(p.data.tobytes()).hexdigest()
            for name, p in model.named_parameters().items()
            if name.startswith(prefix)}


def fast_cfg(**overrides):
    base = dict(train__batch=4, video__total_frames=32, train__image_ratio=0.25)
    base.update(overrides)
    return default_config().replace(**base)


def run_stage(model, cfg, stage, steps, seed=1, strategy="router", lr=3e-3):
    tc = TrainConfig(stage=stage, steps=steps, batch_size=cfg["train.batch"],
                     lr=lr, seed=seed, strategy=strategy)
    return train(model, batch_stream(cfg, stage, seed), tc)


class TestFreezeMask:
    def test_pretrain_trains_projectors_only(self):
        mask = freeze_mask_for("pretrain")
        assert mask.trainable("projectors.image.w1")
        assert not mask.trainable("router.mlp1.w")
        assert not mask.trainable("decoder.readout.w")
        assert not mask.trainable("instruction_encoder.embed")
        assert not mask.trainable("visual_encoder.patch.w")

    def test_tune_keeps_visual_encoder_frozen(self):
        mask = freeze_mask_for("tune")
        assert mask.trainable("projectors.com.query")
        assert mask.trainable("router.mlp2.b")
        assert mask.trainable("decoder.block1.ffn.w2")
        assert mask.trainable("instruction_encoder.cls")
        assert not mask.trainable("visual_encoder.pos_t")

    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            freeze_mask_for("warmup")


class TestAdam:
    def test_quadratic_convergence_oracle(self):
        # f(x) = (x - 3)^2 must reach the minimum within 1e-6
        x = Tensor(np.array([10.0]), requires_grad=True)
        opt = Adam(lr=0.1, beta1=0.9, beta2=0.999)
        mask = FreezeMask(trainable_prefixes=("x",))
        for _ in range(800):
            x.grad = 2.0 * (x.data - 3.0)
            opt.step({"x": x}, mask)
        assert abs(x.data[0] - 3.0) < 1e-6

    def test_zero_lr_is_noop(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = x.data.tobytes()
        opt = Adam(lr=0.0, beta1=0.9, beta2=0.999)
        x.grad = np.array([5.0, -1.0])
        opt.step({"x": x}, FreezeMask(trainable_prefixes=("x",)))
        assert x.data.tobytes() == before

    def test_frozen_param_untouched_even_with_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        x.grad = np.array([1.0])
        before = x.data.tobytes()
        Adam(lr=1.0, beta1=0.9, beta2=0.999).step({"x": x}, FreezeMask(trainable_prefixes=("y",)))
        assert x.data.tobytes() == before


class TestTrainLoop:
    def test_lr_zero_leaves_all_parameters_bitwise(self):
        cfg = fast_cfg()
        model = FusionModel(cfg, seed=1)
        before = param_hashes(model)
        run_stage(model, cfg, "tune", steps=3, lr=0.0)
        assert param_hashes(model) == before

    def test_freeze_contract_both_stages(self):
        cfg = fast_cfg()
        model = FusionModel(cfg, seed=1)
        for stage in ("pretrain", "tune"):
            mask = freeze_mask_for(stage)
            frozen_before = {n: h for n, h in param_hashes(model).items()
                             if not mask.trainable(n)}
            run_stage(model, cfg, stage, steps=5)
            frozen_after = {n: h for n, h in param_hashes(model).items()
                            if not mask.trainable(n)}
            assert frozen_before == frozen_after

    def test_pretrain_leaves_router_hash(self):
        cfg = fast_cfg()
        model = FusionModel(cfg, seed=1)
        before = param_hashes(model, "router.")
        run_stage(model, cfg, "pretrain", steps=5)
        assert param_hashes(model, "router.") == before
        # and projectors actually moved
        assert param_hashes(model, "projectors.") != param_hashes(
            FusionModel(cfg, seed=1), "projectors.")

    def test_memorization_sanity(self):
        # 120 steps on one repeated batch must strictly reduce the loss
        cfg = fast_cfg()
        model = FusionModel(cfg, seed=1)
        batch = next(batch_stream(cfg, "tune", seed=1))
        tc = TrainConfig(stage="tune", steps=120, batch_size=4, lr=3e-3, seed=1)
        result = train(model, itertools.repeat(batch), tc)
        assert result.loss_curve[-1][1] < result.loss_curve[0][1]

    def test_same_seed_same_curve_and_hashes(self):
        cfg = fast_cfg()
        curves, hashes = [], []
        for _ in range(2):
            model = FusionModel(cfg, seed=7)
            res = run_stage(model, cfg, "tune", steps=6, seed=7)
            curves.append(res.loss_curve)
            hashes.append(param_hashes(model))
        assert curves[0] == curves[1]
        assert hashes[0] == hashes[1]

    def test_non_finite_step_names_step_and_op(self):
        # Adam's first step at this rate makes step 1's forward overflow.
        model = FusionModel(fast_cfg(train__lr=1e300), seed=1)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as exc:
            train(model, *stage_recipe(model, "pretrain", 3))
        assert str(exc.value) == ("non-finite value at step 1: "
                                  "op 'linear' produced non-finite values")

    def test_different_seed_differs(self):
        cfg = fast_cfg()
        m1 = FusionModel(cfg, seed=1)
        m2 = FusionModel(cfg, seed=2)
        assert param_hashes(m1) != param_hashes(m2)

    def test_step_graph_freed_without_cycle_collector(self):
        # The tape owns each step's graph and tensors point back at it only
        # weakly, so reference counting alone frees the graph.
        cfg = fast_cfg()
        model = FusionModel(cfg, seed=1)
        run_stage(model, cfg, "tune", steps=1)  # warm up lazy imports and caches
        gc.collect()
        gc.disable()
        try:
            run_stage(model, cfg, "tune", steps=1)
            assert gc.collect() == 0
        finally:
            gc.enable()


# Tape entries by op name of one step on a 16-clip motion batch at the desk
# config.  A forward refactor must keep them: the same ops, the same work.
STEP_TAPE_ENTRIES = {
    "pretrain": {"add": 7, "attention": 3, "broadcast": 2, "concat": 3, "conv3d": 1,
                 "cross_entropy": 1, "layer_norm": 4, "linear": 19, "mean": 1, "mul": 3,
                 "reshape": 5},
    "tune": {"add": 12, "attention": 5, "broadcast": 3, "concat": 4, "conv3d": 1,
             "cross_entropy": 1, "embedding": 1, "layer_norm": 8, "linear": 34, "mean": 1,
             "mul": 3, "reshape": 11, "slice": 6, "softmax": 1},
}


@pytest.mark.parametrize("stage", STAGES)
def test_step_tape_entries_pinned(stage, monkeypatch):
    cfg = default_config()
    model = FusionModel(cfg, seed=1)
    spec = spec_from_config(cfg, "motion")
    batch = make_batch([generate_sample(spec, i) for i in range(cfg["train.batch"])])
    counts = collections.Counter()
    record = Tape.record

    def counted(tape, name, inputs, output, rule):
        counts[name] += 1
        return record(tape, name, inputs, output, rule)

    monkeypatch.setattr(Tape, "record", counted)
    _, tc = stage_recipe(model, stage, 1)
    train(model, [batch], tc)
    assert counts == STEP_TAPE_ENTRIES[stage]


def pin_digest(**overrides):
    """One digest over a short two-stage run: the loss curve, every parameter
    byte afterwards and an eval report.  ``overrides`` go to ``fast_cfg``."""
    cfg = fast_cfg(**overrides)
    model = FusionModel(cfg, seed=3)
    curve = run_stage(model, cfg, "pretrain", steps=2, seed=3).loss_curve
    curve += run_stage(model, cfg, "tune", steps=6, seed=3).loss_curve
    report = evaluate(model, n=8)
    h = hashlib.sha256()
    for step, loss in curve:
        h.update(f"{step}:{loss.hex()}\n".encode())
    for name, p in sorted(model.named_parameters().items()):
        h.update(name.encode())
        h.update(p.data.tobytes())
    h.update(report.accuracy_csv().encode())
    for gates in report.mean_gates.values():
        h.update(gates.tobytes())
    return h.hexdigest()


_CHILD_PIN = """
import os, sys
if sys.argv[1] == "one_cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import test_training
from vpfuse import tensor
print(tensor._WORKERS, test_training.pin_digest())
"""


def child_pin(one_cpu=False, **env):
    """``(tensor._WORKERS, pin_digest())`` in a child process with ``env``
    added to its environment; ``one_cpu`` restricts the child to one CPU
    before it imports ``vpfuse``."""
    tests_dir = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    child = subprocess.run(
        [sys.executable, "-c", _CHILD_PIN, "one_cpu" if one_cpu else "all"],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    workers, digest = child.stdout.split()
    return int(workers), digest


def test_whole_model_pin():
    # Any change in the arithmetic of a forward or backward rule shows up
    # here.  Recorded with one BLAS thread before ops were split into row
    # chunks.  ``vpfuse.tensor`` sets OpenBLAS to one thread at import, so
    # the digest holds whatever thread count the environment asks for, and
    # row chunks depend only on shape, so it holds on one core too.
    expected = "ad5c0475e459c1a5d4c7df3e0d9d7b19acc6569053bcb7ebb1f2dd28151683b9"
    assert pin_digest() == expected
    assert child_pin(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
                     MKL_NUM_THREADS="2")[1] == expected
    assert child_pin(one_cpu=True) == (1, expected)


@pytest.mark.parametrize("active, expected", [
    (("image", "com"), "34d2fba92d03d0fd31c25931e2062d0fd849b7870aac08a6b130bb0fa0038400"),
    (("com",), "e70c4a6a16c57517c851ed7007c2a6e307e4a02a1748c0b4492e8de116128ed4"),
], ids=["active0-expected0", "active1-expected1"])  # the cases' established ids
def test_subset_model_pin(active, expected):
    # Gating over a projector subset (a softmax over the active slots, or a
    # one-hot gate for one slot).  Recorded with one BLAS thread while the
    # gate still padded inactive slots with zero columns and fusion sliced
    # them back out.
    assert pin_digest(projectors__active=active) == expected


@pytest.fixture(scope="module")
def eval_model():
    cfg = default_config()
    return cfg, FusionModel(cfg, 1)


@pytest.mark.parametrize("family, expected", [
    ("detail", "2b24d10db675f4de8feff92bb084efd7b3f3637a2e9aacff72142b3b2f4f7a56"),
    ("motion", "bb1e8441e854e8a2eec5d5be5876f58f70f32e81faada2fd334e8f7668c1c5a0"),
    ("counting", "b2b46b151bbd426999267a2ac1a0ea020945ec4c6adb24cda9331c8b7d142f2e"),
])
def test_eval_logits_pin(eval_model, family, expected):
    # The tape-free eval forward on a full 64-sample eval batch, where the
    # forward ops split into four row chunks; the training pins above run at
    # B <= 16.  Recorded before finiteness checks moved into the row chunks
    # and before the n-ary add and the reduceat-free pool.
    cfg, model = eval_model
    logits, _ = model.forward(next(eval_batches(cfg, family, 64)))
    assert logits.shape == (64, cfg["model.classes"])
    assert hashlib.sha256(logits.data.tobytes()).hexdigest() == expected
