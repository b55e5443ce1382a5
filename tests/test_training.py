"""Freeze contract, optimizer, and training-loop determinism."""

import gc
import hashlib
import itertools

import numpy as np
import pytest

from vpfuse.config import default_config
from vpfuse.model import FusionModel
from vpfuse.tasks import batch_stream
from vpfuse.tensor import Tensor
from vpfuse.training import (
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
        opt = Adam(lr=0.1)
        mask = FreezeMask(trainable_prefixes=("x",))
        for _ in range(800):
            x.grad = 2.0 * (x.data - 3.0)
            opt.step({"x": x}, mask)
        assert abs(x.data[0] - 3.0) < 1e-6

    def test_zero_lr_is_noop(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = x.data.tobytes()
        opt = Adam(lr=0.0)
        x.grad = np.array([5.0, -1.0])
        opt.step({"x": x}, FreezeMask(trainable_prefixes=("x",)))
        assert x.data.tobytes() == before

    def test_frozen_param_untouched_even_with_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        x.grad = np.array([1.0])
        before = x.data.tobytes()
        Adam(lr=1.0).step({"x": x}, FreezeMask(trainable_prefixes=("y",)))
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
