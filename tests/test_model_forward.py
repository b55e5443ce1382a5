"""End-to-end forward behavior of the assembled model."""

import numpy as np
import pytest

from vpfuse.config import ConfigError, default_config
from vpfuse.model import Batch, FusionModel
from vpfuse.router import FusionError, FusionStrategy, make_strategy
from vpfuse.tasks import batch_stream, generate_sample, make_batch, spec_from_config
from vpfuse.tensor import Tape, cross_entropy, grad_check


@pytest.fixture(scope="module")
def model():
    return FusionModel(default_config(), seed=1)


def video_batch(cfg, n=2, family="detail", base=0):
    spec = spec_from_config(cfg, family)
    return make_batch([generate_sample(spec, base + i) for i in range(n)])


def image_batch(cfg, n=2, base=0):
    spec = spec_from_config(cfg, "detail", total_frames=1)
    return make_batch([generate_sample(spec, base + i) for i in range(n)])


class TestForward:
    def test_logit_shape_single_sample(self, model):
        batch = video_batch(model.cfg, n=1)
        logits, gates = model.forward(batch)
        assert logits.shape == (1, 4)
        assert gates.p.shape == (1, 3)

    def test_zero_router_matches_average_strategy(self, model):
        batch = video_batch(model.cfg, n=2)
        lr, _ = model.forward(batch, FusionStrategy(kind="router"))
        la, _ = model.forward(batch, FusionStrategy(kind="average"))
        np.testing.assert_allclose(lr.data, la.data, atol=1e-13)

    def test_concat_accepts_triple_budget(self, model):
        batch = video_batch(model.cfg, n=2)
        logits, gates = model.forward(batch, FusionStrategy(kind="concat"))
        assert logits.shape == (2, 4)
        assert gates is None

    @pytest.mark.parametrize("kind", ["random-weights", "random-choose"])
    def test_default_random_strategy_draws_the_eval_stream(self, kind):
        # Without a strategy, forward draws from the stream evaluate uses.
        cfg = default_config().replace(train__strategy=kind)
        model = FusionModel(cfg, seed=1)
        batch = video_batch(cfg, n=3)
        logits, gates = model.forward(batch)
        want_logits, want_gates = model.forward(batch, make_strategy(kind, 0, "eval"))
        assert logits.data.tobytes() == want_logits.data.tobytes()
        assert gates.p.data.tobytes() == want_gates.p.data.tobytes()

    def test_image_modality_bypasses_router(self, model):
        batch = image_batch(model.cfg, n=3)
        logits, gates = model.forward(batch)
        assert logits.shape == (3, 4)
        np.testing.assert_array_equal(gates.p.data, [[1.0, 0.0, 0.0]] * 3)

    def test_image_modality_router_gets_zero_grad(self, model):
        batch = image_batch(model.cfg, n=2)
        for p in model.named_parameters().values():
            p.requires_grad = True
        model.zero_grad()
        with Tape() as tape:
            loss, _, _ = model.loss(batch)
            tape.backward(loss)
        for name, p in model.named_parameters().items():
            if name.startswith("router."):
                assert p.grad is None, name
        # while a video batch reaches the router
        model.zero_grad()
        with Tape() as tape:
            loss, _, _ = model.loss(video_batch(model.cfg, n=2))
            tape.backward(loss)
        grads = [p.grad for n, p in model.named_parameters().items()
                 if n.startswith("router.mlp2.")]
        assert any(g is not None and np.any(g != 0) for g in grads)

    def test_wrong_frame_count_rejected(self, model):
        batch = video_batch(model.cfg, n=1)
        short = Batch(frames=batch.frames[:, :16], labels=batch.labels,
                      tokens=batch.tokens, modality="video")
        with pytest.raises(FusionError):
            model.forward(short)

    def test_unknown_modality_rejected(self, model):
        batch = video_batch(model.cfg, n=1)
        bad = Batch(frames=batch.frames, labels=batch.labels, tokens=batch.tokens,
                    modality="audio")
        with pytest.raises(FusionError):
            model.forward(bad)

    def test_misaligned_budget_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="misaligned"):
            FusionModel(default_config().replace(stc__stride=(2, 2, 2)), seed=0)

    def test_misaligned_inactive_slot_rejected_at_construction(self):
        # Arms are built with Config.replace, never parsed, so the model is
        # the one place alignment is checked, and it covers every slot.
        cfg = default_config().replace(stc__stride=(2, 2, 2),
                                       projectors__active=("image", "com"))
        with pytest.raises(ConfigError, match="mismatch: stc disagree"):
            FusionModel(cfg, seed=0)

    def test_subset_gates_one_hot_and_inactive_skipped(self):
        cfg = default_config().replace(projectors__active=("com",))
        m = FusionModel(cfg, seed=1)
        batch = video_batch(cfg, n=2)
        logits, gates = m.forward(batch)
        np.testing.assert_array_equal(gates.p.data, [[0.0, 0.0, 1.0]] * 2)

    def test_image_modality_without_image_slot_is_misuse(self):
        cfg = default_config().replace(projectors__active=("stc", "com"))
        m = FusionModel(cfg, seed=1)
        with pytest.raises(FusionError):
            m.forward(image_batch(cfg, n=1))


class TestGradientFlow:
    def test_every_projector_gets_gradient_with_nondegenerate_gates(self, model):
        batch = video_batch(model.cfg, n=2)
        for p in model.named_parameters().values():
            p.requires_grad = True
        model.zero_grad()
        with Tape() as tape:
            loss, _, _ = model.loss(batch)
            tape.backward(loss)
        for label in ("image", "stc", "com"):
            gs = [p.grad for n, p in model.named_parameters().items()
                  if n.startswith(f"projectors.{label}.")]
            assert any(g is not None and np.any(g != 0) for g in gs), label

    @pytest.mark.slow
    def test_full_graph_finite_difference(self):
        # one-sample desk batch, selected parameters across every component
        cfg = default_config()
        m = FusionModel(cfg, seed=3)
        batch = video_batch(cfg, n=1, family="motion")
        params = m.named_parameters()
        for p in params.values():
            p.requires_grad = True
        targets = [
            "projectors.image.w1", "projectors.stc.conv0.k",
            "projectors.com.query", "router.mlp1.w",
            "decoder.block0.attn.wq", "instruction_encoder.embed",
            "visual_encoder.patch.w",
        ]

        for name in targets:
            def f(_t, name=name):
                loss, _, _ = m.loss(batch, FusionStrategy(kind="router"))
                return loss
            err = grad_check(f, params[name], max_coords=6, seed=11)
            assert err < 1e-4, f"{name}: {err}"
