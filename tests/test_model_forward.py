"""End-to-end forward behavior of the assembled model."""

import weakref

import numpy as np
import pytest

from reference_ops import grad_check
from test_row_chunks import threads
from test_transformer_block import traced_peak
from vpfuse.config import ConfigError, default_config
from vpfuse.encoders import VideoEncoder, sample_frames
from vpfuse import model as model_module
from vpfuse.model import Batch, FusionModel
from vpfuse.projectors import ComProjector
from vpfuse.router import FusionError, make_strategy
from vpfuse.tasks import batch_stream, generate_sample, make_batch, spec_from_config
from vpfuse.tensor import Tape, cross_entropy, embedding


@pytest.fixture(scope="module")
def model():
    return FusionModel(default_config(), seed=1)


def video_batch(cfg, n=2, family="detail", base=0):
    spec = spec_from_config(cfg, family)
    return make_batch([generate_sample(spec, base + i) for i in range(n)])


def image_batch(cfg, n=2, base=0):
    spec = spec_from_config(cfg, "detail", total_frames=1)
    return make_batch([generate_sample(spec, base + i) for i in range(n)])


class TestOneEncoderPass:
    @pytest.mark.parametrize("family", ["detail", "motion", "counting"])
    @pytest.mark.parametrize("n", [5, 16, 64])
    def test_gathered_frames_equal_a_pass_over_them(self, model, family, n):
        batch = video_batch(model.cfg, n=n, family=family)
        t = batch.frames.shape[1]
        idx = sample_frames(t, model.cfg["sampler.frames"])
        full = model.visual_encoder.encode(batch.frames, np.arange(t))
        sampled = model.visual_encoder.encode(batch.frames[:, idx], idx)
        assert np.array_equal(embedding(full, idx, axis=1).data, sampled.data)

    @pytest.mark.parametrize("active, frames", [
        (("image", "stc", "com"), [32]), (("stc", "com"), [32]), (("com",), [32]),
        (("image", "stc"), [8]), (("stc",), [8])])
    def test_one_pass_per_video_batch(self, monkeypatch, active, frames):
        # The full clip when com reads it, with the sampled frames gathered
        # from it; else the sampled frames alone.
        cfg = default_config().replace(projectors__active=active)
        model = FusionModel(cfg, seed=1)
        seen = []
        encode = VideoEncoder.encode

        def counted(self, clip, frame_indices):
            seen.append(clip.shape[1])
            return encode(self, clip, frame_indices)

        monkeypatch.setattr(VideoEncoder, "encode", counted)
        model.forward(video_batch(cfg, n=2))
        assert seen == frames


class TestForward:
    def test_logit_shape_single_sample(self, model):
        batch = video_batch(model.cfg, n=1)
        logits, gates = model.forward(batch)
        assert logits.shape == (1, 4)
        assert gates.p.shape == (1, 3)

    def test_zero_router_matches_average_strategy(self, model):
        batch = video_batch(model.cfg, n=2)
        lr, _ = model.forward(batch, make_strategy("router", 0, "eval"))
        la, _ = model.forward(batch, make_strategy("average", 0, "eval"))
        np.testing.assert_allclose(lr.data, la.data, atol=1e-13)

    def test_concat_accepts_triple_budget(self, model):
        batch = video_batch(model.cfg, n=2)
        logits, gates = model.forward(batch, make_strategy("concat", 0, "eval"))
        assert logits.shape == (2, 4)
        assert gates.p.shape == (2, 3)

    @pytest.mark.parametrize("active, row", [
        (("image", "stc", "com"), [1 / 3, 1 / 3, 1 / 3]),
        (("image", "stc"), [1 / 2, 1 / 2, 0.0]),
    ])
    def test_concat_reports_uniform_gates_on_active_slots(self, active, row):
        # Each concatenated stream counts once: exactly 1/n on the n active
        # slots, exact zeros elsewhere, as the average strategy reports.
        cfg = default_config().replace(projectors__active=active)
        batch = video_batch(cfg, n=2)
        _, gates = FusionModel(cfg, seed=1).forward(batch, make_strategy("concat", 0, "eval"))
        assert gates.p.data.tobytes() == np.array([row, row]).tobytes()

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
        model.zero_grad()
        with Tape() as tape:
            loss, _, _ = model.loss(batch, make_strategy("router", 0, "eval"))
            tape.backward(loss)
        for name, p in model.named_parameters().items():
            if name.startswith("router."):
                assert p.grad is None, name
        # while a video batch reaches the router
        model.zero_grad()
        with Tape() as tape:
            loss, _, _ = model.loss(video_batch(model.cfg, n=2),
                                    make_strategy("router", 0, "eval"))
            tape.backward(loss)
        grads = [p.grad for n, p in model.named_parameters().items()
                 if n.startswith("router.mlp2.")]
        assert any(g is not None and np.any(g != 0) for g in grads)

    def test_wrong_frame_count_rejected(self, model):
        batch = video_batch(model.cfg, n=1)
        short = Batch(frames=batch.frames[:, :16], labels=batch.labels,
                      tokens=batch.tokens)
        with pytest.raises(FusionError):
            model.forward(short)

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


class TestStageLifetimes:
    """Tape-free, a stage's input dies at its last reader: the features when
    ``project`` returns, the unfused streams when fusion does."""

    @pytest.fixture(scope="class")
    def desk_eval(self):
        # The benchmark's eval shape: B=64 at the desk config.  The router is
        # at init, so its gates are uniform and fusion makes a new stream.
        model = FusionModel(default_config(), seed=1)
        return model, video_batch(model.cfg, n=64, family="motion")

    def test_decoder_runs_without_features_or_streams(self, desk_eval, monkeypatch):
        model, batch = desk_eval
        refs, frames, alive = {}, [], []
        encode, project = FusionModel.encode, FusionModel.project
        decoder_call = model_module.Decoder.__call__

        def encode_refs(self, batch):
            features = encode(self, batch)
            frames.append(features.clip.shape[1])
            refs["clip"] = weakref.ref(features.clip.data)
            refs["sampled"] = weakref.ref(features.sampled.data)
            return features

        def project_refs(self, features, instr):
            streams = project(self, features, instr)
            refs.update((f"stream{i}", weakref.ref(s.tokens.data))
                        for i, s in enumerate(streams.tokens))
            return streams

        def decoder_checks(self, visual, text_states):
            alive.extend(name for name, ref in refs.items() if ref() is not None)
            return decoder_call(self, visual, text_states)

        monkeypatch.setattr(FusionModel, "encode", encode_refs)
        monkeypatch.setattr(FusionModel, "project", project_refs)
        monkeypatch.setattr(model_module.Decoder, "__call__", decoder_checks)
        model.forward(batch)
        assert frames == [32] and len(refs) == 5
        assert alive == []

    def test_com_runs_without_sampled_features(self, desk_eval, monkeypatch):
        # stc is the last slot, in slot order, that reads the sampled frames.
        model, batch = desk_eval
        assert model.labels == ("image", "stc", "com")
        refs, alive = [], []
        encode, com_call = FusionModel.encode, ComProjector.__call__

        def encode_refs(self, batch):
            features = encode(self, batch)
            refs.append(weakref.ref(features.sampled.data))
            return features

        def com_checks(self, x, instr):
            alive.extend(ref() is not None for ref in refs)
            return com_call(self, x, instr)

        monkeypatch.setattr(FusionModel, "encode", encode_refs)
        monkeypatch.setattr(ComProjector, "__call__", com_checks)
        model.forward(batch)
        assert alive == [False]

    def test_traced_peak_is_one_stage_at_a_time(self, desk_eval):
        model, batch = desk_eval
        instr = model.instruction_encoder.encode(batch.tokens)
        features = model.encode(batch)
        clip, sampled = features.clip.data.nbytes, features.sampled.data.nbytes
        visual = model.project(features, instr).tokens[0]  # a fused stream's shape
        stream = visual.tokens.data.nbytes
        # Two threads, so that two chunks' scratch is in flight on any machine.
        with threads(2):
            decoder = traced_peak(lambda: model.decoder(visual, instr.tokens))
            model.forward(batch)  # warm up lazy allocations
            peak = traced_peak(lambda: model.forward(batch))
        # Up to the last projector: the clip and sampled features, the three
        # streams and one clip-sized working buffer (the encoder's positional
        # add, com's attention).  Then the decoder over the fused stream
        # alone.  A forward that held the features and the unfused streams
        # through the decoder would exceed both.
        projecting = 2 * clip + sampled + 3 * stream
        deciding = decoder + stream
        undivided = decoder + clip + sampled + 4 * stream
        assert peak < max(projecting, deciding) < undivided

    def test_encoder_drops_patches_before_positions(self, desk_eval):
        # The linear map's output and the positional add's output, each a
        # clip's features; the (B, T, H, W, p*p) patches, as many values as
        # the frames, die before the add.
        model, batch = desk_eval
        t = batch.frames.shape[1]
        clip = model.visual_encoder.encode(batch.frames, np.arange(t)).data.nbytes
        with threads(2):
            peak = traced_peak(lambda: model.visual_encoder.encode(batch.frames, np.arange(t)))
        assert peak < 2 * clip + batch.frames.nbytes


class TestGradientFlow:
    def test_every_projector_gets_gradient_with_nondegenerate_gates(self, model):
        batch = video_batch(model.cfg, n=2)
        model.zero_grad()
        with Tape() as tape:
            loss, _, _ = model.loss(batch, make_strategy("router", 0, "eval"))
            tape.backward(loss)
        for label in ("image", "stc", "com"):
            gs = [p.grad for n, p in model.named_parameters().items()
                  if n.startswith(f"projectors.{label}.")]
            assert any(g is not None and np.any(g != 0) for g in gs), label

    def test_fresh_model_backward_skips_the_encoder(self):
        # Every other parameter is built trainable, but the features stay
        # frozen: no encoder gradient and no pool entry on the tape.
        cfg = default_config()
        model = FusionModel(cfg, seed=1)
        params = model.named_parameters()
        with Tape() as tape:
            loss, _, _ = model.loss(video_batch(cfg, n=2), make_strategy("router", 0, "eval"))
            tape.backward(loss)
        names = {entry.name for entry in tape.entries}
        assert "pool" not in names and "conv3d" in names
        for name, p in params.items():
            if name.startswith("visual_encoder."):
                assert p.grad is None, name
            else:
                assert p.requires_grad, name

    @pytest.mark.slow
    def test_full_graph_finite_difference(self):
        # one-sample desk batch, selected parameters across every component
        cfg = default_config()
        m = FusionModel(cfg, seed=3)
        batch = video_batch(cfg, n=1, family="motion")
        params = m.named_parameters()
        targets = [
            "projectors.image.w1", "projectors.stc.conv0.k",
            "projectors.com.query", "router.mlp1.w",
            "decoder.block0.attn.wq", "instruction_encoder.embed",
        ]

        for name in targets:
            def f(_t, name=name):
                loss, _, _ = m.loss(batch, make_strategy("router", 0, "eval"))
                return loss
            err = grad_check(f, params[name], max_coords=6, seed=11)
            assert err < 1e-4, f"{name}: {err}"
