"""Token budgets and the three projector networks."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from reference_ops import grad_check, tsum
from vpfuse.config import PROJECTOR_KINDS, ConfigError, default_config, parse_config
from vpfuse.encoders import InstructionEncoder, VideoEncoder
from vpfuse.projectors import (
    PROJECTOR_CLASSES,
    ComProjector,
    ImageProjector,
    StcProjector,
    compute_token_budget,
    validate_alignment,
)
from vpfuse.rng import Rng
from vpfuse.tensor import Tape, mul

FULL_SCALE = """
video.total_frames = 128
video.grid = 378
video.patch = 14
img.prepool = 2
stc.stride = 1,2,2
com.context = 6
com.content = 6
com.sep_period = 4
"""

STC_UNMODIFIED = FULL_SCALE + "stc.pad = 1,0,0\n"


def desk_cfg(**overrides):
    cfg = default_config()
    return cfg.replace(**overrides) if overrides else cfg


def test_one_class_per_config_kind():
    assert tuple(PROJECTOR_CLASSES) == PROJECTOR_KINDS
    assert all(cls.kind == kind for kind, cls in PROJECTOR_CLASSES.items())


class TestTokenBudget:
    def test_full_scale_profile_aligns_at_1568(self):
        cfg = parse_config(FULL_SCALE)
        budgets = compute_token_budget(cfg)
        assert [b.count for b in budgets] == [1568, 1568, 1568]
        assert validate_alignment(budgets) is None

    def test_unmodified_stc_is_676(self):
        cfg = parse_config(STC_UNMODIFIED.replace("stc.stride = 1,2,2",
                                                  "stc.stride = 2,2,2"))
        budgets = compute_token_budget(cfg)
        assert budgets[1].count == 676
        mismatch = validate_alignment(budgets)
        assert "stc" in mismatch

    def test_desk_default_budgets(self):
        budgets = compute_token_budget(desk_cfg())
        assert [b.count for b in budgets] == [128, 128, 128]

    def test_desk_64_profile(self):
        cfg = desk_cfg(sampler__frames=4, video__total_frames=16)
        budgets = compute_token_budget(cfg)
        assert [b.count for b in budgets] == [64, 64, 64]

    def test_alignment_trivial_ok(self):
        budgets = compute_token_budget(desk_cfg())
        for b in budgets:
            b_count = b.count
        assert validate_alignment(budgets) is None
        assert b_count == 128

    def test_sep_period_must_divide(self):
        with pytest.raises(ConfigError, match="divide"):
            compute_token_budget(desk_cfg(com__sep_period=5))

    def test_conv_underflow_rejected(self):
        with pytest.raises(ConfigError):
            compute_token_budget(desk_cfg(stc__kernel=9, stc__pad=(0, 0, 0)))

    def test_content_bins_must_fit_patch_grid(self):
        # two content tokens pool a 1x2 bin grid, which a 1x1 patch grid
        # cannot hold; the projector itself would fail mid-forward
        with pytest.raises(ConfigError, match="patch grid"):
            compute_token_budget(desk_cfg(video__grid=4, video__patch=4, com__content=2))


def encode_batch(cfg, frames, indices, seed=0):
    enc = VideoEncoder(cfg, Rng(seed, "init/visual"))
    return enc.encode(frames, indices)


class TestImageProjector:
    def test_count_matches_budget(self):
        cfg = desk_cfg()
        feats = encode_batch(cfg, np.random.RandomState(0).rand(2, 8, 16, 16),
                             np.arange(8))
        proj = ImageProjector(cfg, Rng(1, "init/proj/image"))
        out = proj(feats)
        assert out.tokens.shape == (2, 128, 32)
        assert out.count == compute_token_budget(cfg)[0].count

    def test_zero_weights_give_bias_everywhere(self):
        cfg = desk_cfg()
        proj = ImageProjector(cfg, Rng(1, "x"))
        proj.w1.data[:] = 0.0
        proj.w2.data[:] = 0.0
        proj.b1.data[:] = 0.0
        proj.b2.data[:] = np.arange(32, dtype=float)
        feats = encode_batch(cfg, np.random.RandomState(0).rand(1, 8, 16, 16),
                             np.arange(8))
        out = proj(feats)
        np.testing.assert_allclose(out.tokens.data,
                                   np.broadcast_to(np.arange(32.0), (1, 128, 32)))

    def test_frame_locality(self):
        # permuting input frames permutes output token blocks identically
        cfg = desk_cfg()
        frames = np.random.RandomState(3).rand(1, 8, 16, 16)
        perm = np.array([3, 1, 0, 2, 7, 6, 5, 4])
        enc = VideoEncoder(cfg, Rng(0, "init/visual"))
        proj = ImageProjector(cfg, Rng(1, "init/proj/image"))
        base = proj(enc.encode(frames, np.arange(8))).tokens.data
        permuted = proj(enc.encode(frames[:, perm], np.arange(8)[perm])).tokens.data
        blocks = base.reshape(1, 8, 16, 32)
        np.testing.assert_allclose(permuted.reshape(1, 8, 16, 32), blocks[:, perm],
                                   atol=1e-12)


class TestStcProjector:
    def test_count_matches_budget_desk(self):
        cfg = desk_cfg()
        feats = encode_batch(cfg, np.random.RandomState(0).rand(2, 8, 16, 16),
                             np.arange(8))
        proj = StcProjector(cfg, Rng(1, "init/proj/stc"))
        out = proj(feats)
        assert out.tokens.shape == (2, 128, 32)

    def test_identity_config_is_linear_remap(self):
        cfg = desk_cfg(stc__kernel=1, stc__stride=(1, 1, 1), stc__pad=(0, 0, 0))
        proj = StcProjector(cfg, Rng(1, "x"))
        proj.named_parameters()["conv0.k"].data[0, 0, 0] = np.eye(32)
        proj.named_parameters()["conv0.b"].data[:] = 0.0
        feats = encode_batch(cfg, np.random.RandomState(0).rand(1, 8, 16, 16),
                             np.arange(8))
        out = proj(feats)
        assert out.count == 8 * 4 * 4
        expected = feats.data.reshape(1, 128, 32) @ proj.out.w.data + proj.out.b.data
        np.testing.assert_allclose(out.tokens.data, expected, atol=1e-12)

    def test_not_frame_local_with_temporal_kernel(self):
        # witness: permuting frames changes outputs in a non-blockwise way
        cfg = desk_cfg()
        frames = np.random.RandomState(3).rand(1, 8, 16, 16)
        perm = np.array([7, 6, 5, 4, 3, 2, 1, 0])
        enc = VideoEncoder(cfg, Rng(0, "init/visual"))
        proj = StcProjector(cfg, Rng(1, "init/proj/stc"))
        base = proj(enc.encode(frames, np.arange(8))).tokens.data.reshape(8, 16, 32)
        permuted = proj(enc.encode(frames[:, perm], np.arange(8)[perm])
                        ).tokens.data.reshape(8, 16, 32)
        assert not np.allclose(permuted, base[perm], atol=1e-6)


class TestComProjector:
    def build(self, cfg, seed=0):
        enc = VideoEncoder(cfg, Rng(seed, "init/visual"))
        text = InstructionEncoder(cfg, Rng(seed, "init/text"))
        proj = ComProjector(cfg, Rng(seed + 1, "init/proj/com"))
        return enc, text, proj

    def test_count_matches_budget(self):
        cfg = desk_cfg()
        enc, text, proj = self.build(cfg)
        feats = enc.encode(np.random.RandomState(0).rand(2, 32, 16, 16), np.arange(32))
        instr = text.encode(np.array([[12, 13, 14, 15, 16, 17]] * 2))
        out = proj(feats, instr)
        assert out.tokens.shape == (2, 128, 32)

    def test_single_frame_content_token_is_mapped_mean(self):
        # A frame's tokens are its context tokens, then its content tokens.
        cfg = desk_cfg(com__context=1, com__content=1, com__sep_period=0,
                       video__total_frames=1, projectors__active=("com",))
        enc, text, proj = self.build(cfg)
        frames = np.random.RandomState(0).rand(1, 1, 16, 16)
        feats = enc.encode(frames, np.arange(1))
        instr = text.encode(np.array([[12, 13, 14, 15, 16, 17]]))
        out = proj(feats, instr)
        assert out.tokens.shape == (1, 2, 32)
        mean_feat = feats.data.reshape(1, 16, 32).mean(axis=1)
        expected = mean_feat @ proj.cnt_out.w.data + proj.cnt_out.b.data
        np.testing.assert_allclose(out.tokens.data[:, 1], expected, atol=1e-12)

    def test_instruction_changes_context_tokens(self):
        cfg = desk_cfg()
        enc, text, proj = self.build(cfg)
        frames = np.random.RandomState(0).rand(1, 32, 16, 16)
        feats = enc.encode(frames, np.arange(32))
        a = proj(feats, text.encode(np.array([[0, 1, 2, 3, 4, 5]]))).tokens.data
        b = proj(feats, text.encode(np.array([[12, 13, 14, 15, 16, 17]]))).tokens.data
        assert not np.array_equal(a, b)


@st.composite
def small_configs(draw):
    """Small configs over every key the token arithmetic reads; the widths
    stay at 8 so a forward pass is cheap, as they do not change counts."""
    patch = draw(st.sampled_from((2, 4)))
    total = draw(st.integers(1, 12))
    return desk_cfg(
        video__patch=patch, video__grid=patch * draw(st.integers(1, 4)),
        video__total_frames=total, sampler__frames=draw(st.integers(1, total)),
        encoder__dim=8, text__dim=8, model__dim=8, img__hidden=8, stc__channels=8,
        img__prepool=draw(st.integers(1, 3)), stc__kernel=draw(st.integers(1, 3)),
        stc__stride=tuple(draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))),
        stc__pad=tuple(draw(st.lists(st.integers(0, 1), min_size=3, max_size=3))),
        com__context=draw(st.integers(1, 3)), com__content=draw(st.integers(1, 2)),
        com__sep_period=draw(st.sampled_from((0, 1, 2, 3, total))))


@settings(max_examples=100, deadline=None)
@given(small_configs())
def test_projector_counts_match_budgets_across_configs(cfg):
    # The closed-form count equals each projector network's real output count.
    try:
        budgets = compute_token_budget(cfg)
    except ConfigError:
        reject()
    enc = VideoEncoder(cfg, Rng(0, "v"))
    text = InstructionEncoder(cfg, Rng(0, "t"))
    t_total = cfg["video.total_frames"]
    grid = cfg["video.grid"]
    frames = np.random.RandomState(1).rand(1, t_total, grid, grid)
    sampled_idx = np.linspace(0, t_total - 1, cfg["sampler.frames"]).astype(int)
    sampled = enc.encode(frames[:, sampled_idx], sampled_idx)
    full = enc.encode(frames, np.arange(t_total))
    instr = text.encode(np.array([[0, 1, 2, 3, 4, 5]]))
    outs = [
        ImageProjector(cfg, Rng(1, "pi"))(sampled),
        StcProjector(cfg, Rng(1, "ps"))(sampled),
        ComProjector(cfg, Rng(1, "pc"))(full, instr),
    ]
    for out, budget in zip(outs, budgets):
        assert out.count == budget.count, budget.derivation


@pytest.mark.parametrize("which", ["image", "stc", "com"])
def test_projector_parameter_gradients(which):
    cfg = desk_cfg(video__total_frames=8, sampler__frames=4, com__context=1,
                   com__content=1, com__sep_period=2,
                   projectors__active=("image", "stc", "com"))
    # active budgets differ here, but the projectors are exercised directly
    enc = VideoEncoder(cfg, Rng(0, "v"))
    text = InstructionEncoder(cfg, Rng(0, "t"))
    frames = np.random.RandomState(1).rand(1, 8, 16, 16)
    idx = np.arange(0, 8, 2)
    readout = Rng(5, "readout").normal((32,), std=1.0)

    if which == "image":
        proj = ImageProjector(cfg, Rng(1, "p"))
        target = proj.w1

        def f(t):
            feats = enc.encode(frames[:, idx], idx)
            out = proj(feats)
            return tsum(mul(out.tokens, Tensor_like(readout)))
    elif which == "stc":
        proj = StcProjector(cfg, Rng(1, "p"))
        target = proj.named_parameters()["conv0.k"]

        def f(t):
            feats = enc.encode(frames[:, idx], idx)
            out = proj(feats)
            return tsum(mul(out.tokens, Tensor_like(readout)))
    else:
        proj = ComProjector(cfg, Rng(1, "p"))
        target = proj.query

        def f(t):
            feats = enc.encode(frames, np.arange(8))
            instr = text.encode(np.array([[12, 13, 14, 15, 16, 17]]))
            out = proj(feats, instr)
            return tsum(mul(out.tokens, Tensor_like(readout)))

    assert grad_check(f, target, max_coords=40) < 1e-4


def Tensor_like(arr):
    from vpfuse.tensor import Tensor
    return Tensor(arr)
