"""Frame sampling and the toy encoder stand-ins."""

import numpy as np
import pytest

from vpfuse.config import default_config
from vpfuse.encoders import (
    EncodingError,
    InstructionEncoder,
    VideoEncoder,
    sample_frames,
)
from vpfuse.rng import Rng


class TestSampleFrames:
    def test_identity_when_k_equals_total(self):
        assert sample_frames(8, 8).tolist() == list(range(8))

    def test_midpoint_formula(self):
        # floor((i + 0.5) * 32 / 8) = 4i + 2
        assert sample_frames(32, 8).tolist() == [2, 6, 10, 14, 18, 22, 26, 30]

    def test_single(self):
        assert sample_frames(1, 1).tolist() == [0]

    def test_oversample_rejected(self):
        with pytest.raises(EncodingError):
            sample_frames(4, 5)

    def test_monotone_and_covers_ends(self):
        for total in (8, 17, 32, 100):
            for k in (1, 3, 8):
                if k > total:
                    continue
                idx = sample_frames(total, k)
                assert np.all(np.diff(idx) >= 0)
                bucket = total / k
                assert idx[0] < bucket          # a frame from the first bucket
                assert idx[-1] >= total - bucket  # and from the last


class TestVideoEncoder:
    def test_shapes_from_config_only(self):
        cfg = default_config()
        enc = VideoEncoder(cfg, Rng(0, "init/visual"))
        frames = np.zeros((2, 4, 16, 16))
        out = enc.encode(frames, np.arange(4))
        assert out.shape == (2, 4, 4, 4, 32)
        noisy = np.random.RandomState(0).rand(2, 4, 16, 16)
        assert enc.encode(noisy, np.arange(4)).shape == (2, 4, 4, 4, 32)

    def test_zero_frames_zero_positions_give_bias(self):
        cfg = default_config()
        enc = VideoEncoder(cfg, Rng(0, "init/visual"))
        enc.pos_t.data[:] = 0.0
        enc.pos_h.data[:] = 0.0
        enc.pos_w.data[:] = 0.0
        enc.patch.b.data[:] = np.arange(32, dtype=float)
        out = enc.encode(np.zeros((1, 2, 16, 16)), np.arange(2))
        np.testing.assert_array_equal(
            out.data, np.broadcast_to(np.arange(32.0), (1, 2, 4, 4, 32)))

    def test_full_scale_patch_grid(self):
        # 378-pixel frames with 14-pixel patches give a 27x27 grid
        cfg = default_config().replace(video__grid=378, video__patch=14,
                                       video__total_frames=128, encoder__dim=8,
                                       com__context=6, com__content=6,
                                       com__sep_period=4, img__prepool=2,
                                       stc__stride=(1, 2, 2))
        enc = VideoEncoder(cfg, Rng(0, "init/visual"))
        out = enc.encode(np.zeros((1, 3, 378, 378)), np.arange(3))
        assert out.shape == (1, 3, 27, 27, 8)

    def test_indivisible_grid_rejected(self):
        cfg = default_config()
        enc = VideoEncoder(cfg, Rng(0, "init/visual"))
        with pytest.raises(EncodingError):
            enc.encode(np.zeros((1, 2, 15, 15)), np.arange(2))


class TestInstructionEncoder:
    def make(self, seed=0):
        return InstructionEncoder(default_config(), Rng(seed, "init/text"))

    def test_shapes(self):
        enc = self.make()
        out = enc.encode(np.array([[3]]))
        assert out.tokens.shape == (1, 1, 32)
        assert out.cls.shape == (1, 32)

    def test_deterministic(self):
        enc = self.make()
        a = enc.encode(np.array([[1, 2, 3]]))
        b = enc.encode(np.array([[1, 2, 3]]))
        np.testing.assert_array_equal(a.cls.data, b.cls.data)
        np.testing.assert_array_equal(a.tokens.data, b.tokens.data)

    def test_one_token_change_moves_cls(self):
        enc = self.make()
        a = enc.encode(np.array([[1, 2, 3, 4, 5, 0]]))
        b = enc.encode(np.array([[1, 2, 3, 4, 5, 6]]))
        assert not np.array_equal(a.cls.data, b.cls.data)

    def test_unknown_token_rejected(self):
        enc = self.make()
        with pytest.raises(EncodingError):
            enc.encode(np.array([[99]]))

    def test_length_bounds(self):
        enc = self.make()
        with pytest.raises(EncodingError):
            enc.encode(np.zeros((1, 7), dtype=int))

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3)])
    def test_token_batch_must_be_2d(self, shape):
        with pytest.raises(EncodingError, match=r"\(B, L\) token ids"):
            self.make().encode(np.ones(shape, dtype=int))
