"""Synthetic task generators: determinism and constructive properties."""

import hashlib

import numpy as np
import pytest

from vpfuse.config import default_config
from vpfuse.encoders import sample_frames
from vpfuse.tasks import (
    EVAL_INDEX_BASE,
    FAMILIES,
    FAMILY_POOLS,
    GLYPHS,
    TaskError,
    batch_stream,
    eval_batches,
    generate_sample,
    make_batch,
    spec_from_config,
)

CFG = default_config()


def spec(family, **kw):
    return spec_from_config(CFG, family, **kw)


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_pure_function_of_seed_and_index(self, family):
        a = generate_sample(spec(family), 17)
        b = generate_sample(spec(family), 17)
        np.testing.assert_array_equal(a.frames, b.frames)
        assert a.answer == b.answer
        np.testing.assert_array_equal(a.instruction_tokens, b.instruction_tokens)

    @pytest.mark.parametrize("family,digest", [
        ("detail", "0118e5f28a6042531dd825a035671d4892720f36a0666e2e329d3f2a4d6cdbd8"),
        ("motion", "969ae92f1b2a78b63b3dc5d9727b5f542d4006731ae2fe4df020be9e5fbaac3d"),
        ("counting", "e89318ac00a8523008652199c02cfaeb7f7dcf46b34def0a9a760e9879873e23"),
    ])
    def test_frame_bytes_pinned(self, family, digest):
        # sha256 of the first 100 samples' frames under the default config,
        # recorded from the per-frame, per-block reference generator: a
        # rewrite of a generator must keep every frame byte-identical.
        h = hashlib.sha256()
        for idx in range(100):
            h.update(generate_sample(spec(family), idx).frames.tobytes())
        assert h.hexdigest() == digest

    def test_distinct_indices_differ(self):
        a = generate_sample(spec("detail"), 0)
        b = generate_sample(spec("detail"), 1)
        assert not np.array_equal(a.frames, b.frames)

    def test_eval_split_disjoint_from_train(self):
        # train indices are consumed from 0 upward; eval lives above the base
        assert EVAL_INDEX_BASE > 1 << 19
        batches = list(eval_batches(CFG, "detail", n=4, batch_size=2))
        assert sum(b.size for b in batches) == 4


class TestDetail:
    def test_exactly_one_glyph_cell_per_frame(self):
        # generator postcondition over a thousand seeded samples
        s = spec("detail")
        cells = CFG["video.grid"] // CFG["video.patch"]
        for idx in range(1000):
            sample = generate_sample(s, idx)
            r, c = sample.meta["cell"]
            assert 0 <= r < cells and 0 <= c < cells
            bright = sample.frames > 0.5
            per_frame = bright.reshape(sample.frames.shape[0], cells, 4, cells, 4)
            hot_cells = per_frame.any(axis=(2, 4))
            for f in range(sample.frames.shape[0]):
                hot = np.argwhere(hot_cells[f])
                assert hot.shape == (1, 2)
                assert tuple(hot[0]) == (r, c)

    def test_glyphs_have_equal_pixel_mass(self):
        sizes = {len(set(g)) for g in GLYPHS}
        assert sizes == {6}

    def test_persistent_across_frames(self):
        sample = generate_sample(spec("detail"), 5)
        bright = sample.frames > 0.5
        np.testing.assert_array_equal(bright[0], bright[-1])


class TestMotion:
    def test_right_column_strictly_increases(self):
        s = spec("motion")
        for idx in range(200):
            sample = generate_sample(s, idx)
            cols, rows = sample.meta["cols"], sample.meta["rows"]
            d = sample.meta["direction"]
            if d == 0:
                assert np.all(np.diff(cols) > 0)
            elif d == 1:
                assert np.all(np.diff(cols) < 0)
            elif d == 2:
                assert np.all(np.diff(rows) > 0)
            else:
                assert np.all(np.diff(rows) < 0)

    def test_mover_block_fully_bright_every_frame(self):
        s = spec("motion")
        g = s.grid
        for idx in range(50):
            sample = generate_sample(s, idx)
            cols, rows = sample.meta["cols"], sample.meta["rows"]
            for f in range(sample.total_frames):
                r, c = int(np.floor(rows[f])), int(np.floor(cols[f]))
                rr = np.arange(r, r + 4) % g
                cc = np.arange(c, c + 4) % g
                assert np.all(sample.frames[f][np.ix_(rr, cc)] > 0.5)
                # mover plus up to MOTION_DISTRACTORS static blocks
                assert 16 <= (sample.frames[f] > 0.5).sum() <= 16 * 5

    def test_sampled_frames_shift_one_cell(self):
        # midpoint sampling strides 4 frames; at 1 px/frame the mover shifts
        # exactly one patch cell between consecutive sampled frames
        s = spec("motion")
        idx_sampled = sample_frames(s.total_frames, CFG["sampler.frames"])
        for idx in range(100):
            sample = generate_sample(s, idx)
            if sample.meta["direction"] != 0:
                continue
            traj = sample.meta["cols"][idx_sampled]
            np.testing.assert_array_equal(np.diff(traj), 4.0)


class TestCounting:
    def test_zero_events_is_noise_only(self):
        s = spec("counting")
        found = 0
        for idx in range(200):
            sample = generate_sample(s, idx)
            if sample.answer == 0:
                found += 1
                assert sample.frames.max() <= s.noise + 1e-12
        assert found > 20

    def test_event_frames_lifted_above_background(self):
        s = spec("counting")
        for idx in range(200):
            sample = generate_sample(s, idx)
            events = set(sample.meta["events"].tolist())
            assert len(events) == sample.answer
            means = sample.frames.mean(axis=(1, 2))
            for f in range(sample.total_frames):
                if f in events:
                    assert means[f] > 0.5
                else:
                    assert means[f] < 0.2

    def test_requires_more_frames_than_sample_budget(self):
        with pytest.raises(TaskError):
            spec_from_config(CFG, "counting", total_frames=8)


class TestInstructions:
    def test_family_pools_disjoint(self):
        pools = [set(FAMILY_POOLS[f]) for f in FAMILIES]
        assert not (pools[0] & pools[1] or pools[0] & pools[2] or pools[1] & pools[2])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tokens_stay_in_family_pool(self, family):
        pool = set(FAMILY_POOLS[family])
        for idx in range(50):
            sample = generate_sample(spec(family), idx)
            assert set(sample.instruction_tokens.tolist()) <= pool


class TestBatching:
    def test_stream_is_deterministic(self):
        a = [b.labels.tolist() for _, b in zip(range(4), batch_stream(CFG, "tune", 3))]
        b = [b.labels.tolist() for _, b in zip(range(4), batch_stream(CFG, "tune", 3))]
        assert a == b

    def test_stream_mixes_modalities(self):
        mods = {b.modality for _, b in zip(range(40),
                batch_stream(CFG.replace(train__batch=2), "pretrain", 1))}
        assert mods == {"image", "video"}

    def test_no_image_batches_without_image_slot(self):
        cfg = CFG.replace(projectors__active=("stc", "com"), train__batch=2)
        mods = {b.modality for _, b in zip(range(40), batch_stream(cfg, "pretrain", 1))}
        assert mods == {"video"}

    def test_mixed_modality_batch_rejected(self):
        video = generate_sample(spec("detail"), 0)
        image = generate_sample(spec("detail", total_frames=1), 1)
        with pytest.raises(TaskError):
            make_batch([video, image])
