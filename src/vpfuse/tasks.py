"""Synthetic video tasks, one per projector strength.

- detail: a one-patch glyph (equal pixel count per class, so spatial pooling
  destroys the class signal) persists at a random cell over textured noise.
  Per-frame patch tokens see it crisply.
- motion: a bright block translates steadily in one of four directions among
  equally bright static distractor blocks.  A single frame cannot tell the
  mover from the camouflage, and spatial pooling sees an almost constant
  field, but the mover is the only source of frame-to-frame change, which a
  spatial-temporal convolution reads off directly.  The field is toroidal:
  the block wraps at the edges, and the recorded trajectory coordinate
  (unwrapped) is strictly monotone for the whole clip.
- counting: k full-field single-frame flashes at distinct random frames.
  The clip is longer than the sampled-frame budget, so only the all-frames
  path can count reliably.

Samples are pure functions of (seed, family, index); train and eval splits
are disjoint index ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import Config
from .encoders import VideoSample
from .model import Batch
from .rng import Rng

FAMILIES = ("detail", "motion", "counting")

# Token-id pools per family: disjoint six-token vocabularies, so routing is
# learnable from the instruction text alone.
POOL_SIZE = 6
FAMILY_POOLS = {fam: range(i * POOL_SIZE, (i + 1) * POOL_SIZE)
                for i, fam in enumerate(FAMILIES)}

# Four glyphs, six lit pixels each (equal brightness mass per class).
GLYPHS = [
    ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0)),   # diagonal cross
    ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 1)),   # T
    ((0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)),   # L
    ((0, 3), (1, 2), (2, 1), (3, 0), (1, 3), (2, 0)),   # anti-diagonal band
]

FOREGROUND = 0.9
FLASH_LIFT = 0.6
MOTION_DISTRACTORS = 4  # static same-brightness camouflage blocks

# Index bases keeping streams disjoint: eval is far above any training index.
EVAL_INDEX_BASE = 1 << 20
TUNE_INDEX_BASE = 1 << 19


class TaskError(ValueError):
    """Task spec inconsistent with what a family's generator can draw."""


@dataclass(frozen=True)
class TaskSpec:
    family: str
    classes: int
    total_frames: int
    grid: int
    patch: int
    noise: float
    seed: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise TaskError(f"unknown family {self.family!r}")
        if self.family in ("detail",) and self.classes > len(GLYPHS):
            raise TaskError(f"detail family supports up to {len(GLYPHS)} classes")
        if self.family == "motion" and self.classes != 4:
            raise TaskError("motion family encodes exactly 4 directions")
        if self.family == "counting" and self.classes > self.total_frames:
            raise TaskError("counting classes exceed available frames")
        if self.family == "motion" and self.total_frames < 2:
            raise TaskError("motion family needs at least 2 frames")


def spec_from_config(cfg: Config, family: str, total_frames: int | None = None) -> TaskSpec:
    t = cfg["video.total_frames"] if total_frames is None else total_frames
    if family == "counting" and t <= cfg["sampler.frames"]:
        raise TaskError("counting family requires more total frames than the "
                        "sampled-frame budget")
    return TaskSpec(family=family, classes=cfg["model.classes"], total_frames=t,
                    grid=cfg["video.grid"], patch=cfg["video.patch"],
                    noise=cfg["task.noise"], seed=cfg["train.seed"])


def _instruction(rng: Rng, family: str) -> np.ndarray:
    pool = FAMILY_POOLS[family]
    base = pool.start
    fixed = [base, base + 1, base + 2, base + 3]
    extra = [base + rng.integers(POOL_SIZE), base + rng.integers(POOL_SIZE)]
    return np.array(fixed + extra, dtype=np.int64)


def _draw_glyph(frames: np.ndarray, glyph: int, cell_r: int, cell_c: int,
                patch: int) -> None:
    for dr, dc in GLYPHS[glyph]:
        frames[:, cell_r * patch + dr, cell_c * patch + dc] = FOREGROUND


def generate_sample(spec: TaskSpec, index: int) -> VideoSample:
    """Deterministic sample for (spec.seed, spec.family, index)."""
    rng = Rng(spec.seed, f"sample/{spec.family}/{index}")
    t, g = spec.total_frames, spec.grid
    frames = rng.uniform((t, g, g)) * spec.noise

    if spec.family == "detail":
        answer = rng.integers(spec.classes)
        cells = g // spec.patch
        cell_r, cell_c = rng.integers(cells), rng.integers(cells)
        _draw_glyph(frames, answer, cell_r, cell_c, spec.patch)
        meta = {"glyph": answer, "cell": (cell_r, cell_c)}

    elif spec.family == "motion":
        answer = rng.integers(4)  # 0 right, 1 left, 2 down, 3 up
        # One pixel per frame on a toroidal field: between midpoint-sampled
        # frames (stride T/K = 4) the mover shifts by exactly one patch cell,
        # the cleanest possible signal for a k=3 temporal convolution.
        speed = 1.0
        start = float(rng.integers(g))
        cross = float(rng.integers(g))
        steps = np.arange(t) * speed
        if answer == 0:
            cols, rows = start + steps, np.full(t, cross)
        elif answer == 1:
            cols, rows = start - steps, np.full(t, cross)
        elif answer == 2:
            cols, rows = np.full(t, cross), start + steps
        else:
            cols, rows = np.full(t, cross), start - steps
        # Static camouflage: distractor blocks as bright as the mover, fixed
        # for the whole clip, so per-frame appearance hides which block moves
        # while the temporal difference field exposes only the mover.  Blocks
        # keep a circular distance >= patch from the mover's band so they
        # never occlude its trajectory.
        camo = []
        for _ in range(MOTION_DISTRACTORS):
            off = spec.patch + rng.integers(g - 2 * spec.patch + 1)
            free = rng.integers(g)
            if answer in (0, 1):  # horizontal mover: shift camo rows away
                camo.append((int(cross + off) % g, free))
            else:
                camo.append((free, int(cross + off) % g))
        # Every block of every frame in one indexed write (all blocks have
        # the same value, so overlaps need no order): corners are (T, N).
        camo_r, camo_c = np.array(camo, dtype=np.int64).T
        corner_r = np.column_stack([np.tile(camo_r, (t, 1)),
                                    np.floor(rows).astype(np.int64)])
        corner_c = np.column_stack([np.tile(camo_c, (t, 1)),
                                    np.floor(cols).astype(np.int64)])
        span = np.arange(spec.patch)
        frames[np.arange(t)[:, None, None, None],
               (corner_r[:, :, None, None] + span[:, None]) % g,
               (corner_c[:, :, None, None] + span) % g] = FOREGROUND
        meta = {"direction": answer, "cols": cols, "rows": rows,
                "camouflage": camo}

    else:  # counting
        answer = rng.integers(spec.classes)
        events = rng.choice_distinct(t, answer) if answer > 0 else np.array([], dtype=np.int64)
        for f in events:
            frames[f] += FLASH_LIFT
        meta = {"events": np.sort(events)}

    tokens = _instruction(rng, spec.family)
    return VideoSample(frames=frames, answer=int(answer), family=spec.family,
                       instruction_tokens=tokens, meta=meta)


def make_batch(samples: list[VideoSample]) -> Batch:
    modalities = {s.modality for s in samples}
    if len(modalities) != 1:
        raise TaskError(f"batch mixes modalities {sorted(modalities)}")
    return Batch(
        frames=np.stack([s.frames for s in samples]),
        labels=np.array([s.answer for s in samples], dtype=np.int64),
        tokens=np.stack([s.instruction_tokens for s in samples]),
        modality=modalities.pop(),
        families=[s.family for s in samples],
    )


def batch_stream(cfg: Config, stage: str, seed: int,
                 include_images: bool = True) -> Iterator[Batch]:
    """Endless deterministic batch stream for one training stage.

    Video batches mix families uniformly; with probability
    ``train.image_ratio`` a batch is single-frame image-modality detail data
    (skipped automatically when no image-based slot is active).
    """
    rng = Rng(seed, f"train/{stage}/stream")
    batch_size = cfg["train.batch"]
    base = 0 if stage == "pretrain" else TUNE_INDEX_BASE
    video_specs = {fam: spec_from_config(cfg, fam) for fam in FAMILIES}
    image_spec = spec_from_config(cfg, "detail", total_frames=1)
    kinds = cfg["projectors.kinds"]
    has_image_slot = any(kinds[i] == "image" for i in cfg.active_slots())
    image_ratio = cfg["train.image_ratio"] if (include_images and has_image_slot) else 0.0

    counter = 0
    while True:
        as_image = rng.uniform() < image_ratio
        samples = []
        for _ in range(batch_size):
            index = base + counter
            counter += 1
            if as_image:
                samples.append(generate_sample(image_spec, index))
            else:
                fam = FAMILIES[rng.integers(len(FAMILIES))]
                samples.append(generate_sample(video_specs[fam], index))
        yield make_batch(samples)


def eval_batches(cfg: Config, family: str, n: int,
                 batch_size: int = 64) -> Iterator[Batch]:
    """Deterministic eval split: indices live above every training index."""
    spec = spec_from_config(cfg, family)
    done = 0
    while done < n:
        take = min(batch_size, n - done)
        samples = [generate_sample(spec, EVAL_INDEX_BASE + done + j)
                   for j in range(take)]
        done += take
        yield make_batch(samples)
