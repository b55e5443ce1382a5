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

Each family is defined once, as its entry in ``_FAMILY_TABLE``.  Samples are
pure functions of (seed, family, index); train and eval splits are disjoint
index ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import Config
from .encoders import VideoSample
from .model import Batch
from .rng import Rng

# Token ids per family: the family at table position i owns the six ids
# 6i..6i+5, disjoint vocabularies, so routing is learnable from the
# instruction text alone.
POOL_SIZE = 6
INSTRUCTION_LEN = 6  # four fixed ids of the family's pool, then two drawn

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
EVAL_BATCH = 64


class TaskError(ValueError):
    """Task spec inconsistent with what a family's generator can draw."""


@dataclass(frozen=True)
class TaskSpec:
    """What a family's draw reads from the config; ``spec_from_config``
    builds and checks it."""

    family: str
    classes: int
    total_frames: int
    grid: int
    patch: int
    noise: float
    seed: int


def _check_detail(spec: TaskSpec, cfg: Config) -> None:
    if spec.classes > len(GLYPHS):
        raise TaskError(f"detail family supports up to {len(GLYPHS)} classes")
    extent = 1 + max(max(pixel) for glyph in GLYPHS for pixel in glyph)
    if spec.patch < extent:
        raise TaskError(f"detail glyphs span {extent}x{extent} pixels, more than "
                        f"a video.patch of {spec.patch}")


def _draw_detail(spec: TaskSpec, rng: Rng, frames: np.ndarray) -> tuple[int, dict]:
    answer = rng.integers(spec.classes)
    cells = spec.grid // spec.patch
    cell_r, cell_c = rng.integers(cells), rng.integers(cells)
    for dr, dc in GLYPHS[answer]:
        frames[:, cell_r * spec.patch + dr, cell_c * spec.patch + dc] = FOREGROUND
    return answer, {"glyph": answer, "cell": (cell_r, cell_c)}


def _check_motion(spec: TaskSpec, cfg: Config) -> None:
    if spec.classes != 4:
        raise TaskError("motion family encodes exactly 4 directions")
    if spec.grid < 2 * spec.patch:
        # The camouflage keeps a patch of distance on each side of the mover.
        raise TaskError(f"motion family needs a video.grid of at least two "
                        f"patches ({2 * spec.patch}), got {spec.grid}")
    if spec.total_frames < 2:
        raise TaskError("motion family needs at least 2 frames")


def _draw_motion(spec: TaskSpec, rng: Rng, frames: np.ndarray) -> tuple[int, dict]:
    t, g = spec.total_frames, spec.grid
    answer = rng.integers(4)  # 0 right, 1 left, 2 down, 3 up
    # One pixel per frame on a toroidal field: between midpoint-sampled
    # frames (stride T/K = 4) the mover shifts by exactly one patch cell,
    # the cleanest possible signal for a k=3 temporal convolution.
    start = float(rng.integers(g))
    cross = float(rng.integers(g))
    horizontal = answer in (0, 1)
    along = start + (1.0 if answer % 2 == 0 else -1.0) * np.arange(t)
    fixed = np.full(t, cross)
    cols, rows = (along, fixed) if horizontal else (fixed, along)
    # Static camouflage: distractor blocks as bright as the mover, fixed
    # for the whole clip, so per-frame appearance hides which block moves
    # while the temporal difference field exposes only the mover.  Blocks
    # keep a circular distance >= patch from the mover's band so they
    # never occlude its trajectory.
    camo = []
    for _ in range(MOTION_DISTRACTORS):
        off = spec.patch + rng.integers(g - 2 * spec.patch + 1)
        free = rng.integers(g)
        if horizontal:  # shift camo rows away from the mover's row
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
    return answer, {"direction": answer, "cols": cols, "rows": rows,
                    "camouflage": camo}


def _check_counting(spec: TaskSpec, cfg: Config) -> None:
    if spec.total_frames <= cfg["sampler.frames"]:
        raise TaskError("counting family requires more total frames than the "
                        "sampled-frame budget")
    if spec.classes > spec.total_frames:
        raise TaskError("counting classes exceed available frames")
    if spec.noise + FLASH_LIFT > 1.0:
        raise TaskError(f"task.noise {spec.noise} plus the counting flash "
                        f"{FLASH_LIFT} exceeds the frame range [0, 1]")


def _draw_counting(spec: TaskSpec, rng: Rng, frames: np.ndarray) -> tuple[int, dict]:
    answer = rng.integers(spec.classes)
    events = rng.choice_distinct(spec.total_frames, answer)
    for f in events:
        frames[f] += FLASH_LIFT
    return answer, {"events": np.sort(events)}


# One entry per family, (check, draw), in instruction-id order.  The check
# raises TaskError for a spec the draw cannot serve; the draw writes the
# answer into the noise frames and returns (answer, meta).
_FAMILY_TABLE = {
    "detail": (_check_detail, _draw_detail),
    "motion": (_check_motion, _draw_motion),
    "counting": (_check_counting, _draw_counting),
}
FAMILIES = tuple(_FAMILY_TABLE)
IMAGE_FAMILY = "detail"  # the family single-frame image batches draw


def spec_from_config(cfg: Config, family: str, total_frames: int | None = None) -> TaskSpec:
    """``family``'s spec under ``cfg``, or ``TaskError`` if the family cannot
    draw it; the one place a spec is checked."""
    if cfg["text.vocab"] < len(FAMILIES) * POOL_SIZE:
        raise TaskError(f"text.vocab {cfg['text.vocab']} holds fewer than the "
                        f"{len(FAMILIES) * POOL_SIZE} instruction token ids")
    if cfg["text.max_len"] < INSTRUCTION_LEN:
        raise TaskError(f"text.max_len {cfg['text.max_len']} is shorter than the "
                        f"{INSTRUCTION_LEN}-token instructions")
    if family not in _FAMILY_TABLE:
        raise TaskError(f"unknown family {family!r}")
    t = cfg["video.total_frames"] if total_frames is None else total_frames
    spec = TaskSpec(family=family, classes=cfg["model.classes"], total_frames=t,
                    grid=cfg["video.grid"], patch=cfg["video.patch"],
                    noise=cfg["task.noise"], seed=cfg["train.seed"])
    check, _ = _FAMILY_TABLE[family]
    check(spec, cfg)
    return spec


def generate_sample(spec: TaskSpec, index: int) -> VideoSample:
    """Deterministic sample for (spec.seed, spec.family, index)."""
    rng = Rng(spec.seed, f"sample/{spec.family}/{index}")
    frames = rng.uniform((spec.total_frames, spec.grid, spec.grid)) * spec.noise
    _, draw = _FAMILY_TABLE[spec.family]
    answer, meta = draw(spec, rng, frames)
    base = FAMILIES.index(spec.family) * POOL_SIZE
    fixed = [base, base + 1, base + 2, base + 3]
    extra = [base + rng.integers(POOL_SIZE) for _ in range(INSTRUCTION_LEN - len(fixed))]
    return VideoSample(frames=frames, answer=int(answer), meta=meta,
                       instruction_tokens=np.array(fixed + extra, dtype=np.int64))


def make_batch(samples: list[VideoSample]) -> Batch:
    lengths = {s.total_frames for s in samples}
    if len(lengths) != 1:
        raise TaskError(f"batch mixes clip lengths {sorted(lengths)}")
    return Batch(
        frames=np.stack([s.frames for s in samples]),
        labels=np.array([s.answer for s in samples], dtype=np.int64),
        tokens=np.stack([s.instruction_tokens for s in samples]),
    )


def batch_stream(cfg: Config, stage: str, seed: int) -> Iterator[Batch]:
    """Endless deterministic batch stream for one training stage.

    Video batches mix families uniformly; with probability
    ``train.image_ratio`` a batch is single-frame ``IMAGE_FAMILY`` image data
    (skipped automatically when no image-based slot is active).  The task
    specs are built by the call itself, so a config the families cannot draw
    fails here rather than at the first batch.
    """
    video_specs = {fam: spec_from_config(cfg, fam) for fam in FAMILIES}
    image_spec = spec_from_config(cfg, IMAGE_FAMILY, total_frames=1)
    image_ratio = cfg["train.image_ratio"] if cfg.image_slot() is not None else 0.0
    batch_size = cfg["train.batch"]
    base = 0 if stage == "pretrain" else TUNE_INDEX_BASE

    def batches() -> Iterator[Batch]:
        rng = Rng(seed, f"train/{stage}/stream")
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

    return batches()

def eval_batches(cfg: Config, family: str, n: int) -> Iterator[Batch]:
    """Deterministic eval split, ``EVAL_BATCH`` samples per batch: indices
    live above every training index."""
    spec = spec_from_config(cfg, family)
    done = 0
    while done < n:
        take = min(EVAL_BATCH, n - done)
        samples = [generate_sample(spec, EVAL_INDEX_BASE + done + j)
                   for j in range(take)]
        done += take
        yield make_batch(samples)
