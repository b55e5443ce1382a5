"""Toy visual and instruction encoders.

These stand in for the frozen pretrained backbones of a full-size system:
randomly initialized, shape-compatible, and deliberately simple.  The visual
encoder is a per-patch linear map plus learned (t, h, w) positional
embeddings; it returns the plain (B, T, H, W, D) feature Tensor that every
projector takes.  The instruction encoder is a tiny transformer over a
(B, L) batch of token ids whose position-0 output is the pooled [CLS]
summary the router consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .layers import Linear, Module, TransformerBlock
from .rng import Rng
from .tensor import (
    Tensor,
    add,
    broadcast_to,
    concat,
    embedding,
    reshape,
    slice_axis,
)


class EncodingError(ValueError):
    """Invalid frames, indices, or token ids handed to an encoder."""


@dataclass
class VideoSample:
    """One synthetic clip: grayscale frames, its answer, and its instruction."""

    frames: np.ndarray  # (T_total, G, G), values in [0, 1]
    answer: int
    instruction_tokens: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.frames.ndim != 3 or self.frames.shape[0] < 1:
            raise EncodingError(f"frames must be (T, G, G) with T >= 1, got {self.frames.shape}")
        if self.frames.min() < 0.0 or self.frames.max() > 1.0:
            raise EncodingError("frame values must lie in [0, 1]")
        if len(self.instruction_tokens) == 0:
            raise EncodingError("instruction_tokens must be non-empty")

    @property
    def total_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class InstructionEncoding:
    """cls is the position-0 summary state; tokens are the per-token states."""

    cls: Tensor    # (B, D_text)
    tokens: Tensor  # (B, L, D_text)


def sample_frames(total_frames: int, k: int) -> np.ndarray:
    """Deterministic midpoint sampling: idx_i = floor((i + 0.5) * T / K)."""
    if not 1 <= k <= total_frames:
        raise EncodingError(f"cannot sample {k} frames from {total_frames}")
    idx = np.floor((np.arange(k) + 0.5) * total_frames / k).astype(np.int64)
    return idx


class VideoEncoder(Module):
    """Non-overlapping patch flattening -> linear map -> 3-axis positions.

    Built frozen: no parameter requires grad, so neither do the features it
    returns, which ``conv3d`` and ``pool`` require.
    """

    def __init__(self, cfg: Config, rng: Rng):
        self.patch_size = cfg["video.patch"]
        self.dim = cfg["encoder.dim"]
        pg = cfg.patch_grid()
        self.patch = Linear(rng, self.patch_size * self.patch_size, self.dim)
        self.pos_t = Tensor(rng.normal((cfg["video.total_frames"], self.dim), std=0.1))
        self.pos_h = Tensor(rng.normal((pg, self.dim), std=0.1))
        self.pos_w = Tensor(rng.normal((pg, self.dim), std=0.1))
        self.patch.w.requires_grad = self.patch.b.requires_grad = False

    def encode(self, frames: np.ndarray, frame_indices: np.ndarray) -> Tensor:
        """(B, T, H, W, D) patch features of (B, T, G, G) raw frames whose
        original positions in the clip are ``frame_indices``."""
        if frames.ndim != 4:
            raise EncodingError(f"expected (B, T, G, G) frames, got {frames.shape}")
        b, t, g1, g2 = frames.shape
        p = self.patch_size
        if g1 != g2 or g1 % p != 0:
            raise EncodingError(f"frame grid {g1}x{g2} not divisible by patch {p}")
        frame_indices = np.asarray(frame_indices, dtype=np.int64)
        if frame_indices.shape != (t,):
            raise EncodingError("frame_indices must match the frame axis")
        pg = g1 // p
        # The (B, T, H, W, p*p) patches live only while the linear map reads
        # them, not through the positional add.
        x = self.patch(Tensor(frames.reshape(b, t, pg, p, pg, p)
                              .transpose(0, 1, 2, 4, 3, 5)
                              .reshape(b, t, pg, pg, p * p)))
        return add(x,
                   reshape(embedding(self.pos_t, frame_indices), (t, 1, 1, self.dim)),
                   reshape(self.pos_h, (pg, 1, self.dim)),
                   self.pos_w)


class InstructionEncoder(Module):
    """CLS-prefixed token transformer over the synthetic instruction vocabulary."""

    def __init__(self, cfg: Config, rng: Rng):
        self.vocab = cfg["text.vocab"]
        self.dim = cfg["text.dim"]
        self.max_len = cfg["text.max_len"]
        self.embed = Tensor(rng.normal((self.vocab, self.dim), std=0.5), requires_grad=True)
        self.cls = Tensor(rng.normal((self.dim,), std=0.5), requires_grad=True)
        self.pos = Tensor(rng.normal((self.max_len + 1, self.dim), std=0.1),
                          requires_grad=True)
        self.block = [TransformerBlock(rng, self.dim, 2 * self.dim)
                      for _ in range(cfg["text.blocks"])]

    def encode(self, tokens: np.ndarray) -> InstructionEncoding:
        """Encode a (B, L) batch of token ids."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise EncodingError(f"expected (B, L) token ids, got shape {tokens.shape}")
        b, n = tokens.shape
        if n < 1 or n > self.max_len:
            raise EncodingError(f"instruction length {n} outside [1, {self.max_len}]")
        if tokens.min() < 0 or tokens.max() >= self.vocab:
            raise EncodingError(f"token id outside vocabulary of {self.vocab}")
        tok = embedding(self.embed, tokens)
        cls = broadcast_to(reshape(self.cls, (1, 1, self.dim)), (b, 1, self.dim))
        x = concat([cls, tok], axis=1)
        x = add(x, reshape(slice_axis(self.pos, 0, 0, n + 1), (1, n + 1, self.dim)))
        for block in self.block:
            x = block(x)
        cls_out = reshape(slice_axis(x, 1, 0, 1), (b, self.dim))
        tok_out = slice_axis(x, 1, 1, n + 1)
        return InstructionEncoding(cls=cls_out, tokens=tok_out)
