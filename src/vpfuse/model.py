"""Full model assembly: encoders, projector slots, router, decoder head.

The decoder is a small self-attention classifier rather than an autoregressive
LM: it reads [fused visual tokens ; projected instruction token states],
mean-pools, and emits answer-class logits.  That keeps the object under test
(which projector mix reaches the decoder) intact at desk scale.

``FusionModel.forward`` composes three stages: ``encode`` (the frozen visual
encoder's one pass), ``project`` (each projecting slot's tokens) and
``decide`` (route, fuse and decode).  Each stage's input dies at its last
reader: tape-free, the sampled features are freed once the last slot that
reads them has projected, the clip's when ``project`` returns and the
unfused streams when fusion returns, so the decoder runs without them
(CPython 3.11+ hands a call's arguments over to the callee).  A recording
tape keeps what backward needs either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import Config, ConfigError
from .encoders import InstructionEncoder, InstructionEncoding, VideoEncoder, sample_frames
from .layers import Linear, Module, TransformerBlock
from .projectors import (
    PROJECTOR_CLASSES,
    VisualTokens,
    compute_token_budget,
    validate_alignment,
)
from .rng import Rng
from .router import (
    FusionError,
    FusionStrategy,
    GateWeights,
    Router,
    fuse_with_strategy,
    make_strategy,
    scatter_gates,
)
from .tensor import Tensor, concat, cross_entropy, embedding, tmean


@dataclass
class Batch:
    """One homogeneous training/eval batch: every clip has T frames."""

    frames: np.ndarray  # (B, T, G, G)
    labels: np.ndarray  # (B,)
    tokens: np.ndarray  # (B, L)

    @property
    def size(self) -> int:
        return self.frames.shape[0]

    @property
    def modality(self) -> str:
        return "image" if self.frames.shape[1] == 1 else "video"


@dataclass
class Features:
    """A batch's frozen visual features, as ``FusionModel.project`` reads them."""

    clip: Optional[Tensor]  # (B, T, H, W, D) over every frame, when an active slot reads it
    sampled: Optional[Tensor]  # (B, K, H, W, D) over the sampled frames, or an image's one
    image: bool


@dataclass
class Streams:
    """The projected token streams that ``FusionModel.decide`` fuses."""

    tokens: list[VisualTokens]  # one per projecting slot, in slot order
    image: bool  # an image batch: the image slot's stream alone, not routed


class Decoder(Module):
    def __init__(self, cfg: Config, rng: Rng):
        d_model = cfg["model.dim"]
        self.text_proj = Linear(rng, cfg["text.dim"], d_model)
        self.block = [TransformerBlock(rng, d_model, cfg["decoder.hidden"])
                      for _ in range(cfg["decoder.blocks"])]
        self.readout = Linear(rng, d_model, cfg["model.classes"])

    def __call__(self, visual: VisualTokens, text_states: Tensor) -> Tensor:
        seq = concat([visual.tokens, self.text_proj(text_states)], axis=1)
        for block in self.block:
            seq = block(seq)
        return self.readout(tmean(seq, axis=1))


class FusionModel(Module):
    """The assembled system; construction fails unless every projector slot,
    active or not, emits the same number of tokens."""

    def __init__(self, cfg: Config, seed: int):
        self.cfg = cfg
        self.labels = cfg.slot_labels()
        self.active = cfg.active_slots()

        mismatch = validate_alignment(compute_token_budget(cfg))
        if mismatch is not None:
            raise ConfigError(f"token budgets misaligned:\n{mismatch}")

        self.visual_encoder = VideoEncoder(cfg, Rng(seed, "init/visual"))
        self.instruction_encoder = InstructionEncoder(cfg, Rng(seed, "init/text"))
        self.projectors = {label: PROJECTOR_CLASSES[kind](cfg, Rng(seed, f"init/proj/{label}"))
                           for kind, label in zip(cfg["projectors.kinds"], self.labels)}
        self.router = Router(cfg, Rng(seed, "init/router"), n_slots=len(self.labels))
        self.decoder = Decoder(cfg, Rng(seed, "init/decoder"))

    def zero_grad(self) -> None:
        for p in self.named_parameters().values():
            p.grad = None

    # -- forward -------------------------------------------------------------
    def forward(self, batch: Batch,
                strategy: Optional[FusionStrategy] = None) -> tuple[Tensor, GateWeights]:
        """Answer logits (B, C) plus the slot-aligned gates used (under
        concat, the uniform weight of each concatenated stream).

        Without ``strategy``, the configured one draws from the stream
        ``evaluate`` starts each family with: ``make_strategy(kind, 0, "eval")``.
        No local names the features or the streams (see the module notes).
        """
        if strategy is None:
            strategy = make_strategy(self.cfg["train.strategy"], 0, "eval")
        instr = self.instruction_encoder.encode(batch.tokens)
        return self.decide(self.project(self.encode(batch), instr), instr, strategy)

    def encode(self, batch: Batch) -> Features:
        """The frozen visual encoder's one pass: over the full clip when an
        active slot reads it, with the sampled frames gathered from it;
        else over those frames alone, or over an image batch's one frame."""
        if batch.modality == "image":
            if self.cfg.image_slot() is None:
                raise FusionError("no active image-based projector slot")
            return Features(clip=None, sampled=self.visual_encoder.encode(
                batch.frames, np.array([0])), image=True)
        t = batch.frames.shape[1]
        if t != self.cfg["video.total_frames"]:
            raise FusionError(f"video batch has {t} frames, config expects "
                              f"{self.cfg['video.total_frames']}")
        reads_clip = [self.projectors[self.labels[i]].reads_clip for i in self.active]
        clip = (self.visual_encoder.encode(batch.frames, np.arange(t))
                if any(reads_clip) else None)
        sampled = None
        if not all(reads_clip):
            idx = sample_frames(t, self.cfg["sampler.frames"])
            sampled = (self.visual_encoder.encode(batch.frames[:, idx], idx)
                       if clip is None else embedding(clip, idx, axis=1))
        return Features(clip=clip, sampled=sampled, image=False)

    def project(self, features: Features, instr: InstructionEncoding) -> Streams:
        """Each projecting slot's tokens, in slot order: every active slot's
        for a video batch, the image slot's alone for an image batch."""
        slots = (self.cfg.image_slot(),) if features.image else self.active
        projectors = [self.projectors[self.labels[i]] for i in slots]
        tokens = []
        for n, p in enumerate(projectors):
            tokens.append(p(features.clip, instr) if p.reads_clip else p(features.sampled))
            if all(q.reads_clip for q in projectors[n + 1:]):
                features.sampled = None  # tape-free, the sampled features die here
        return Streams(tokens=tokens, image=features.image)

    def decide(self, streams: Streams, instr: InstructionEncoding,
               strategy: FusionStrategy) -> tuple[Tensor, GateWeights]:
        """Route, fuse and decode: logits and slot-aligned gates.  An image
        batch bypasses the router, with a one-hot gate on the image slot."""
        if streams.image:
            fused, = streams.tokens
            gates = scatter_gates(np.ones((fused.tokens.shape[0], 1)),
                                  (self.cfg.image_slot(),), len(self.labels))
        else:
            fused, gates = fuse_with_strategy(strategy, instr, streams.tokens,
                                              self.router, active=self.active)
        del streams  # tape-free, the unfused streams die here
        return self.decoder(fused, instr.tokens), gates

    def loss(self, batch: Batch,
             strategy: FusionStrategy) -> tuple[Tensor, Tensor, GateWeights]:
        logits, gates = self.forward(batch, strategy)
        return cross_entropy(logits, batch.labels), logits, gates
