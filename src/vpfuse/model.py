"""Full model assembly: encoders, projector slots, router, decoder head.

The decoder is a small self-attention classifier rather than an autoregressive
LM: it reads [fused visual tokens ; projected instruction token states],
mean-pools, and emits answer-class logits.  That keeps the object under test
(which projector mix reaches the decoder) intact at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import Config, ConfigError
from .encoders import InstructionEncoder, VideoEncoder, sample_frames
from .layers import Linear, TransformerBlock, prefix_params
from .projectors import (
    VisualTokens,
    build_projector,
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
    one_hot_gates,
)
from .tensor import Tensor, concat, cross_entropy, tmean


@dataclass
class Batch:
    """One homogeneous training/eval batch (shared modality and frame count)."""

    frames: np.ndarray  # (B, T, G, G)
    labels: np.ndarray  # (B,)
    tokens: np.ndarray  # (B, L)
    modality: str       # image | video

    @property
    def size(self) -> int:
        return self.frames.shape[0]


class Decoder:
    def __init__(self, cfg: Config, rng: Rng):
        d_model = cfg["model.dim"]
        self.text_proj = Linear(rng, cfg["text.dim"], d_model)
        self.blocks = [TransformerBlock(rng, d_model, cfg["decoder.hidden"])
                       for _ in range(cfg["decoder.blocks"])]
        self.readout = Linear(rng, d_model, cfg["model.classes"])

    def __call__(self, visual: VisualTokens, text_states: Tensor) -> Tensor:
        seq = concat([visual.tokens, self.text_proj(text_states)], axis=1)
        for block in self.blocks:
            seq = block(seq)
        return self.readout(tmean(seq, axis=1))

    def parameters(self) -> dict[str, Tensor]:
        params = prefix_params("text_proj", self.text_proj.parameters())
        for i, block in enumerate(self.blocks):
            params.update(prefix_params(f"block{i}", block.parameters()))
        params.update(prefix_params("readout", self.readout.parameters()))
        return params


class FusionModel:
    """The assembled system; construction fails unless every projector slot,
    active or not, emits the same number of tokens."""

    def __init__(self, cfg: Config, seed: int):
        self.cfg = cfg
        self.kinds = cfg["projectors.kinds"]
        self.labels = cfg.slot_labels()
        self.active = cfg.active_slots()

        report = validate_alignment(compute_token_budget(cfg))
        if not report.ok:
            raise ConfigError(f"token budgets misaligned:\n{report.message}")

        self.visual_encoder = VideoEncoder(cfg, Rng(seed, "init/visual"))
        self.instruction_encoder = InstructionEncoder(cfg, Rng(seed, "init/text"))
        self.projectors = [build_projector(kind, cfg, Rng(seed, f"init/proj/{label}"))
                           for kind, label in zip(self.kinds, self.labels)]
        self.router = Router(cfg, Rng(seed, "init/router"), n_slots=len(self.kinds))
        self.decoder = Decoder(cfg, Rng(seed, "init/decoder"))

        self._params: dict[str, Tensor] = {}
        self._params.update(prefix_params("visual_encoder",
                                          self.visual_encoder.parameters()))
        self._params.update(prefix_params("instruction_encoder",
                                          self.instruction_encoder.parameters()))
        for label, proj in zip(self.labels, self.projectors):
            self._params.update(prefix_params(f"projectors.{label}", proj.parameters()))
        self._params.update(prefix_params("router", self.router.parameters()))
        self._params.update(prefix_params("decoder", self.decoder.parameters()))

    # -- parameter plumbing --------------------------------------------------
    def named_parameters(self) -> dict[str, Tensor]:
        return self._params

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def image_slot(self) -> int:
        for i in self.active:
            if self.kinds[i] == "image":
                return i
        raise FusionError("no active image-based projector slot")

    # -- forward -------------------------------------------------------------
    def forward(self, batch: Batch,
                strategy: Optional[FusionStrategy] = None,
                ) -> tuple[Tensor, Optional[GateWeights]]:
        """Answer logits (B, C) plus the gates used (None under concat)."""
        if strategy is None:
            strategy = FusionStrategy(kind=self.cfg["train.strategy"])
        instr = self.instruction_encoder.encode(batch.tokens)
        b, t = batch.frames.shape[0], batch.frames.shape[1]

        if batch.modality == "image":
            if t != 1:
                raise FusionError(f"image modality with {t} frames")
            slot = self.image_slot()
            feats = self.visual_encoder.encode(batch.frames, np.array([0]))
            fused = self.projectors[slot](feats)
            gates = one_hot_gates(b, slot, len(self.kinds))
        elif batch.modality == "video":
            if t != self.cfg["video.total_frames"]:
                raise FusionError(f"video batch has {t} frames, config expects "
                                  f"{self.cfg['video.total_frames']}")
            embeddings = []
            feats_sampled = None
            feats_full = None
            for i in self.active:
                kind = self.kinds[i]
                if kind in ("image", "stc"):
                    if feats_sampled is None:
                        idx = sample_frames(t, self.cfg["sampler.frames"])
                        feats_sampled = self.visual_encoder.encode(
                            batch.frames[:, idx], idx)
                    embeddings.append(self.projectors[i](feats_sampled))
                else:
                    if feats_full is None:
                        feats_full = self.visual_encoder.encode(
                            batch.frames, np.arange(t))
                    embeddings.append(self.projectors[i](feats_full, instr))
            fused, gates = fuse_with_strategy(strategy, instr, embeddings,
                                              self.router, active=self.active)
        else:
            raise FusionError(f"unknown modality {batch.modality!r}")

        logits = self.decoder(fused, instr.tokens)
        return logits, gates

    def loss(self, batch: Batch,
             strategy: Optional[FusionStrategy] = None,
             ) -> tuple[Tensor, Tensor, Optional[GateWeights]]:
        logits, gates = self.forward(batch, strategy)
        return cross_entropy(logits, batch.labels), logits, gates
