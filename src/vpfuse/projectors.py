"""The three visual projectors and the token-budget arithmetic that keeps
their outputs interchangeable.

Element-wise fusion only makes sense if every projector emits the same number
of tokens, so budgets are derived in closed form from the config (never by
running the network), and ``FusionModel`` refuses to build unless every slot's
budget is the same.  The test suite separately asserts that each network's
actual output count equals its arithmetic count.

Each projector class carries what the program needs to know of its kind:
``kind`` (its ``projectors.kinds`` name and ``PROJECTOR_CLASSES`` key),
``tag`` (its name in the token budget report), ``budget(cfg)`` (its
closed-form token count and how it is derived) and ``reads_clip``.  A
projector takes the visual encoder's (B, T, H, W, D) feature Tensor, over the
whole clip with the instruction encoding when ``reads_clip`` is set and over
the sampled frames otherwise, and returns ``VisualTokens`` around a
(B, N, D_model) Tensor.

Projector families:

- image: per-position two-layer MLP (linear -> GELU -> linear) over the
  sampled frames' patch grid, optionally pre-pooled spatially.
- stc: one strided/padded 3D convolution over (T, H, W), then a per-token
  linear map into the decoder width.
- com: per-frame compression over the full frame set; a few cross-attention
  context tokens whose queries are conditioned on the instruction summary,
  then spatially binned content tokens, with a learned separator token after
  every frame group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import Config, ConfigError
from .encoders import InstructionEncoding
from .layers import Linear, Module, linear_params
from .rng import Rng
from .tensor import (
    Tensor,
    TensorError,
    add,
    attention,
    broadcast_to,
    concat,
    conv3d,
    conv3d_out_dims,
    even_edges,
    grid_edges,
    linear,
    pool,
    reshape,
)


@dataclass
class VisualTokens:
    tokens: Tensor  # (B, N, D_model)

    @property
    def count(self) -> int:
        return self.tokens.shape[-2]


@dataclass
class TokenBudget:
    label: str
    kind: str
    count: int
    derivation: str


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _sampled_frames(cfg: Config) -> int:
    """``sampler.frames``, which cannot exceed the frames a video holds."""
    t, total = cfg["sampler.frames"], cfg["video.total_frames"]
    if t > total:
        raise ConfigError(f"sampler.frames {t} exceeds video.total_frames {total}")
    return t


def compute_token_budget(cfg: Config) -> list[TokenBudget]:
    """Closed-form token count per projector slot."""
    return [TokenBudget(label, kind, *PROJECTOR_CLASSES[kind].budget(cfg))
            for label, kind in zip(cfg.slot_labels(), cfg["projectors.kinds"])]


def validate_alignment(budgets: list[TokenBudget]) -> Optional[str]:
    """None if all counts are equal; otherwise a report naming the offenders."""
    counts = [b.count for b in budgets]
    if len(set(counts)) == 1:
        return None
    majority = max(set(counts), key=counts.count)
    odd = [b.label for b in budgets if b.count != majority]
    lines = [f"  {b.label} ({PROJECTOR_CLASSES[b.kind].tag}): {b.derivation}"
             for b in budgets]
    return "\n".join(lines + [f"  mismatch: {', '.join(odd)} disagree(s) with the "
                              f"{majority}-token majority"])


class ImageProjector(Module):
    """Frame-local MLP2x-GELU projector; no cross-frame mixing by design."""

    kind = "image"
    tag = "image-based"
    reads_clip = False

    @staticmethod
    def budget(cfg: Config) -> tuple[int, str]:
        t = _sampled_frames(cfg)
        pg = cfg.patch_grid()
        pre = cfg["img.prepool"]
        g = _ceil_div(pg, pre)
        count = t * g * g
        pool_note = f" (pre-pooled {pg}->{g})" if pre > 1 else ""
        return count, f"{t} frames x {g}x{g} grid{pool_note} = {count}"

    def __init__(self, cfg: Config, rng: Rng):
        d_in = cfg["encoder.dim"]
        hidden = cfg["img.hidden"]
        d_out = cfg["model.dim"]
        self.prepool = cfg["img.prepool"]
        self.w1, self.b1 = linear_params(rng, d_in, hidden)
        self.w2, self.b2 = linear_params(rng, hidden, d_out)

    def __call__(self, x: Tensor) -> VisualTokens:
        if self.prepool > 1:
            h, w = x.shape[-3:-1]
            x = pool(x, grid_edges(h, self.prepool), grid_edges(w, self.prepool))
        b, t, h, w, d = x.shape
        x = reshape(x, (b, t * h * w, d))
        x = linear(linear(x, self.w1, self.b1, "gelu"), self.w2, self.b2)
        return VisualTokens(tokens=x)


class StcProjector(Module):
    """Spatial-temporal 3D-conv connector over the sampled frame grid."""

    kind = "stc"
    tag = "spatial-temporal"
    reads_clip = False

    @staticmethod
    def budget(cfg: Config) -> tuple[int, str]:
        k = cfg["stc.kernel"]
        stride = cfg["stc.stride"]
        pad = cfg["stc.pad"]
        pg = cfg.patch_grid()
        dims = (_sampled_frames(cfg), pg, pg)
        try:
            out = conv3d_out_dims(dims, k, stride, pad)
        except TensorError as exc:
            raise ConfigError(f"stc {exc}") from exc
        count = math.prod(out)
        path = " -> ".join("x".join(str(d) for d in c) for c in (dims, out))
        return count, f"conv k={k} stride={stride} pad={pad}: {path} = {count}"

    def __init__(self, cfg: Config, rng: Rng):
        d_in = cfg["encoder.dim"]
        ch = cfg["stc.channels"]
        d_out = cfg["model.dim"]
        k = cfg["stc.kernel"]
        self.stride = cfg["stc.stride"]
        self.pad = cfg["stc.pad"]
        fan_in = k * k * k * d_in
        # Its tensors are named conv0.k and conv0.b in checkpoints.
        self.conv0 = {
            "k": Tensor(rng.normal((k, k, k, d_in, ch), std=1.0 / math.sqrt(fan_in)),
                        requires_grad=True),
            "b": Tensor(np.zeros(ch), requires_grad=True),
        }
        self.out = Linear(rng, ch, d_out)

    def __call__(self, x: Tensor) -> VisualTokens:
        x = add(conv3d(x, self.conv0["k"], self.stride, self.pad), self.conv0["b"])
        b, t, h, w, c = x.shape
        return VisualTokens(tokens=self.out(reshape(x, (b, t * h * w, c))))


def _bin_layout(count: int) -> tuple[int, int]:
    bh = int(math.isqrt(count))
    while count % bh != 0:
        bh -= 1
    return bh, count // bh


class ComProjector(Module):
    """Per-frame token compression over the full (unsampled) frame set.

    Context tokens: learned query slots, shifted additively by a projection
    of the instruction summary, attend over the frame's patch features.
    Content tokens: the patch grid averaged into a fixed number of spatial
    bins and mapped linearly.  Each frame emits its context tokens, then its
    content tokens.  A learned separator closes every group of
    ``sep_period`` frames.
    """

    kind = "com"
    tag = "token-compress"
    reads_clip = True

    @staticmethod
    def budget(cfg: Config) -> tuple[int, str]:
        t = cfg["video.total_frames"]
        c = cfg["com.context"] + cfg["com.content"]
        m = cfg["com.sep_period"]
        (bh, bw), pg = _bin_layout(cfg["com.content"]), cfg.patch_grid()
        if max(bh, bw) > pg:
            raise ConfigError(f"com.content {cfg['com.content']} pools into {bh}x{bw} "
                              f"bins, more than the {pg}x{pg} patch grid holds")
        if m == 0:
            count = t * c
            return count, f"{t} frames x {c} tokens, no separators = {count}"
        if t % m != 0:
            raise ConfigError(f"com.sep_period {m} must divide video.total_frames {t}")
        groups = t // m
        per_group = m * c + 1
        count = groups * per_group
        return count, (f"{groups} groups x ({m} frames x {c} tokens + 1 sep) "
                       f"= {groups} x {per_group} = {count}")

    def __init__(self, cfg: Config, rng: Rng):
        d_in = cfg["encoder.dim"]
        d_text = cfg["text.dim"]
        d_out = cfg["model.dim"]
        self.n_context = cfg["com.context"]
        self.n_content = cfg["com.content"]
        self.sep_period = cfg["com.sep_period"]
        self.query = Tensor(rng.normal((self.n_context, d_in), std=0.1), requires_grad=True)
        self.cls_proj = Linear(rng, d_text, d_in)
        self.ctx_out = Linear(rng, d_in, d_out)
        self.bins = _bin_layout(self.n_content)
        self.cnt_out = Linear(rng, d_in, d_out)
        self.sep = (Tensor(rng.normal((d_out,), std=0.1), requires_grad=True)
                    if self.sep_period > 0 else None)

    def __call__(self, x: Tensor, instr: InstructionEncoding) -> VisualTokens:
        b, t, h, w, d = x.shape
        flat = reshape(x, (b, t, h * w, d))
        q = add(reshape(self.cls_proj(instr.cls), (b, 1, 1, d)),
                self.query)  # (B, 1, n_ctx, D)
        q = broadcast_to(q, (b, t, self.n_context, d))  # the same query per frame
        ctx = attention(q, flat, flat)  # (B, T, n_ctx, D)
        pooled = pool(x, even_edges(h, self.bins[0]), even_edges(w, self.bins[1]))
        pooled = reshape(pooled, (b, t, self.n_content, d))
        per_frame = concat([self.ctx_out(ctx), self.cnt_out(pooled)], axis=2)
        c, d_out = per_frame.shape[2:]
        if self.sep is None:
            return VisualTokens(tokens=reshape(per_frame, (b, t * c, d_out)))
        # Groups of sep_period frames, each closed by the separator.
        g, n = t // self.sep_period, self.sep_period * c
        grouped = reshape(per_frame, (b, g, n, d_out))
        seps = broadcast_to(reshape(self.sep, (1, 1, 1, d_out)), (b, g, 1, d_out))
        tokens = reshape(concat([grouped, seps], axis=2), (b, g * (n + 1), d_out))
        return VisualTokens(tokens=tokens)


PROJECTOR_CLASSES = {cls.kind: cls for cls in (ImageProjector, StcProjector, ComProjector)}
