"""Instruction-driven routing and fusion of projector outputs.

The router maps the instruction summary through two MLP stages to a
(B, n_slots) logit Tensor, one logit per projector slot; a softmax turns
logits into gate values on the simplex; the fused embedding is the
gate-weighted elementwise sum of the projector token streams.  The
alternative fusion strategies used by the ablation harness (uniform
average, token concatenation, random simplex weights, random one-hot choice)
live here too.

There is one gating path.  ``gate`` softmaxes the active slots' logits only,
so its gates have one column per active slot, like every other strategy's,
and ``fuse`` weights the active streams with them.  Every strategy reports
gates: concat concatenates the active streams and reports the average's
uniform weights, which is how much each stream counts.  ``scatter_gates`` is
the one place that aligns gates to all slots (exact zeros on inactive slots)
for reporting: ``fuse_with_strategy`` uses it for every strategy, and so does
the ``route`` command.  Image inputs bypass the router: ``FusionModel``
projects them with the image-based projector alone, and its ``decide``
reports a one-hot gate.

The second router stage is zero-initialized, so an untrained router emits
exactly zero logits and uniform gates: the router strategy and the average
strategy coincide until tuning moves the gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import Config
from .encoders import InstructionEncoding
from .layers import Linear, Module
from .projectors import VisualTokens
from .rng import Rng
from .tensor import Tensor, add, concat, linear, mul, reshape, slice_axis, softmax


class FusionError(ValueError):
    """Mismatched embeddings or an unknown fusion strategy."""


@dataclass
class GateWeights:
    p: Tensor  # (B, n_slots); rows on the probability simplex


@dataclass
class FusionStrategy:
    kind: str  # router | average | concat | random-weights | random-choose
    rng: Rng  # drawn from by the random kinds only


def make_strategy(kind: str, seed: int, stage: str) -> FusionStrategy:
    """The strategy ``kind`` with the rng stream of ``seed`` and ``stage``."""
    return FusionStrategy(kind=kind, rng=Rng(seed, f"fusion/{kind}/{stage}"))


class Router(Module):
    """cls -> (linear, GELU) -> linear -> one logit per projector slot."""

    def __init__(self, cfg: Config, rng: Rng, n_slots: int):
        d_text = cfg["text.dim"]
        hidden = cfg["router.hidden"]
        self.n_slots = n_slots
        self.mlp1 = Linear(rng, d_text, hidden)
        # Zero second stage: gates start exactly uniform and symmetric.
        self.mlp2 = {"w": Tensor(np.zeros((hidden, n_slots)), requires_grad=True),
                     "b": Tensor(np.zeros(n_slots), requires_grad=True)}

    def route(self, instr: InstructionEncoding) -> Tensor:
        """(B, n_slots) logits."""
        h = linear(instr.cls, self.mlp1.w, self.mlp1.b, "gelu")
        return linear(h, self.mlp2["w"], self.mlp2["b"])


def gate(values: Tensor, active: Sequence[int]) -> GateWeights:
    """Softmax over the ``active`` columns of (B, n_slots) logits, in slot order.

    Restricting to a subset is the -inf-logit limit: excluded slots would get
    exactly 0, and ``scatter_gates`` puts those zeros back for reporting.
    """
    if len(active) < values.shape[-1]:
        values = concat([slice_axis(values, values.ndim - 1, i, i + 1) for i in active],
                        axis=-1)
    return GateWeights(p=softmax(values))


def _exact_one_hot_rows(p: np.ndarray) -> Optional[np.ndarray]:
    """Selected index per row if every row is exactly one-hot, else None."""
    ones = p == 1.0
    zeros = p == 0.0
    if np.all(ones.sum(axis=-1) == 1) and np.all(ones | zeros):
        return ones.argmax(axis=-1)
    return None


def fuse(p: GateWeights, embeddings: Sequence[VisualTokens]) -> VisualTokens:
    """Convex combination of aligned token streams: sum_i p_i * E_i.

    Exact one-hot gates select the stream itself, bitwise (at a one-hot point
    the gate gradient through a softmax is identically zero, so the shortcut
    is gradient-equivalent; a weighted sum would turn a -0.0 token into +0.0).
    """
    shapes = {e.tokens.shape for e in embeddings}
    if len(shapes) != 1:
        raise FusionError(f"cannot fuse mismatched token shapes {sorted(shapes)}")
    pv = p.p
    if pv.shape[-1] != len(embeddings):
        raise FusionError(f"{pv.shape[-1]} gate values for {len(embeddings)} embeddings")

    selected = _exact_one_hot_rows(pv.data)
    if selected is not None:
        if np.all(selected == selected[0]):
            out = embeddings[int(selected[0])].tokens
        else:
            rows = [slice_axis(embeddings[int(s)].tokens, 0, b, b + 1)
                    for b, s in enumerate(selected)]
            out = concat(rows, axis=0)
        return VisualTokens(tokens=out)

    terms = [mul(emb.tokens, reshape(slice_axis(pv, 1, i, i + 1), (pv.shape[0], 1, 1)))
             for i, emb in enumerate(embeddings)]
    return VisualTokens(tokens=add(*terms))


def scatter_gates(compact: np.ndarray, active: Sequence[int],
                  n_slots: int) -> GateWeights:
    """Slot-aligned copy of per-active-slot gates; inactive slots get 0."""
    full = np.zeros((compact.shape[0], n_slots))
    full[:, list(active)] = compact
    return GateWeights(p=Tensor(full))


def fuse_with_strategy(strategy: FusionStrategy, instr: InstructionEncoding,
                       embeddings: Sequence[VisualTokens], router: Router,
                       active: Sequence[int]) -> tuple[VisualTokens, GateWeights]:
    """Fuse per the configured strategy; returns (tokens, gates).

    ``embeddings`` are the streams of the ``active`` slots, in slot order.
    Reported gates are slot-aligned (exact zeros on inactive slots); concat
    reports the average's uniform gates, one weight per concatenated stream.
    """
    kind = strategy.kind
    batch = embeddings[0].tokens.shape[0]
    n = len(embeddings)
    if kind == "router":
        compact = gate(router.route(instr), active)
    elif kind in ("average", "concat"):
        compact = GateWeights(p=Tensor(np.full((batch, n), 1.0 / n)))
    elif kind == "random-weights":
        rows = np.stack([_random_simplex(strategy.rng, n) for _ in range(batch)])
        compact = GateWeights(p=Tensor(rows))
    elif kind == "random-choose":
        rows = np.zeros((batch, n))
        for b in range(batch):
            rows[b, strategy.rng.integers(n)] = 1.0
        compact = GateWeights(p=Tensor(rows))
    else:
        raise FusionError(f"unknown fusion strategy {kind!r}")
    fused = (VisualTokens(tokens=concat([e.tokens for e in embeddings], axis=1))
             if kind == "concat" else fuse(compact, embeddings))
    return fused, scatter_gates(compact.p.data, active, router.n_slots)


def _random_simplex(rng: Rng, n: int) -> np.ndarray:
    """n iid uniforms normalized onto the probability simplex."""
    u = rng.uniform((n,))
    while u.sum() == 0.0:
        u = rng.uniform((n,))
    return u / u.sum()
