"""Two-stage training: freeze masks, Adam, and the loop.

Stage semantics: pretraining adjusts the three projectors only; tuning trains
projectors, router, decoder, and the instruction encoder.  The visual encoder
is built frozen, and no stage trains it.  Frozen parameters are never touched
by the optimizer, so they stay bitwise identical across any number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .model import Batch, FusionModel
from .router import make_strategy
from .tensor import NonFiniteError, Tape, Tensor

STAGES = ("pretrain", "tune")

_TRAINABLE_PREFIXES = {
    "pretrain": ("projectors.",),
    "tune": ("projectors.", "router.", "decoder.", "instruction_encoder."),
}


@dataclass(frozen=True)
class FreezeMask:
    trainable_prefixes: tuple[str, ...]

    def trainable(self, name: str) -> bool:
        return any(name.startswith(p) for p in self.trainable_prefixes)


def freeze_mask_for(stage: str) -> FreezeMask:
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}, expected one of {STAGES}")
    return FreezeMask(trainable_prefixes=_TRAINABLE_PREFIXES[stage])


@dataclass
class TrainConfig:
    stage: str
    steps: int
    batch_size: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 1
    strategy: str = "router"

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.steps <= 0 or self.batch_size <= 0:
            raise ValueError("steps and batch size must be positive")


class Adam:
    """Adaptive-moment gradient descent with bias correction."""

    EPS = 1e-8

    def __init__(self, lr: float, beta1: float, beta2: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], mask: FreezeMask) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            if not mask.trainable(name) or p.grad is None:
                continue
            g = p.grad
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self._m[name] = m
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)


@dataclass
class TrainResult:
    loss_curve: list[tuple[int, float]] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.loss_curve[-1][1]


def train(model: FusionModel, batches: Iterable[Batch], cfg: TrainConfig) -> TrainResult:
    """Run one stage; returns the per-step loss curve.

    Frozen parameters (per the stage mask) are never updated.  Any op that
    produces a non-finite value aborts with a diagnostic naming it.
    """
    mask = freeze_mask_for(cfg.stage)
    opt = Adam(cfg.lr, cfg.beta1, cfg.beta2)
    strategy = make_strategy(cfg.strategy, cfg.seed, cfg.stage)
    params = model.named_parameters()
    # Frozen parameters drop out of the autograd graph entirely: no tape
    # entries, no gradients, and therefore no possible update.
    for name, p in params.items():
        p.requires_grad = mask.trainable(name)
    result = TrainResult()

    it: Iterator[Batch] = iter(batches)
    for step in range(cfg.steps):
        batch = next(it)
        model.zero_grad()
        try:
            with Tape() as tape:
                loss, _, _ = model.loss(batch, strategy)
                tape.backward(loss)
        except NonFiniteError as exc:
            raise NonFiniteError(f"non-finite value at step {step}: {exc}") from exc
        opt.step(params, mask)
        result.loss_curve.append((step, loss.item()))
    return result
