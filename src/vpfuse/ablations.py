"""Evaluation and the ablation harness.

An ablation is a list of arms, each a name and a complete config; one arm
list per mode (fusion strategy, projector subset, stacked projectors), and
one loop, ``run_arms``, that trains a two-stage model per (arm, seed) from
scratch and evaluates it, reading every setting (step counts and eval size
too) from the arm's config.  Runs that share a seed consume identical data
streams, so cross-arm comparisons differ only in the component under
ablation.  Each table row keeps its arm's report per seed; the deterministic
CSV and plain-text renderings compute each mean and sd from those reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import PROJECTOR_KINDS, STRATEGIES, Config, slot_labels
from .model import Batch, FusionModel
from .router import make_strategy
from .tasks import FAMILIES, TUNE_INDEX_BASE, TaskError, batch_stream, eval_batches
from .training import STAGES, TrainConfig, train


def gate_columns(cfg: Config) -> tuple[str, ...]:
    """One gate column per projector slot, named after ``cfg.slot_labels()``:
    ``p_img,p_stc,p_com`` by default, ``p_stc0,p_stc1,p_stc2`` when stacked."""
    return tuple("p_" + label.replace("image", "img") for label in cfg.slot_labels())


@dataclass
class EvalReport:
    accuracy: dict[str, float]
    mean_gates: dict[str, np.ndarray]
    n_per_family: int
    strategy: str
    gate_columns: tuple[str, ...]

    @property
    def combined(self) -> float:
        return float(np.mean([self.accuracy[f] for f in self.accuracy]))

    def gate_csv(self) -> str:
        lines = ["family," + ",".join(self.gate_columns)]
        for fam in self.mean_gates:
            gates = ",".join(f"{v:.6f}" for v in self.mean_gates[fam])
            lines.append(f"{fam},{gates}")
        return "\n".join(lines) + "\n"

    def accuracy_csv(self) -> str:
        lines = ["family,accuracy"]
        for fam, acc in self.accuracy.items():
            lines.append(f"{fam},{acc:.6f}")
        lines.append(f"combined,{self.combined:.6f}")
        return "\n".join(lines) + "\n"


def evaluate(model: FusionModel, families: Sequence[str] = FAMILIES,
             n: Optional[int] = None) -> EvalReport:
    """Accuracy and mean gates per family on the deterministic eval split.

    ``n``, unless None, replaces ``eval.samples`` of the model's config, which
    a checkpoint fixes: ``vpfuse eval --n`` and the benchmark pass it.
    Inference runs tape-free.  Each family's random fusion draws come from a
    fresh stream (seed 0, stage "eval"), so a family's row does not depend on
    which families were evaluated before it.
    """
    cfg = model.cfg
    n = cfg["eval.samples"] if n is None else n
    kind = cfg["train.strategy"]

    accuracy: dict[str, float] = {}
    mean_gates: dict[str, np.ndarray] = {}
    for family in families:
        strategy = make_strategy(kind, 0, "eval")
        correct = 0
        total = 0
        gate_sum = np.zeros(len(model.labels))
        for batch in eval_batches(cfg, family, n):
            logits, gates = model.forward(batch, strategy)
            pred = logits.data.argmax(axis=1)
            correct += int((pred == batch.labels).sum())
            total += batch.size
            gate_sum += gates.p.data.sum(axis=0)
        accuracy[family] = correct / total
        mean_gates[family] = gate_sum / total
    return EvalReport(accuracy=accuracy, mean_gates=mean_gates,
                      n_per_family=n, strategy=kind, gate_columns=gate_columns(cfg))


def stage_steps(cfg: Config, stage: str, steps: Optional[int]) -> int:
    """``steps``, or the stage's configured count if None, once checked to
    keep the stage's batches inside its index range: each stage draws from
    ``TUNE_INDEX_BASE`` sample indices of its own, below the next stage's
    and the eval split's."""
    steps = steps or cfg[f"train.{stage}_steps"]
    drawn = steps * cfg["train.batch"]
    if drawn > TUNE_INDEX_BASE:
        raise TaskError(f"{stage}: {steps} steps of train.batch {cfg['train.batch']} "
                        f"draw {drawn} samples, more than the stage's {TUNE_INDEX_BASE}")
    return steps


def stage_recipe(model: FusionModel, stage: str,
                 steps: Optional[int]) -> tuple[Iterator[Batch], TrainConfig]:
    """The batch stream and ``TrainConfig`` that ``train`` runs one stage of
    ``model`` with, read from ``model.cfg``; ``steps``, unless None, replaces
    the stage's configured step count (``vpfuse train --steps``) outside the
    config, which a checkpoint records and ``--init`` must match.  The
    stream's task specs are built here, so a config the tasks cannot draw
    fails before any training."""
    cfg = model.cfg
    seed = cfg["train.seed"]
    tc = TrainConfig(stage=stage, steps=stage_steps(cfg, stage, steps),
                     batch_size=cfg["train.batch"], lr=cfg["train.lr"],
                     beta1=cfg["train.beta1"], beta2=cfg["train.beta2"],
                     seed=seed, strategy=cfg["train.strategy"])
    return batch_stream(cfg, stage, seed), tc


def run_two_stage(cfg: Config, seed: int) -> FusionModel:
    """Pretrain then tune one model; stage 2 continues the stage-1 weights."""
    model = FusionModel(cfg.replace(train__seed=seed), seed)
    for stage in STAGES:
        train(model, *stage_recipe(model, stage, None))
    return model


@dataclass
class AblationRow:
    name: str
    reports: list[EvalReport]  # one per seed, in seed order

    def stats(self, column: str) -> tuple[float, float]:
        """Mean and population sd over seeds of a family's or the combined accuracy."""
        vals = [r.combined if column == "combined" else r.accuracy[column]
                for r in self.reports]
        return float(np.mean(vals)), float(np.std(vals))


@dataclass
class AblationTable:
    mode: str
    rows: list[AblationRow]

    def columns(self) -> list[str]:
        """The reports' families, then "combined"."""
        return list(self.rows[0].reports[0].accuracy) + ["combined"]

    def to_csv(self) -> str:
        columns = self.columns()
        header = ["mode", "name"] + [f"{c}_{s}" for c in columns for s in ("mean", "sd")]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [self.mode, row.name] + [f"{v:.6f}" for c in columns for v in row.stats(c)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        columns = self.columns()
        names = ["arm"] + columns
        widths = [max(len(names[0]), max(len(r.name) for r in self.rows))]
        widths += [12] * len(columns)
        out = ["  ".join(n.ljust(w) for n, w in zip(names, widths))]
        for row in self.rows:
            cells = [row.name.ljust(widths[0])]
            cells += [f"{m:.3f}±{s:.3f}".ljust(12) for m, s in map(row.stats, columns)]
            out.append("  ".join(cells))
        return "\n".join(out) + "\n"


def strategy_arms(cfg: Config) -> list[tuple[str, Config]]:
    """One arm per fusion strategy."""
    return [(kind, cfg.replace(train__strategy=kind)) for kind in STRATEGIES]


def subset_arms(cfg: Config) -> list[tuple[str, Config]]:
    """Each of ``cfg.slot_labels()`` alone, then all of them: excluded slots
    get gate weight 0."""
    labels = cfg.slot_labels()
    return [("+".join(subset), cfg.replace(projectors__active=subset))
            for subset in [(label,) for label in labels] + [labels]]


def stacked_config(cfg: Config, kind: str) -> Config:
    """Config for independently initialized projectors of one kind, one per
    slot of ``cfg``, all active."""
    kinds = (kind,) * len(cfg["projectors.kinds"])
    return cfg.replace(projectors__kinds=kinds, projectors__active=slot_labels(kinds))


def stacked_arms(cfg: Config) -> list[tuple[str, Config]]:
    """Stacked same-kind trios in place of the heterogeneous one (the router
    is unchanged), then the heterogeneous fusion model itself."""
    return ([(f"stacked-{kind}", stacked_config(cfg, kind)) for kind in PROJECTOR_KINDS]
            + [("fusion", cfg)])


ARMS = {"strategy": strategy_arms, "subset": subset_arms, "stacked": stacked_arms}


def run_arms(mode: str, arms: Sequence[tuple[str, Config]],
             seeds: Sequence[int]) -> AblationTable:
    """One trained and evaluated model per (arm, seed); one row per arm.
    Every arm's stages are checked before the first one runs."""
    if len(seeds) < 1:
        raise ValueError("at least one seed required")
    for _, cfg in arms:
        for stage in STAGES:
            stage_steps(cfg, stage, None)
    rows = [AblationRow(name, [evaluate(run_two_stage(cfg, seed)) for seed in seeds])
            for name, cfg in arms]
    return AblationTable(mode=mode, rows=rows)
