"""Evaluation and the ablation harnesses (fusion strategy, projector subset,
stacked projectors).

Every harness trains complete two-stage models from scratch; runs that share
a seed consume identical data streams, so cross-arm comparisons differ only
in the component under ablation.  Reports come back both as structured
objects and as deterministic CSV/plain-text renderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import Config
from .model import FusionModel
from .rng import Rng
from .router import FusionStrategy
from .tasks import FAMILIES, batch_stream, eval_batches
from .training import TrainConfig, train


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
             n: Optional[int] = None, strategy_kind: Optional[str] = None,
             eval_seed: int = 0) -> EvalReport:
    """Accuracy and mean gates per family on the deterministic eval split.

    Inference runs tape-free.  Random fusion strategies draw from a fresh
    seeded stream so repeated evaluations are reproducible.
    """
    cfg = model.cfg
    n = cfg["eval.samples"] if n is None else n
    kind = strategy_kind or cfg["train.strategy"]
    rng = (Rng(eval_seed, f"fusion/{kind}/eval")
           if kind in ("random-weights", "random-choose") else None)
    strategy = FusionStrategy(kind=kind, rng=rng)

    accuracy: dict[str, float] = {}
    mean_gates: dict[str, np.ndarray] = {}
    n_slots = len(cfg["projectors.kinds"])
    for family in families:
        correct = 0
        total = 0
        gate_sum = np.zeros(n_slots)
        gate_rows = 0
        for batch in eval_batches(cfg, family, n):
            logits, gates = model.forward(batch, strategy)
            pred = logits.data.argmax(axis=1)
            correct += int((pred == batch.labels).sum())
            total += batch.size
            if gates is not None:
                gate_sum += gates.p.data.sum(axis=0)
                gate_rows += batch.size
        accuracy[family] = correct / total
        mean_gates[family] = (gate_sum / gate_rows if gate_rows
                              else np.full(n_slots, 1.0 / n_slots))
    return EvalReport(accuracy=accuracy, mean_gates=mean_gates,
                      n_per_family=n, strategy=kind, gate_columns=gate_columns(cfg))


def run_two_stage(cfg: Config, seed: int,
                  pretrain_steps: Optional[int] = None,
                  tune_steps: Optional[int] = None) -> FusionModel:
    """Pretrain then tune one model; stage 2 continues the stage-1 weights."""
    cfg = cfg.replace(train__seed=seed)
    model = FusionModel(cfg, seed)
    strategy = cfg["train.strategy"]
    batch = cfg["train.batch"]
    lr = cfg["train.lr"]
    b1, b2 = cfg["train.beta1"], cfg["train.beta2"]
    p_steps = pretrain_steps or cfg["train.pretrain_steps"]
    t_steps = tune_steps or cfg["train.tune_steps"]
    train(model, batch_stream(cfg, "pretrain", seed),
          TrainConfig(stage="pretrain", steps=p_steps, batch_size=batch, lr=lr,
                      beta1=b1, beta2=b2, seed=seed, strategy=strategy))
    train(model, batch_stream(cfg, "tune", seed),
          TrainConfig(stage="tune", steps=t_steps, batch_size=batch, lr=lr,
                      beta1=b1, beta2=b2, seed=seed, strategy=strategy))
    return model


@dataclass
class AblationRow:
    name: str
    per_family: dict[str, tuple[float, float]]  # family -> (mean, sd)
    combined: tuple[float, float]


@dataclass
class AblationTable:
    mode: str
    rows: list[AblationRow]
    seeds: list[int]
    families: tuple[str, ...] = FAMILIES

    def to_csv(self) -> str:
        header = ["mode", "name"]
        for fam in self.families:
            header += [f"{fam}_mean", f"{fam}_sd"]
        header += ["combined_mean", "combined_sd"]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [self.mode, row.name]
            for fam in self.families:
                m, s = row.per_family[fam]
                cells += [f"{m:.6f}", f"{s:.6f}"]
            cells += [f"{row.combined[0]:.6f}", f"{row.combined[1]:.6f}"]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        names = ["arm"] + [f[:7] for f in self.families] + ["combined"]
        widths = [max(len(names[0]), max(len(r.name) for r in self.rows))]
        widths += [12] * (len(self.families) + 1)
        out = ["  ".join(n.ljust(w) for n, w in zip(names, widths))]
        for row in self.rows:
            cells = [row.name.ljust(widths[0])]
            for fam in self.families:
                m, s = row.per_family[fam]
                cells.append(f"{m:.3f}±{s:.3f}".ljust(12))
            m, s = row.combined
            cells.append(f"{m:.3f}±{s:.3f}".ljust(12))
            out.append("  ".join(cells))
        return "\n".join(out) + "\n"

    def row(self, name: str) -> AblationRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


def _aggregate(name: str, reports: list[EvalReport]) -> AblationRow:
    per_family = {}
    for fam in FAMILIES:
        vals = [r.accuracy[fam] for r in reports]
        per_family[fam] = (float(np.mean(vals)), float(np.std(vals)))
    combined = [r.combined for r in reports]
    return AblationRow(name=name, per_family=per_family,
                       combined=(float(np.mean(combined)), float(np.std(combined))))


def run_strategy_ablation(cfg: Config, strategies: Sequence[str],
                          seeds: Sequence[int],
                          pretrain_steps: Optional[int] = None,
                          tune_steps: Optional[int] = None,
                          n_eval: Optional[int] = None) -> AblationTable:
    """One trained model per (strategy, seed); identical data per seed."""
    if len(seeds) < 1:
        raise ValueError("at least one seed required")
    rows = []
    for strat in strategies:
        reports = []
        for seed in seeds:
            run_cfg = cfg.replace(train__strategy=strat)
            model = run_two_stage(run_cfg, seed, pretrain_steps, tune_steps)
            reports.append(evaluate(model, n=n_eval))
        rows.append(_aggregate(strat, reports))
    return AblationTable(mode="strategy", rows=rows, seeds=list(seeds))


SUBSETS = (("image",), ("stc",), ("com",), ("image", "stc", "com"))


def subset_name(subset: Sequence[str]) -> str:
    return "+".join(subset)


def run_subset_ablation(cfg: Config, subsets: Sequence[Sequence[str]] = SUBSETS,
                        seeds: Sequence[int] = (1,),
                        pretrain_steps: Optional[int] = None,
                        tune_steps: Optional[int] = None,
                        n_eval: Optional[int] = None) -> AblationTable:
    """Restrict the gate to a projector subset (excluded slots get weight 0),
    then train and evaluate each restriction."""
    rows = []
    for subset in subsets:
        if not subset:
            raise ValueError("projector subsets must be non-empty")
        reports = []
        for seed in seeds:
            run_cfg = cfg.replace(projectors__active=tuple(subset))
            model = run_two_stage(run_cfg, seed, pretrain_steps, tune_steps)
            reports.append(evaluate(model, n=n_eval))
        rows.append(_aggregate(subset_name(subset), reports))
    return AblationTable(mode="subset", rows=rows, seeds=list(seeds))


def stacked_config(cfg: Config, kind: str, copies: int = 3) -> Config:
    """Config for `copies` independently initialized projectors of one kind.

    With one copy this degenerates to the singleton-subset run of the
    heterogeneous model.
    """
    if copies == 3:
        kinds = (kind, kind, kind)
        return cfg.replace(projectors__kinds=kinds,
                           projectors__active=(f"{kind}0", f"{kind}1", f"{kind}2"))
    if copies == 1:
        return cfg.replace(projectors__active=(kind,))
    raise ValueError("stacked ablation supports 1 or 3 copies")


def run_stacked_ablation(cfg: Config, kinds: Sequence[str] = ("image", "stc", "com"),
                         seeds: Sequence[int] = (1,), copies: int = 3,
                         pretrain_steps: Optional[int] = None,
                         tune_steps: Optional[int] = None,
                         n_eval: Optional[int] = None,
                         include_fusion_row: bool = True) -> AblationTable:
    """Replace the heterogeneous trio with stacked same-kind copies; the
    router is unchanged."""
    rows = []
    for kind in kinds:
        reports = []
        for seed in seeds:
            model = run_two_stage(stacked_config(cfg, kind, copies), seed,
                                  pretrain_steps, tune_steps)
            reports.append(evaluate(model, n=n_eval))
        rows.append(_aggregate(f"stacked-{kind}", reports))
    if include_fusion_row:
        reports = [evaluate(run_two_stage(cfg, seed, pretrain_steps, tune_steps),
                            n=n_eval) for seed in seeds]
        rows.append(_aggregate("fusion", reports))
    return AblationTable(mode="stacked", rows=rows, seeds=list(seeds))
