"""Command-line entry point.

Subcommands: `tokens` (budget table), `train` (one stage, checkpoint + loss
CSV + manifest), `eval` (report files), `route` (gates for an instruction),
`ablate` (strategy/subset/stacked tables).

Exit codes are a stable scripting contract: 0 success, 1 runtime failure,
2 validation failure (bad config, misaligned budgets, malformed arguments).
Every run directory is created exclusively and contains a manifest written
at run start from which the run is reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .ablations import (
    SUBSETS,
    evaluate,
    gate_columns,
    run_stacked_ablation,
    run_strategy_ablation,
    run_subset_ablation,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import STRATEGIES, Config, ConfigError, parse_config
from .encoders import EncodingError
from .model import FusionModel
from .projectors import compute_token_budget, validate_alignment
from .router import FusionError, gate
from .tasks import FAMILIES, TaskError, batch_stream
from .tensor import NonFiniteError
from .training import TrainConfig, TrainingError, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2

_VALIDATION_ERRORS = (ConfigError, CheckpointError, EncodingError, TaskError,
                      FusionError, ValueError)


def _load_config(path: str | None, validate_budgets: bool = True) -> Config:
    text = Path(path).read_text(encoding="utf-8") if path else ""
    return parse_config(text, validate_budgets=validate_budgets)


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _make_run_dir(path: str) -> Path:
    run_dir = Path(path)
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(exist_ok=False)  # collisions are an error by contract
    return run_dir


def _write_manifest(run_dir: Path, cfg: Config, seed: int, command: str,
                    start_step: int, end_step: int, artifacts: list[str]) -> None:
    manifest = {
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "start_step": start_step,
        "end_step": end_step,
        "artifacts": artifacts,
        "config": cfg.serialize(),
    }
    _write_atomic(run_dir / "manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _loss_csv(curve) -> str:
    lines = ["step,loss"]
    lines += [f"{step},{value:.17g}" for step, value in curve]
    return "\n".join(lines) + "\n"


def cmd_tokens(args) -> int:
    cfg = _load_config(args.config, validate_budgets=False)
    try:
        budgets = compute_token_budget(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = validate_alignment(budgets)
    width = max(len(b.label) for b in budgets)
    for b in budgets:
        print(f"{b.label.ljust(width)}  {str(b.count).rjust(6)}  {b.derivation}")
    print(f"verdict: {'OK' if report.ok else 'MISMATCH'}")
    if not report.ok:
        print(report.message)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = cfg.replace(train__seed=args.seed)
    seed = cfg["train.seed"]
    steps = (cfg["train.pretrain_steps"] if args.stage == "pretrain"
             else cfg["train.tune_steps"])
    if args.steps is not None:
        steps = args.steps

    if args.init:
        model, ckpt_cfg, ckpt_stage = load_checkpoint(args.init)
        if ckpt_cfg.serialize() != cfg.serialize():
            print("error: --init checkpoint config does not match --config",
                  file=sys.stderr)
            return EXIT_VALIDATION
        model._checkpoint_blob = None  # new stage, fresh blob on save
    else:
        if args.stage == "tune":
            print("note: tuning from random init (no --init pretrain checkpoint)",
                  file=sys.stderr)
        model = FusionModel(cfg, seed)

    run_dir = _make_run_dir(args.out)
    artifacts = ["model.octo", "loss.csv"]
    _write_manifest(run_dir, cfg, seed, f"train --stage {args.stage}",
                    0, steps, artifacts)

    tc = TrainConfig(stage=args.stage, steps=steps, batch_size=cfg["train.batch"],
                     lr=cfg["train.lr"], beta1=cfg["train.beta1"],
                     beta2=cfg["train.beta2"], seed=seed,
                     strategy=cfg["train.strategy"])
    result = train(model, batch_stream(cfg, args.stage, seed), tc)

    save_checkpoint(model, run_dir / "model.octo", stage=args.stage)
    _write_atomic(run_dir / "loss.csv", _loss_csv(result.loss_curve))
    print(f"{args.stage}: {steps} steps, final loss {result.final_loss:.6f}")
    print(f"artifacts in {run_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, cfg, _ = load_checkpoint(args.ckpt)
    families = tuple(args.families.split(",")) if args.families else FAMILIES
    bad = [f for f in families if f not in FAMILIES]
    if bad:
        print(f"error: unknown families {bad}", file=sys.stderr)
        return EXIT_VALIDATION
    report = evaluate(model, families=families, n=args.n)

    run_dir = _make_run_dir(args.out)
    _write_manifest(run_dir, cfg, cfg["train.seed"], "eval", 0, 0,
                    ["accuracy.csv", "gates.csv", "report.txt"])
    _write_atomic(run_dir / "accuracy.csv", report.accuracy_csv())
    _write_atomic(run_dir / "gates.csv", report.gate_csv())

    width = max(len(f) for f in families)
    names = [col.removeprefix("p_") for col in report.gate_columns]
    lines = [f"strategy: {report.strategy}   n per family: {report.n_per_family}"]
    for fam in families:
        gates = "  ".join(f"{name} {v:.3f}"
                          for name, v in zip(names, report.mean_gates[fam]))
        lines.append(f"{fam.ljust(width)}  acc {report.accuracy[fam]:.3f}   "
                     f"gates {gates}")
    lines.append(f"combined accuracy: {report.combined:.3f}")
    text = "\n".join(lines) + "\n"
    _write_atomic(run_dir / "report.txt", text)
    print(text, end="")
    return EXIT_OK


def cmd_route(args) -> int:
    model, cfg, _ = load_checkpoint(args.ckpt)
    try:
        ids = np.array([int(tok) for tok in args.instruction.split()], dtype=np.int64)
    except ValueError:
        print(f"error: instruction must be whitespace-separated token ids, "
              f"got {args.instruction!r}", file=sys.stderr)
        return EXIT_VALIDATION
    if ids.size == 0:
        print("error: empty instruction", file=sys.stderr)
        return EXIT_VALIDATION
    instr = model.instruction_encoder.encode(ids[None, :])
    gates = gate(model.router.route(instr), model.active)
    print(" ".join(f"{col}={v:.6f}"
                   for col, v in zip(gate_columns(cfg), gates.p.data[0])))
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config)
    seeds = [int(s) for s in args.seeds.split(",")]
    if not seeds:
        print("error: at least one seed required", file=sys.stderr)
        return EXIT_VALIDATION
    kw = dict(seeds=seeds, pretrain_steps=args.pretrain_steps,
              tune_steps=args.tune_steps, n_eval=args.n)
    if args.mode == "strategy":
        table = run_strategy_ablation(cfg, STRATEGIES, **kw)
    elif args.mode == "subset":
        table = run_subset_ablation(cfg, SUBSETS, **kw)
    else:
        table = run_stacked_ablation(cfg, **kw)

    run_dir = _make_run_dir(args.out)
    _write_manifest(run_dir, cfg, seeds[0], f"ablate --mode {args.mode}", 0, 0,
                    ["ablation.csv", "ablation.txt"])
    _write_atomic(run_dir / "ablation.csv", table.to_csv())
    _write_atomic(run_dir / "ablation.txt", table.to_text())
    print(table.to_text(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vpfuse",
                                     description="Instruction-routed projector fusion")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokens", help="print the per-projector token budget table")
    p.add_argument("--config", help="config file (defaults apply if omitted)")
    p.set_defaults(fn=cmd_tokens)

    p = sub.add_parser("train", help="train one stage and write a checkpoint")
    p.add_argument("--stage", choices=("pretrain", "tune"), required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int, help="override the configured step count")
    p.add_argument("--out", required=True, help="run directory (must not exist)")
    p.add_argument("--init", help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the synthetic families")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--families", help="comma list (default: all)")
    p.add_argument("--n", type=int, help="samples per family")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("route", help="print gate weights for an instruction")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--instruction", required=True,
                   help="whitespace-separated token ids, e.g. '12 13 14 15'")
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("ablate", help="run an ablation table")
    p.add_argument("--config")
    p.add_argument("--mode", choices=("strategy", "subset", "stacked"), required=True)
    p.add_argument("--seeds", default="1,2", help="comma list of seeds")
    p.add_argument("--pretrain-steps", type=int)
    p.add_argument("--tune-steps", type=int)
    p.add_argument("--n", type=int, help="eval samples per family")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TrainingError, NonFiniteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
